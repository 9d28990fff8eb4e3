//! Property tests on the shared MIR liveness and interval builder: on
//! random multi-block `VCode` (back edges, an unreachable block, calls,
//! parameters, both register classes, more than 64 vregs), block live-ins
//! and every interval agree with a naive reference for both program-point
//! numberings. The reference is the allocators' original algorithm: a
//! round-robin dense-bitset fixpoint, then a scan over every vreg per
//! block and per successor edge, and a linear search of the call points.

use proptest::prelude::*;
use qc_backend::intervals::{Intervals, Numbering};
use qc_backend::mir::{CallTarget, MInst, RegClass, VCode, VReg};
use qc_target::{AluOp, Cond, FaluOp, Width};

/// SplitMix64: the generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random function: 3-8 blocks, the last unreachable (it branches
/// into the others but nothing branches to it), nothing branching to the
/// entry block (the lowerings never do), some blocks empty.
fn random_vcode(seed: u64) -> VCode {
    let mut rng = Rng(seed);
    let nb = 3 + rng.below(6);
    let nv = 1 + rng.below(100);
    let classes: Vec<RegClass> = (0..nv)
        .map(|_| match rng.below(4) {
            0 => RegClass::Float,
            _ => RegClass::Int,
        })
        .collect();
    let of = |class: RegClass| -> Vec<VReg> {
        (0..nv as VReg)
            .filter(|&v| classes[v as usize] == class)
            .collect()
    };
    let (ints, floats) = (of(RegClass::Int), of(RegClass::Float));
    let params: Vec<VReg> = (0..rng.below(4)).map(|_| rng.below(nv) as VReg).collect();

    let mut blocks = Vec::with_capacity(nb);
    let mut succs = Vec::with_capacity(nb);
    for _ in 0..nb {
        let targets: Vec<usize> = (0..rng.below(3)).map(|_| 1 + rng.below(nb - 2)).collect();
        let mut insts = Vec::new();
        for _ in 0..rng.below(8) {
            let kind = rng.below(10);
            let inst = if kind < 8 && !ints.is_empty() {
                let mut int = || ints[rng.below(ints.len())];
                match kind {
                    0 => MInst::MovRI { d: int(), imm: 7 },
                    1 => MInst::MovRR { d: int(), s: int() },
                    2 | 3 => MInst::Alu {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: int(),
                        s1: int(),
                        s2: int(),
                    },
                    4 => MInst::Load {
                        w: Width::W64,
                        d: int(),
                        base: int(),
                        disp: 8,
                    },
                    5 => MInst::Store {
                        w: Width::W64,
                        s: int(),
                        base: int(),
                        disp: 0,
                    },
                    6 => MInst::CallRt {
                        target: CallTarget::Sym("rt".into()),
                        args: vec![int(), int()],
                        ret: vec![int()],
                    },
                    _ => MInst::ParMove {
                        moves: vec![(int(), int()), (int(), int())],
                    },
                }
            } else if !floats.is_empty() {
                let mut float = || floats[rng.below(floats.len())];
                match kind % 2 {
                    0 => MInst::Falu {
                        op: FaluOp::Add,
                        d: float(),
                        a: float(),
                        b: float(),
                    },
                    _ => MInst::FMovM {
                        d: float(),
                        s: float(),
                    },
                }
            } else {
                continue;
            };
            insts.push(inst);
        }
        // A terminator matching the successors, unless the block stays
        // empty.
        if !insts.is_empty() || rng.below(2) == 0 {
            match targets[..] {
                [] => insts.push(MInst::Ret {
                    vals: ints.first().copied().into_iter().collect(),
                }),
                [t] => insts.push(MInst::Jmp { target: t }),
                [t, f, ..] => insts.extend([
                    MInst::Jcc {
                        cond: Cond::Ne,
                        target: t,
                    },
                    MInst::Jmp { target: f },
                ]),
            }
        }
        blocks.push(insts);
        succs.push(targets);
    }
    VCode {
        name: "f".into(),
        blocks,
        succs,
        classes,
        params,
        fusions: (0, 0),
    }
}

/// Block live-ins by the round-robin fixpoint, as dense bitsets. With
/// `clear_params`, the parameters are removed from the entry block's
/// live-in in every round (what the Cranelift analog's allocator did).
fn naive_live_in(vcode: &VCode, clear_params: bool) -> Vec<Vec<u64>> {
    let nv = vcode.classes.len();
    let nb = vcode.blocks.len();
    let words = nv.div_ceil(64);
    let mut live_in = vec![vec![0u64; words]; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut live = vec![0u64; words];
            for &s in &vcode.succs[b] {
                for (w, &x) in live.iter_mut().zip(&live_in[s]) {
                    *w |= x;
                }
            }
            for inst in vcode.blocks[b].iter().rev() {
                inst.for_each_def(|v| live[v as usize / 64] &= !(1 << (v % 64)));
                inst.for_each_use(|v| live[v as usize / 64] |= 1 << (v % 64));
            }
            if b == 0 && clear_params {
                for &p in &vcode.params {
                    live[p as usize / 64] &= !(1 << (p % 64));
                }
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }
    live_in
}

/// The reference intervals: (start, end, crosses_block) per vreg and the
/// call points, scanning every vreg per block and per successor edge.
struct Naive {
    start: Vec<u32>,
    end: Vec<u32>,
    crosses_block: Vec<bool>,
    call_points: Vec<u32>,
}

fn naive_intervals(vcode: &VCode, live_in: &[Vec<u64>], numbering: Numbering) -> Naive {
    let nv = vcode.classes.len();
    let live = |b: usize, v: usize| live_in[b][v / 64] & (1 << (v % 64)) != 0;
    let mut n = Naive {
        start: vec![u32::MAX; nv],
        end: vec![0; nv],
        crosses_block: vec![false; nv],
        call_points: Vec::new(),
    };
    for &p in &vcode.params {
        n.start[p as usize] = 0;
        n.end[p as usize] = 1;
    }
    let mut bstart = 0u32;
    for (b, insts) in vcode.blocks.iter().enumerate() {
        let len = insts.len() as u32;
        let (first, bend) = match numbering {
            Numbering::Clift => (bstart + 1, bstart + 2 * len.max(1) + 2),
            Numbering::Lvm => (bstart + 2, bstart + 2 * len + 2),
        };
        for v in 0..nv {
            if live(b, v) {
                n.crosses_block[v] = true;
                n.start[v] = n.start[v].min(bstart);
                n.end[v] = n.end[v].max(bstart);
            }
        }
        for &s in &vcode.succs[b] {
            for v in 0..nv {
                if live(s, v) {
                    n.crosses_block[v] = true;
                    n.start[v] = n.start[v].min(bstart);
                    n.end[v] = n.end[v].max(bend);
                }
            }
        }
        for (i, inst) in insts.iter().enumerate() {
            let p = first + 2 * i as u32;
            inst.for_each_use(|v| {
                n.start[v as usize] = n.start[v as usize].min(p);
                n.end[v as usize] = n.end[v as usize].max(p);
            });
            inst.for_each_def(|v| {
                n.start[v as usize] = n.start[v as usize].min(p + 1);
                n.end[v as usize] = n.end[v as usize].max(p + 1);
            });
            if inst.is_call() {
                n.call_points.push(p);
            }
        }
        bstart = bend;
    }
    n
}

fn bits(set: &[u64]) -> Vec<VReg> {
    (0..set.len() * 64)
        .filter(|&v| set[v / 64] & (1 << (v % 64)) != 0)
        .map(|v| v as VReg)
        .collect()
}

fn check(vcode: &VCode) {
    let plain = naive_live_in(vcode, false);
    for numbering in [Numbering::Clift, Numbering::Lvm] {
        let iv = Intervals::build(vcode, numbering);
        for (b, set) in plain.iter().enumerate() {
            assert_eq!(iv.live_in(b), bits(set), "live-in of block {b}");
        }
        // The Cranelift analog cleared the parameters from the entry
        // block's live-in; with no edge into the entry that changes no
        // interval. Only the LLVM analog, which never cleared them, reads
        // `crosses_block`.
        let live_in = naive_live_in(vcode, numbering == Numbering::Clift);
        let n = naive_intervals(vcode, &live_in, numbering);
        assert_eq!(iv.start, n.start, "{numbering:?} start");
        assert_eq!(iv.end, n.end, "{numbering:?} end");
        let crosses_block = naive_intervals(vcode, &plain, numbering).crosses_block;
        assert_eq!(iv.crosses_block, crosses_block, "{numbering:?}");
        let last = n.end.iter().copied().max().unwrap_or(0) + 2;
        for s in 0..last {
            for e in s..last {
                let want = n.call_points.iter().any(|&c| c > s && c < e);
                assert_eq!(iv.crosses_call(s, e), want, "{numbering:?} ({s}, {e})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn intervals_match_the_naive_fixpoint_and_scan(seed in any::<u64>()) {
        check(&random_vcode(seed));
    }
}

/// The two numberings on one loop: `b0` defines v0 and v1, `b1` (the
/// loop) calls with v0, `b2` returns v1. Clift's instruction `i` sits at
/// `bstart + 1 + 2i` in a block of `2·len + 2` points, LVM's at
/// `bstart + 2 + 2i` in the same span. Both values are live out of `b0`,
/// so both start at its first point.
#[test]
fn both_numberings_place_a_loop_value_across_its_blocks() {
    let vc = VCode {
        name: "f".into(),
        blocks: vec![
            vec![
                MInst::MovRI { d: 0, imm: 1 },
                MInst::MovRI { d: 1, imm: 2 },
                MInst::Jmp { target: 1 },
            ],
            vec![
                MInst::CallRt {
                    target: CallTarget::Sym("rt".into()),
                    args: vec![0],
                    ret: vec![2],
                },
                MInst::Jcc {
                    cond: Cond::Ne,
                    target: 1,
                },
                MInst::Jmp { target: 2 },
            ],
            vec![MInst::Ret { vals: vec![1] }],
        ],
        succs: vec![vec![1], vec![1, 2], vec![]],
        classes: vec![RegClass::Int; 3],
        params: vec![],
        fusions: (0, 0),
    };
    // Blocks span [0, 8), [8, 16), [16, 20) under both numberings.
    let clift = Intervals::build(&vc, Numbering::Clift);
    assert_eq!(clift.live_in(1), vec![0, 1]);
    assert_eq!(clift.start, [0, 0, 10]);
    assert_eq!(clift.end, [16, 17, 10]);
    assert!(clift.crosses_call(0, 17) && !clift.crosses_call(9, 17));
    let lvm = Intervals::build(&vc, Numbering::Lvm);
    assert_eq!(lvm.start, [0, 0, 11]);
    assert_eq!(lvm.end, [16, 18, 11]);
    assert_eq!(lvm.crosses_block, [true, true, false]);
    check(&vc);
}
