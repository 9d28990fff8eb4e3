//! Register allocation: the "fast" and "greedy" allocators
//! (paper Sec. V-B4).
//!
//! * **fast** (cheap builds): no analyses; values that live across block
//!   boundaries are spilled outright, block-local values are assigned with
//!   a simple active list — a faithful stand-in for `RegAllocFast`'s
//!   block-local greedy behavior.
//! * **greedy** (optimized builds): runs the analysis set the paper lists
//!   (register liveness, loop information, block frequency estimation),
//!   then allocates globally by linear scan with an eviction heuristic.
//!   A block inside a natural loop has frequency [`LOOP_FREQ`], any other
//!   block 1. A vreg's spill cost sums block frequency × [`RELOAD_COST`]
//!   per use and × [`STORE_COST`] per def; a constant (single `MovRI`
//!   def) costs × [`REMAT_COST`] per use and nothing for its def. An
//!   interval that finds no allowed register free evicts the cheapest
//!   active interval holding one if that costs less than half of its
//!   own cost, and is spilled otherwise. A spilled constant is
//!   rematerialized: the emitter moves it into a register at each use
//!   and never stores it. There is no live-range splitting: a spilled or
//!   evicted vreg stays in its slot for the whole function.
//!
//! Both are preceded by the two-address rewriting pass on TX64 (the MIR is
//! three-address; the target is not), which the paper measures as a
//! significant slice of allocation-related time.

use qc_backend::mir::{Allocation, Loc, MInst, RegClass, VCode};
use qc_ir::{Block, Cfg, DomTree, Loops, ReversePostorder};
use qc_target::{Isa, Reg};
use qc_timing::TimeTrace;

/// Registers the LLVM analog may allocate (same emission scratches as the
/// shared emitter).
fn int_pool(isa: Isa) -> Vec<Reg> {
    let ex = qc_backend::memit::emission_scratches(isa);
    isa.abi()
        .allocatable
        .iter()
        .copied()
        .filter(|r| *r != ex.0 && *r != ex.1)
        .collect()
}

fn float_pool(isa: Isa) -> Vec<qc_target::FReg> {
    isa.abi()
        .fallocatable
        .iter()
        .copied()
        .filter(|f| f.num() < 13)
        .collect()
}

/// The two-address rewriting pass: `d = s1 op s2` with `d != s1` becomes
/// `d = s1; d = d op s2` so the emitter's TX64 lowering is a no-op.
pub fn two_address_pass(vcode: &mut VCode, isa: Isa) {
    if !isa.is_two_address() {
        return;
    }
    for block in &mut vcode.blocks {
        let mut out = Vec::with_capacity(block.len() + 8);
        for inst in block.drain(..) {
            match inst {
                MInst::Alu {
                    op,
                    w,
                    sf,
                    d,
                    s1,
                    s2,
                } if d != s1 && d != s2 => {
                    out.push(MInst::MovRR { d, s: s1 });
                    out.push(MInst::Alu {
                        op,
                        w,
                        sf,
                        d,
                        s1: d,
                        s2,
                    });
                }
                other => out.push(other),
            }
        }
        *block = out;
    }
}

struct Intervals {
    start: Vec<u32>,
    end: Vec<u32>,
    crosses_block: Vec<bool>,
    crosses_call: Vec<bool>,
}

fn intervals(vcode: &VCode) -> Intervals {
    let nv = vcode.classes.len();
    let nb = vcode.blocks.len();
    let words = nv.div_ceil(64);
    // Block liveness.
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
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }
    let mut start = vec![u32::MAX; nv];
    let mut end = vec![0u32; nv];
    let mut crosses_block = vec![false; nv];
    let mut crosses_call = vec![false; nv];
    let mut call_points = Vec::new();
    let mut point = 0u32;
    for &p in &vcode.params {
        start[p as usize] = 0;
        end[p as usize] = 1;
    }
    for (b, insts) in vcode.blocks.iter().enumerate() {
        let bstart = point;
        for v in 0..nv {
            if live_in[b][v / 64] & (1 << (v % 64)) != 0 {
                crosses_block[v] = true;
                start[v] = start[v].min(bstart);
                end[v] = end[v].max(bstart);
            }
        }
        for inst in insts {
            point += 2;
            let p = point;
            inst.for_each_use(|v| {
                start[v as usize] = start[v as usize].min(p);
                end[v as usize] = end[v as usize].max(p);
            });
            inst.for_each_def(|v| {
                start[v as usize] = start[v as usize].min(p + 1);
                end[v as usize] = end[v as usize].max(p + 1);
            });
            if inst.is_call() {
                call_points.push(p);
            }
        }
        point += 2;
        let bend = point;
        for &s in &vcode.succs[b] {
            for v in 0..nv {
                if live_in[s][v / 64] & (1 << (v % 64)) != 0 {
                    crosses_block[v] = true;
                    end[v] = end[v].max(bend);
                    start[v] = start[v].min(bstart);
                }
            }
        }
    }
    for v in 0..nv {
        if start[v] == u32::MAX {
            continue;
        }
        crosses_call[v] = call_points.iter().any(|&c| c > start[v] && c < end[v]);
    }
    Intervals {
        start,
        end,
        crosses_block,
        crosses_call,
    }
}

/// The fast allocator (cheap builds): "linearly iterates over all basic
/// blocks … and greedily assigns registers", no analyses. Cross-block
/// values are spilled.
pub fn allocate_fast(vcode: &VCode, isa: Isa) -> Allocation {
    let iv = intervals(vcode);
    assign(vcode, isa, &iv, None)
}

/// The greedy allocator (optimized builds) with its analysis set.
pub fn allocate_greedy(vcode: &VCode, isa: Isa, trace: &TimeTrace) -> Allocation {
    let iv = {
        let _t = trace.scope("liveness");
        intervals(vcode)
    };
    let weights = {
        // Loop information and block-frequency estimation: the greedy
        // allocator's auxiliary analyses, folded into spill weights.
        let _t = trace.scope("loopinfo_blockfreq");
        spill_weights(vcode, &loop_blocks(&vcode.succs))
    };
    let _t = trace.scope("assign");
    assign(vcode, isa, &iv, Some(&weights))
}

/// Estimated frequency of a block inside a natural loop (every other
/// block runs once). Flat, not multiplied by nesting depth: an inner
/// hash-chain probe loop runs about once per outer iteration.
const LOOP_FREQ: u64 = 8;
/// Spill-weight cost of one reload (a use of a spilled vreg).
const RELOAD_COST: u64 = 4;
/// Spill-weight cost of one store (a def of a spilled vreg).
const STORE_COST: u64 = 2;
/// Spill-weight cost of one use of a rematerialized constant.
const REMAT_COST: u64 = 1;

/// Whether each block lies in a natural loop, by the IR's loop analysis
/// run on the MIR CFG: the loop of back edge `t → h` (`h` dominates
/// `t`, entry block 0) is `h` plus every block that reaches `t` without
/// passing through `h`.
fn loop_blocks(succs: &[Vec<usize>]) -> Vec<bool> {
    let cfg = Cfg::from_succs(
        succs
            .iter()
            .map(|ss| ss.iter().map(|&s| Block::new(s)).collect())
            .collect(),
    );
    let rpo = ReversePostorder::compute(&cfg);
    let loops = Loops::compute(&cfg, &rpo, &DomTree::compute(&cfg, &rpo));
    (0..succs.len())
        .map(|b| loops.depth(Block::new(b)) > 0)
        .collect()
}

/// Spill costs and rematerializable constants per vreg.
struct SpillWeights {
    /// What spilling the vreg would cost: block frequency × the reload,
    /// store or rematerialization weight, summed over its uses and defs.
    cost: Vec<u64>,
    /// The constant of a vreg whose only def is a `MovRI`.
    remat: Vec<Option<i64>>,
}

fn spill_weights(vcode: &VCode, in_loop: &[bool]) -> SpillWeights {
    let nv = vcode.classes.len();
    let mut defs = vec![0u32; nv];
    let (mut use_freq, mut def_freq) = (vec![0u64; nv], vec![0u64; nv]);
    let mut remat = vec![None; nv];
    for &p in &vcode.params {
        defs[p as usize] += 1;
    }
    for (insts, &looped) in vcode.blocks.iter().zip(in_loop) {
        let f = if looped { LOOP_FREQ } else { 1 };
        for inst in insts {
            inst.for_each_use(|v| use_freq[v as usize] += f);
            inst.for_each_def(|v| {
                defs[v as usize] += 1;
                def_freq[v as usize] += f;
            });
            if let MInst::MovRI { d, imm } = inst {
                remat[*d as usize] = Some(*imm);
            }
        }
    }
    let mut cost = Vec::with_capacity(nv);
    for v in 0..nv {
        if defs[v] != 1 || vcode.classes[v] != RegClass::Int {
            remat[v] = None;
        }
        cost.push(match remat[v] {
            // The def is dropped; each use becomes a `mov`.
            Some(_) => use_freq[v] * REMAT_COST,
            None => use_freq[v] * RELOAD_COST + def_freq[v] * STORE_COST,
        });
    }
    SpillWeights { cost, remat }
}

/// Linear scan over the intervals in start order. Without `weights`
/// (the fast allocator) cross-block values are spilled and an interval
/// that finds no free register is spilled. With them, such an interval
/// evicts the cheapest active interval holding an allowed register when
/// that one costs less than half as much, and spilled constants are
/// rematerialized. No interval is ever split.
fn assign(vcode: &VCode, isa: Isa, iv: &Intervals, weights: Option<&SpillWeights>) -> Allocation {
    let nv = vcode.classes.len();
    let ipool = int_pool(isa);
    let fpool = float_pool(isa);
    let callee_saved: Vec<Reg> = isa
        .abi()
        .callee_saved
        .iter()
        .copied()
        .filter(|r| ipool.contains(r))
        .collect();
    let block_local_only = weights.is_none();

    let mut order: Vec<u32> = (0..nv as u32)
        .filter(|&v| iv.start[v as usize] != u32::MAX)
        .collect();
    order.sort_by_key(|&v| iv.start[v as usize]);

    let mut locs = vec![Loc::Spill(u32::MAX); nv];
    let mut spill_slots = 0u32;
    let mut spills = 0u64;
    // Active lists: (end, pool index, vreg) per class.
    let mut active_i: Vec<(u32, usize, u32)> = Vec::new();
    let mut active_f: Vec<(u32, usize, u32)> = Vec::new();
    let mut ifree: Vec<bool> = vec![true; ipool.len()];
    let mut ffree: Vec<bool> = vec![true; fpool.len()];
    let mut spill = || {
        spills += 1;
        spill_slots += 1;
        Loc::Spill(spill_slots - 1)
    };
    // Takes the register of the cheapest active interval whose pool
    // index `allowed` accepts, when it costs less than half of `v`.
    let evict = |active: &mut Vec<(u32, usize, u32)>,
                 v: u32,
                 e: u32,
                 allowed: &dyn Fn(usize) -> bool|
     -> Option<(usize, u32)> {
        let cost = &weights?.cost;
        let (i, &(_, pi, victim)) = active
            .iter()
            .enumerate()
            .filter(|(_, a)| allowed(a.1))
            .min_by_key(|(_, a)| cost[a.2 as usize])?;
        if cost[victim as usize] * 2 >= cost[v as usize] {
            return None;
        }
        active.remove(i);
        active.push((e, pi, v));
        Some((pi, victim))
    };

    for &v in &order {
        let (s, e) = (
            iv.start[v as usize],
            iv.end[v as usize].max(iv.start[v as usize] + 1),
        );
        // Expire.
        active_i.retain(|&(ae, pi, _)| {
            if ae <= s {
                ifree[pi] = true;
                false
            } else {
                true
            }
        });
        active_f.retain(|&(ae, pi, _)| {
            if ae <= s {
                ffree[pi] = true;
                false
            } else {
                true
            }
        });
        let loc = match vcode.classes[v as usize] {
            RegClass::Int => {
                if block_local_only && iv.crosses_block[v as usize] {
                    spill()
                } else {
                    let restricted = iv.crosses_call[v as usize];
                    let allowed = |pi: usize| !restricted || callee_saved.contains(&ipool[pi]);
                    if let Some(pi) = (0..ipool.len()).find(|&pi| ifree[pi] && allowed(pi)) {
                        ifree[pi] = false;
                        active_i.push((e, pi, v));
                        Loc::R(ipool[pi])
                    } else if let Some((pi, victim)) = evict(&mut active_i, v, e, &allowed) {
                        locs[victim as usize] = spill();
                        Loc::R(ipool[pi])
                    } else {
                        spill()
                    }
                }
            }
            RegClass::Float => {
                if (block_local_only && iv.crosses_block[v as usize]) || iv.crosses_call[v as usize]
                {
                    spill()
                } else if let Some(pi) = (0..fpool.len()).find(|&pi| ffree[pi]) {
                    ffree[pi] = false;
                    active_f.push((e, pi, v));
                    Loc::F(fpool[pi])
                } else if let Some((pi, victim)) = evict(&mut active_f, v, e, &|_| true) {
                    locs[victim as usize] = spill();
                    Loc::F(fpool[pi])
                } else {
                    spill()
                }
            }
        };
        locs[v as usize] = loc;
    }
    for (v, loc) in locs.iter_mut().enumerate() {
        if *loc == Loc::Spill(u32::MAX) {
            *loc = match vcode.classes[v] {
                RegClass::Int => Loc::R(ipool[0]),
                RegClass::Float => Loc::F(fpool[0]),
            };
        }
    }
    let mut remat = Vec::new();
    if let Some(w) = weights {
        remat = vec![None; spill_slots as usize];
        for (loc, &c) in locs.iter().zip(&w.remat) {
            if let Loc::Spill(t) = *loc {
                remat[t as usize] = c;
            }
        }
    }
    Allocation {
        locs,
        spill_slots,
        spills,
        remat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_backend::memit::MirEmitter;
    use qc_backend::mir::CallTarget;
    use qc_target::{decode_inst, AluOp, Cond, DecodedInst, Width};

    const K: i64 = 0x1234_5678_9abc;

    fn vcode(blocks: Vec<Vec<MInst>>, succs: Vec<Vec<usize>>) -> VCode {
        let mut nv = 0;
        for inst in blocks.iter().flatten() {
            inst.for_each_def(|v| nv = nv.max(v + 1));
            inst.for_each_use(|v| nv = nv.max(v + 1));
        }
        VCode {
            name: "f".into(),
            blocks,
            succs,
            classes: vec![RegClass::Int; nv as usize],
            params: vec![0],
            fusions: (0, 0),
        }
    }

    fn load(d: u32, disp: i32) -> MInst {
        MInst::Load {
            w: Width::W64,
            d,
            base: 0,
            disp,
        }
    }

    fn call(args: Vec<u32>, ret: Vec<u32>) -> MInst {
        MInst::CallRt {
            target: CallTarget::Sym("rt_probe".into()),
            args,
            ret,
        }
    }

    /// Four values live across the call in loop `b1`: three cold ones
    /// read once after the loop (v1-v3) and a hot one used twice per
    /// iteration (v4). TX64 has three callee-saved registers.
    fn loop_across_call() -> VCode {
        vcode(
            vec![
                vec![
                    load(1, 0),
                    load(2, 8),
                    load(3, 16),
                    load(4, 24),
                    MInst::Jmp { target: 1 },
                ],
                vec![
                    call(vec![4], vec![5]),
                    MInst::Cmp {
                        w: Width::W64,
                        a: 5,
                        b: 4,
                    },
                    MInst::Jcc {
                        cond: Cond::Ne,
                        target: 1,
                    },
                    MInst::Jmp { target: 2 },
                ],
                vec![
                    MInst::Alu {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: 6,
                        s1: 1,
                        s2: 2,
                    },
                    MInst::Alu {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: 7,
                        s1: 6,
                        s2: 3,
                    },
                    MInst::Ret { vals: vec![7] },
                ],
            ],
            vec![vec![1], vec![1, 2], vec![]],
        )
    }

    /// A constant (v1) defined before loop `b1` and stored twice after
    /// it, live across the loop's call beside three loop values.
    fn constant_across_call() -> VCode {
        vcode(
            vec![
                vec![
                    MInst::MovRI { d: 1, imm: K },
                    load(2, 0),
                    load(3, 8),
                    load(4, 16),
                    MInst::Jmp { target: 1 },
                ],
                vec![
                    call(vec![2], vec![5]),
                    MInst::Alu {
                        op: AluOp::Xor,
                        w: Width::W64,
                        sf: false,
                        d: 6,
                        s1: 4,
                        s2: 5,
                    },
                    MInst::Cmp {
                        w: Width::W64,
                        a: 6,
                        b: 3,
                    },
                    MInst::Jcc {
                        cond: Cond::Ne,
                        target: 1,
                    },
                    MInst::Jmp { target: 2 },
                ],
                vec![
                    MInst::Store {
                        w: Width::W64,
                        s: 1,
                        base: 2,
                        disp: 0,
                    },
                    MInst::Store {
                        w: Width::W64,
                        s: 1,
                        base: 2,
                        disp: 8,
                    },
                    MInst::Ret { vals: vec![] },
                ],
            ],
            vec![vec![1], vec![1, 2], vec![]],
        )
    }

    /// One block: six loads, a call that takes the first, then a sum of
    /// the other five and the call's result (five values cross the call).
    fn block_across_call() -> VCode {
        let add = |d, s1, s2| MInst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            sf: false,
            d,
            s1,
            s2,
        };
        let mut b0: Vec<MInst> = (1..=6).map(|v| load(v, 8 * v as i32)).collect();
        b0.extend([
            call(vec![1], vec![7]),
            add(8, 2, 3),
            add(9, 8, 4),
            add(10, 9, 5),
            add(11, 10, 6),
            add(12, 11, 7),
            MInst::Ret { vals: vec![12] },
        ]);
        vcode(vec![b0], vec![vec![]])
    }

    fn callee_saved(loc: Loc) -> bool {
        matches!(loc, Loc::R(r) if Isa::Tx64.abi().callee_saved.contains(&r))
    }

    #[test]
    fn a_hot_loop_value_across_a_call_evicts_a_cold_one() {
        let a = allocate_greedy(&loop_across_call(), Isa::Tx64, &TimeTrace::disabled());
        assert!(callee_saved(a.locs[4]), "hot loop value: {:?}", a.locs[4]);
        assert!(
            matches!(a.locs[1], Loc::Spill(_)),
            "cold value: {:?}",
            a.locs[1]
        );
        assert!(callee_saved(a.locs[2]) && callee_saved(a.locs[3]));
        assert!(a.remat.iter().all(Option::is_none), "no constant here");
    }

    #[test]
    fn a_spilled_constant_is_moved_before_each_use_and_never_stored() {
        let vc = constant_across_call();
        let a = allocate_greedy(&vc, Isa::Tx64, &TimeTrace::disabled());
        let Loc::Spill(slot) = a.locs[1] else {
            panic!("the constant kept a register: {:?}", a.locs[1]);
        };
        assert_eq!(a.remat(slot), Some(K));
        assert!((2..=4).all(|v| callee_saved(a.locs[v])), "{:?}", a.locs);

        let names = vec!["f".to_string()];
        let mut e = MirEmitter::new(Isa::Tx64, &a, &names, vc.blocks.len(), 0);
        e.prologue(&vc.params);
        for (b, insts) in vc.blocks.iter().enumerate() {
            e.bind_block(b);
            for inst in insts {
                e.emit_inst(inst).expect("emit");
            }
        }
        let (code, _, _) = e.finish();
        let mut insts = Vec::new();
        let mut off = 0;
        while off < code.len() {
            let (inst, len) = decode_inst(Isa::Tx64, &code, off).expect("decode");
            insts.push(inst);
            off += len as usize;
        }
        let sp = Isa::Tx64.abi().sp;
        let slot_disp = (slot * 8) as i32;
        for inst in &insts {
            if let DecodedInst::Load { mem, .. } | DecodedInst::Store { mem, .. } = inst {
                assert!(
                    mem.base != sp || mem.disp != slot_disp,
                    "the constant's slot is accessed: {inst:?}"
                );
            }
        }
        let movs: Vec<usize> = (0..insts.len())
            .filter(|&i| matches!(insts[i], DecodedInst::MovRI { imm: K, .. }))
            .collect();
        assert_eq!(movs.len(), 2, "one mov per use, none for the def");
        for i in movs {
            let DecodedInst::MovRI { dst, .. } = insts[i] else {
                unreachable!()
            };
            assert!(
                matches!(insts[i + 1], DecodedInst::Store { src, .. } if src == dst),
                "mov not followed by its store: {:?}",
                insts[i + 1]
            );
        }
    }

    #[test]
    fn a_retreating_edge_without_a_back_edge_is_not_a_loop() {
        // The comparator shape: block 4 branches to 2 and 3, which come
        // earlier in block order but are not dominators of 4.
        let succs = vec![vec![1, 4], vec![], vec![], vec![], vec![2, 3]];
        assert_eq!(loop_blocks(&succs), vec![false; 5]);
    }

    #[test]
    fn an_inner_loop_does_not_hide_the_outer_loops_blocks() {
        // b1 heads the outer loop, b3 the inner one (latch b4); b2 sits
        // only in the outer loop, behind the inner loop's blocks.
        let succs = vec![vec![1], vec![2, 5], vec![3], vec![4, 1], vec![3], vec![]];
        assert_eq!(
            loop_blocks(&succs),
            vec![false, true, true, true, true, false]
        );
    }

    /// `allocate_fast`'s result, captured before the greedy allocator
    /// gained spill weights: the -O0 allocator must not move with them.
    #[test]
    fn the_fast_allocator_is_unchanged() {
        use Loc::{Spill, R};
        let a = allocate_fast(&block_across_call(), Isa::Tx64);
        let r = Reg;
        assert_eq!(
            a.locs,
            [
                Spill(0),
                R(r(0)),
                R(r(11)),
                R(r(12)),
                R(r(13)),
                Spill(1),
                Spill(2),
                R(r(0)),
                R(r(1)),
                R(r(1)),
                R(r(1)),
                R(r(1)),
                R(r(0)),
            ]
        );
        assert_eq!((a.spill_slots, a.spills), (3, 3));
        let a = allocate_fast(&loop_across_call(), Isa::Tx64);
        assert_eq!(
            a.locs,
            [
                Spill(0),
                Spill(1),
                Spill(2),
                Spill(3),
                Spill(4),
                R(r(0)),
                R(r(0)),
                R(r(0)),
            ]
        );
        assert_eq!((a.spill_slots, a.spills), (5, 5));
        assert!(a.remat.is_empty());
    }
}
