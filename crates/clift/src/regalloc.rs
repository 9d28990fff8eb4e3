//! Register allocation: linear scan over live-range bundles with per-
//! physical-register B-trees (paper Sec. VI-C3).
//!
//! The paper measures this as the largest part of Cranelift's compile time:
//! ~37% of it computing and merging live ranges (several IR iterations),
//! and a measurable share spent in the per-register B-trees. The structure
//! below reproduces those costs: block liveness and one interval per vreg
//! (the shared [`qc_backend::intervals`] builder, with Cranelift's
//! program-point numbering), move-coalescing bundle merging via
//! union-find, and a `BTreeMap` per physical register tracking its
//! allocations.

use qc_backend::intervals::{Intervals, Numbering};
use qc_backend::memit::{float_pool, int_pool};
use qc_backend::mir::{Allocation, Loc, MInst, RegClass, VCode, VReg};
use qc_target::{FReg, Isa, Reg};
use std::collections::BTreeMap;

struct Uf {
    parent: Vec<u32>,
}

impl Uf {
    fn find(&mut self, x: u32) -> u32 {
        if self.parent[x as usize] != x {
            let r = self.find(self.parent[x as usize]);
            self.parent[x as usize] = r;
            r
        } else {
            x
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Runs register allocation on one function's VCode.
pub fn allocate(vcode: &VCode, isa: Isa) -> Allocation {
    let nv = vcode.classes.len();
    let mut iv = Intervals::build(vcode, Numbering::Clift);

    // --- Bundle merging: coalesce moves with disjoint intervals. ---
    let mut uf = Uf {
        parent: (0..nv as u32).collect(),
    };
    let overlap = |s1: u32, e1: u32, s2: u32, e2: u32| s1 < e2 && s2 < e1;
    let try_merge = |uf: &mut Uf, start: &mut [u32], end: &mut [u32], a: VReg, b: VReg| {
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb || vcode.classes[a as usize] != vcode.classes[b as usize] {
            return;
        }
        let (sa, ea) = (start[ra as usize], end[ra as usize]);
        let (sb, eb) = (start[rb as usize], end[rb as usize]);
        if sa == u32::MAX || sb == u32::MAX || overlap(sa, ea, sb, eb) {
            return;
        }
        uf.union(ra, rb);
        let r = uf.find(ra);
        start[r as usize] = sa.min(sb);
        end[r as usize] = ea.max(eb);
    };
    for insts in &vcode.blocks {
        for inst in insts {
            match inst {
                MInst::MovRR { d, s } | MInst::FMovM { d, s } => {
                    try_merge(&mut uf, &mut iv.start, &mut iv.end, *d, *s);
                }
                MInst::ParMove { moves } => {
                    for &(s, d) in moves {
                        try_merge(&mut uf, &mut iv.start, &mut iv.end, d, s);
                    }
                }
                _ => {}
            }
        }
    }

    // --- Assignment over sorted bundles, one B-tree per preg. ---
    let ipool = int_pool(isa);
    let fpool = float_pool(isa);
    let callee_saved: Vec<Reg> = isa
        .abi()
        .callee_saved
        .iter()
        .copied()
        .filter(|r| ipool.contains(r))
        .collect();
    let mut reps: Vec<u32> = (0..nv as u32)
        .filter(|&v| uf.find(v) == v && iv.start[v as usize] != u32::MAX)
        .collect();
    reps.sort_by_key(|&v| iv.start[v as usize]);

    let mut itrees: BTreeMap<Reg, BTreeMap<u32, u32>> =
        ipool.iter().map(|&r| (r, BTreeMap::new())).collect();
    let mut ftrees: BTreeMap<FReg, BTreeMap<u32, u32>> =
        fpool.iter().map(|&f| (f, BTreeMap::new())).collect();

    let fits = |tree: &BTreeMap<u32, u32>, s: u32, e: u32| -> bool {
        if let Some((_, &pe)) = tree.range(..e).next_back() {
            if pe > s {
                return false;
            }
        }
        true
    };

    let mut rep_loc: Vec<Option<Loc>> = vec![None; nv];
    let mut spill_slots = 0u32;
    let mut spills = 0u64;
    for &rep in &reps {
        let (s, e) = (
            iv.start[rep as usize],
            iv.end[rep as usize].max(iv.start[rep as usize] + 1),
        );
        let crosses_call = iv.crosses_call(s, e);
        let loc = match vcode.classes[rep as usize] {
            RegClass::Int => {
                let candidates: Vec<Reg> = if crosses_call {
                    callee_saved.clone()
                } else {
                    ipool.clone()
                };
                let mut found = None;
                for r in candidates {
                    let tree = itrees.get_mut(&r).expect("pool reg");
                    if fits(tree, s, e) {
                        tree.insert(s, e);
                        found = Some(Loc::R(r));
                        break;
                    }
                }
                found
            }
            RegClass::Float => {
                if crosses_call {
                    None // all float registers are caller-saved
                } else {
                    let mut found = None;
                    for &f in &fpool {
                        let tree = ftrees.get_mut(&f).expect("pool reg");
                        if fits(tree, s, e) {
                            tree.insert(s, e);
                            found = Some(Loc::F(f));
                            break;
                        }
                    }
                    found
                }
            }
        };
        rep_loc[rep as usize] = Some(loc.unwrap_or_else(|| {
            spills += 1;
            spill_slots += 1;
            Loc::Spill(spill_slots - 1)
        }));
    }

    // Dead vregs (never live) get a harmless placeholder register.
    let locs = (0..nv as u32)
        .map(|v| {
            rep_loc[uf.find(v) as usize].unwrap_or(match vcode.classes[v as usize] {
                RegClass::Int => Loc::R(ipool[0]),
                RegClass::Float => Loc::F(fpool[0]),
            })
        })
        .collect();
    Allocation {
        locs,
        spill_slots,
        spills,
        remat: Vec::new(),
    }
}
