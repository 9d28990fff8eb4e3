//! Register allocation: linear scan over live-range bundles with per-
//! physical-register B-trees (paper Sec. VI-C3).
//!
//! The paper measures this as the largest part of Cranelift's compile time:
//! ~37% of it computing and merging live ranges (several IR iterations),
//! and a measurable share spent in the per-register B-trees. The structure
//! below reproduces those costs: block liveness by fixpoint, one interval
//! per vreg, move-coalescing bundle merging via union-find, and a
//! `BTreeMap` per physical register tracking its allocations.

use qc_backend::mir::{Allocation, Loc, MInst, RegClass, VCode, VReg};
use qc_target::{FReg, Isa, Reg};
use std::collections::BTreeMap;

/// Registers clift may allocate, per ISA (the emission scratches are
/// excluded on top of the ABI's permanently reserved scratch).
pub fn int_pool(isa: Isa) -> Vec<Reg> {
    let abi = isa.abi();
    let excluded = emission_scratches(isa);
    abi.allocatable
        .iter()
        .copied()
        .filter(|r| *r != excluded.0 && *r != excluded.1)
        .collect()
}

/// The two emission scratch registers.
pub fn emission_scratches(isa: Isa) -> (Reg, Reg) {
    match isa {
        Isa::Tx64 => (Reg(9), Reg(10)),
        Isa::Ta64 => (Reg(15), Reg(16)),
    }
}

/// Allocatable float registers (one reserved as emission scratch besides
/// the ABI float scratch).
pub fn float_pool(isa: Isa) -> Vec<FReg> {
    isa.abi()
        .fallocatable
        .iter()
        .copied()
        .filter(|f| f.num() < 13)
        .collect()
}

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
    let nb = vcode.blocks.len();

    // --- Program points & per-block ranges (one pass). ---
    let mut point = 0u32;
    let mut block_range = Vec::with_capacity(nb);
    for b in &vcode.blocks {
        let start = point;
        point += 2 * b.len().max(1) as u32 + 2;
        block_range.push((start, point));
    }

    // --- Block liveness (backward fixpoint; "iterating over the IR
    // several times"). ---
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
            if b == 0 {
                // Params are defined at entry.
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

    // --- Live intervals (second pass over the IR). ---
    let mut start = vec![u32::MAX; nv];
    let mut end = vec![0u32; nv];
    let mut call_points = Vec::new();
    for &p in &vcode.params {
        start[p as usize] = 0;
        end[p as usize] = end[p as usize].max(1);
    }
    for (b, insts) in vcode.blocks.iter().enumerate() {
        let (bstart, bend) = block_range[b];
        // live-in values extend across the block start.
        for v in 0..nv {
            if live_in[b][v / 64] & (1 << (v % 64)) != 0 {
                start[v] = start[v].min(bstart);
                end[v] = end[v].max(bstart);
            }
        }
        // live-out: union of successor live-ins.
        for &s in &vcode.succs[b] {
            for v in 0..nv {
                if live_in[s][v / 64] & (1 << (v % 64)) != 0 {
                    start[v] = start[v].min(bstart);
                    end[v] = end[v].max(bend);
                }
            }
        }
        let mut p = bstart + 1;
        for inst in insts {
            inst.for_each_use(|v| {
                end[v as usize] = end[v as usize].max(p);
                start[v as usize] = start[v as usize].min(p);
            });
            inst.for_each_def(|v| {
                start[v as usize] = start[v as usize].min(p + 1);
                end[v as usize] = end[v as usize].max(p + 1);
            });
            if inst.is_call() {
                call_points.push(p);
            }
            p += 2;
        }
    }

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
                    try_merge(&mut uf, &mut start, &mut end, *d, *s);
                }
                MInst::ParMove { moves } => {
                    for &(s, d) in moves {
                        try_merge(&mut uf, &mut start, &mut end, d, s);
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
        .filter(|&v| uf.find(v) == v && start[v as usize] != u32::MAX)
        .collect();
    reps.sort_by_key(|&v| start[v as usize]);

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
            start[rep as usize],
            end[rep as usize].max(start[rep as usize] + 1),
        );
        let crosses_call = call_points.iter().any(|&c| c > s && c < e);
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

    let mut locs = Vec::with_capacity(nv);
    for v in 0..nv as u32 {
        let rep = uf.find(v);
        locs.push(rep_loc[rep as usize].unwrap_or(Loc::Spill(u32::MAX)));
    }
    // Dead vregs (never live) get a harmless placeholder register.
    for (v, loc) in locs.iter_mut().enumerate() {
        if *loc == Loc::Spill(u32::MAX) {
            *loc = match vcode.classes[v] {
                RegClass::Int => Loc::R(ipool[0]),
                RegClass::Float => Loc::F(fpool[0]),
            };
        }
    }
    Allocation {
        locs,
        spill_slots,
        spills,
        remat: Vec::new(),
    }
}
