//! MIR liveness and live intervals, shared by the register allocators.
//!
//! Both MIR back-ends allocate over one interval per vreg: the Cranelift
//! analog merges intervals into bundles, the LLVM analog scans them in
//! start order. [`Intervals::build`] computes them in time linear in the
//! function: gen/kill sets once per block, a backward worklist fixpoint
//! over predecessors, then intervals built by visiting set bits only.
//! The allocators differ only in how they number program points
//! ([`Numbering`]).

use crate::mir::{VCode, VReg};
use qc_ir::{Block, Cfg};

/// How program points are laid out, block after block from point 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numbering {
    /// The Cranelift analog: a block reserves `2·max(len, 1) + 2` points
    /// and instruction `i` sits at `bstart + 1 + 2i`.
    Clift,
    /// The LLVM analog: instruction `i` sits at `bstart + 2 + 2i` and the
    /// block ends at `bstart + 2·len + 2`.
    Lvm,
}

impl Numbering {
    /// The offset of a block's first instruction and the points the
    /// block spans, for a block of `len` instructions.
    fn layout(self, len: usize) -> (u32, u32) {
        let len = len as u32;
        match self {
            Numbering::Clift => (1, 2 * len.max(1) + 2),
            Numbering::Lvm => (2, 2 * len + 2),
        }
    }
}

/// Live intervals of one function's vregs.
///
/// A use at point `p` extends its vreg's interval to `p`, a def to
/// `p + 1`. A vreg live into a block extends to the block's start, one
/// live out of it across the whole block. Parameters start at 0 and end
/// no earlier than 1. A vreg that never occurs keeps `start == u32::MAX`.
#[derive(Debug)]
pub struct Intervals {
    /// First point per vreg.
    pub start: Vec<u32>,
    /// Last point per vreg.
    pub end: Vec<u32>,
    /// Whether the vreg is live into or out of some block.
    pub crosses_block: Vec<bool>,
    /// Points of the call instructions, in increasing order.
    call_points: Vec<u32>,
    /// Live-in bitset per block, `words` 64-bit words each.
    live_in: Vec<u64>,
    words: usize,
}

impl Intervals {
    /// Computes block liveness and the intervals of `vcode`'s vregs.
    pub fn build(vcode: &VCode, numbering: Numbering) -> Self {
        let nv = vcode.classes.len();
        let nb = vcode.blocks.len();
        let words = nv.div_ceil(64);

        // Upward-exposed uses (gen) and defs (kill), once per block.
        let mut gen = vec![0u64; nb * words];
        let mut kill = vec![0u64; nb * words];
        for (b, insts) in vcode.blocks.iter().enumerate() {
            let (g, k) = (
                &mut gen[b * words..(b + 1) * words],
                &mut kill[b * words..(b + 1) * words],
            );
            for inst in insts {
                inst.for_each_use(|v| {
                    let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                    if k[w] & bit == 0 {
                        g[w] |= bit;
                    }
                });
                inst.for_each_def(|v| k[v as usize / 64] |= 1 << (v % 64));
            }
        }

        // Backward fixpoint: live_in = gen ∪ (∪ succ live_in ∖ kill). Every
        // block is seeded, unreachable ones included: their instructions
        // still get points, and a vreg live into them still spans them.
        let cfg = Cfg::from_succs(
            vcode
                .succs
                .iter()
                .map(|ss| ss.iter().map(|&s| Block::new(s)).collect())
                .collect(),
        );
        let mut live_in = vec![0u64; nb * words];
        let mut work: Vec<usize> = (0..nb).collect();
        let mut queued = vec![true; nb];
        while let Some(b) = work.pop() {
            queued[b] = false;
            let mut changed = false;
            for w in 0..words {
                let out = vcode.succs[b]
                    .iter()
                    .fold(0, |acc, &s| acc | live_in[s * words + w]);
                let i = b * words + w;
                let new = gen[i] | (out & !kill[i]);
                changed |= new != live_in[i];
                live_in[i] = new;
            }
            if changed {
                for p in cfg.preds(Block::new(b)) {
                    if !std::mem::replace(&mut queued[p.index()], true) {
                        work.push(p.index());
                    }
                }
            }
        }

        let mut start = vec![u32::MAX; nv];
        let mut end = vec![0u32; nv];
        let mut extend = |v: usize, s: u32, e: u32| {
            start[v] = start[v].min(s);
            end[v] = end[v].max(e);
        };
        let mut crosses_block = vec![false; nv];
        let mut call_points = Vec::new();
        for &p in &vcode.params {
            extend(p as usize, 0, 1);
        }
        let mut live_out = vec![0u64; words];
        let mut bstart = 0u32;
        for (b, insts) in vcode.blocks.iter().enumerate() {
            let (first, span) = numbering.layout(insts.len());
            let bend = bstart + span;
            for_each_bit(&live_in[b * words..(b + 1) * words], |v| {
                crosses_block[v] = true;
                extend(v, bstart, bstart);
            });
            live_out.fill(0);
            for &s in &vcode.succs[b] {
                for (o, &x) in live_out.iter_mut().zip(&live_in[s * words..]) {
                    *o |= x;
                }
            }
            for_each_bit(&live_out, |v| {
                crosses_block[v] = true;
                extend(v, bstart, bend);
            });
            let mut p = bstart + first;
            for inst in insts {
                inst.for_each_use(|v| extend(v as usize, p, p));
                inst.for_each_def(|v| extend(v as usize, p + 1, p + 1));
                if inst.is_call() {
                    call_points.push(p);
                }
                p += 2;
            }
            bstart = bend;
        }
        Intervals {
            start,
            end,
            crosses_block,
            call_points,
            live_in,
            words,
        }
    }

    /// Whether a call lies strictly inside `(s, e)`.
    pub fn crosses_call(&self, s: u32, e: u32) -> bool {
        let i = self.call_points.partition_point(|&c| c <= s);
        self.call_points.get(i).is_some_and(|&c| c < e)
    }

    /// The vregs live into `block`, in increasing order.
    pub fn live_in(&self, block: usize) -> Vec<VReg> {
        let mut vs = Vec::new();
        let w = self.words;
        for_each_bit(&self.live_in[block * w..(block + 1) * w], |v| {
            vs.push(v as VReg)
        });
        vs
    }
}

/// Calls `f` with the index of every set bit, in increasing order.
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}
