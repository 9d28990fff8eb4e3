//! Natural loop detection.

use crate::cfg::{Cfg, ReversePostorder};
use crate::domtree::DomTree;
use crate::entities::Block;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop header (target of the back edge).
    pub header: Block,
    /// All blocks of the loop body, including the header.
    pub blocks: Vec<Block>,
}

/// Natural loops of a function, with per-block nesting depth.
///
/// Query code contains "arbitrarily deeply nested loops (e.g., with many
/// table joins, one loop nest per join)" (paper Sec. III-A); DirectEmit
/// uses loop depth for its spill heuristic and the LLVM-analog's LICM and
/// greedy register allocator consume it too.
#[derive(Debug, Clone)]
pub struct Loops {
    loops: Vec<LoopInfo>,
    depth: Vec<u32>,
    irreducible: bool,
}

impl Loops {
    /// Detects natural loops from back edges (`tail -> header` where
    /// `header` dominates `tail`). A branch to a non-dominating block that
    /// is already on the DFS path marks the CFG irreducible.
    pub fn compute(cfg: &Cfg, rpo: &ReversePostorder, dt: &DomTree) -> Self {
        let n = cfg.len();
        let mut loops: Vec<LoopInfo> = Vec::new();
        let mut depth = vec![0u32; n];
        let mut irreducible = false;

        for &block in rpo.order() {
            for &succ in cfg.succs(block) {
                // Retreating edge: successor appears before us in RPO.
                let retreating = rpo
                    .position(succ)
                    .is_some_and(|sp| sp <= rpo.position(block).unwrap_or(usize::MAX));
                if !retreating {
                    continue;
                }
                if !dt.dominates(succ, block) {
                    irreducible = true;
                    continue;
                }
                // Natural loop of back edge block -> succ: walk predecessors
                // backwards from the tail until the header.
                let header = succ;
                let mut body = vec![header];
                let mut seen = vec![false; n];
                seen[header.index()] = true;
                // Seed with the tail unless the back edge is a self-loop:
                // the header's own predecessors are outside the loop.
                let mut stack = Vec::new();
                if block != header {
                    seen[block.index()] = true;
                    stack.push(block);
                }
                while let Some(b) = stack.pop() {
                    body.push(b);
                    for &p in cfg.preds(b) {
                        if !seen[p.index()] && rpo.is_reachable(p) {
                            seen[p.index()] = true;
                            stack.push(p);
                        }
                    }
                }
                body.sort_unstable();
                body.dedup();
                // Merge with an existing loop of the same header (multiple
                // back edges to one header form one loop).
                if let Some(existing) = loops.iter_mut().find(|l| l.header == header) {
                    existing.blocks.extend_from_slice(&body);
                    existing.blocks.sort_unstable();
                    existing.blocks.dedup();
                } else {
                    loops.push(LoopInfo {
                        header,
                        blocks: body,
                    });
                }
            }
        }
        for l in &loops {
            for &b in &l.blocks {
                depth[b.index()] += 1;
            }
        }
        Loops {
            loops,
            depth,
            irreducible,
        }
    }

    /// All detected loops, outermost-first by header RPO position.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Loop nesting depth of a block (0 = not in any loop).
    pub fn depth(&self, block: Block) -> u32 {
        self.depth[block.index()]
    }

    /// Whether the CFG contains irreducible control flow. DirectEmit
    /// rejects such functions (paper Sec. VII).
    pub fn is_irreducible(&self) -> bool {
        self.irreducible
    }

    /// Whether `block` is a loop header.
    pub fn is_header(&self, block: Block) -> bool {
        self.loops.iter().any(|l| l.header == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{Function, Signature};
    use crate::instr::CmpOp;
    use crate::types::Type;

    fn analyses(f: &Function) -> Loops {
        let cfg = Cfg::compute(f);
        let rpo = ReversePostorder::compute(&cfg);
        let dt = DomTree::compute(&cfg, &rpo);
        Loops::compute(&cfg, &rpo, &dt)
    }

    /// Two nested loops: outer over i, inner over j.
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("n", Signature::new(vec![Type::I64], Type::I64));
        let entry = b.entry_block();
        let oh = b.create_block(); // outer header (1)
        let ih = b.create_block(); // inner header (2)
        let ib = b.create_block(); // inner body (3)
        let ol = b.create_block(); // outer latch (4)
        let exit = b.create_block(); // (5)
        let n = b.param(0);
        b.switch_to(entry);
        let zero = b.iconst(Type::I64, 0);
        b.jump(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let c1 = b.icmp(CmpOp::SLt, Type::I64, i, n);
        b.branch(c1, ih, exit);
        b.switch_to(ih);
        let j = b.phi(Type::I64, vec![(oh, zero)]);
        let c2 = b.icmp(CmpOp::SLt, Type::I64, j, n);
        b.branch(c2, ib, ol);
        b.switch_to(ib);
        let one = b.iconst(Type::I64, 1);
        let j2 = b.add(Type::I64, j, one);
        b.phi_add_incoming(j, ib, j2);
        b.jump(ih);
        b.switch_to(ol);
        let one2 = b.iconst(Type::I64, 1);
        let i2 = b.add(Type::I64, i, one2);
        b.phi_add_incoming(i, ol, i2);
        b.jump(oh);
        b.switch_to(exit);
        b.ret(Some(i));
        b.finish()
    }

    #[test]
    fn nested_loop_depths() {
        let f = nested_loops();
        let l = analyses(&f);
        assert!(!l.is_irreducible());
        assert_eq!(l.loops().len(), 2);
        assert_eq!(l.depth(Block::new(0)), 0); // entry
        assert_eq!(l.depth(Block::new(1)), 1); // outer header
        assert_eq!(l.depth(Block::new(2)), 2); // inner header
        assert_eq!(l.depth(Block::new(3)), 2); // inner body
        assert_eq!(l.depth(Block::new(4)), 1); // outer latch
        assert_eq!(l.depth(Block::new(5)), 0); // exit
        assert!(l.is_header(Block::new(1)));
        assert!(l.is_header(Block::new(2)));
        assert!(!l.is_header(Block::new(3)));
    }

    /// A block branching back to itself is a loop of exactly one block;
    /// its predecessor outside the back edge is a valid preheader and must
    /// not be swept into the body (regression: LICM found no preheader).
    #[test]
    fn self_loop_body_excludes_the_preheader() {
        let mut b = FunctionBuilder::new("s", Signature::new(vec![Type::I64], Type::I64));
        let entry = b.entry_block();
        let lp = b.create_block();
        let exit = b.create_block();
        let n = b.param(0);
        b.switch_to(entry);
        let zero = b.iconst(Type::I64, 0);
        b.jump(lp);
        b.switch_to(lp);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let one = b.iconst(Type::I64, 1);
        let i2 = b.add(Type::I64, i, one);
        b.phi_add_incoming(i, lp, i2);
        let c = b.icmp(CmpOp::SLt, Type::I64, i2, n);
        b.branch(c, lp, exit);
        b.switch_to(exit);
        b.ret(Some(i2));
        let f = b.finish();
        let l = analyses(&f);
        assert_eq!(l.loops().len(), 1);
        assert_eq!(l.loops()[0].blocks, vec![Block::new(1)]);
        assert_eq!(l.depth(Block::new(0)), 0);
        assert_eq!(l.depth(Block::new(1)), 1);
        assert_eq!(l.depth(Block::new(2)), 0);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("s", Signature::new(vec![], Type::Void));
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        let f = b.finish();
        let l = analyses(&f);
        assert!(l.loops().is_empty());
        assert!(!l.is_irreducible());
    }

    /// Irreducible: entry branches into the middle of a cycle a <-> b.
    #[test]
    fn detects_irreducible_cfg() {
        let mut bd = FunctionBuilder::new("irr", Signature::new(vec![Type::Bool], Type::Void));
        let entry = bd.entry_block();
        let a = bd.create_block();
        let b = bd.create_block();
        let exit = bd.create_block();
        bd.switch_to(entry);
        let c = bd.param(0);
        bd.branch(c, a, b);
        bd.switch_to(a);
        bd.branch(c, b, exit);
        bd.switch_to(b);
        bd.branch(c, a, exit);
        bd.switch_to(exit);
        bd.ret(None);
        let f = bd.finish();
        let l = analyses(&f);
        assert!(l.is_irreducible());
    }
}
