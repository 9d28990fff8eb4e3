//! Dominator tree via the Cooper–Harvey–Kennedy algorithm.

use crate::cfg::{Cfg, ReversePostorder};
use crate::entities::Block;

/// The dominator tree of a function's CFG.
///
/// Computed with the simple iterative algorithm of Cooper, Harvey and
/// Kennedy, which is what both DirectEmit (paper Sec. VII) and the
/// Cranelift-analog use; it converges in two passes for reducible CFGs.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// idom[b] = immediate dominator, or `None` for the entry block and
    /// unreachable blocks.
    idom: Vec<Option<Block>>,
}

impl DomTree {
    /// Computes the dominator tree (block 0 is the entry).
    pub fn compute(cfg: &Cfg, rpo: &ReversePostorder) -> Self {
        let n = cfg.len();
        let entry = Block::new(0);
        let mut idom: Vec<Option<Block>> = vec![None; n];
        idom[entry.index()] = Some(entry); // sentinel: entry dominates itself
        let rpo_pos: Vec<usize> = (0..n)
            .map(|i| rpo.position(Block::new(i)).unwrap_or(usize::MAX))
            .collect();

        let mut changed = true;
        while changed {
            changed = false;
            for &block in rpo.order().iter().skip(1) {
                let mut new_idom: Option<Block> = None;
                for &pred in cfg.preds(block) {
                    if idom[pred.index()].is_none() {
                        continue; // unprocessed or unreachable predecessor
                    }
                    new_idom = Some(match new_idom {
                        None => pred,
                        Some(cur) => Self::intersect(&idom, &rpo_pos, pred, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[block.index()] != Some(ni) {
                        idom[block.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        idom[entry.index()] = None; // entry has no immediate dominator
        DomTree { idom }
    }

    fn intersect(idom: &[Option<Block>], rpo_pos: &[usize], a: Block, b: Block) -> Block {
        let (mut a, mut b) = (a, b);
        while a != b {
            while rpo_pos[a.index()] > rpo_pos[b.index()] {
                a = idom[a.index()].expect("intersect walked past entry");
            }
            while rpo_pos[b.index()] > rpo_pos[a.index()] {
                b = idom[b.index()].expect("intersect walked past entry");
            }
        }
        a
    }

    /// Immediate dominator of `block` (`None` for entry/unreachable).
    pub fn idom(&self, block: Block) -> Option<Block> {
        self.idom[block.index()]
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{Function, Signature};
    use crate::instr::CmpOp;
    use crate::types::Type;

    /// entry(0) -> header(1) -> body(2) -> header; header -> exit(3)
    fn loop_func() -> Function {
        let mut b = FunctionBuilder::new("l", Signature::new(vec![Type::I64], Type::I64));
        let entry = b.entry_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let zero = b.iconst(Type::I64, 0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let n = b.param(0);
        let c = b.icmp(CmpOp::SLt, Type::I64, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.iconst(Type::I64, 1);
        let i2 = b.add(Type::I64, i, one);
        b.phi_add_incoming(i, body, i2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(i));
        b.finish()
    }

    fn domtree(f: &Function) -> DomTree {
        let cfg = Cfg::compute(f);
        let rpo = ReversePostorder::compute(&cfg);
        DomTree::compute(&cfg, &rpo)
    }

    #[test]
    fn idoms_of_loop() {
        let f = loop_func();
        let dt = domtree(&f);
        assert_eq!(dt.idom(Block::new(0)), None);
        assert_eq!(dt.idom(Block::new(1)), Some(Block::new(0)));
        assert_eq!(dt.idom(Block::new(2)), Some(Block::new(1)));
        assert_eq!(dt.idom(Block::new(3)), Some(Block::new(1)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let f = loop_func();
        let dt = domtree(&f);
        let (e, h, b, x) = (Block::new(0), Block::new(1), Block::new(2), Block::new(3));
        assert!(dt.dominates(e, e));
        assert!(dt.dominates(e, x));
        assert!(dt.dominates(h, b));
        assert!(dt.dominates(h, x));
        assert!(!dt.dominates(b, x));
        assert!(!dt.dominates(x, b));
    }

    #[test]
    fn diamond_merge_dominated_by_entry_only() {
        let mut bld = FunctionBuilder::new("d", Signature::new(vec![Type::Bool], Type::Void));
        let entry = bld.entry_block();
        let t = bld.create_block();
        let e = bld.create_block();
        let m = bld.create_block();
        bld.switch_to(entry);
        let c = bld.param(0);
        bld.branch(c, t, e);
        bld.switch_to(t);
        bld.jump(m);
        bld.switch_to(e);
        bld.jump(m);
        bld.switch_to(m);
        bld.ret(None);
        let f = bld.finish();
        let dt = domtree(&f);
        assert_eq!(dt.idom(m), Some(entry));
        assert!(!dt.dominates(t, m));
    }
}
