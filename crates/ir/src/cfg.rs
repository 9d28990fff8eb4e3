//! Control-flow graph utilities: predecessors, successors, postorder.

use crate::entities::Block;
use crate::function::Function;

/// Predecessor/successor maps of a function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    preds: Vec<Vec<Block>>,
    succs: Vec<Vec<Block>>,
}

impl Cfg {
    /// Computes the CFG of `func` in one pass over the terminators.
    pub fn compute(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for block in func.blocks() {
            if func.block_insts(block).is_empty() {
                continue;
            }
            let term = func.terminator(block);
            for succ in func.inst(term).successors() {
                succs[block.index()].push(succ);
                preds[succ.index()].push(block);
            }
        }
        Cfg { preds, succs }
    }

    /// The CFG with the given successor lists (block 0 is the entry), for
    /// graphs that are not a [`Function`]'s, such as lowered machine code.
    pub fn from_succs(succs: Vec<Vec<Block>>) -> Self {
        let mut preds = vec![Vec::new(); succs.len()];
        for (b, ss) in succs.iter().enumerate() {
            for s in ss {
                preds[s.index()].push(Block::new(b));
            }
        }
        Cfg { preds, succs }
    }

    /// Predecessors of `block`, in terminator order.
    pub fn preds(&self, block: Block) -> &[Block] {
        &self.preds[block.index()]
    }

    /// Successors of `block`, in terminator order.
    pub fn succs(&self, block: Block) -> &[Block] {
        &self.succs[block.index()]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// Reverse post-order of the blocks reachable from the entry.
///
/// This is the iteration order of the DirectEmit code generation pass
/// (paper Sec. VII) and of most passes in the other back-ends.
#[derive(Debug, Clone)]
pub struct ReversePostorder {
    order: Vec<Block>,
    /// position[b] = index of b in `order`, or `usize::MAX` if unreachable.
    position: Vec<usize>,
}

impl ReversePostorder {
    /// Computes the RPO from the entry (block 0) using an iterative DFS.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.len();
        let entry = Block::new(0);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        let mut postorder = Vec::with_capacity(n);
        // Stack of (block, next successor index to visit).
        let mut stack = vec![(entry, 0usize)];
        state[entry.index()] = 1;
        while let Some(&mut (block, ref mut next)) = stack.last_mut() {
            let succs = cfg.succs(block);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[block.index()] = 2;
                postorder.push(block);
                stack.pop();
            }
        }
        postorder.reverse();
        let mut position = vec![usize::MAX; n];
        for (i, &b) in postorder.iter().enumerate() {
            position[b.index()] = i;
        }
        ReversePostorder {
            order: postorder,
            position,
        }
    }

    /// Blocks in reverse post-order (entry first).
    pub fn order(&self) -> &[Block] {
        &self.order
    }

    /// Position of `block` in the RPO, or `None` if unreachable.
    pub fn position(&self, block: Block) -> Option<usize> {
        let p = self.position[block.index()];
        (p != usize::MAX).then_some(p)
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: Block) -> bool {
        self.position(block).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Signature;
    use crate::instr::CmpOp;
    use crate::types::Type;

    /// entry -> (then | else) -> merge, plus one unreachable block.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", Signature::new(vec![Type::I64], Type::I64));
        let entry = b.entry_block();
        let t = b.create_block();
        let e = b.create_block();
        let merge = b.create_block();
        let dead = b.create_block();
        b.switch_to(entry);
        let x = b.param(0);
        let zero = b.iconst(Type::I64, 0);
        let c = b.icmp(CmpOp::SGt, Type::I64, x, zero);
        b.branch(c, t, e);
        b.switch_to(t);
        let one = b.iconst(Type::I64, 1);
        b.jump(merge);
        b.switch_to(e);
        let two = b.iconst(Type::I64, 2);
        b.jump(merge);
        b.switch_to(merge);
        let p = b.phi(Type::I64, vec![(t, one), (e, two)]);
        b.ret(Some(p));
        b.switch_to(dead);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let (entry, t, e, merge) = (Block::new(0), Block::new(1), Block::new(2), Block::new(3));
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(merge), &[t, e]);
        assert_eq!(cfg.preds(entry), &[] as &[Block]);
        assert_eq!(cfg.len(), 5);
    }

    #[test]
    fn rpo_visits_entry_first_and_skips_unreachable() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let rpo = ReversePostorder::compute(&cfg);
        assert_eq!(rpo.order()[0], Block::new(0));
        assert_eq!(rpo.order().len(), 4);
        assert!(!rpo.is_reachable(Block::new(4)));
        // merge must come after both then and else.
        let pos = |b| rpo.position(Block::new(b)).unwrap();
        assert!(pos(3) > pos(1));
        assert!(pos(3) > pos(2));
    }
}
