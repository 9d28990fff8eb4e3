//! Property tests on the CFG analyses: dominators checked against a
//! naive set-intersection dataflow, liveness checked against an
//! independent from-scratch fixpoint, RPO edge ordering, and loop-body
//! dominance — on randomly generated structured (reducible) functions.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use qc_ir::{
    Block, Cfg, CmpOp, DomTree, Function, FunctionBuilder, InstData, Liveness, Loops, Opcode,
    ReversePostorder, Signature, Type, Value,
};

/// A structured program shape; generates only reducible control flow.
#[derive(Debug, Clone)]
enum Shape {
    /// `k` arithmetic instructions.
    Ops(u8),
    /// `if (pool cmp pool) { then } else { other }`.
    If(Box<Shape>, Box<Shape>),
    /// A counted loop around the body.
    While(Box<Shape>),
    /// Sequential composition.
    Seq(Box<Shape>, Box<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = (1u8..4).prop_map(Shape::Ops);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Shape::If(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|s| Shape::While(Box::new(s))),
            (inner.clone(), inner).prop_map(|(a, b)| Shape::Seq(Box::new(a), Box::new(b))),
        ]
    })
}

struct Gen {
    b: FunctionBuilder,
    /// Values usable at the current point (entry-dominated only, so any
    /// use site is dominated by the def).
    pool: Vec<Value>,
    counter: u64,
}

impl Gen {
    fn pick(&self, k: u64) -> Value {
        self.pool[(k as usize) % self.pool.len()]
    }

    fn emit(&mut self, shape: &Shape) {
        self.counter += 1;
        let c = self.counter;
        match shape {
            Shape::Ops(k) => {
                for j in 0..*k {
                    let a = self.pick(c + u64::from(j));
                    let b2 = self.pick(c * 7 + u64::from(j));
                    let op = match (c + u64::from(j)) % 4 {
                        0 => Opcode::Add,
                        1 => Opcode::Xor,
                        2 => Opcode::Sub,
                        _ => Opcode::Or,
                    };
                    let v = self.b.binary(op, Type::I64, a, b2);
                    // Values defined in straight-line code at this nesting
                    // level stay usable only within the shape (dropped by
                    // callers crossing join points), so keep the pool as-is
                    // and only thread `v` through a local overwrite.
                    let slot = (c as usize) % self.pool.len();
                    if self.b.current_block() == Some(self.b.entry_block()) {
                        // Entry-block defs dominate everything.
                        self.pool[slot] = v;
                    }
                }
            }
            Shape::Seq(a, b) => {
                self.emit(a);
                self.emit(b);
            }
            Shape::If(t, f) => {
                let a = self.pick(c);
                let b2 = self.pick(c * 3);
                let cond = self.b.icmp(CmpOp::SLt, Type::I64, a, b2);
                let then_bb = self.b.create_block();
                let else_bb = self.b.create_block();
                let join = self.b.create_block();
                self.b.branch(cond, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.emit(t);
                self.b.jump(join);
                self.b.switch_to(else_bb);
                self.emit(f);
                self.b.jump(join);
                self.b.switch_to(join);
            }
            Shape::While(body) => {
                let pre = self.b.current_block().expect("positioned");
                let zero = self.b.iconst(Type::I64, 0);
                let n = self.b.iconst(Type::I64, i128::from(c % 5));
                let header = self.b.create_block();
                let body_bb = self.b.create_block();
                let exit = self.b.create_block();
                self.b.jump(header);
                self.b.switch_to(header);
                let i = self.b.phi(Type::I64, vec![(pre, zero)]);
                let more = self.b.icmp(CmpOp::SLt, Type::I64, i, n);
                self.b.branch(more, body_bb, exit);
                self.b.switch_to(body_bb);
                self.emit(body);
                let one = self.b.iconst(Type::I64, 1);
                let i2 = self.b.add(Type::I64, i, one);
                let latch = self.b.current_block().expect("positioned");
                self.b.phi_add_incoming(i, latch, i2);
                self.b.jump(header);
                self.b.switch_to(exit);
            }
        }
    }
}

fn build(shape: &Shape) -> Function {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let p0 = b.param(0);
    let p1 = b.param(1);
    let mut g = Gen {
        b,
        pool: vec![p0, p1],
        counter: 0,
    };
    g.b.switch_to(entry);
    g.emit(shape);
    let r = g.pick(13);
    g.b.ret(Some(r));
    g.b.finish()
}

/// Naive dominance: iterative dataflow over full block sets.
fn naive_dominators(func: &Function, cfg: &Cfg, rpo: &ReversePostorder) -> Vec<BTreeSet<usize>> {
    let nb = func.num_blocks();
    let all: BTreeSet<usize> = (0..nb)
        .filter(|&i| rpo.is_reachable(Block::new(i)))
        .collect();
    let mut dom: Vec<BTreeSet<usize>> = (0..nb).map(|_| all.clone()).collect();
    dom[0] = BTreeSet::from([0]);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.order() {
            if b.index() == 0 {
                continue;
            }
            let mut new: Option<BTreeSet<usize>> = None;
            for &p in cfg.preds(b) {
                if !rpo.is_reachable(p) {
                    continue;
                }
                new = Some(match new {
                    None => dom[p.index()].clone(),
                    Some(acc) => acc.intersection(&dom[p.index()]).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(b.index());
            if new != dom[b.index()] {
                dom[b.index()] = new;
                changed = true;
            }
        }
    }
    dom
}

/// Independent from-scratch liveness with the same Φ convention (Φ inputs
/// are live-out of the predecessor, Φ results are block defs).
fn naive_liveness(func: &Function, cfg: &Cfg) -> (Vec<BTreeSet<u32>>, Vec<BTreeSet<u32>>) {
    let nb = func.num_blocks();
    let mut uses: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nb];
    let mut defs: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nb];
    let mut phi_out: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nb];
    for block in func.blocks() {
        let bi = block.index();
        for &inst in func.block_insts(block) {
            let data = func.inst(inst);
            if let InstData::Phi { pairs, .. } = data {
                for &(pred, val) in pairs {
                    phi_out[pred.index()].insert(val.index() as u32);
                }
            } else {
                data.for_each_arg(|v| {
                    if !defs[bi].contains(&(v.index() as u32)) {
                        uses[bi].insert(v.index() as u32);
                    }
                });
            }
            if let Some(res) = func.inst_result(inst) {
                defs[bi].insert(res.index() as u32);
            }
        }
    }
    let mut live_in: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nb];
    let mut live_out: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nb];
    loop {
        let mut changed = false;
        for bi in 0..nb {
            let mut out = phi_out[bi].clone();
            for &s in cfg.succs(Block::new(bi)) {
                out.extend(live_in[s.index()].iter().copied());
            }
            let mut inn: BTreeSet<u32> = out.difference(&defs[bi]).copied().collect();
            inn.extend(uses[bi].iter().copied());
            if out != live_out[bi] || inn != live_in[bi] {
                live_out[bi] = out;
                live_in[bi] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (live_in, live_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn domtree_matches_naive_dataflow(shape in shape_strategy()) {
        let f = build(&shape);
        qc_ir::verify_function(&f).expect("valid");
        let cfg = Cfg::compute(&f);
        let rpo = ReversePostorder::compute(&cfg);
        let dt = DomTree::compute(&cfg, &rpo);
        let naive = naive_dominators(&f, &cfg, &rpo);
        for a in f.blocks() {
            for b in f.blocks() {
                if !rpo.is_reachable(a) || !rpo.is_reachable(b) {
                    continue;
                }
                let fast = dt.dominates(a, b);
                let slow = naive[b.index()].contains(&a.index());
                prop_assert_eq!(
                    fast, slow,
                    "dominates({:?}, {:?}): fast {} naive {}", a, b, fast, slow
                );
            }
        }
        // idom must be a strict dominator dominated by all others.
        for b in f.blocks() {
            if b.index() == 0 || !rpo.is_reachable(b) { continue; }
            let id = dt.idom(b).expect("reachable non-entry has idom");
            prop_assert!(naive[b.index()].contains(&id.index()));
            for &d in &naive[b.index()] {
                if d != b.index() {
                    prop_assert!(
                        naive[id.index()].contains(&d),
                        "strict dominator {:?} of {:?} does not dominate idom {:?}", d, b, id
                    );
                }
            }
        }
    }

    #[test]
    fn liveness_matches_naive_fixpoint(shape in shape_strategy()) {
        let f = build(&shape);
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let (nin, nout) = naive_liveness(&f, &cfg);
        for b in f.blocks() {
            let bi = b.index();
            let got_in: BTreeSet<u32> =
                live.live_in(b).iter().map(|v| v.index() as u32).collect();
            let got_out: BTreeSet<u32> =
                live.live_out(b).iter().map(|v| v.index() as u32).collect();
            prop_assert_eq!(&got_in, &nin[bi], "live_in mismatch at {:?}", b);
            prop_assert_eq!(&got_out, &nout[bi], "live_out mismatch at {:?}", b);
        }
        // Nothing but parameters may be live into the entry block.
        let params: BTreeSet<u32> =
            f.params().iter().map(|v| v.index() as u32).collect();
        for v in &nin[0] {
            prop_assert!(params.contains(v), "non-param v{} live into entry", v);
        }
    }

    #[test]
    fn rpo_orders_forward_edges(shape in shape_strategy()) {
        let f = build(&shape);
        let cfg = Cfg::compute(&f);
        let rpo = ReversePostorder::compute(&cfg);
        // Each reachable block appears exactly once.
        let mut seen = HashMap::new();
        for (i, &b) in rpo.order().iter().enumerate() {
            prop_assert!(seen.insert(b, i).is_none(), "{:?} appears twice", b);
            prop_assert_eq!(rpo.position(b), Some(i));
        }
        let dt = DomTree::compute(&cfg, &rpo);
        let loops = Loops::compute(&cfg, &rpo, &dt);
        prop_assert!(!loops.is_irreducible(), "structured CFG must be reducible");
        for &b in rpo.order() {
            for &s in cfg.succs(b) {
                let (pb, ps) = (rpo.position(b).expect("pos"), rpo.position(s).expect("pos"));
                if ps <= pb {
                    // Retreating edge: must be a back edge to a dominating
                    // loop header in a reducible CFG.
                    prop_assert!(
                        dt.dominates(s, b),
                        "retreating edge {:?}->{:?} to a non-dominator", b, s
                    );
                    prop_assert!(loops.is_header(s));
                }
            }
        }
    }

    #[test]
    fn loop_headers_dominate_their_bodies(shape in shape_strategy()) {
        let f = build(&shape);
        let cfg = Cfg::compute(&f);
        let rpo = ReversePostorder::compute(&cfg);
        let dt = DomTree::compute(&cfg, &rpo);
        let loops = Loops::compute(&cfg, &rpo, &dt);
        for l in loops.loops() {
            for &b in &l.blocks {
                prop_assert!(
                    dt.dominates(l.header, b),
                    "loop header {:?} does not dominate body block {:?}", l.header, b
                );
                prop_assert!(loops.depth(b) >= loops.depth(l.header));
            }
        }
    }
}
