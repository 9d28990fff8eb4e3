//! Rebuild-based optimization passes over IR functions.
//!
//! These are the classic scalar optimizations both optimizing back-ends of
//! the paper run (the LLVM analog's -O2 set, Sec. V-A1, and the C
//! compiler's -O3 pipeline, Sec. IV): common-subexpression elimination,
//! instruction combining, loop-invariant code motion, and dead-code
//! elimination. Every pass rewrites the function wholesale — repeated IR
//! rewriting is precisely the cost structure the paper attributes to
//! optimizing compilation.

use crate::{
    Block, Cfg, DomTree, Function, FunctionBuilder, InstData, Loops, Opcode, ReversePostorder,
    Value, ValueDef,
};
use std::collections::HashMap;

/// Rebuild-based function transformation: apply `keep`/`replace` decisions
/// computed by an optimization pass. `subst` maps an original value to the
/// value that should be used instead (CSE/InstCombine results); `drop`
/// marks instructions to omit (DCE/hoisted duplicates).
pub struct Rewrite {
    /// Instruction indices to omit.
    pub drop: Vec<bool>,
    /// Value substitutions (old → earlier equivalent).
    pub subst: HashMap<Value, Value>,
}

/// Applies a rewrite by rebuilding the function (LLVM-style repeated IR
/// rewriting; the cost is the point).
pub fn apply_rewrite(func: &Function, rw: &Rewrite) -> Function {
    let mut b = FunctionBuilder::new(&func.name, func.sig.clone());
    let mut map: HashMap<Value, Value> = HashMap::new();
    for (i, &p) in func.params().iter().enumerate() {
        map.insert(p, b.param(i));
    }
    for _ in func.blocks().skip(1) {
        b.create_block();
    }
    let mut slot_map = Vec::new();
    for s in func.stack_slots() {
        slot_map.push(b.stack_slot(s.size));
    }
    let mut ext_map = Vec::new();
    for d in func.ext_funcs() {
        ext_map.push(b.declare_ext_func(d.clone()));
    }
    let resolve = |map: &HashMap<Value, Value>, rw: &Rewrite, mut v: Value| -> Value {
        // Follow substitution chains, then remap into the new function.
        let mut guard = 0;
        while let Some(&n) = rw.subst.get(&v) {
            v = n;
            guard += 1;
            assert!(guard < 1000, "substitution cycle");
        }
        map[&v]
    };
    // Pre-create phis; incoming edges are filled after the rebuild.
    let mut phi_fixups: Vec<(Value, Vec<(Block, Value)>)> = Vec::new();
    for block in func.blocks() {
        b.switch_to(block);
        for &inst in func.block_insts(block) {
            if rw.drop[inst.index()] {
                continue;
            }
            if let InstData::Phi { ty, .. } = func.inst(inst) {
                let res = func.inst_result(inst).expect("phi result");
                let p = b.phi(*ty, Vec::new());
                map.insert(res, p);
            } else {
                break;
            }
        }
    }
    for block in func.blocks() {
        b.switch_to(block);
        for &inst in func.block_insts(block) {
            if rw.drop[inst.index()] {
                continue;
            }
            let data = func.inst(inst).clone();
            let res = func.inst_result(inst);
            if let InstData::Phi { pairs, .. } = data {
                phi_fixups.push((res.expect("phi result"), pairs));
                continue;
            }
            let remapped = remap_with(&data, |v| resolve(&map, rw, v), &slot_map, &ext_map);
            let (_, r) = b.append(remapped);
            if let (Some(orig), Some(new)) = (res, r) {
                map.insert(orig, new);
            }
        }
    }
    for (orig, pairs) in phi_fixups {
        let p = map[&orig];
        for (pred, v) in pairs {
            let nv = resolve(&map, rw, v);
            b.phi_add_incoming(p, pred, nv);
        }
    }
    b.finish()
}

fn remap_with(
    data: &InstData,
    mut m: impl FnMut(Value) -> Value,
    slot_map: &[crate::StackSlot],
    ext_map: &[crate::ExtFuncId],
) -> InstData {
    match data.clone() {
        InstData::IConst { ty, imm } => InstData::IConst { ty, imm },
        InstData::FConst { imm } => InstData::FConst { imm },
        InstData::Binary { op, ty, args } => InstData::Binary {
            op,
            ty,
            args: [m(args[0]), m(args[1])],
        },
        InstData::Cmp { op, ty, args } => InstData::Cmp {
            op,
            ty,
            args: [m(args[0]), m(args[1])],
        },
        InstData::FCmp { op, args } => InstData::FCmp {
            op,
            args: [m(args[0]), m(args[1])],
        },
        InstData::Cast { op, to, arg } => InstData::Cast {
            op,
            to,
            arg: m(arg),
        },
        InstData::Crc32 { args } => InstData::Crc32 {
            args: [m(args[0]), m(args[1])],
        },
        InstData::LongMulFold { args } => InstData::LongMulFold {
            args: [m(args[0]), m(args[1])],
        },
        InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => InstData::Select {
            ty,
            cond: m(cond),
            if_true: m(if_true),
            if_false: m(if_false),
        },
        InstData::Load { ty, ptr, offset } => InstData::Load {
            ty,
            ptr: m(ptr),
            offset,
        },
        InstData::Store {
            ty,
            ptr,
            value,
            offset,
        } => InstData::Store {
            ty,
            ptr: m(ptr),
            value: m(value),
            offset,
        },
        InstData::Gep {
            base,
            offset,
            index,
            scale,
        } => InstData::Gep {
            base: m(base),
            offset,
            index: index.map(&mut m),
            scale,
        },
        InstData::StackAddr { slot } => InstData::StackAddr {
            slot: slot_map[slot.index()],
        },
        InstData::Call { callee, args } => InstData::Call {
            callee: ext_map[callee.index()],
            args: args.into_iter().map(m).collect(),
        },
        InstData::FuncAddr { func } => InstData::FuncAddr { func },
        InstData::Jump { dest } => InstData::Jump { dest },
        InstData::Branch {
            cond,
            then_dest,
            else_dest,
        } => InstData::Branch {
            cond: m(cond),
            then_dest,
            else_dest,
        },
        InstData::Return { value } => InstData::Return {
            value: value.map(m),
        },
        InstData::Unreachable => InstData::Unreachable,
        InstData::Phi { .. } => unreachable!(),
    }
}

fn pure_key(data: &InstData) -> Option<String> {
    if data.has_side_effects() || data.is_terminator() {
        return None;
    }
    match data {
        InstData::Load { .. } | InstData::Phi { .. } => None, // loads not CSE'd (no alias info)
        _ => Some(format!("{data:?}")),
    }
}

/// Redundant-Φ pruning: a Φ whose incoming values are all the same value
/// (or the Φ itself) is replaced by that value. The C front end inserts
/// conservative Φs during SSA reconstruction; this pass (GCC would call it
/// part of its SSA cleanup) removes them.
pub fn pass_phi_prune(func: &Function) -> Function {
    let mut cur = func.clone();
    loop {
        let mut rw = Rewrite {
            drop: vec![false; cur.num_insts()],
            subst: HashMap::new(),
        };
        let mut any = false;
        for block in cur.blocks() {
            for &inst in cur.block_insts(block) {
                let InstData::Phi { pairs, .. } = cur.inst(inst) else {
                    continue;
                };
                let res = cur.inst_result(inst).expect("phi result");
                let mut unique: Option<Value> = None;
                let mut trivial = true;
                for &(_, v) in pairs {
                    if v == res {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        rw.subst.insert(res, u);
                        rw.drop[inst.index()] = true;
                        any = true;
                    }
                }
            }
        }
        if !any {
            return cur;
        }
        cur = apply_rewrite(&cur, &rw);
    }
}

/// Common-subexpression elimination (dominator-scoped value numbering).
pub fn pass_cse(func: &Function) -> Function {
    let cfg = Cfg::compute(func);
    let rpo = ReversePostorder::compute(&cfg);
    let dt = DomTree::compute(&cfg, &rpo);
    let mut rw = Rewrite {
        drop: vec![false; func.num_insts()],
        subst: HashMap::new(),
    };
    // Available expressions per key: (block, value); valid if the def
    // block dominates the current block.
    let mut avail: HashMap<String, Vec<(Block, Value)>> = HashMap::new();
    for &block in rpo.order() {
        for &inst in func.block_insts(block) {
            let data = func.inst(inst);
            if matches!(data, InstData::Phi { .. }) {
                continue;
            }
            let Some(res) = func.inst_result(inst) else {
                continue;
            };
            // Keys must be computed against already-substituted operands.
            let data = remap_with(
                data,
                |v| {
                    let mut v = v;
                    while let Some(&n) = rw.subst.get(&v) {
                        v = n;
                    }
                    v
                },
                &(0..func.stack_slots().len())
                    .map(crate::StackSlot::new)
                    .collect::<Vec<_>>(),
                &(0..func.ext_funcs().len())
                    .map(crate::ExtFuncId::new)
                    .collect::<Vec<_>>(),
            );
            let Some(key) = pure_key(&data) else { continue };
            let hits = avail.entry(key).or_default();
            if let Some(&(_, prev)) = hits.iter().find(|(db, _)| dt.dominates(*db, block)) {
                rw.subst.insert(res, prev);
                rw.drop[inst.index()] = true;
            } else {
                hits.push((block, res));
            }
        }
    }
    apply_rewrite(func, &rw)
}

/// Instruction combining: strength reduction and identity folds.
pub fn pass_instcombine(func: &Function) -> Function {
    let mut rw = Rewrite {
        drop: vec![false; func.num_insts()],
        subst: HashMap::new(),
    };
    let const_of = |v: Value| -> Option<i128> {
        match func.value_def(v) {
            ValueDef::Inst(i) => match func.inst(i) {
                InstData::IConst { imm, .. } => Some(*imm),
                _ => None,
            },
            ValueDef::Param(_) => None,
        }
    };
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            let Some(res) = func.inst_result(inst) else {
                continue;
            };
            if let InstData::Binary { op, args, .. } = func.inst(inst) {
                let identity = match op {
                    Opcode::Add | Opcode::Or | Opcode::Xor | Opcode::Shl | Opcode::LShr => 0,
                    Opcode::Mul => 1,
                    _ => continue,
                };
                if const_of(args[1]) == Some(identity) {
                    rw.subst.insert(res, args[0]);
                    rw.drop[inst.index()] = true;
                }
            }
        }
    }
    apply_rewrite(func, &rw)
}

/// Dead-code elimination.
pub fn pass_dce(func: &Function) -> Function {
    let mut used = vec![0u32; func.num_values()];
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            func.inst(inst).for_each_arg(|v| used[v.index()] += 1);
        }
    }
    let mut rw = Rewrite {
        drop: vec![false; func.num_insts()],
        subst: HashMap::new(),
    };
    // Iterate to a fixpoint (dropping one instruction may kill another).
    let mut changed = true;
    while changed {
        changed = false;
        for block in func.blocks() {
            for &inst in func.block_insts(block) {
                if rw.drop[inst.index()] {
                    continue;
                }
                let data = func.inst(inst);
                if data.has_side_effects() || data.is_terminator() {
                    continue;
                }
                if let Some(res) = func.inst_result(inst) {
                    if used[res.index()] == 0 {
                        rw.drop[inst.index()] = true;
                        data.for_each_arg(|v| used[v.index()] -= 1);
                        changed = true;
                    }
                }
            }
        }
    }
    apply_rewrite(func, &rw)
}

/// Loop-invariant code motion: hoists pure instructions whose operands are
/// defined outside the loop into the preheader.
pub fn pass_licm(func: &Function) -> Function {
    let cfg = Cfg::compute(func);
    let rpo = ReversePostorder::compute(&cfg);
    // The paper notes the dominator tree and loop info are computed twice
    // in the optimized pipeline; model that faithfully.
    let dt = DomTree::compute(&cfg, &rpo);
    let loops = Loops::compute(&cfg, &rpo, &dt);
    let dt2 = DomTree::compute(&cfg, &rpo);
    let loops2 = Loops::compute(&cfg, &rpo, &dt2);
    let _ = (dt2, loops2);

    // Build: for each loop, its preheader (unique out-of-loop pred of the
    // header) and the set of hoistable instructions.
    let mut hoist_to: HashMap<usize, Block> = HashMap::new(); // inst index -> preheader
    for l in loops.loops() {
        let preds = cfg.preds(l.header);
        let outside: Vec<Block> = preds
            .iter()
            .copied()
            .filter(|p| !l.blocks.contains(p))
            .collect();
        let [preheader] = outside[..] else { continue };
        let mut defined_in_loop = vec![false; func.num_values()];
        for &b in &l.blocks {
            for &i in func.block_insts(b) {
                if let Some(r) = func.inst_result(i) {
                    defined_in_loop[r.index()] = true;
                }
            }
        }
        // One hoisting round (LLVM iterates; one round captures the bulk).
        for &b in &l.blocks {
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                if data.has_side_effects()
                    || data.is_terminator()
                    || matches!(data, InstData::Phi { .. } | InstData::Load { .. })
                {
                    continue;
                }
                let mut invariant = true;
                data.for_each_arg(|v| invariant &= !defined_in_loop[v.index()]);
                if invariant {
                    if let Some(r) = func.inst_result(i) {
                        defined_in_loop[r.index()] = false; // now invariant
                        hoist_to.insert(i.index(), preheader);
                    }
                }
            }
        }
    }
    if hoist_to.is_empty() {
        return func.clone();
    }
    // Rebuild with hoisted instructions moved to their preheaders.
    let mut b = FunctionBuilder::new(&func.name, func.sig.clone());
    let mut map: HashMap<Value, Value> = HashMap::new();
    for (i, &p) in func.params().iter().enumerate() {
        map.insert(p, b.param(i));
    }
    for _ in func.blocks().skip(1) {
        b.create_block();
    }
    let mut slot_map = Vec::new();
    for s in func.stack_slots() {
        slot_map.push(b.stack_slot(s.size));
    }
    let mut ext_map = Vec::new();
    for d in func.ext_funcs() {
        ext_map.push(b.declare_ext_func(d.clone()));
    }
    for block in func.blocks() {
        b.switch_to(block);
        for &inst in func.block_insts(block) {
            if let InstData::Phi { ty, .. } = func.inst(inst) {
                let res = func.inst_result(inst).expect("phi result");
                let p = b.phi(*ty, Vec::new());
                map.insert(res, p);
            } else {
                break;
            }
        }
    }
    // Emission order: per block — non-hoisted instructions, but before the
    // terminator of a preheader, all instructions hoisted to it (in
    // original order; operands are loop-invariant, hence already mapped).
    let mut phi_fixups2: Vec<(Value, Vec<(Block, Value)>)> = Vec::new();
    let mut hoisted_per_block: HashMap<Block, Vec<crate::Inst>> = HashMap::new();
    for (i, &ph) in &hoist_to {
        hoisted_per_block
            .entry(ph)
            .or_default()
            .push(crate::Inst::new(*i));
    }
    for v in hoisted_per_block.values_mut() {
        v.sort_by_key(|i| i.index());
    }
    for block in func.blocks() {
        b.switch_to(block);
        let insts: Vec<crate::Inst> = func.block_insts(block).to_vec();
        for (pos, &inst) in insts.iter().enumerate() {
            let is_term = pos + 1 == insts.len();
            if is_term {
                if let Some(hoisted) = hoisted_per_block.get(&block) {
                    for &h in hoisted {
                        let data = func.inst(h).clone();
                        let remapped = remap_with(&data, |v| map[&v], &slot_map, &ext_map);
                        let (_, r) = b.append(remapped);
                        if let (Some(orig), Some(new)) = (func.inst_result(h), r) {
                            map.insert(orig, new);
                        }
                    }
                }
            }
            if hoist_to.contains_key(&inst.index()) {
                continue;
            }
            let data = func.inst(inst).clone();
            let res = func.inst_result(inst);
            if let InstData::Phi { pairs, .. } = data {
                phi_fixups2.push((res.expect("phi result"), pairs));
                continue;
            }
            let remapped = remap_with(&data, |v| map[&v], &slot_map, &ext_map);
            let (_, r) = b.append(remapped);
            if let (Some(orig), Some(new)) = (res, r) {
                map.insert(orig, new);
            }
        }
    }
    for (orig, pairs) in phi_fixups2 {
        let p = map[&orig];
        for (pred, v) in pairs {
            let nv = map[&v];
            b.phi_add_incoming(p, pred, nv);
        }
    }
    b.finish()
}
