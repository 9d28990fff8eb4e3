//! LIR: the LLVM-analog IR, plus its optimization passes.
//!
//! LIR reuses the workspace SSA structures (builder-based, Φ-nodes) but is
//! a **separate copy** constructed from Umbra IR — the paper times this
//! construction and the later destruction explicitly. Two construction
//! modes mirror the Sec. V-A2 ablation:
//!
//! * [`PairRepr::Scalars`] — 16-byte strings become two separate `i64`
//!   values (the paper's optimized representation),
//! * [`PairRepr::Struct`] — strings stay single two-register values, which
//!   later forces FastISel fallbacks ("every occurrence of this struct
//!   type would trigger a fallback").
//!
//! `i128` stays native in both modes, as in the paper.

pub use qc_ir::opt::{pass_cse, pass_dce, pass_instcombine, pass_licm};
use qc_ir::{
    Block, ExtFuncDecl, Function, FunctionBuilder, InstData, Module, Signature, Type, Value,
};
use std::collections::HashMap;

/// The `{i64,i64}` representation ablation (paper Sec. V-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRepr {
    /// Two separate `i64` values (optimized; the default).
    Scalars,
    /// One struct-like two-register value.
    Struct,
}

/// Builds the LIR module from the input module (timed as "irgen").
pub fn construct(module: &Module, repr: PairRepr) -> Module {
    let mut out = Module::new(&module.name);
    for func in module.functions() {
        out.push_function(construct_func(func, repr));
    }
    out
}

fn flatten_sig(sig: &Signature, repr: PairRepr) -> Signature {
    if repr == PairRepr::Struct {
        return sig.clone();
    }
    let mut params = Vec::new();
    for &p in sig.params.iter() {
        if p == Type::String {
            params.push(Type::I64);
            params.push(Type::I64);
        } else {
            params.push(p);
        }
    }
    // Return values keep the pair type: "structures are the only way to
    // represent functions with multiple return values".
    Signature::new(params, sig.ret)
}

#[derive(Clone, Copy)]
enum M {
    One(Value),
    Pair(Value, Value),
}

fn construct_func(func: &Function, repr: PairRepr) -> Function {
    let sig = flatten_sig(&func.sig, repr);
    let mut b = FunctionBuilder::new(&func.name, sig);
    let mut map: HashMap<Value, M> = HashMap::new();

    // Parameters.
    let mut slot = 0usize;
    for &p in func.params() {
        if func.value_type(p) == Type::String && repr == PairRepr::Scalars {
            map.insert(p, M::Pair(b.param(slot), b.param(slot + 1)));
            slot += 2;
        } else {
            map.insert(p, M::One(b.param(slot)));
            slot += 1;
        }
    }
    // Blocks.
    for _ in func.blocks().skip(1) {
        b.create_block();
    }
    // Stack slots / ext funcs copy.
    let mut slot_map = Vec::new();
    for s in func.stack_slots() {
        slot_map.push(b.stack_slot(s.size));
    }
    let mut ext_map = Vec::new();
    for d in func.ext_funcs() {
        ext_map.push(b.declare_ext_func(ExtFuncDecl {
            name: d.name.clone(),
            sig: flatten_sig(&d.sig, repr),
        }));
    }

    // Phi pre-creation (types possibly expanded).
    for block in func.blocks() {
        b.switch_to(block);
        for &inst in func.block_insts(block) {
            if let InstData::Phi { ty, .. } = func.inst(inst) {
                let res = func.inst_result(inst).expect("phi result");
                if *ty == Type::String && repr == PairRepr::Scalars {
                    let lo = b.phi(Type::I64, Vec::new());
                    let hi = b.phi(Type::I64, Vec::new());
                    map.insert(res, M::Pair(lo, hi));
                } else {
                    let v = b.phi(*ty, Vec::new());
                    map.insert(res, M::One(v));
                }
            } else {
                break;
            }
        }
    }

    let one = |map: &HashMap<Value, M>, v: Value| match map[&v] {
        M::One(x) => x,
        M::Pair(..) => panic!("pair where scalar expected"),
    };

    let mut phi_fixups: Vec<(Value, Vec<(Block, Value)>)> = Vec::new();
    for block in func.blocks() {
        b.switch_to(block);
        for &inst in func.block_insts(block) {
            let data = func.inst(inst).clone();
            let res = func.inst_result(inst);
            match data {
                InstData::Phi { pairs, .. } => {
                    // Defer incoming edges: back-edge operands are
                    // translated later.
                    phi_fixups.push((res.expect("phi result"), pairs));
                }
                InstData::Load {
                    ty: Type::String,
                    ptr,
                    offset,
                } if repr == PairRepr::Scalars => {
                    let p = one(&map, ptr);
                    let lo = b.load(Type::I64, p, offset);
                    let hi = b.load(Type::I64, p, offset + 8);
                    map.insert(res.expect("load result"), M::Pair(lo, hi));
                }
                InstData::Store {
                    ty: Type::String,
                    ptr,
                    value,
                    offset,
                } if repr == PairRepr::Scalars => {
                    let p = one(&map, ptr);
                    let M::Pair(lo, hi) = map[&value] else {
                        panic!("pair store")
                    };
                    b.store(Type::I64, p, lo, offset);
                    b.store(Type::I64, p, hi, offset + 8);
                }
                InstData::Select {
                    ty: Type::String,
                    cond,
                    if_true,
                    if_false,
                } if repr == PairRepr::Scalars => {
                    let c = one(&map, cond);
                    let M::Pair(tl, th) = map[&if_true] else {
                        panic!()
                    };
                    let M::Pair(fl, fh) = map[&if_false] else {
                        panic!()
                    };
                    let lo = b.select(Type::I64, c, tl, fl);
                    let hi = b.select(Type::I64, c, th, fh);
                    map.insert(res.expect("select result"), M::Pair(lo, hi));
                }
                InstData::Call { callee, args } => {
                    let mut flat = Vec::new();
                    for a in args {
                        match map[&a] {
                            M::One(x) => flat.push(x),
                            M::Pair(lo, hi) => {
                                flat.push(lo);
                                flat.push(hi);
                            }
                        }
                    }
                    let r = b.call(ext_map[callee.index()], flat);
                    if let Some(orig) = res {
                        let r = r.expect("call result");
                        // String-returning calls don't occur in query code;
                        // map scalar results directly.
                        map.insert(orig, M::One(r));
                    }
                }
                InstData::Return { value: Some(v) } => match map[&v] {
                    M::One(x) => b.ret(Some(x)),
                    M::Pair(lo, hi) => {
                        // Multiple return values need the struct form: pack
                        // the halves back into one two-register value.
                        // Represented by a synthetic string-typed reload
                        // via a stack slot would be costly; instead keep
                        // functions returning strings unexpanded.
                        let _ = (lo, hi);
                        unreachable!("query code never returns strings");
                    }
                },
                other => {
                    // Structural copy with operand remapping.
                    let remapped = remap(&other, &map, &slot_map, &ext_map);
                    let (_, r) = b.append(remapped);
                    if let (Some(orig), Some(new)) = (res, r) {
                        map.insert(orig, M::One(new));
                    }
                }
            }
        }
    }
    for (orig, pairs) in phi_fixups {
        match map[&orig] {
            M::One(p) => {
                for (pred, v) in pairs {
                    let src = one(&map, v);
                    b.phi_add_incoming(p, pred, src);
                }
            }
            M::Pair(plo, phi_hi) => {
                for (pred, v) in pairs {
                    let M::Pair(lo, hi) = map[&v] else {
                        panic!("pair phi")
                    };
                    b.phi_add_incoming(plo, pred, lo);
                    b.phi_add_incoming(phi_hi, pred, hi);
                }
            }
        }
    }
    b.finish()
}

fn remap(
    data: &InstData,
    map: &HashMap<Value, M>,
    slot_map: &[qc_ir::StackSlot],
    ext_map: &[qc_ir::ExtFuncId],
) -> InstData {
    let m = |v: Value| match map[&v] {
        M::One(x) => x,
        M::Pair(lo, _) => lo, // struct mode: pairs stay single values
    };
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
            index: index.map(m),
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
        InstData::Phi { .. } => unreachable!("phis handled separately"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{verify_function, CmpOp, Opcode};

    fn sample_with_redundancy() -> Function {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64], Type::I64));
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let a = b.add(Type::I64, x, x);
        let a2 = b.add(Type::I64, x, x); // CSE target
        let zero = b.iconst(Type::I64, 0);
        let a3 = b.add(Type::I64, a2, zero); // InstCombine target
        let dead = b.mul(Type::I64, a, a); // DCE target
        let _ = dead;
        let s = b.add(Type::I64, a, a3);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn cse_removes_duplicates() {
        let f = sample_with_redundancy();
        let g = pass_cse(&f);
        verify_function(&g).unwrap();
        assert!(g.num_insts() < f.num_insts());
    }

    #[test]
    fn instcombine_folds_identities() {
        let f = sample_with_redundancy();
        let g = pass_instcombine(&f);
        verify_function(&g).unwrap();
        assert!(g.num_insts() < f.num_insts());
    }

    #[test]
    fn dce_drops_dead_code() {
        let f = sample_with_redundancy();
        let g = pass_dce(&f);
        verify_function(&g).unwrap();
        assert!(g.num_insts() < f.num_insts());
    }

    #[test]
    fn licm_hoists_invariants() {
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
        // Loop-invariant: n * 3.
        let three = b.iconst(Type::I64, 3);
        let inv = b.mul(Type::I64, n, three);
        let i2 = b.add(Type::I64, i, inv);
        b.phi_add_incoming(i, body, i2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let g = pass_licm(&f);
        verify_function(&g).unwrap();
        // The multiply must now be outside the loop body (block 2).
        let body_insts = g.block_insts(Block::new(2));
        let muls_in_body = body_insts
            .iter()
            .filter(|&&i| {
                matches!(
                    g.inst(i),
                    InstData::Binary {
                        op: Opcode::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(muls_in_body, 0, "{}", qc_ir::print_function(&g));
    }

    #[test]
    fn construct_scalars_expands_strings() {
        let mut b = FunctionBuilder::new(
            "s",
            Signature::new(vec![Type::Ptr, Type::String], Type::Void),
        );
        let e = b.entry_block();
        b.switch_to(e);
        let p = b.param(0);
        let s = b.param(1);
        b.store(Type::String, p, s, 0);
        let l = b.load(Type::String, p, 16);
        b.store(Type::String, p, l, 32);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new("m");
        m.push_function(f);
        let scalars = construct(&m, PairRepr::Scalars);
        verify_function(&scalars.functions()[0]).unwrap();
        assert_eq!(scalars.functions()[0].sig.params.len(), 3); // ptr + 2×i64
        let structs = construct(&m, PairRepr::Struct);
        verify_function(&structs.functions()[0]).unwrap();
        assert_eq!(structs.functions()[0].sig.params.len(), 2);
    }
}
