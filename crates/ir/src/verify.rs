//! IR verifier: structural, type, and SSA-dominance checks.

use crate::cfg::{Cfg, ReversePostorder};
use crate::domtree::DomTree;
use crate::entities::{Block, Inst, Value};
use crate::function::{Function, Module, ValueDef};
use crate::instr::{CastOp, InstData};
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// Error produced by [`verify_function`] / [`verify_module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name the error occurred in.
    pub func: String,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification of @{} failed: {}", self.func, self.message)
    }
}

impl Error for VerifyError {}

struct Verifier<'a> {
    func: &'a Function,
    cfg: Cfg,
    dt: DomTree,
    rpo: ReversePostorder,
    /// block each instruction belongs to
    inst_block: Vec<Option<Block>>,
    /// position of each instruction within its block
    inst_pos: Vec<usize>,
}

impl<'a> Verifier<'a> {
    fn fail(&self, message: impl Into<String>) -> VerifyError {
        VerifyError {
            func: self.func.name.clone(),
            message: message.into(),
        }
    }

    fn check_structure(&mut self) -> Result<(), VerifyError> {
        for block in self.func.blocks() {
            let insts = self.func.block_insts(block);
            if insts.is_empty() {
                return Err(self.fail(format!("block {block} is empty")));
            }
            let mut seen_non_phi = false;
            for (pos, &inst) in insts.iter().enumerate() {
                if self.inst_block[inst.index()].is_some() {
                    return Err(self.fail(format!("instruction {inst} appears twice")));
                }
                self.inst_block[inst.index()] = Some(block);
                self.inst_pos[inst.index()] = pos;
                let data = self.func.inst(inst);
                let is_last = pos + 1 == insts.len();
                if data.is_terminator() != is_last {
                    return Err(self.fail(format!(
                        "block {block}: terminator placement wrong at {inst} ({})",
                        data.name()
                    )));
                }
                match data {
                    InstData::Phi { .. } if seen_non_phi => {
                        return Err(self.fail(format!(
                            "block {block}: phi {inst} after non-phi instruction"
                        )));
                    }
                    InstData::Phi { .. } => {}
                    _ => seen_non_phi = true,
                }
            }
        }
        Ok(())
    }

    fn ty_of(&self, v: Value) -> Type {
        self.func.value_type(v)
    }

    fn expect_ty(&self, inst: Inst, v: Value, ty: Type) -> Result<(), VerifyError> {
        let got = self.ty_of(v);
        // Pointers and 64-bit integers are interchangeable (the C back-end
        // round-trips addresses through plain integers, like CIR).
        let compat = got == ty
            || (matches!(got, Type::I64 | Type::Ptr) && matches!(ty, Type::I64 | Type::Ptr));
        if !compat {
            return Err(self.fail(format!(
                "{inst} ({}): operand {v} has type {}, expected {ty}",
                self.func.inst(inst).name(),
                self.ty_of(v)
            )));
        }
        Ok(())
    }

    fn check_types(&self) -> Result<(), VerifyError> {
        for block in self.func.blocks() {
            for &inst in self.func.block_insts(block) {
                self.check_inst_types(block, inst)?;
            }
        }
        Ok(())
    }

    fn check_inst_types(&self, block: Block, inst: Inst) -> Result<(), VerifyError> {
        let data = self.func.inst(inst);
        match data {
            InstData::IConst { ty, .. } => {
                if !ty.is_int() {
                    return Err(self.fail(format!("{inst}: iconst of non-integer type {ty}")));
                }
            }
            InstData::FConst { .. } => {}
            InstData::Binary { op, ty, args } => {
                if op.is_float() {
                    if *ty != Type::F64 {
                        return Err(self.fail(format!("{inst}: float op on {ty}")));
                    }
                } else if !ty.is_int() || *ty == Type::Bool || *ty == Type::Ptr {
                    return Err(self.fail(format!("{inst}: integer op on {ty}")));
                }
                self.expect_ty(inst, args[0], *ty)?;
                self.expect_ty(inst, args[1], *ty)?;
            }
            InstData::Cmp { ty, args, .. } => {
                if !ty.is_int() {
                    return Err(self.fail(format!("{inst}: cmp on non-integer {ty}")));
                }
                self.expect_ty(inst, args[0], *ty)?;
                self.expect_ty(inst, args[1], *ty)?;
            }
            InstData::FCmp { args, .. } => {
                self.expect_ty(inst, args[0], Type::F64)?;
                self.expect_ty(inst, args[1], Type::F64)?;
            }
            InstData::Cast { op, to, arg } => {
                let from = self.ty_of(*arg);
                match op {
                    CastOp::Zext | CastOp::Sext => {
                        if !from.is_int() || !to.is_int() || to.bits() < from.bits() {
                            return Err(
                                self.fail(format!("{inst}: invalid extension {from} -> {to}"))
                            );
                        }
                    }
                    CastOp::Trunc => {
                        if !from.is_int() || !to.is_int() || to.bits() > from.bits() {
                            return Err(
                                self.fail(format!("{inst}: invalid truncation {from} -> {to}"))
                            );
                        }
                    }
                    CastOp::SiToF => {
                        if !from.is_int() {
                            return Err(self.fail(format!("{inst}: sitof from {from}")));
                        }
                    }
                    CastOp::FToSi => {
                        if from != Type::F64 || !to.is_int() {
                            return Err(self.fail(format!("{inst}: ftosi {from} -> {to}")));
                        }
                    }
                }
            }
            InstData::Crc32 { args } | InstData::LongMulFold { args } => {
                self.expect_ty(inst, args[0], Type::I64)?;
                self.expect_ty(inst, args[1], Type::I64)?;
            }
            InstData::Select {
                ty,
                cond,
                if_true,
                if_false,
            } => {
                self.expect_ty(inst, *cond, Type::Bool)?;
                self.expect_ty(inst, *if_true, *ty)?;
                self.expect_ty(inst, *if_false, *ty)?;
            }
            InstData::Load { ty, ptr, .. } => {
                if *ty == Type::Void {
                    return Err(self.fail(format!("{inst}: load of void")));
                }
                self.expect_ty(inst, *ptr, Type::Ptr)?;
            }
            InstData::Store { ty, ptr, value, .. } => {
                self.expect_ty(inst, *ptr, Type::Ptr)?;
                self.expect_ty(inst, *value, *ty)?;
            }
            InstData::Gep {
                base, index, scale, ..
            } => {
                self.expect_ty(inst, *base, Type::Ptr)?;
                if let Some(i) = index {
                    self.expect_ty(inst, *i, Type::I64)?;
                }
                if !matches!(scale, 1 | 2 | 4 | 8 | 16) {
                    return Err(self.fail(format!("{inst}: invalid gep scale {scale}")));
                }
            }
            InstData::StackAddr { slot } => {
                if slot.index() >= self.func.stack_slots().len() {
                    return Err(self.fail(format!("{inst}: undeclared stack slot {slot}")));
                }
            }
            InstData::Call { callee, args } => {
                if callee.index() >= self.func.ext_funcs().len() {
                    return Err(self.fail(format!("{inst}: undeclared ext func {callee}")));
                }
                let sig = &self.func.ext_func(*callee).sig;
                if sig.params.len() != args.len() {
                    return Err(self.fail(format!(
                        "{inst}: call arity {} != {}",
                        args.len(),
                        sig.params.len()
                    )));
                }
                for (&arg, &ty) in args.iter().zip(sig.params.iter()) {
                    self.expect_ty(inst, arg, ty)?;
                }
            }
            InstData::FuncAddr { .. } => {}
            InstData::Phi { ty, pairs } => {
                let mut preds: Vec<Block> = self.cfg.preds(block).to_vec();
                preds.sort_unstable();
                preds.dedup();
                let mut phi_preds: Vec<Block> = pairs.iter().map(|&(b, _)| b).collect();
                phi_preds.sort_unstable();
                let dup = phi_preds.windows(2).any(|w| w[0] == w[1]);
                if dup {
                    return Err(self.fail(format!("{inst}: duplicate phi predecessor")));
                }
                if phi_preds != preds {
                    return Err(self.fail(format!(
                        "{inst}: phi predecessors {phi_preds:?} do not match CFG preds {preds:?}"
                    )));
                }
                for &(_, v) in pairs {
                    self.expect_ty(inst, v, *ty)?;
                }
            }
            InstData::Branch { cond, .. } => {
                self.expect_ty(inst, *cond, Type::Bool)?;
            }
            InstData::Jump { .. } | InstData::Unreachable => {}
            InstData::Return { value } => match (value, self.func.sig.ret) {
                (None, Type::Void) => {}
                (Some(_), Type::Void) => {
                    return Err(self.fail(format!("{inst}: return value in void function")))
                }
                (None, ret) => {
                    return Err(self.fail(format!("{inst}: missing return value of type {ret}")))
                }
                (Some(v), ret) => self.expect_ty(inst, *v, ret)?,
            },
        }
        // Branch/jump targets must exist.
        for succ in data.successors() {
            if succ.index() >= self.func.num_blocks() {
                return Err(self.fail(format!("{inst}: branch to undefined block {succ}")));
            }
        }
        Ok(())
    }

    fn def_site(&self, v: Value) -> Option<(Block, usize)> {
        match self.func.value_def(v) {
            ValueDef::Param(_) => Some((self.func.entry_block(), 0)),
            ValueDef::Inst(i) => self.inst_block[i.index()].map(|b| (b, self.inst_pos[i.index()])),
        }
    }

    fn check_dominance(&self) -> Result<(), VerifyError> {
        for block in self.func.blocks() {
            if !self.rpo.is_reachable(block) {
                continue;
            }
            for &inst in self.func.block_insts(block) {
                let data = self.func.inst(inst);
                if let InstData::Phi { pairs, .. } = data {
                    for &(pred, v) in pairs {
                        let Some((db, _)) = self.def_site(v) else {
                            return Err(
                                self.fail(format!("{inst}: phi operand {v} defined in dead code"))
                            );
                        };
                        if self.rpo.is_reachable(pred) && !self.dt.dominates(db, pred) {
                            return Err(self.fail(format!(
                                "{inst}: phi operand {v} (defined in {db}) does not dominate edge from {pred}"
                            )));
                        }
                    }
                    continue;
                }
                let pos = self.inst_pos[inst.index()];
                let mut bad = None;
                data.for_each_arg(|v| {
                    if bad.is_some() {
                        return;
                    }
                    match self.def_site(v) {
                        None => bad = Some((v, "defined in dead code".to_string())),
                        Some((db, dp)) => {
                            let param = matches!(self.func.value_def(v), ValueDef::Param(_));
                            let ok = if db == block && !param {
                                dp < pos
                            } else {
                                self.dt.dominates(db, block)
                            };
                            if !ok {
                                bad = Some((
                                    v,
                                    format!("defined in {db} which does not dominate use"),
                                ));
                            }
                        }
                    }
                });
                if let Some((v, why)) = bad {
                    return Err(self.fail(format!("{inst}: use of {v} {why}")));
                }
            }
        }
        Ok(())
    }
}

/// Verifies a single function.
///
/// Checks performed: every block has exactly one trailing terminator,
/// Φ-instructions are at block starts and their predecessor lists match the
/// CFG, all operands have the expected types, and every use is dominated by
/// its definition.
///
/// # Errors
/// Returns the first violated invariant.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    let cfg = Cfg::compute(func);
    let rpo = ReversePostorder::compute(&cfg);
    let dt = DomTree::compute(&cfg, &rpo);
    let mut v = Verifier {
        func,
        cfg,
        dt,
        rpo,
        inst_block: vec![None; func.num_insts()],
        inst_pos: vec![0; func.num_insts()],
    };
    v.check_structure()?;
    v.check_types()?;
    v.check_dominance()
}

/// Verifies every function of a module.
///
/// # Errors
/// Returns the first violated invariant, with the function name attached.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for func in module.functions() {
        verify_function(func)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Signature;
    use crate::instr::CmpOp;

    #[test]
    fn accepts_valid_function() {
        let mut b = FunctionBuilder::new("ok", Signature::new(vec![Type::I64], Type::I64));
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let y = b.add(Type::I64, x, x);
        b.ret(Some(y));
        verify_function(&b.finish()).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![Type::I32], Type::I64));
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        // i32 op declared as i64.
        let y = b.add(Type::I64, x, x);
        b.ret(Some(y));
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.message.contains("expected i64"), "{err}");
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![Type::I32], Type::I64));
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        b.ret(Some(x));
        assert!(verify_function(&b.finish()).is_err());
    }

    #[test]
    fn rejects_use_not_dominating() {
        // merge uses a value defined only on the `then` path.
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![Type::Bool], Type::I64));
        let entry = b.entry_block();
        let t = b.create_block();
        let f = b.create_block();
        let m = b.create_block();
        b.switch_to(entry);
        let c = b.param(0);
        b.branch(c, t, f);
        b.switch_to(t);
        let v = b.iconst(Type::I64, 1);
        b.jump(m);
        b.switch_to(f);
        b.jump(m);
        b.switch_to(m);
        b.ret(Some(v));
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.message.contains("does not dominate"), "{err}");
    }

    #[test]
    fn rejects_phi_with_wrong_preds() {
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![Type::Bool], Type::I64));
        let entry = b.entry_block();
        let m = b.create_block();
        b.switch_to(entry);
        let one = b.iconst(Type::I64, 1);
        b.jump(m);
        b.switch_to(m);
        // phi lists a non-existent predecessor.
        let p = b.phi(Type::I64, vec![(entry, one), (m, one)]);
        b.ret(Some(p));
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.message.contains("do not match CFG preds"), "{err}");
    }

    #[test]
    fn rejects_empty_block() {
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![], Type::Void));
        let _dead = b.create_block();
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        let err = verify_function(&b.finish()).unwrap_err();
        assert!(err.message.contains("empty"), "{err}");
    }

    #[test]
    fn rejects_bool_arithmetic() {
        let mut b = FunctionBuilder::new("bad", Signature::new(vec![Type::Bool], Type::Bool));
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let y = b.add(Type::Bool, x, x);
        b.ret(Some(y));
        assert!(verify_function(&b.finish()).is_err());
    }

    #[test]
    fn phi_operand_may_come_from_later_block() {
        // Loop back-edge: operand defined after the phi, still valid.
        let mut b = FunctionBuilder::new("loop", Signature::new(vec![], Type::Void));
        let entry = b.entry_block();
        let h = b.create_block();
        b.switch_to(entry);
        let zero = b.iconst(Type::I64, 0);
        b.jump(h);
        b.switch_to(h);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let one = b.iconst(Type::I64, 1);
        let i2 = b.add(Type::I64, i, one);
        b.phi_add_incoming(i, h, i2);
        let c = b.icmp(CmpOp::SLt, Type::I64, i2, one);
        let exit = b.create_block();
        b.branch(c, h, exit);
        b.switch_to(exit);
        b.ret(None);
        verify_function(&b.finish()).unwrap();
    }
}
