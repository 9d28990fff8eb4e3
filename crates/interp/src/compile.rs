//! Single-pass translation from IR to bytecode.

use crate::bytecode::{BcFunc, BcOp, Program, Slot};
use qc_backend::BackendError;
use qc_ir::{Block, Function, InstData, Module, Type, Value};
use qc_runtime::rt_index;

/// Compiles a module to bytecode.
///
/// # Errors
/// Returns [`BackendError`] for unknown runtime functions.
pub fn compile_module(module: &Module) -> Result<Program, BackendError> {
    let mut program = Program::default();
    for func in module.functions() {
        program.push(compile_func(func)?);
    }
    Ok(program)
}

struct FuncCompiler<'f> {
    func: &'f Function,
    slots: Vec<Slot>,
    code: Vec<BcOp>,
    block_pc: Vec<Option<u32>>,
    /// (op index, block) pairs whose targets need patching.
    fixups: Vec<(usize, Block, bool)>,
}

fn regs_of(ty: Type) -> u8 {
    ty.reg_count() as u8
}

fn compile_func(func: &Function) -> Result<BcFunc, BackendError> {
    // Slot assignment: one pass over values in definition order.
    let mut slots = Vec::with_capacity(func.num_values());
    let mut next: Slot = 0;
    for i in 0..func.num_values() {
        slots.push(next);
        next += func.value_type(Value::new(i)).reg_count();
    }
    // Frame layout for stack slots.
    let mut frame_offsets = Vec::new();
    let mut frame_size = 0u32;
    for s in func.stack_slots() {
        frame_size = (frame_size + s.align - 1) & !(s.align - 1);
        frame_offsets.push(frame_size);
        frame_size += s.size;
    }

    let mut c = FuncCompiler {
        func,
        slots,
        code: Vec::new(),
        block_pc: vec![None; func.num_blocks()],
        fixups: Vec::new(),
    };
    for block in func.blocks() {
        c.block_pc[block.index()] = Some(c.code.len() as u32);
        for &inst in func.block_insts(block) {
            c.compile_inst(block, inst, &frame_offsets)?;
        }
    }
    // Patch branch targets.
    for (at, block, is_else) in std::mem::take(&mut c.fixups) {
        let pc = c.block_pc[block.index()].expect("block compiled");
        match &mut c.code[at] {
            BcOp::Jump { target } => *target = pc,
            BcOp::BrIf {
                then_pc, else_pc, ..
            } => {
                if is_else {
                    *else_pc = pc;
                } else {
                    *then_pc = pc;
                }
            }
            _ => unreachable!("fixup on non-branch"),
        }
    }
    let param_slots: usize = func.sig.params.iter().map(|t| t.reg_count() as usize).sum();
    Ok(BcFunc::new(
        func.name.clone(),
        c.code,
        next as usize,
        frame_size as usize,
        param_slots,
    ))
}

impl FuncCompiler<'_> {
    fn slot(&self, v: Value) -> Slot {
        self.slots[v.index()]
    }

    fn res_slot(&self, inst: qc_ir::Inst) -> Slot {
        self.slot(self.func.inst_result(inst).expect("has result"))
    }

    /// Collects the Φ-copies for the edge `pred -> succ`.
    fn edge_copies(&self, pred: Block, succ: Block) -> Vec<(Slot, Slot, u8)> {
        let mut pairs = Vec::new();
        for &inst in self.func.block_insts(succ) {
            if let InstData::Phi {
                pairs: phi_pairs,
                ty,
            } = self.func.inst(inst)
            {
                if let Some(&(_, src)) = phi_pairs.iter().find(|&&(b, _)| b == pred) {
                    pairs.push((self.slot(src), self.res_slot(inst), regs_of(*ty)));
                }
            } else {
                break; // phis lead the block
            }
        }
        pairs
    }

    /// Emits edge copies + jump to `succ`; returns the op index of the
    /// first emitted op.
    fn emit_edge(&mut self, pred: Block, succ: Block) -> u32 {
        let at = self.code.len() as u32;
        let copies = self.edge_copies(pred, succ);
        if !copies.is_empty() {
            self.code.push(BcOp::Copies { pairs: copies });
        }
        let jmp_at = self.code.len();
        self.code.push(BcOp::Jump { target: 0 });
        self.fixups.push((jmp_at, succ, false));
        at
    }

    fn compile_inst(
        &mut self,
        block: Block,
        inst: qc_ir::Inst,
        frame_offsets: &[u32],
    ) -> Result<(), BackendError> {
        let data = self.func.inst(inst).clone();
        match data {
            InstData::Phi { .. } => {} // materialized on edges
            InstData::IConst { ty, imm } => {
                let dst = self.res_slot(inst);
                if ty == Type::I128 {
                    self.code.push(BcOp::ConstI128 { dst, val: imm });
                } else {
                    let mask = if ty.bits() >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << ty.bits()) - 1
                    };
                    self.code.push(BcOp::ConstI {
                        dst,
                        val: (imm as u64) & mask,
                    });
                }
            }
            InstData::FConst { imm } => {
                self.code.push(BcOp::ConstI {
                    dst: self.res_slot(inst),
                    val: imm.to_bits(),
                });
            }
            InstData::Binary { op, ty, args } => {
                self.code.push(BcOp::Bin {
                    op,
                    ty,
                    dst: self.res_slot(inst),
                    a: self.slot(args[0]),
                    b: self.slot(args[1]),
                });
            }
            InstData::Cmp { op, ty, args } => {
                self.code.push(BcOp::Cmp {
                    op,
                    ty,
                    dst: self.res_slot(inst),
                    a: self.slot(args[0]),
                    b: self.slot(args[1]),
                });
            }
            InstData::FCmp { op, args } => {
                self.code.push(BcOp::FCmp {
                    op,
                    dst: self.res_slot(inst),
                    a: self.slot(args[0]),
                    b: self.slot(args[1]),
                });
            }
            InstData::Cast { op, to, arg } => {
                self.code.push(BcOp::Cast {
                    op,
                    from: self.func.value_type(arg),
                    to,
                    dst: self.res_slot(inst),
                    src: self.slot(arg),
                });
            }
            InstData::Crc32 { args } => {
                self.code.push(BcOp::Crc32 {
                    dst: self.res_slot(inst),
                    acc: self.slot(args[0]),
                    data: self.slot(args[1]),
                });
            }
            InstData::LongMulFold { args } => {
                self.code.push(BcOp::LMulFold {
                    dst: self.res_slot(inst),
                    a: self.slot(args[0]),
                    b: self.slot(args[1]),
                });
            }
            InstData::Select {
                ty,
                cond,
                if_true,
                if_false,
            } => {
                self.code.push(BcOp::Select {
                    dst: self.res_slot(inst),
                    cond: self.slot(cond),
                    a: self.slot(if_true),
                    b: self.slot(if_false),
                    regs: regs_of(ty),
                });
            }
            InstData::Load { ty, ptr, offset } => {
                self.code.push(BcOp::Load {
                    ty,
                    dst: self.res_slot(inst),
                    ptr: self.slot(ptr),
                    off: offset,
                });
            }
            InstData::Store {
                ty,
                ptr,
                value,
                offset,
            } => {
                self.code.push(BcOp::Store {
                    ty,
                    ptr: self.slot(ptr),
                    src: self.slot(value),
                    off: offset,
                });
            }
            InstData::Gep {
                base,
                offset,
                index,
                scale,
            } => {
                self.code.push(BcOp::Gep {
                    dst: self.res_slot(inst),
                    base: self.slot(base),
                    off: offset,
                    index: index.map(|i| (self.slot(i), scale)),
                });
            }
            InstData::StackAddr { slot } => {
                self.code.push(BcOp::StackAddr {
                    dst: self.res_slot(inst),
                    frame_off: frame_offsets[slot.index()],
                });
            }
            InstData::Call { callee, args } => {
                let decl = self.func.ext_func(callee);
                let rt = rt_index(&decl.name).ok_or_else(|| {
                    BackendError::new(format!("unknown runtime function `{}`", decl.name))
                })?;
                let mut flat = Vec::new();
                for &a in &args {
                    let s = self.slot(a);
                    flat.push(s);
                    if self.func.value_type(a).reg_count() == 2 {
                        flat.push(s + 1);
                    }
                }
                let dst = self
                    .func
                    .inst_result(inst)
                    .map(|r| (self.slot(r), regs_of(self.func.value_type(r))));
                self.code.push(BcOp::Call {
                    rt_index: rt,
                    args: flat,
                    dst,
                });
            }
            InstData::FuncAddr { func } => {
                self.code.push(BcOp::FuncAddr {
                    dst: self.res_slot(inst),
                    func: func.index(),
                });
            }
            InstData::Jump { dest } => {
                self.emit_edge(block, dest);
            }
            InstData::Branch {
                cond,
                then_dest,
                else_dest,
            } => {
                let cond_slot = self.slot(cond);
                let then_copies = self.edge_copies(block, then_dest);
                let else_copies = self.edge_copies(block, else_dest);
                let brif_at = self.code.len();
                self.code.push(BcOp::BrIf {
                    cond: cond_slot,
                    then_pc: 0,
                    else_pc: 0,
                });
                // Then side.
                if then_copies.is_empty() {
                    self.fixups.push((brif_at, then_dest, false));
                } else {
                    let at = self.emit_edge(block, then_dest);
                    if let BcOp::BrIf { then_pc, .. } = &mut self.code[brif_at] {
                        *then_pc = at;
                    }
                }
                // Else side.
                if else_copies.is_empty() {
                    self.fixups.push((brif_at, else_dest, true));
                } else {
                    let at = self.emit_edge(block, else_dest);
                    if let BcOp::BrIf { else_pc, .. } = &mut self.code[brif_at] {
                        *else_pc = at;
                    }
                }
            }
            InstData::Return { value } => {
                let src = value.map(|v| (self.slot(v), regs_of(self.func.value_type(v))));
                self.code.push(BcOp::Ret { src });
            }
            InstData::Unreachable => self.code.push(BcOp::Unreachable),
        }
        Ok(())
    }
}
