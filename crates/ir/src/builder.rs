//! Convenient construction of IR functions.

use crate::entities::{Block, ExtFuncId, FuncId, Inst, StackSlot, Value};
use crate::function::{
    BlockData, ExtFuncDecl, Function, InstNode, Signature, StackSlotData, ValueData, ValueDef,
};
use crate::instr::{CastOp, CmpOp, InstData, Opcode};
use crate::types::Type;
use std::cell::Cell;

/// The growing vectors of a function under construction. `finish` moves
/// their contents into exactly sized vectors and hands them back, empty
/// but with their capacity, to the next builder on the same thread: a
/// function's instructions, values and block layout cost one allocation
/// each, not one per doubling (or per block), and the IR a statement
/// cache keeps carries no spare capacity in them.
#[derive(Debug, Default)]
struct Buffers {
    insts: Vec<InstNode>,
    values: Vec<ValueData>,
    /// Instructions of each block; entries past the builder's block
    /// count are spare, kept for their capacity.
    blocks: Vec<Vec<Inst>>,
}

thread_local! {
    static SPARE: Cell<Buffers> = Cell::new(Buffers::default());
}

/// Builds a [`Function`] by appending instructions to a current block.
///
/// The builder mirrors how Umbra's operator translators emit IR: strictly
/// append-only, one pass, no mutation of already-emitted code.
///
/// # Example
/// ```
/// use qc_ir::{FunctionBuilder, Signature, Type};
/// let mut b = FunctionBuilder::new("abs_diff", Signature::new(vec![Type::I64, Type::I64], Type::I64));
/// let (entry, lt, ge) = (b.entry_block(), b.create_block(), b.create_block());
/// b.switch_to(entry);
/// let (x, y) = (b.param(0), b.param(1));
/// let c = b.icmp(qc_ir::CmpOp::SLt, Type::I64, x, y);
/// b.branch(c, lt, ge);
/// b.switch_to(lt);
/// let d1 = b.sub(Type::I64, y, x);
/// b.ret(Some(d1));
/// b.switch_to(ge);
/// let d2 = b.sub(Type::I64, x, y);
/// b.ret(Some(d2));
/// let f = b.finish();
/// assert_eq!(f.num_blocks(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    /// The function so far, its instructions and values in the growth
    /// buffers; no block is laid out before `finish`.
    func: Function,
    /// Instructions of each block (growth buffers too).
    blocks: Vec<Vec<Inst>>,
    num_blocks: usize,
    current: Option<Block>,
}

impl FunctionBuilder {
    /// Starts building a function with the given name and signature. The
    /// entry block exists from the start.
    pub fn new(name: impl Into<String>, sig: Signature) -> Self {
        let mut spare = SPARE.with(Cell::take);
        let params = (0..sig.params.len()).map(Value::new).collect();
        spare
            .values
            .extend(sig.params.iter().enumerate().map(|(i, &ty)| ValueData {
                ty,
                def: ValueDef::Param(i as u32),
            }));
        let mut b = FunctionBuilder {
            func: Function {
                name: name.into(),
                sig,
                params,
                blocks: Vec::new(),
                layout: Vec::new(),
                insts: spare.insts,
                values: spare.values,
                stack_slots: Vec::new(),
                ext_funcs: Vec::new(),
            },
            blocks: spare.blocks,
            num_blocks: 0,
            current: None,
        };
        b.create_block();
        b
    }

    /// The entry block.
    pub fn entry_block(&self) -> Block {
        Block::new(0)
    }

    /// Creates a new, empty block.
    pub fn create_block(&mut self) -> Block {
        let block = Block::new(self.num_blocks);
        match self.blocks.get_mut(self.num_blocks) {
            Some(spare) => spare.clear(),
            None => self.blocks.push(Vec::new()),
        }
        self.num_blocks += 1;
        block
    }

    /// Makes `block` the insertion point for subsequent instructions.
    pub fn switch_to(&mut self, block: Block) {
        self.current = Some(block);
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> Option<Block> {
        self.current
    }

    /// The `n`-th parameter value.
    pub fn param(&self, n: usize) -> Value {
        self.func.params()[n]
    }

    /// Declares a stack slot of `size` bytes with 16-byte alignment.
    pub fn stack_slot(&mut self, size: u32) -> StackSlot {
        let slots = &mut self.func.stack_slots;
        slots.push(StackSlotData { size, align: 16 });
        StackSlot::new(slots.len() - 1)
    }

    /// Declares (or re-uses) an external function.
    pub fn declare_ext_func(&mut self, decl: ExtFuncDecl) -> ExtFuncId {
        let decls = &mut self.func.ext_funcs;
        let pos = decls.iter().position(|d| *d == decl).unwrap_or_else(|| {
            decls.push(decl);
            decls.len() - 1
        });
        ExtFuncId::new(pos)
    }

    /// Read-only view of the function under construction: its values,
    /// instructions and declarations. Blocks are laid out by
    /// [`FunctionBuilder::finish`]; the view has none before.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Appends a raw instruction, returning its result value if any.
    ///
    /// # Panics
    /// Panics if no current block is set, or if appending to a block that
    /// already has a terminator.
    pub fn append(&mut self, data: InstData) -> (Inst, Option<Value>) {
        let block = self.current.expect("no current block set");
        let f = &mut self.func;
        if let Some(&last) = self.blocks[block.index()].last() {
            assert!(
                !f.inst(last).is_terminator(),
                "appending to terminated block {block}"
            );
        }
        let ty = f.inst_result_type(&data);
        let inst = Inst::new(f.insts.len());
        let result = (ty != Type::Void).then(|| {
            f.values.push(ValueData {
                ty,
                def: ValueDef::Inst(inst),
            });
            Value::new(f.values.len() - 1)
        });
        f.insts.push(InstNode { data, result });
        self.blocks[block.index()].push(inst);
        (inst, result)
    }

    fn value_inst(&mut self, data: InstData) -> Value {
        self.append(data).1.expect("instruction has no result")
    }

    /// Integer/bool/pointer constant.
    pub fn iconst(&mut self, ty: Type, imm: i128) -> Value {
        self.value_inst(InstData::IConst { ty, imm })
    }

    /// Float constant.
    pub fn fconst(&mut self, imm: f64) -> Value {
        self.value_inst(InstData::FConst { imm })
    }

    /// Generic binary operation.
    pub fn binary(&mut self, op: Opcode, ty: Type, a: Value, b: Value) -> Value {
        self.value_inst(InstData::Binary {
            op,
            ty,
            args: [a, b],
        })
    }

    /// Wrapping addition.
    pub fn add(&mut self, ty: Type, a: Value, b: Value) -> Value {
        self.binary(Opcode::Add, ty, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, ty: Type, a: Value, b: Value) -> Value {
        self.binary(Opcode::Sub, ty, a, b)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, ty: Type, a: Value, b: Value) -> Value {
        self.binary(Opcode::Mul, ty, a, b)
    }

    /// Integer comparison.
    pub fn icmp(&mut self, op: CmpOp, ty: Type, a: Value, b: Value) -> Value {
        self.value_inst(InstData::Cmp {
            op,
            ty,
            args: [a, b],
        })
    }

    /// Float comparison.
    pub fn fcmp(&mut self, op: CmpOp, a: Value, b: Value) -> Value {
        self.value_inst(InstData::FCmp { op, args: [a, b] })
    }

    /// Conversion.
    pub fn cast(&mut self, op: CastOp, to: Type, arg: Value) -> Value {
        self.value_inst(InstData::Cast { op, to, arg })
    }

    /// Zero-extension.
    pub fn zext(&mut self, to: Type, arg: Value) -> Value {
        self.cast(CastOp::Zext, to, arg)
    }

    /// Sign-extension.
    pub fn sext(&mut self, to: Type, arg: Value) -> Value {
        self.cast(CastOp::Sext, to, arg)
    }

    /// Truncation.
    pub fn trunc(&mut self, to: Type, arg: Value) -> Value {
        self.cast(CastOp::Trunc, to, arg)
    }

    /// CRC-32 hash step.
    pub fn crc32(&mut self, acc: Value, data: Value) -> Value {
        self.value_inst(InstData::Crc32 { args: [acc, data] })
    }

    /// Long-mul-fold hash combiner.
    pub fn long_mul_fold(&mut self, a: Value, b: Value) -> Value {
        self.value_inst(InstData::LongMulFold { args: [a, b] })
    }

    /// Conditional select.
    pub fn select(&mut self, ty: Type, cond: Value, if_true: Value, if_false: Value) -> Value {
        self.value_inst(InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        })
    }

    /// Memory load.
    pub fn load(&mut self, ty: Type, ptr: Value, offset: i32) -> Value {
        self.value_inst(InstData::Load { ty, ptr, offset })
    }

    /// Memory store.
    pub fn store(&mut self, ty: Type, ptr: Value, value: Value, offset: i32) {
        self.append(InstData::Store {
            ty,
            ptr,
            value,
            offset,
        });
    }

    /// Address arithmetic without a dynamic index.
    pub fn gep(&mut self, base: Value, offset: i64) -> Value {
        self.value_inst(InstData::Gep {
            base,
            offset,
            index: None,
            scale: 1,
        })
    }

    /// Address arithmetic with a dynamic scaled index.
    pub fn gep_indexed(&mut self, base: Value, offset: i64, index: Value, scale: u8) -> Value {
        self.value_inst(InstData::Gep {
            base,
            offset,
            index: Some(index),
            scale,
        })
    }

    /// Address of a stack slot.
    pub fn stack_addr(&mut self, slot: StackSlot) -> Value {
        self.value_inst(InstData::StackAddr { slot })
    }

    /// Call to an external runtime function.
    pub fn call(&mut self, callee: ExtFuncId, args: Vec<Value>) -> Option<Value> {
        self.append(InstData::Call { callee, args }).1
    }

    /// Address of another generated function.
    pub fn func_addr(&mut self, func: FuncId) -> Value {
        self.value_inst(InstData::FuncAddr { func })
    }

    /// SSA Φ-node. Must be emitted before any non-Φ instruction of the
    /// current block.
    pub fn phi(&mut self, ty: Type, pairs: Vec<(Block, Value)>) -> Value {
        self.value_inst(InstData::Phi { ty, pairs })
    }

    /// Extends an existing Φ with a new `(pred, value)` pair. Needed when
    /// generating loops, where back-edge operands become known only after
    /// the loop body is emitted.
    ///
    /// # Panics
    /// Panics if `phi` was not defined by a Φ-instruction.
    pub fn phi_add_incoming(&mut self, phi: Value, pred: Block, value: Value) {
        let inst = match self.func.value_def(phi) {
            ValueDef::Inst(i) => i,
            ValueDef::Param(_) => panic!("phi_add_incoming on non-instruction value"),
        };
        match &mut self.func.insts[inst.index()].data {
            InstData::Phi { pairs, .. } => pairs.push((pred, value)),
            _ => panic!("phi_add_incoming on non-phi instruction"),
        }
    }

    /// Unconditional jump.
    pub fn jump(&mut self, dest: Block) {
        self.append(InstData::Jump { dest });
    }

    /// Conditional branch.
    pub fn branch(&mut self, cond: Value, then_dest: Block, else_dest: Block) {
        self.append(InstData::Branch {
            cond,
            then_dest,
            else_dest,
        });
    }

    /// Return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.append(InstData::Return { value });
    }

    /// Marks the current point unreachable.
    pub fn unreachable(&mut self) {
        self.append(InstData::Unreachable);
    }

    /// Finishes construction and yields the function, its instructions,
    /// values and block layout sized to their contents.
    pub fn finish(mut self) -> Function {
        let lists = &self.blocks[..self.num_blocks];
        let mut layout = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut blocks = Vec::with_capacity(lists.len());
        for list in lists {
            let start = layout.len() as u32;
            layout.extend_from_slice(list);
            blocks.push(BlockData {
                start,
                end: layout.len() as u32,
            });
        }
        let f = &mut self.func;
        let mut spare = Buffers {
            insts: std::mem::take(&mut f.insts),
            values: std::mem::take(&mut f.values),
            blocks: std::mem::take(&mut self.blocks),
        };
        f.blocks = blocks;
        f.layout = layout;
        f.insts = exact(&mut spare.insts);
        f.values = exact(&mut spare.values);
        SPARE.with(|cell| cell.set(spare));
        self.func
    }
}

/// Moves `v`'s elements into a vector of exactly their number, leaving
/// `v` empty with its capacity.
fn exact<T>(v: &mut Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len());
    out.append(v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn build_loop_with_phi_backedge() {
        // sum = 0; for (i = 0; i < n; i++) sum += i; return sum;
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let mut b = FunctionBuilder::new("sum_to_n", sig);
        let entry = b.entry_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();

        b.switch_to(entry);
        let zero = b.iconst(Type::I64, 0);
        b.jump(header);

        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, zero)]);
        let sum = b.phi(Type::I64, vec![(entry, zero)]);
        let n = b.param(0);
        let cond = b.icmp(CmpOp::SLt, Type::I64, i, n);
        b.branch(cond, body, exit);

        b.switch_to(body);
        let sum2 = b.add(Type::I64, sum, i);
        let one = b.iconst(Type::I64, 1);
        let i2 = b.add(Type::I64, i, one);
        b.phi_add_incoming(i, body, i2);
        b.phi_add_incoming(sum, body, sum2);
        b.jump(header);

        b.switch_to(exit);
        b.ret(Some(sum));

        let f = b.finish();
        verify_function(&f).unwrap();
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn append_after_terminator_panics() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::Void));
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn append_without_block_panics() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::Void));
        b.ret(None);
    }

    #[test]
    fn stack_slots_and_calls() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::I64));
        let slot = b.stack_slot(32);
        let callee = b.declare_ext_func(ExtFuncDecl {
            name: "rt_fill".into(),
            sig: Signature::new(vec![Type::Ptr], Type::I64),
        });
        let e = b.entry_block();
        b.switch_to(e);
        let addr = b.stack_addr(slot);
        let r = b.call(callee, vec![addr]).unwrap();
        b.ret(Some(r));
        let f = b.finish();
        verify_function(&f).unwrap();
        assert_eq!(f.stack_slot(slot).size, 32);
    }
}
