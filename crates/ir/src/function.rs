//! Functions, modules, and their dense storage.

use crate::entities::{Block, ExtFuncId, FuncId, Inst, StackSlot, Value};
use crate::instr::{CastOp, InstData};
use crate::types::Type;
use std::borrow::Cow;

/// A function signature: parameter types and a single return type
/// (`void` for no return value; two-register types like `i128`/`string`
/// are allowed and returned in a register pair).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Parameter types, in order: borrowed from a constant when the
    /// signature is fixed, so copying it allocates nothing.
    pub params: Cow<'static, [Type]>,
    /// Return type.
    pub ret: Type,
}

impl Signature {
    /// Creates a signature.
    pub fn new(params: Vec<Type>, ret: Type) -> Self {
        Signature {
            params: Cow::Owned(params),
            ret,
        }
    }

    /// A signature whose parameter types are a constant.
    pub const fn fixed(params: &'static [Type], ret: Type) -> Self {
        Signature {
            params: Cow::Borrowed(params),
            ret,
        }
    }
}

/// Declaration of an external (runtime) function referenced by generated
/// code. The actual address is resolved at link time through the symbol
/// name (LLVM back-end) or hard-wired (Cranelift back-end) — both handled
/// by the back-ends, not the IR. A declaration of a runtime function the
/// code generator knows borrows constant name and parameter types, so
/// declaring and copying it allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtFuncDecl {
    /// Symbol name, e.g. `"rt_hashtable_insert"`.
    pub name: Cow<'static, str>,
    /// Call signature.
    pub sig: Signature,
}

/// A stack slot declared on the function, allocated outside the
/// instruction stream (addressed via [`InstData::StackAddr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackSlotData {
    /// Slot size in bytes.
    pub size: u32,
    /// Required alignment in bytes (power of two).
    pub align: u32,
}

/// How a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `n`-th function parameter.
    Param(u32),
    /// The result of an instruction.
    Inst(Inst),
}

#[derive(Debug, Clone)]
pub(crate) struct ValueData {
    pub(crate) ty: Type,
    pub(crate) def: ValueDef,
}

/// An instruction with its result value.
#[derive(Debug, Clone)]
pub(crate) struct InstNode {
    pub(crate) data: InstData,
    pub(crate) result: Option<Value>,
}

/// A block's span of [`Function`]'s instruction layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockData {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// A function in SSA form.
///
/// All storage is dense and append-only: blocks, instructions and values
/// are `u32` entities indexing flat vectors, and every block is a span of
/// one instruction layout, matching the paper's description of Umbra IR
/// as "optimized for fast generation and linear traversal".
///
/// Use [`crate::FunctionBuilder`] to construct functions; it sizes the
/// instruction, value and layout vectors to their final length.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (unique within its module).
    pub name: String,
    /// Signature.
    pub sig: Signature,
    pub(crate) params: Vec<Value>,
    pub(crate) blocks: Vec<BlockData>,
    /// The instructions of block 0, then block 1, and so on.
    pub(crate) layout: Vec<Inst>,
    pub(crate) insts: Vec<InstNode>,
    pub(crate) values: Vec<ValueData>,
    pub(crate) stack_slots: Vec<StackSlotData>,
    pub(crate) ext_funcs: Vec<ExtFuncDecl>,
}

impl Function {
    /// The entry block (always block 0).
    pub fn entry_block(&self) -> Block {
        Block::new(0)
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of SSA values (parameters + instruction results).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Iterator over all blocks in layout order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        (0..self.blocks.len()).map(Block::new)
    }

    /// Instructions of `block` in order.
    pub fn block_insts(&self, block: Block) -> &[Inst] {
        let span = self.blocks[block.index()];
        &self.layout[span.start as usize..span.end as usize]
    }

    /// Instruction data.
    pub fn inst(&self, inst: Inst) -> &InstData {
        &self.insts[inst.index()].data
    }

    /// Result value of an instruction, if it produces one.
    pub fn inst_result(&self, inst: Inst) -> Option<Value> {
        self.insts[inst.index()].result
    }

    /// Parameter values, in order.
    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// The type of a value.
    pub fn value_type(&self, value: Value) -> Type {
        self.values[value.index()].ty
    }

    /// How a value is defined.
    pub fn value_def(&self, value: Value) -> ValueDef {
        self.values[value.index()].def
    }

    /// Declared stack slots.
    pub fn stack_slots(&self) -> &[StackSlotData] {
        &self.stack_slots
    }

    /// One stack slot.
    pub fn stack_slot(&self, slot: StackSlot) -> StackSlotData {
        self.stack_slots[slot.index()]
    }

    /// Declared external functions.
    pub fn ext_funcs(&self) -> &[ExtFuncDecl] {
        &self.ext_funcs
    }

    /// One external function declaration.
    pub fn ext_func(&self, id: ExtFuncId) -> &ExtFuncDecl {
        &self.ext_funcs[id.index()]
    }

    /// The terminator instruction of `block`.
    ///
    /// # Panics
    /// Panics if the block is empty (unterminated blocks are rejected by
    /// the verifier).
    pub fn terminator(&self, block: Block) -> Inst {
        *self
            .block_insts(block)
            .last()
            .expect("block has no terminator")
    }

    /// The result type an instruction produces (`void` for none).
    pub fn inst_result_type(&self, data: &InstData) -> Type {
        match data {
            InstData::IConst { ty, .. } => *ty,
            InstData::FConst { .. } => Type::F64,
            InstData::Binary { op, ty, .. } => {
                if op.produces_flag() {
                    Type::Bool
                } else {
                    *ty
                }
            }
            InstData::Cmp { .. } | InstData::FCmp { .. } => Type::Bool,
            InstData::Cast { op, to, .. } => match op {
                CastOp::SiToF => Type::F64,
                _ => *to,
            },
            InstData::Crc32 { .. } | InstData::LongMulFold { .. } => Type::I64,
            InstData::Select { ty, .. } => *ty,
            InstData::Load { ty, .. } => *ty,
            InstData::Gep { .. } | InstData::StackAddr { .. } | InstData::FuncAddr { .. } => {
                Type::Ptr
            }
            InstData::Call { callee, .. } => self.ext_funcs[callee.index()].sig.ret,
            InstData::Phi { ty, .. } => *ty,
            InstData::Store { .. }
            | InstData::Jump { .. }
            | InstData::Branch { .. }
            | InstData::Return { .. }
            | InstData::Unreachable => Type::Void,
        }
    }
}

/// A module: an ordered collection of functions compiled together.
///
/// In the database, one module corresponds to one query pipeline plus its
/// small setup/cleanup helpers (paper Sec. III: "compiling a pipeline also
/// involves some other small functions").
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (e.g. `"q17_pipeline3"`).
    pub name: String,
    functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Appends a function, returning its module-level id.
    pub fn push_function(&mut self, func: Function) -> FuncId {
        let id = FuncId::new(self.functions.len());
        self.functions.push(func);
        id
    }

    /// All functions in order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// One function.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn sample() -> Function {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let mut b = FunctionBuilder::new("f", sig);
        let entry = b.entry_block();
        b.switch_to(entry);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.add(Type::I64, x, y);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn params_are_values_with_types() {
        let f = sample();
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.value_type(f.params()[0]), Type::I64);
        assert_eq!(f.value_def(f.params()[1]), ValueDef::Param(1));
    }

    #[test]
    fn instruction_results_are_typed() {
        let f = sample();
        let insts = f.block_insts(f.entry_block());
        assert_eq!(insts.len(), 2);
        let add = insts[0];
        let res = f.inst_result(add).unwrap();
        assert_eq!(f.value_type(res), Type::I64);
        assert_eq!(f.value_def(res), ValueDef::Inst(add));
        assert!(f.inst_result(insts[1]).is_none());
    }

    #[test]
    fn terminator_is_last_inst() {
        let f = sample();
        let t = f.terminator(f.entry_block());
        assert!(f.inst(t).is_terminator());
    }

    #[test]
    fn ext_func_declarations_dedupe() {
        let sig = Signature::new(vec![], Type::Void);
        let mut b = FunctionBuilder::new("f", sig);
        let d = ExtFuncDecl {
            name: "rt_x".into(),
            sig: Signature::new(vec![Type::I64], Type::I64),
        };
        let a = b.declare_ext_func(d.clone());
        let c = b.declare_ext_func(d);
        assert_eq!(a, c);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        assert_eq!(b.finish().ext_funcs().len(), 1);
    }

    #[test]
    fn module_lookup_by_name() {
        let mut m = Module::new("m");
        let id = m.push_function(sample());
        assert_eq!(m.len(), 1);
        assert_eq!(m.function_by_name("f").unwrap().0, id);
        assert!(m.function_by_name("g").is_none());
    }
}
