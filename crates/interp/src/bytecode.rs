//! Register-based bytecode.

use qc_ir::{CastOp, CmpOp, Opcode, Type};
use std::collections::HashMap;

/// Base of the virtual address range used for bytecode function
/// references (e.g. sort comparators passed to the runtime).
pub const BYTECODE_BASE: u64 = 0x7bc0_0000_0000;

/// A register slot index (one 64-bit cell; two-register values occupy the
/// pair `slot`, `slot + 1`).
pub type Slot = u32;

/// One bytecode operation.
#[derive(Debug, Clone)]
pub enum BcOp {
    /// Load a constant into one slot.
    ConstI {
        /// Destination slot.
        dst: Slot,
        /// Value bits.
        val: u64,
    },
    /// Load a 128-bit constant into a slot pair.
    ConstI128 {
        /// Destination slot pair.
        dst: Slot,
        /// Value.
        val: i128,
    },
    /// Binary operation at an IR type.
    Bin {
        /// Operator.
        op: Opcode,
        /// Operand type.
        ty: Type,
        /// Destination.
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// Integer comparison.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Operand type.
        ty: Type,
        /// Destination (bool).
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// Float comparison (ordered).
    FCmp {
        /// Predicate.
        op: CmpOp,
        /// Destination (bool).
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// Conversion.
    Cast {
        /// Kind.
        op: CastOp,
        /// Source type.
        from: Type,
        /// Destination type.
        to: Type,
        /// Destination.
        dst: Slot,
        /// Source.
        src: Slot,
    },
    /// CRC-32 step.
    Crc32 {
        /// Destination.
        dst: Slot,
        /// Accumulator.
        acc: Slot,
        /// Data.
        data: Slot,
    },
    /// Long-mul-fold.
    LMulFold {
        /// Destination.
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// Conditional select of `regs` consecutive slots.
    Select {
        /// Destination.
        dst: Slot,
        /// Condition (bool slot).
        cond: Slot,
        /// Value when true.
        a: Slot,
        /// Value when false.
        b: Slot,
        /// Register count (1 or 2).
        regs: u8,
    },
    /// Memory load.
    Load {
        /// Loaded type.
        ty: Type,
        /// Destination.
        dst: Slot,
        /// Pointer slot.
        ptr: Slot,
        /// Byte offset.
        off: i32,
    },
    /// Memory store.
    Store {
        /// Stored type.
        ty: Type,
        /// Pointer slot.
        ptr: Slot,
        /// Source.
        src: Slot,
        /// Byte offset.
        off: i32,
    },
    /// Address computation.
    Gep {
        /// Destination.
        dst: Slot,
        /// Base pointer slot.
        base: Slot,
        /// Constant offset.
        off: i64,
        /// Optional `(index slot, scale)`.
        index: Option<(Slot, u8)>,
    },
    /// Address of a frame-local stack slot.
    StackAddr {
        /// Destination.
        dst: Slot,
        /// Byte offset within the frame buffer.
        frame_off: u32,
    },
    /// Runtime call.
    Call {
        /// Runtime function index.
        rt_index: usize,
        /// Flattened 64-bit argument slots.
        args: Vec<Slot>,
        /// Result destination and its register count.
        dst: Option<(Slot, u8)>,
    },
    /// Address of a bytecode function (for callbacks).
    FuncAddr {
        /// Destination.
        dst: Slot,
        /// Function index within the program.
        func: usize,
    },
    /// Parallel copies performed on a CFG edge (SSA Φ destruction).
    Copies {
        /// `(src, dst, regs)` triples, semantically simultaneous.
        pairs: Vec<(Slot, Slot, u8)>,
    },
    /// Unconditional jump to a bytecode pc.
    Jump {
        /// Target pc.
        target: u32,
    },
    /// Conditional branch.
    BrIf {
        /// Condition slot.
        cond: Slot,
        /// Target when true.
        then_pc: u32,
        /// Target when false.
        else_pc: u32,
    },
    /// Return.
    Ret {
        /// Returned slot and register count.
        src: Option<(Slot, u8)>,
    },
    /// Unreachable marker.
    Unreachable,
}

/// Dispatch overhead charged per executed bytecode operation, on top of
/// the operation's machine-equivalent cost. This models interpretation
/// overhead in the deterministic cycle model (Table III's interpreter row).
pub const DISPATCH_COST: u64 = 12;

/// Modeled cycles of one execution of `op` (runtime calls add the
/// helper's own cost when they execute).
fn op_cost(op: &BcOp) -> u64 {
    let base = match op {
        BcOp::ConstI { .. } | BcOp::ConstI128 { .. } => 1,
        BcOp::Bin { op, ty, .. } => {
            let wide = (*ty == Type::I128) as u64;
            match op {
                Opcode::Mul | Opcode::SMulTrap => 3 + wide * 9,
                Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem => 25 + wide * 15,
                _ => 1 + wide,
            }
        }
        BcOp::Cmp { .. } | BcOp::FCmp { .. } => 1,
        BcOp::Cast { .. } => 1,
        BcOp::Crc32 { .. } => 1,
        BcOp::LMulFold { .. } => 4,
        BcOp::Select { .. } => 1,
        BcOp::Load { .. } => 4,
        BcOp::Store { .. } => 2,
        BcOp::Gep { .. } | BcOp::StackAddr { .. } | BcOp::FuncAddr { .. } => 1,
        BcOp::Call { .. } => 3,
        BcOp::Copies { pairs } => pairs.len() as u64,
        BcOp::Jump { .. } => 1,
        BcOp::BrIf { .. } => 2,
        BcOp::Ret { .. } => 2,
        BcOp::Unreachable => 1,
    };
    base + DISPATCH_COST
}

/// One compiled bytecode function.
#[derive(Debug)]
pub struct BcFunc {
    /// Function name.
    pub name: String,
    /// Operations.
    pub code: Vec<BcOp>,
    /// Number of register slots.
    pub num_slots: usize,
    /// Total size of frame-local stack slots in bytes.
    pub frame_size: usize,
    /// Number of 64-bit parameter slots.
    pub param_slots: usize,
    /// Modeled cycles of `code[i]`, worked out once here instead of on
    /// every execution.
    pub(crate) costs: Vec<u64>,
    /// Cells the dispatch loop needs past the register file to stage a
    /// runtime call's arguments or a parallel copy's sources: the most
    /// any single operation of `code` asks for.
    pub(crate) scratch_slots: usize,
}

impl BcFunc {
    /// A function over `code`, with the per-operation costs and the
    /// scratch requirement derived from it.
    pub fn new(
        name: String,
        code: Vec<BcOp>,
        num_slots: usize,
        frame_size: usize,
        param_slots: usize,
    ) -> BcFunc {
        let costs = code.iter().map(op_cost).collect();
        let scratch_slots = code
            .iter()
            .map(|op| match op {
                BcOp::Call { args, .. } => args.len(),
                BcOp::Copies { pairs } => 2 * pairs.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        BcFunc {
            name,
            code,
            num_slots,
            frame_size,
            param_slots,
            costs,
            scratch_slots,
        }
    }
}

/// A compiled module.
#[derive(Debug, Default)]
pub struct Program {
    /// Functions by index.
    pub funcs: Vec<BcFunc>,
    by_name: HashMap<String, usize>,
}

impl Program {
    /// Adds a function.
    pub fn push(&mut self, func: BcFunc) {
        self.by_name.insert(func.name.clone(), self.funcs.len());
        self.funcs.push(func);
    }

    /// Index of a function by name.
    pub fn func_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Total bytecode operation count (compile-size metric).
    pub fn op_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Deterministic serialization of the whole program, used by the
    /// engine's determinism tests to compare translations byte for
    /// byte. Bytecode holds no addresses, so the `Debug` rendering of
    /// each operation is already position independent.
    pub fn content_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for f in &self.funcs {
            out.extend_from_slice(f.name.as_bytes());
            out.push(0);
            out.extend_from_slice(&(f.num_slots as u64).to_le_bytes());
            out.extend_from_slice(&(f.frame_size as u64).to_le_bytes());
            out.extend_from_slice(&(f.param_slots as u64).to_le_bytes());
            for op in &f.code {
                out.extend_from_slice(format!("{op:?};").as_bytes());
            }
        }
        out
    }
}
