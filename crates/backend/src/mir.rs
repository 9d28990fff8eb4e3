//! Shared machine-IR over virtual registers.
//!
//! Both multi-target back-ends (the Cranelift analog and the LLVM analog)
//! lower into this instruction form; each brings its own register
//! allocator and emission pipeline, which is where the paper's compile-time
//! differences live.

use qc_target::{AluOp, Cond, FReg, FaluOp, Reg, Width};

/// Call target of a runtime call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// Hard-wired absolute address (Cranelift style).
    Abs(u64),
    /// Symbolic reference resolved through PLT/GOT or at link time
    /// (LLVM style).
    Sym(String),
}

/// A virtual register.
pub type VReg = u32;
/// Sentinel for "no vreg".
pub const VNONE: VReg = u32::MAX;

/// Register class of a vreg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// General-purpose.
    Int,
    /// Floating-point.
    Float,
}

/// Machine-level instruction over virtual registers.
#[derive(Debug, Clone)]
pub enum MInst {
    /// Move.
    MovRR { d: VReg, s: VReg },
    /// Immediate.
    MovRI { d: VReg, imm: i64 },
    /// Three-address ALU.
    Alu {
        op: AluOp,
        w: Width,
        sf: bool,
        d: VReg,
        s1: VReg,
        s2: VReg,
    },
    /// ALU with immediate.
    AluImm {
        op: AluOp,
        w: Width,
        sf: bool,
        d: VReg,
        s1: VReg,
        imm: i64,
    },
    /// Full multiply.
    MulFull {
        dlo: VReg,
        dhi: VReg,
        a: VReg,
        b: VReg,
    },
    /// CRC-32.
    Crc32 { d: VReg, acc: VReg, data: VReg },
    /// Division.
    Div {
        signed: bool,
        rem: bool,
        w: Width,
        d: VReg,
        a: VReg,
        b: VReg,
    },
    /// Sign extension.
    Sext { from: Width, d: VReg, s: VReg },
    /// Address computation (`base + index * scale + disp`).
    Lea {
        d: VReg,
        base: VReg,
        index: Option<(VReg, u8)>,
        disp: i32,
    },
    /// Load.
    Load {
        w: Width,
        d: VReg,
        base: VReg,
        disp: i32,
    },
    /// Store.
    Store {
        w: Width,
        s: VReg,
        base: VReg,
        disp: i32,
    },
    /// Float load/store.
    FLoad { d: VReg, base: VReg, disp: i32 },
    /// Float store.
    FStore { s: VReg, base: VReg, disp: i32 },
    /// Compare.
    Cmp { w: Width, a: VReg, b: VReg },
    /// Compare with immediate.
    CmpImm { w: Width, a: VReg, imm: i64 },
    /// Materialize condition.
    SetCc { cond: Cond, d: VReg },
    /// Trap when condition holds.
    TrapIf { cond: Cond, code: u8 },
    /// Unconditional trap.
    Trap { code: u8 },
    /// Select on a materialized bool.
    Select {
        cond: VReg,
        d: VReg,
        t: VReg,
        f: VReg,
    },
    /// Select on the flags a preceding `Cmp`/`CmpImm` set: `d = cc ? t :
    /// f`, with no boolean materialized.
    SelectCc { cc: Cond, d: VReg, t: VReg, f: VReg },
    /// Float select.
    FSelect {
        cond: VReg,
        d: VReg,
        t: VReg,
        f: VReg,
    },
    /// Conditional branch (flags set by a preceding Cmp).
    Jcc { cond: Cond, target: usize },
    /// Jump.
    Jmp { target: usize },
    /// Runtime call.
    CallRt {
        target: CallTarget,
        args: Vec<VReg>,
        ret: Vec<VReg>,
    },
    /// Local function address (fixup at finish).
    FuncAddr { d: VReg, func: usize },
    /// Address of a frame-local slot (`sp + user_area + off`).
    FrameAddr { d: VReg, off: u32 },
    /// Float ALU.
    Falu {
        op: FaluOp,
        d: VReg,
        a: VReg,
        b: VReg,
    },
    /// Float compare (sets flags).
    FCmpM { a: VReg, b: VReg },
    /// Float register move.
    FMovM { d: VReg, s: VReg },
    /// Int → float bits.
    FMovFromGpr { d: VReg, s: VReg },
    /// Float bits → int.
    FMovToGpr { d: VReg, s: VReg },
    /// Int → float conversion.
    CvtSiToF { d: VReg, s: VReg },
    /// Float → int conversion.
    CvtFToSi { d: VReg, s: VReg },
    /// Parallel moves (block-parameter transfers); same-class pairs.
    ParMove { moves: Vec<(VReg, VReg)> },
    /// Return; values already moved to the ABI registers by emission.
    Ret { vals: Vec<VReg> },
}

impl MInst {
    /// Visits used vregs.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            MInst::MovRR { s, .. } | MInst::FMovM { s, .. } => f(*s),
            MInst::MovRI { .. }
            | MInst::SetCc { .. }
            | MInst::TrapIf { .. }
            | MInst::Trap { .. }
            | MInst::Jmp { .. }
            | MInst::Jcc { .. }
            | MInst::FuncAddr { .. }
            | MInst::FrameAddr { .. } => {}
            MInst::Alu { s1, s2, .. } => {
                f(*s1);
                f(*s2);
            }
            MInst::AluImm { s1, .. } => f(*s1),
            MInst::MulFull { a, b, .. }
            | MInst::Crc32 {
                acc: a, data: b, ..
            } => {
                f(*a);
                f(*b);
            }
            MInst::Div { a, b, .. } => {
                f(*a);
                f(*b);
            }
            MInst::Sext { s, .. } => f(*s),
            MInst::Load { base, .. } | MInst::FLoad { base, .. } => f(*base),
            MInst::Lea { base, index, .. } => {
                f(*base);
                if let Some((i, _)) = index {
                    f(*i);
                }
            }
            MInst::Store { s, base, .. } => {
                f(*s);
                f(*base);
            }
            MInst::FStore { s, base, .. } => {
                f(*s);
                f(*base);
            }
            MInst::Cmp { a, b, .. } | MInst::FCmpM { a, b } => {
                f(*a);
                f(*b);
            }
            MInst::CmpImm { a, .. } => f(*a),
            MInst::Select { cond, t, f: fv, .. } | MInst::FSelect { cond, t, f: fv, .. } => {
                f(*cond);
                f(*t);
                f(*fv);
            }
            MInst::SelectCc { t, f: fv, .. } => {
                f(*t);
                f(*fv);
            }
            MInst::CallRt { args, .. } => args.iter().copied().for_each(f),
            MInst::Falu { a, b, .. } => {
                f(*a);
                f(*b);
            }
            MInst::FMovFromGpr { s, .. }
            | MInst::FMovToGpr { s, .. }
            | MInst::CvtSiToF { s, .. }
            | MInst::CvtFToSi { s, .. } => f(*s),
            MInst::ParMove { moves } => moves.iter().for_each(|&(s, _)| f(s)),
            MInst::Ret { vals } => vals.iter().copied().for_each(f),
        }
    }

    /// Visits defined vregs.
    pub fn for_each_def(&self, mut f: impl FnMut(VReg)) {
        match self {
            MInst::MovRR { d, .. }
            | MInst::MovRI { d, .. }
            | MInst::AluImm { d, .. }
            | MInst::Alu { d, .. }
            | MInst::Crc32 { d, .. }
            | MInst::Div { d, .. }
            | MInst::Sext { d, .. }
            | MInst::Load { d, .. }
            | MInst::Lea { d, .. }
            | MInst::FLoad { d, .. }
            | MInst::SetCc { d, .. }
            | MInst::Select { d, .. }
            | MInst::SelectCc { d, .. }
            | MInst::FSelect { d, .. }
            | MInst::FuncAddr { d, .. }
            | MInst::FrameAddr { d, .. }
            | MInst::Falu { d, .. }
            | MInst::FMovM { d, .. }
            | MInst::FMovFromGpr { d, .. }
            | MInst::FMovToGpr { d, .. }
            | MInst::CvtSiToF { d, .. }
            | MInst::CvtFToSi { d, .. } => f(*d),
            MInst::MulFull { dlo, dhi, .. } => {
                f(*dlo);
                f(*dhi);
            }
            MInst::CallRt { ret, .. } => ret.iter().copied().for_each(f),
            MInst::ParMove { moves } => moves.iter().for_each(|&(_, d)| f(d)),
            _ => {}
        }
    }

    /// Whether this is a call (clobbers caller-saved registers).
    pub fn is_call(&self) -> bool {
        matches!(self, MInst::CallRt { .. })
    }
}

/// VCode for one function.
#[derive(Debug, Default)]
pub struct VCode {
    /// Function name.
    pub name: String,
    /// Instructions per block (block order = CIR block order plus splits).
    pub blocks: Vec<Vec<MInst>>,
    /// Successor blocks.
    pub succs: Vec<Vec<usize>>,
    /// Register class per vreg.
    pub classes: Vec<RegClass>,
    /// Flattened parameter vregs (entry-block live-ins from the ABI).
    pub params: Vec<VReg>,
    /// Lowering statistics: (fused icmp-brif, folded constants).
    pub fusions: (u64, u64),
}

/// Where a vreg lives after register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A general-purpose register.
    R(Reg),
    /// A float register.
    F(FReg),
    /// A spill slot (8 bytes each, sp-relative).
    Spill(u32),
}

/// Register-allocation result.
#[derive(Debug)]
pub struct Allocation {
    /// Location per vreg.
    pub locs: Vec<Loc>,
    /// Number of spill slots used.
    pub spill_slots: u32,
    /// Spilled-bundle/interval count (statistics).
    pub spills: u64,
    /// Constant per spill slot whose vreg is rematerialized: the emitter
    /// materializes it at each use and never stores to the slot. Empty
    /// unless the allocator rematerializes.
    pub remat: Vec<Option<i64>>,
}

impl Allocation {
    /// The rematerialized constant of spill slot `slot`, if any.
    pub fn remat(&self, slot: u32) -> Option<i64> {
        self.remat.get(slot as usize).copied().flatten()
    }
}
