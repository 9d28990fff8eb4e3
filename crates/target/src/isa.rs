//! Register classes, operation enums, memory operands, and the per-ISA
//! ABI description shared by every back-end.
//!
//! The two ISAs are the paper's synthetic stand-ins for x86-64 and
//! AArch64 (Sec. II): **TX64** is CISC-ish (two-address ALU ops,
//! condition flags, variable-length encoding, 16 general registers) and
//! **TA64** is RISC (three-address, fixed 4-byte words, 30 general
//! registers, 5-bit register fields). Both share one register model so
//! compiled results are ISA-independent.

use std::fmt;

/// A general-purpose register. `Reg(n)` prints as `r{n}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The register number, as used in assembly text (`r{num}`).
    pub fn num(self) -> u8 {
        self.0
    }

    /// The register number widened for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A floating-point register (64-bit IEEE double). Prints as `f{n}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

impl FReg {
    /// The register number, as used in assembly text (`f{num}`).
    pub fn num(self) -> u8 {
        self.0
    }

    /// The register number widened for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Operation width for integer instructions. Results are always stored
/// zero-extended to 64 bits (the canonical register form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 8-bit operation.
    W8,
    /// 16-bit operation.
    W16,
    /// 32-bit operation.
    W32,
    /// 64-bit operation.
    W64,
}

impl Width {
    /// Number of bits this width covers.
    pub fn bits(self) -> u32 {
        match self {
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }

    /// Number of bytes this width covers.
    pub fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// All-ones mask covering the width.
    pub fn mask(self) -> u64 {
        match self {
            Width::W64 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            Width::W8 => 0,
            Width::W16 => 1,
            Width::W32 => 2,
            Width::W64 => 3,
        }
    }

    pub(crate) fn from_code(c: u8) -> Width {
        match c & 3 {
            0 => Width::W8,
            1 => Width::W16,
            2 => Width::W32,
            _ => Width::W64,
        }
    }
}

/// Integer ALU operations. On TX64 the machine form is two-address
/// (`dst op= src`); on TA64 it is three-address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Add with carry-in (for 128-bit sequences).
    Adc,
    /// Subtract with borrow-in (for 128-bit sequences).
    Sbb,
    /// Wrapping multiplication (`set_flags` reports signed overflow in
    /// the O flag).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left (amount masked by `bits - 1`).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Rotate right within the operation width.
    Rotr,
}

impl AluOp {
    pub(crate) fn code(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::Adc => 2,
            AluOp::Sbb => 3,
            AluOp::Mul => 4,
            AluOp::And => 5,
            AluOp::Or => 6,
            AluOp::Xor => 7,
            AluOp::Shl => 8,
            AluOp::Shr => 9,
            AluOp::Sar => 10,
            AluOp::Rotr => 11,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<AluOp> {
        Some(match c {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Adc,
            3 => AluOp::Sbb,
            4 => AluOp::Mul,
            5 => AluOp::And,
            6 => AluOp::Or,
            7 => AluOp::Xor,
            8 => AluOp::Shl,
            9 => AluOp::Shr,
            10 => AluOp::Sar,
            11 => AluOp::Rotr,
            _ => return None,
        })
    }
}

/// Floating-point ALU operations (all on 64-bit doubles).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaluOp {
    /// IEEE addition.
    Add,
    /// IEEE subtraction.
    Sub,
    /// IEEE multiplication.
    Mul,
    /// IEEE division.
    Div,
}

impl FaluOp {
    pub(crate) fn code(self) -> u8 {
        match self {
            FaluOp::Add => 0,
            FaluOp::Sub => 1,
            FaluOp::Mul => 2,
            FaluOp::Div => 3,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<FaluOp> {
        Some(match c {
            0 => FaluOp::Add,
            1 => FaluOp::Sub,
            2 => FaluOp::Mul,
            3 => FaluOp::Div,
            _ => return None,
        })
    }
}

/// Branch/set conditions evaluated against the flags register.
///
/// `Eq/Ne/Lt/Le/Gt/Ge` are the signed relations, `B/Be/A/Ae` the
/// unsigned ones (below/above), `O/No` test the overflow flag. After an
/// `fcmp` of unordered operands (NaN) only `Ne` holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF).
    Eq,
    /// Not equal (!ZF).
    Ne,
    /// Signed less-than (SF != OF).
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below (CF).
    B,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above.
    A,
    /// Unsigned above-or-equal (!CF).
    Ae,
    /// Overflow set.
    O,
    /// Overflow clear.
    No,
}

impl Cond {
    /// The complementary condition (`negated(c)` is true iff `c` is
    /// false for any integer flags state). Unordered float flags make
    /// every condition but [`Cond::Ne`] false, so a negated condition
    /// does not invert a branch on a float compare.
    pub fn negated(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::O => Cond::No,
            Cond::No => Cond::O,
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
            Cond::B => 6,
            Cond::Be => 7,
            Cond::A => 8,
            Cond::Ae => 9,
            Cond::O => 10,
            Cond::No => 11,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<Cond> {
        Some(match c {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Le,
            4 => Cond::Gt,
            5 => Cond::Ge,
            6 => Cond::B,
            7 => Cond::Be,
            8 => Cond::A,
            9 => Cond::Ae,
            10 => Cond::O,
            11 => Cond::No,
            _ => return None,
        })
    }
}

/// A memory operand: `[base + index*scale + disp]`.
///
/// TX64 supports the full form natively; the TA64 macro-assembler
/// lowers indexed or large-displacement forms to address arithmetic in
/// its reserved scratch registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemArg {
    /// Base register.
    pub base: Reg,
    /// Optional `(index, scale)`; scale is 1, 2, 4, or 8.
    pub index: Option<(Reg, u8)>,
    /// Byte displacement, sign-extended.
    pub disp: i32,
}

impl MemArg {
    /// A base-plus-displacement operand with no index.
    pub fn base_disp(base: Reg, disp: i32) -> MemArg {
        MemArg {
            base,
            index: None,
            disp,
        }
    }
}

/// The calling convention and register-class description of an ISA.
///
/// Arguments are passed in `arg_regs`; further 64-bit slots are read
/// from `[sp + 8*(i - arg_regs.len())]` at function entry (the emulator
/// keeps return addresses on a shadow stack, so no slot is skipped).
/// Results come back in `ret` / `ret_hi` (or `fret` for floats).
#[derive(Clone, Copy, Debug)]
pub struct Abi {
    /// Stack pointer (grows down, 16-byte aligned at entry).
    pub sp: Reg,
    /// Permanently reserved scratch register, clobbered by
    /// macro-instruction expansions and linker thunks; never
    /// allocatable and dead across every call boundary.
    pub scratch: Reg,
    /// Integer argument registers, in order.
    pub arg_regs: &'static [Reg],
    /// First (low) integer return register.
    pub ret: Reg,
    /// Second (high) integer return register, for 128-bit results.
    pub ret_hi: Reg,
    /// Registers a register allocator may use. Includes the emission
    /// scratches (the shared emitter excludes those itself).
    pub allocatable: &'static [Reg],
    /// Subset of `allocatable` preserved across calls.
    pub callee_saved: &'static [Reg],
    /// Float return register.
    pub fret: FReg,
    /// Reserved float scratch register (spill traffic), never
    /// allocatable.
    pub fscratch: FReg,
    /// Float registers a register allocator may use.
    pub fallocatable: &'static [FReg],
}

const fn regs<const N: usize>(start: u8) -> [Reg; N] {
    let mut out = [Reg(0); N];
    let mut i = 0;
    while i < N {
        out[i] = Reg(start + i as u8);
        i += 1;
    }
    out
}

const fn fregs<const N: usize>(start: u8) -> [FReg; N] {
    let mut out = [FReg(0); N];
    let mut i = 0;
    while i < N {
        out[i] = FReg(start + i as u8);
        i += 1;
    }
    out
}

static TX64_ARGS: [Reg; 8] = regs::<8>(0);
static TX64_ALLOC: [Reg; 14] = regs::<14>(0);
static TX64_CALLEE: [Reg; 3] = regs::<3>(11);
static TX64_FALLOC: [FReg; 15] = fregs::<15>(0);

/// The TX64 ABI: 16 GPRs, `sp = r15`, reserved scratch `r14`,
/// args in `r0..r7`, results in `r0`/`r1`, callee-saved `r11..r13`,
/// 16 FP registers with `f15` as the reserved float scratch.
pub static TX64_ABI: Abi = Abi {
    sp: Reg(15),
    scratch: Reg(14),
    arg_regs: &TX64_ARGS,
    ret: Reg(0),
    ret_hi: Reg(1),
    allocatable: &TX64_ALLOC,
    callee_saved: &TX64_CALLEE,
    fret: FReg(0),
    fscratch: FReg(15),
    fallocatable: &TX64_FALLOC,
};

static TA64_ARGS: [Reg; 8] = regs::<8>(0);
static TA64_ALLOC: [Reg; 26] = regs::<26>(0);
static TA64_CALLEE: [Reg; 9] = regs::<9>(17);
static TA64_FALLOC: [FReg; 15] = fregs::<15>(0);

/// The TA64 ABI: 30 GPRs, `sp = r29`, reserved scratch `r28` (plus
/// `r26`/`r27` as internal macro-expansion temporaries), args in
/// `r0..r7`, results in `r0`/`r1`, callee-saved `r17..r25`.
pub static TA64_ABI: Abi = Abi {
    sp: Reg(29),
    scratch: Reg(28),
    arg_regs: &TA64_ARGS,
    ret: Reg(0),
    ret_hi: Reg(1),
    allocatable: &TA64_ALLOC,
    callee_saved: &TA64_CALLEE,
    fret: FReg(0),
    fscratch: FReg(15),
    fallocatable: &TA64_FALLOC,
};

/// The two synthetic instruction-set architectures of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// CISC-style: two-address ops, flags, variable-length encoding,
    /// 16 general-purpose registers.
    Tx64,
    /// RISC-style: three-address ops, fixed 4-byte words, 30
    /// general-purpose registers, ±1 MiB direct branch range.
    Ta64,
}

impl Isa {
    /// The ABI description for this ISA.
    pub fn abi(self) -> &'static Abi {
        match self {
            Isa::Tx64 => &TX64_ABI,
            Isa::Ta64 => &TA64_ABI,
        }
    }

    /// Whether machine ALU instructions are two-address (`dst op= src`).
    /// True for TX64; register allocators insert the extra moves.
    pub fn is_two_address(self) -> bool {
        match self {
            Isa::Tx64 => true,
            Isa::Ta64 => false,
        }
    }

    /// Stable lower-case identifier, usable as a cache or report key.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Tx64 => "tx64",
            Isa::Ta64 => "ta64",
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Isa::Tx64 => write!(f, "TX64"),
            Isa::Ta64 => write!(f, "TA64"),
        }
    }
}
