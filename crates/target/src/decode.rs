//! Instruction decoding for both ISAs.
//!
//! [`decode_inst`] turns encoded bytes back into the ISA-independent
//! [`DecodedInst`] form. The emulator fills its decode cache from it —
//! once per fetched image offset, not once per executed instruction —
//! and the cgen back-end's disassembler prints from it; every
//! instruction either assembler can emit decodes into exactly one
//! variant (relocation sites excepted — the disassembler resolves those
//! through the recorded [`crate::Reloc`]s instead).

use crate::isa::{AluOp, Cond, FReg, FaluOp, Isa, MemArg, Reg, Width};
use crate::{ta64, tx64};
use std::fmt;

/// A decoded machine instruction, shared across ISAs.
///
/// TX64's two-address ALU forms decode with `src1 == dst`, so
/// re-assembling the printed form reproduces the original bytes.
/// Branch displacements (`rel`) are relative to the **end** of the
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DecodedInst {
    /// No operation.
    Nop,
    /// `dst = src`.
    MovRR {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst = imm` (full 64-bit write).
    MovRI {
        /// Destination.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Replace bits `[16*shift, 16*shift+16)` of `dst`. The TA64 `movz`
    /// decodes as `MovRI`; this is the `movk` continuation.
    MovK {
        /// Destination.
        dst: Reg,
        /// Replacement bits.
        imm16: u16,
        /// 16-bit chunk index (0–3).
        shift: u8,
    },
    /// `dst = src1 op src2` at `width`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Operation width.
        width: Width,
        /// Whether flags are written.
        set_flags: bool,
        /// Destination.
        dst: Reg,
        /// Left operand.
        src1: Reg,
        /// Right operand.
        src2: Reg,
    },
    /// `dst = src1 op imm` at `width`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Operation width.
        width: Width,
        /// Whether flags are written.
        set_flags: bool,
        /// Destination.
        dst: Reg,
        /// Left operand.
        src1: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Unsigned full multiply: `(dst_lo, dst_hi) = a * b`.
    MulFull {
        /// Low 64 bits of the product.
        dst_lo: Reg,
        /// High 64 bits of the product.
        dst_hi: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = crc32c(acc, data)`.
    Crc32 {
        /// Destination.
        dst: Reg,
        /// Accumulator input.
        acc: Reg,
        /// Data input.
        data: Reg,
    },
    /// Division/remainder (traps on zero divisor / signed overflow).
    Div {
        /// Signed or unsigned.
        signed: bool,
        /// Remainder instead of quotient.
        rem: bool,
        /// Operation width.
        width: Width,
        /// Destination.
        dst: Reg,
        /// Dividend.
        a: Reg,
        /// Divisor.
        b: Reg,
    },
    /// `dst = sign_extend(src from `from`)`.
    Sext {
        /// Source width.
        from: Width,
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// Zero-extending load.
    Load {
        /// Access width.
        width: Width,
        /// Destination.
        dst: Reg,
        /// Address operand.
        mem: MemArg,
    },
    /// Store of the low `width` bytes.
    Store {
        /// Access width.
        width: Width,
        /// Value to store.
        src: Reg,
        /// Address operand.
        mem: MemArg,
    },
    /// `dst = effective address`.
    Lea {
        /// Destination.
        dst: Reg,
        /// Address operand.
        mem: MemArg,
    },
    /// Flag-setting compare `a - b`.
    Cmp {
        /// Operation width.
        width: Width,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Flag-setting compare against an immediate.
    CmpImm {
        /// Operation width.
        width: Width,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// `dst = cond ? 1 : 0`.
    SetCc {
        /// Condition tested.
        cond: Cond,
        /// Destination.
        dst: Reg,
    },
    /// Conditional branch; `rel` is relative to the instruction end.
    Jcc {
        /// Condition tested.
        cond: Cond,
        /// Byte displacement from the instruction end.
        rel: i32,
    },
    /// Unconditional branch.
    Jmp {
        /// Byte displacement from the instruction end.
        rel: i32,
    },
    /// Indirect jump through `reg`.
    JmpInd {
        /// Target address register.
        reg: Reg,
    },
    /// Relative call; pushes a shadow-stack frame.
    Call {
        /// Byte displacement from the instruction end.
        rel: i32,
    },
    /// Indirect call through `reg`.
    CallInd {
        /// Target address register.
        reg: Reg,
    },
    /// Return through the shadow call stack.
    Ret,
    /// `sp -= 8; [sp] = src` (TX64 only).
    Push {
        /// Value pushed.
        src: Reg,
    },
    /// `dst = [sp]; sp += 8` (TX64 only).
    Pop {
        /// Destination.
        dst: Reg,
    },
    /// Float arithmetic `dst = a op b`.
    Falu {
        /// Operation.
        op: FaluOp,
        /// Destination.
        dst: FReg,
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
    },
    /// Float compare (sets integer flags; unordered satisfies only
    /// `Ne`).
    FCmp {
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
    },
    /// Float register move.
    FMov {
        /// Destination.
        dst: FReg,
        /// Source.
        src: FReg,
    },
    /// Bit-move GPR → float register.
    FMovFromGpr {
        /// Destination.
        dst: FReg,
        /// Source.
        src: Reg,
    },
    /// Bit-move float register → GPR.
    FMovToGpr {
        /// Destination.
        dst: Reg,
        /// Source.
        src: FReg,
    },
    /// `dst = (double)(signed)src`.
    CvtSiToF {
        /// Destination.
        dst: FReg,
        /// Source.
        src: Reg,
    },
    /// `dst = (i64)src`; traps on NaN/out-of-range.
    CvtFToSi {
        /// Destination.
        dst: Reg,
        /// Source.
        src: FReg,
    },
    /// Float load from `[base + disp]`.
    FLoad {
        /// Destination.
        dst: FReg,
        /// Address operand.
        mem: MemArg,
    },
    /// Float store to `[base + disp]`.
    FStore {
        /// Value stored.
        src: FReg,
        /// Address operand.
        mem: MemArg,
    },
    /// Unconditional trap (0 = unreachable, 1 = overflow, else
    /// a runtime-defined code).
    Trap {
        /// Trap code.
        code: u8,
    },
}

/// A decoding failure: truncated input or an undefined opcode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    off: usize,
    what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at offset {:#x}: {}", self.off, self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one instruction of `isa` at byte `off`, returning the
/// instruction and its encoded length in bytes.
///
/// # Errors
/// Fails on truncated input or an undefined opcode.
pub fn decode_inst(isa: Isa, code: &[u8], off: usize) -> Result<(DecodedInst, u8), DecodeError> {
    match isa {
        Isa::Tx64 => decode_tx64(code, off),
        Isa::Ta64 => decode_ta64(code, off),
    }
}

fn take<const N: usize>(code: &[u8], off: usize) -> Result<[u8; N], DecodeError> {
    code.get(off..off + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(DecodeError {
            off,
            what: "truncated instruction",
        })
}

fn decode_tx64(code: &[u8], off: usize) -> Result<(DecodedInst, u8), DecodeError> {
    use tx64::opc;
    use DecodedInst as I;
    let op = *code.get(off).ok_or(DecodeError {
        off,
        what: "end of code",
    })?;
    let b = |i: usize| -> Result<u8, DecodeError> {
        code.get(off + i).copied().ok_or(DecodeError {
            off,
            what: "truncated instruction",
        })
    };
    let i32_at = |i: usize| -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(take::<4>(code, off + i)?))
    };
    let wsf = |v: u8| (Width::from_code(v & 3), v & 4 != 0);
    Ok(match op {
        opc::NOP => (I::Nop, 1),
        opc::MOVRR => (
            I::MovRR {
                dst: Reg(b(1)?),
                src: Reg(b(2)?),
            },
            3,
        ),
        opc::MOVRI32 => (
            I::MovRI {
                dst: Reg(b(1)?),
                imm: i32_at(2)? as i64,
            },
            6,
        ),
        opc::MOVRI64 => {
            let imm = i64::from_le_bytes(take::<8>(code, off + 2)?);
            (
                I::MovRI {
                    dst: Reg(b(1)?),
                    imm,
                },
                10,
            )
        }
        opc::MOVK => {
            let imm16 = u16::from_le_bytes(take::<2>(code, off + 3)?);
            (
                I::MovK {
                    dst: Reg(b(1)?),
                    imm16,
                    shift: b(2)?,
                },
                5,
            )
        }
        opc::ALURR => {
            let aluop = AluOp::from_code(b(1)?).ok_or(DecodeError {
                off,
                what: "undefined ALU op",
            })?;
            let (width, set_flags) = wsf(b(2)?);
            let dst = Reg(b(3)?);
            (
                I::Alu {
                    op: aluop,
                    width,
                    set_flags,
                    dst,
                    src1: dst,
                    src2: Reg(b(4)?),
                },
                5,
            )
        }
        opc::ALURI8 | opc::ALURI32 => {
            let aluop = AluOp::from_code(b(1)?).ok_or(DecodeError {
                off,
                what: "undefined ALU op",
            })?;
            let (width, set_flags) = wsf(b(2)?);
            let dst = Reg(b(3)?);
            let (imm, len) = if op == opc::ALURI8 {
                (b(4)? as i8 as i64, 5)
            } else {
                (i32_at(4)? as i64, 8)
            };
            (
                I::AluImm {
                    op: aluop,
                    width,
                    set_flags,
                    dst,
                    src1: dst,
                    imm,
                },
                len,
            )
        }
        opc::MULFULL => (
            I::MulFull {
                dst_lo: Reg(b(1)?),
                dst_hi: Reg(b(2)?),
                a: Reg(b(3)?),
                b: Reg(b(4)?),
            },
            5,
        ),
        opc::CRC32 => (
            I::Crc32 {
                dst: Reg(b(1)?),
                acc: Reg(b(2)?),
                data: Reg(b(3)?),
            },
            4,
        ),
        opc::DIV => {
            let srw = b(1)?;
            (
                I::Div {
                    signed: srw & 1 != 0,
                    rem: srw & 2 != 0,
                    width: Width::from_code(srw >> 2),
                    dst: Reg(b(2)?),
                    a: Reg(b(3)?),
                    b: Reg(b(4)?),
                },
                5,
            )
        }
        opc::SEXT => (
            I::Sext {
                from: Width::from_code(b(1)?),
                dst: Reg(b(2)?),
                src: Reg(b(3)?),
            },
            4,
        ),
        opc::LOAD | opc::LOADX | opc::STORE | opc::STOREX => {
            let width = Width::from_code(b(1)?);
            let reg = Reg(b(2)?);
            let (mem, len) = if op == opc::LOADX || op == opc::STOREX {
                (
                    MemArg {
                        base: Reg(b(3)?),
                        index: Some((Reg(b(4)?), b(5)?)),
                        disp: i32_at(6)?,
                    },
                    10,
                )
            } else {
                (
                    MemArg {
                        base: Reg(b(3)?),
                        index: None,
                        disp: i32_at(4)?,
                    },
                    8,
                )
            };
            if op == opc::LOAD || op == opc::LOADX {
                (
                    I::Load {
                        width,
                        dst: reg,
                        mem,
                    },
                    len,
                )
            } else {
                (
                    I::Store {
                        width,
                        src: reg,
                        mem,
                    },
                    len,
                )
            }
        }
        opc::LEA => (
            I::Lea {
                dst: Reg(b(1)?),
                mem: MemArg {
                    base: Reg(b(2)?),
                    index: None,
                    disp: i32_at(3)?,
                },
            },
            7,
        ),
        opc::LEAX => (
            I::Lea {
                dst: Reg(b(1)?),
                mem: MemArg {
                    base: Reg(b(2)?),
                    index: Some((Reg(b(3)?), b(4)?)),
                    disp: i32_at(5)?,
                },
            },
            9,
        ),
        opc::CMP => (
            I::Cmp {
                width: Width::from_code(b(1)?),
                a: Reg(b(2)?),
                b: Reg(b(3)?),
            },
            4,
        ),
        opc::CMPI => (
            I::CmpImm {
                width: Width::from_code(b(1)?),
                a: Reg(b(2)?),
                imm: i32_at(3)? as i64,
            },
            7,
        ),
        opc::SETCC => {
            let cond = Cond::from_code(b(1)?).ok_or(DecodeError {
                off,
                what: "undefined condition",
            })?;
            (
                I::SetCc {
                    cond,
                    dst: Reg(b(2)?),
                },
                3,
            )
        }
        opc::JCC => {
            let cond = Cond::from_code(b(1)?).ok_or(DecodeError {
                off,
                what: "undefined condition",
            })?;
            (
                I::Jcc {
                    cond,
                    rel: i32_at(2)?,
                },
                6,
            )
        }
        opc::JMP => (I::Jmp { rel: i32_at(1)? }, 5),
        opc::JMPIND => (I::JmpInd { reg: Reg(b(1)?) }, 2),
        opc::CALL => (I::Call { rel: i32_at(1)? }, 5),
        opc::CALLIND => (I::CallInd { reg: Reg(b(1)?) }, 2),
        opc::RET => (I::Ret, 1),
        opc::PUSH => (I::Push { src: Reg(b(1)?) }, 2),
        opc::POP => (I::Pop { dst: Reg(b(1)?) }, 2),
        opc::FALU => {
            let fop = FaluOp::from_code(b(1)?).ok_or(DecodeError {
                off,
                what: "undefined float op",
            })?;
            (
                I::Falu {
                    op: fop,
                    dst: FReg(b(2)?),
                    a: FReg(b(3)?),
                    b: FReg(b(4)?),
                },
                5,
            )
        }
        opc::FCMP => (
            I::FCmp {
                a: FReg(b(1)?),
                b: FReg(b(2)?),
            },
            3,
        ),
        opc::FMOV => (
            I::FMov {
                dst: FReg(b(1)?),
                src: FReg(b(2)?),
            },
            3,
        ),
        opc::FMOVFG => (
            I::FMovFromGpr {
                dst: FReg(b(1)?),
                src: Reg(b(2)?),
            },
            3,
        ),
        opc::FMOVTG => (
            I::FMovToGpr {
                dst: Reg(b(1)?),
                src: FReg(b(2)?),
            },
            3,
        ),
        opc::CVTSI2F => (
            I::CvtSiToF {
                dst: FReg(b(1)?),
                src: Reg(b(2)?),
            },
            3,
        ),
        opc::CVTF2SI => (
            I::CvtFToSi {
                dst: Reg(b(1)?),
                src: FReg(b(2)?),
            },
            3,
        ),
        opc::FLOAD => (
            I::FLoad {
                dst: FReg(b(1)?),
                mem: MemArg {
                    base: Reg(b(2)?),
                    index: None,
                    disp: i32_at(3)?,
                },
            },
            7,
        ),
        opc::FSTORE => (
            I::FStore {
                src: FReg(b(1)?),
                mem: MemArg {
                    base: Reg(b(2)?),
                    index: None,
                    disp: i32_at(3)?,
                },
            },
            7,
        ),
        opc::TRAP => (I::Trap { code: b(1)? }, 2),
        _ => {
            return Err(DecodeError {
                off,
                what: "undefined TX64 opcode",
            })
        }
    })
}

fn sext_bits(v: u32, bits: u32) -> i32 {
    ((v << (32 - bits)) as i32) >> (32 - bits)
}

fn decode_ta64(code: &[u8], off: usize) -> Result<(DecodedInst, u8), DecodeError> {
    use ta64::opc;
    use DecodedInst as I;
    let w = u32::from_le_bytes(take::<4>(code, off)?);
    let op = (w >> 24) as u8;
    let aux1 = (w >> 21 & 7) as u8;
    let rd = Reg((w >> 16 & 31) as u8);
    let aux2 = (w >> 10 & 63) as u8;
    let rn = Reg((w >> 5 & 31) as u8);
    let rm = Reg((w & 31) as u8);
    let frd = FReg(rd.0);
    let frn = FReg(rn.0);
    let frm = FReg(rm.0);
    let imm16 = (w & 0xFFFF) as u16;
    let disp11 = sext_bits(w >> 5 & 0x7FF, 11);
    let wsf = (Width::from_code(aux1 & 3), aux1 & 4 != 0);
    let inst = match op {
        opc::NOP => I::Nop,
        opc::MOVRR => I::MovRR { dst: rd, src: rn },
        opc::MOVZ => I::MovRI {
            dst: rd,
            imm: imm16 as i64,
        },
        opc::MOVK => I::MovK {
            dst: rd,
            imm16,
            shift: aux1,
        },
        opc::ALURRR => {
            let aluop = AluOp::from_code(aux2 & 15).ok_or(DecodeError {
                off,
                what: "undefined ALU op",
            })?;
            I::Alu {
                op: aluop,
                width: wsf.0,
                set_flags: wsf.1,
                dst: rd,
                src1: rn,
                src2: rm,
            }
        }
        opc::ALURRI => {
            let aluop = AluOp::from_code((w >> 12 & 15) as u8).ok_or(DecodeError {
                off,
                what: "undefined ALU op",
            })?;
            let imm = sext_bits(w >> 5 & 0x7F, 7) as i64;
            I::AluImm {
                op: aluop,
                width: wsf.0,
                set_flags: wsf.1,
                dst: rd,
                src1: rm,
                imm,
            }
        }
        opc::MULFULL => I::MulFull {
            dst_lo: rd,
            dst_hi: Reg(aux2 & 31),
            a: rn,
            b: rm,
        },
        opc::CRC32 => I::Crc32 {
            dst: rd,
            acc: rn,
            data: rm,
        },
        opc::DIV => I::Div {
            signed: aux1 & 1 != 0,
            rem: aux1 & 2 != 0,
            width: Width::from_code(aux2 & 3),
            dst: rd,
            a: rn,
            b: rm,
        },
        opc::SEXT => I::Sext {
            from: Width::from_code(aux1),
            dst: rd,
            src: rn,
        },
        opc::CMP => I::Cmp {
            width: Width::from_code(aux1),
            a: rn,
            b: rm,
        },
        opc::CMPI => I::CmpImm {
            width: Width::from_code(aux1),
            a: rd,
            imm: imm16 as i16 as i64,
        },
        opc::SETCC => {
            let cond = Cond::from_code(aux2).ok_or(DecodeError {
                off,
                what: "undefined condition",
            })?;
            I::SetCc { cond, dst: rd }
        }
        opc::LOAD => I::Load {
            width: Width::from_code(aux1),
            dst: rd,
            mem: MemArg {
                base: rm,
                index: None,
                disp: disp11,
            },
        },
        opc::STORE => I::Store {
            width: Width::from_code(aux1),
            src: rd,
            mem: MemArg {
                base: rm,
                index: None,
                disp: disp11,
            },
        },
        opc::FLOAD => I::FLoad {
            dst: frd,
            mem: MemArg {
                base: rm,
                index: None,
                disp: disp11,
            },
        },
        opc::FSTORE => I::FStore {
            src: frd,
            mem: MemArg {
                base: rm,
                index: None,
                disp: disp11,
            },
        },
        opc::JCC => {
            let cond = Cond::from_code((w >> 20 & 15) as u8).ok_or(DecodeError {
                off,
                what: "undefined condition",
            })?;
            I::Jcc {
                cond,
                rel: sext_bits(w & 0xFFFF, 16) * 4,
            }
        }
        opc::JMP => I::Jmp {
            rel: sext_bits(w & 0xFF_FFFF, 24) * 4,
        },
        opc::JMPIND => I::JmpInd { reg: rd },
        opc::BL => I::Call {
            rel: sext_bits(w & 0xFF_FFFF, 24) * 4,
        },
        opc::CALLIND => I::CallInd { reg: rd },
        opc::RET => I::Ret,
        opc::FALU => {
            let fop = FaluOp::from_code(aux2).ok_or(DecodeError {
                off,
                what: "undefined float op",
            })?;
            I::Falu {
                op: fop,
                dst: frd,
                a: frn,
                b: frm,
            }
        }
        opc::FCMP => I::FCmp { a: frn, b: frm },
        opc::FMOV => I::FMov { dst: frd, src: frn },
        opc::FMOVFG => I::FMovFromGpr { dst: frd, src: rn },
        opc::FMOVTG => I::FMovToGpr { dst: rd, src: frn },
        opc::CVTSI2F => I::CvtSiToF { dst: frd, src: rn },
        opc::CVTF2SI => I::CvtFToSi { dst: rd, src: frn },
        opc::TRAP => I::Trap {
            code: (w & 0xFF) as u8,
        },
        _ => {
            return Err(DecodeError {
                off,
                what: "undefined TA64 opcode",
            })
        }
    };
    Ok((inst, 4))
}
