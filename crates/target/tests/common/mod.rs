//! Strategies and emitters shared by the target crate's property
//! tests: generated instructions in their decoded form, and the code
//! that assembles them for either ISA.
#![allow(dead_code)] // each test binary uses its own subset

use proptest::prelude::*;
use qc_target::{AluOp, Cond, DecodedInst, FReg, FaluOp, MemArg, Reg, Tx64Assembler, Width};

// Operand strategies kept inside both ISAs' single-instruction
// encodings: registers below every reserved/scratch register, ALU
// immediates within TA64's imm7, displacements within disp11.

pub fn reg() -> impl Strategy<Value = Reg> {
    (0u8..14).prop_map(Reg)
}

pub fn freg() -> impl Strategy<Value = FReg> {
    (0u8..8).prop_map(FReg)
}

pub fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64)
    ]
}

pub fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Adc),
        Just(AluOp::Sbb),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
        Just(AluOp::Rotr),
    ]
}

pub fn falu_op() -> impl Strategy<Value = FaluOp> {
    prop_oneof![
        Just(FaluOp::Add),
        Just(FaluOp::Sub),
        Just(FaluOp::Mul),
        Just(FaluOp::Div)
    ]
}

/// Every condition code.
pub const CONDS: [Cond; 12] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lt,
    Cond::Le,
    Cond::Gt,
    Cond::Ge,
    Cond::B,
    Cond::Be,
    Cond::A,
    Cond::Ae,
    Cond::O,
    Cond::No,
];

pub fn cond() -> impl Strategy<Value = Cond> {
    (0..CONDS.len()).prop_map(|i| CONDS[i])
}

/// Register-to-register instructions (moves, integer ALU, compares,
/// `setcc`): everything a generated program can execute without
/// touching memory or leaving the function.
pub fn register_inst() -> impl Strategy<Value = DecodedInst> {
    prop_oneof![
        (reg(), reg()).prop_map(|(dst, src)| DecodedInst::MovRR { dst, src }),
        (reg(), 0i64..32_768).prop_map(|(dst, imm)| DecodedInst::MovRI { dst, imm }),
        (reg(), any::<u16>(), 1u8..4).prop_map(|(dst, imm16, shift)| DecodedInst::MovK {
            dst,
            imm16,
            shift
        }),
        (alu_op(), width(), any::<bool>(), reg(), reg(), reg()).prop_map(
            |(op, width, set_flags, dst, src1, src2)| DecodedInst::Alu {
                op,
                width,
                set_flags,
                dst,
                src1,
                src2
            }
        ),
        (alu_op(), width(), any::<bool>(), reg(), reg(), -64i64..64).prop_map(
            |(op, width, set_flags, dst, src1, imm)| DecodedInst::AluImm {
                op,
                width,
                set_flags,
                dst,
                src1,
                imm
            }
        ),
        (reg(), reg(), reg(), reg()).prop_map(|(dst_lo, dst_hi, a, b)| DecodedInst::MulFull {
            dst_lo,
            dst_hi,
            a,
            b
        }),
        (reg(), reg(), reg()).prop_map(|(dst, acc, data)| DecodedInst::Crc32 { dst, acc, data }),
        (any::<bool>(), any::<bool>(), width(), reg(), reg(), reg()).prop_map(
            |(signed, rem, width, dst, a, b)| DecodedInst::Div {
                signed,
                rem,
                width,
                dst,
                a,
                b
            }
        ),
        (
            prop_oneof![Just(Width::W8), Just(Width::W16), Just(Width::W32)],
            reg(),
            reg()
        )
            .prop_map(|(from, dst, src)| DecodedInst::Sext { from, dst, src }),
        (width(), reg(), reg()).prop_map(|(width, a, b)| DecodedInst::Cmp { width, a, b }),
        (width(), reg(), -1000i64..1000).prop_map(|(width, a, imm)| DecodedInst::CmpImm {
            width,
            a,
            imm
        }),
        (cond(), reg()).prop_map(|(cond, dst)| DecodedInst::SetCc { cond, dst }),
    ]
}

/// Instructions that encode to exactly one machine instruction on both
/// ISAs, as the expected decode results.
pub fn inst() -> impl Strategy<Value = DecodedInst> {
    prop_oneof![
        register_inst(),
        Just(DecodedInst::Nop),
        (width(), reg(), reg(), -1000i32..1000).prop_map(|(width, dst, base, disp)| {
            DecodedInst::Load {
                width,
                dst,
                mem: MemArg {
                    base,
                    index: None,
                    disp,
                },
            }
        }),
        (width(), reg(), reg(), -1000i32..1000).prop_map(|(width, src, base, disp)| {
            DecodedInst::Store {
                width,
                src,
                mem: MemArg {
                    base,
                    index: None,
                    disp,
                },
            }
        }),
        (reg()).prop_map(|reg| DecodedInst::CallInd { reg }),
        (reg()).prop_map(|reg| DecodedInst::JmpInd { reg }),
        Just(DecodedInst::Ret),
        (falu_op(), freg(), freg(), freg()).prop_map(|(op, dst, a, b)| DecodedInst::Falu {
            op,
            dst,
            a,
            b
        }),
        (freg(), freg()).prop_map(|(a, b)| DecodedInst::FCmp { a, b }),
        (freg(), freg()).prop_map(|(dst, src)| DecodedInst::FMov { dst, src }),
        (freg(), reg()).prop_map(|(dst, src)| DecodedInst::FMovFromGpr { dst, src }),
        (reg(), freg()).prop_map(|(dst, src)| DecodedInst::FMovToGpr { dst, src }),
        (freg(), reg()).prop_map(|(dst, src)| DecodedInst::CvtSiToF { dst, src }),
        (reg(), freg()).prop_map(|(dst, src)| DecodedInst::CvtFToSi { dst, src }),
        (freg(), reg(), -1000i32..1000).prop_map(|(dst, base, disp)| DecodedInst::FLoad {
            dst,
            mem: MemArg {
                base,
                index: None,
                disp
            }
        }),
        (freg(), reg(), -1000i32..1000).prop_map(|(src, base, disp)| DecodedInst::FStore {
            src,
            mem: MemArg {
                base,
                index: None,
                disp
            }
        }),
        (any::<u8>()).prop_map(|code| DecodedInst::Trap { code }),
    ]
}

/// Emits `i` through the raw TX64 encoder.
pub fn emit_tx64(asm: &mut Tx64Assembler, i: &DecodedInst) {
    match *i {
        DecodedInst::Nop => asm.nop(),
        DecodedInst::MovRR { dst, src } => asm.mov_rr(dst, src),
        DecodedInst::MovRI { dst, imm } => asm.mov_ri(dst, imm),
        DecodedInst::MovK { dst, imm16, shift } => asm.movk(dst, imm16, shift),
        DecodedInst::Alu {
            op,
            width,
            set_flags,
            dst,
            src2,
            ..
        } => {
            // TX64 ALU is two-address: src1 is always dst.
            asm.alu_rr(op, width, set_flags, dst, src2)
        }
        DecodedInst::AluImm {
            op,
            width,
            set_flags,
            dst,
            imm,
            ..
        } => asm.alu_ri(op, width, set_flags, dst, imm),
        DecodedInst::MulFull {
            dst_lo,
            dst_hi,
            a,
            b,
        } => asm.mulfull(dst_lo, dst_hi, a, b),
        DecodedInst::Crc32 { dst, acc, data } => asm.crc32(dst, acc, data),
        DecodedInst::Div {
            signed,
            rem,
            width,
            dst,
            a,
            b,
        } => asm.div(signed, rem, width, dst, a, b),
        DecodedInst::Sext { from, dst, src } => asm.sext(from, dst, src),
        DecodedInst::Load { width, dst, mem } => asm.load(width, dst, mem),
        DecodedInst::Store { width, src, mem } => asm.store(width, src, mem),
        DecodedInst::Cmp { width, a, b } => asm.cmp_rr(width, a, b),
        DecodedInst::CmpImm { width, a, imm } => asm.cmp_ri(width, a, imm),
        DecodedInst::SetCc { cond, dst } => asm.setcc(cond, dst),
        DecodedInst::CallInd { reg } => asm.call_ind(reg),
        DecodedInst::JmpInd { reg } => asm.jmp_ind(reg),
        DecodedInst::Ret => asm.ret(),
        DecodedInst::Falu { op, dst, a, b } => asm.falu(op, dst, a, b),
        DecodedInst::FCmp { a, b } => asm.fcmp(a, b),
        DecodedInst::FMov { dst, src } => asm.fmov(dst, src),
        DecodedInst::FMovFromGpr { dst, src } => asm.fmov_from_gpr(dst, src),
        DecodedInst::FMovToGpr { dst, src } => asm.fmov_to_gpr(dst, src),
        DecodedInst::CvtSiToF { dst, src } => asm.cvt_si2f(dst, src),
        DecodedInst::CvtFToSi { dst, src } => asm.cvt_f2si(dst, src),
        DecodedInst::FLoad { dst, mem } => asm.fload(dst, mem),
        DecodedInst::FStore { src, mem } => asm.fstore(src, mem),
        DecodedInst::Trap { code } => asm.trap(code),
        _ => unreachable!("strategy produced an unsupported instruction"),
    }
}

/// Emits `i` through the portable macro-assembler (on TA64 every
/// generated form is a single 4-byte word).
pub fn emit_masm(asm: &mut dyn qc_target::MacroAssembler, i: &DecodedInst) {
    match *i {
        DecodedInst::Nop => {
            // The portable interface has no explicit nop; TA64 encodes
            // one as `mov r0, r0` — skip (handled by caller filter).
            unreachable!("nop filtered out by the caller")
        }
        DecodedInst::MovRR { dst, src } => asm.mov_rr(dst, src),
        DecodedInst::MovRI { dst, imm } => asm.mov_ri(dst, imm),
        DecodedInst::MovK { dst, imm16, shift } => asm.movk(dst, imm16, shift),
        DecodedInst::Alu {
            op,
            width,
            set_flags,
            dst,
            src1,
            src2,
        } => asm.alu_rrr(op, width, set_flags, dst, src1, src2),
        DecodedInst::AluImm {
            op,
            width,
            set_flags,
            dst,
            src1,
            imm,
        } => asm.alu_rri(op, width, set_flags, dst, src1, imm),
        DecodedInst::MulFull {
            dst_lo,
            dst_hi,
            a,
            b,
        } => asm.mulfull(dst_lo, dst_hi, a, b),
        DecodedInst::Crc32 { dst, acc, data } => asm.crc32(dst, acc, data),
        DecodedInst::Div {
            signed,
            rem,
            width,
            dst,
            a,
            b,
        } => asm.div(signed, rem, width, dst, a, b),
        DecodedInst::Sext { from, dst, src } => asm.sext(from, dst, src),
        DecodedInst::Load { width, dst, mem } => {
            asm.load(width, dst, mem.base, mem.index, mem.disp)
        }
        DecodedInst::Store { width, src, mem } => {
            asm.store(width, src, mem.base, mem.index, mem.disp)
        }
        DecodedInst::Cmp { width, a, b } => asm.cmp(width, a, b),
        DecodedInst::CmpImm { width, a, imm } => asm.cmp_ri(width, a, imm),
        DecodedInst::SetCc { cond, dst } => asm.setcc(cond, dst),
        DecodedInst::CallInd { reg } => asm.call_ind(reg),
        DecodedInst::JmpInd { reg } => asm.jmp_ind(reg),
        DecodedInst::Ret => asm.ret(),
        DecodedInst::Falu { op, dst, a, b } => asm.falu(op, dst, a, b),
        DecodedInst::FCmp { a, b } => asm.fcmp(a, b),
        DecodedInst::FMov { dst, src } => asm.fmov(dst, src),
        DecodedInst::FMovFromGpr { dst, src } => asm.fmov_from_gpr(dst, src),
        DecodedInst::FMovToGpr { dst, src } => asm.fmov_to_gpr(dst, src),
        DecodedInst::CvtSiToF { dst, src } => asm.cvt_si2f(dst, src),
        DecodedInst::CvtFToSi { dst, src } => asm.cvt_f2si(dst, src),
        DecodedInst::FLoad { dst, mem } => asm.fload(dst, mem.base, mem.disp),
        DecodedInst::FStore { src, mem } => asm.fstore(src, mem.base, mem.disp),
        DecodedInst::Trap { code } => asm.trap(code),
        _ => unreachable!("strategy produced an unsupported instruction"),
    }
}
