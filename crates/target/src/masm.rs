//! The portable macro-assembler interface shared by all back-ends.
//!
//! [`MacroAssembler`] presents one three-address, label-based surface
//! over both ISAs; [`new_masm`] picks the implementation. On TX64 the
//! wrapper performs the two-address rewriting the paper charges to the
//! CISC encoding (an extra `mov` when the destination aliases neither
//! source); on TA64 large immediates and indexed addressing expand to
//! multi-word sequences. Either way, consumers emit identical
//! instruction streams and the cost shows up only in code size and
//! cycles.

use crate::isa::{AluOp, Cond, FReg, FaluOp, Isa, MemArg, Reg, Width, TX64_ABI};
use crate::reloc::{Reloc, SymbolRef};
use crate::ta64::Ta64Assembler;
use crate::tx64::{Tx64Assembler, TxLabel};

/// A branch label handed out by [`MacroAssembler::new_label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MLabel(pub(crate) u32);

/// Branch fixup formats used by the TA64 assembler.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MFixupKind {
    /// 16-bit word displacement.
    Jcc,
    /// 24-bit word displacement.
    Jmp,
}

/// ISA-independent assembler interface.
///
/// All integer operations are three-address; results are stored
/// zero-extended at the operation width. `finish` resolves labels and
/// returns the encoded bytes plus outstanding relocations.
pub trait MacroAssembler {
    /// Allocates a fresh, unbound label.
    fn new_label(&mut self) -> MLabel;
    /// Binds `label` to the current offset.
    fn bind(&mut self, label: MLabel);
    /// Current emission offset in bytes.
    fn offset(&self) -> usize;
    /// `dst = src` (full 64 bits).
    fn mov_rr(&mut self, dst: Reg, src: Reg);
    /// `dst = imm` (shortest encoding).
    fn mov_ri(&mut self, dst: Reg, imm: i64);
    /// Replaces bits `[16*shift, 16*shift+16)` of `dst` with `imm16`.
    fn movk(&mut self, dst: Reg, imm16: u16, shift: u8);
    /// `dst = &sym`, patched with the absolute address at link time.
    fn mov_sym(&mut self, dst: Reg, sym: SymbolRef);
    /// `dst = a op b` at `width`, optionally setting flags.
    fn alu_rrr(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, a: Reg, b: Reg);
    /// `dst = src op imm` at `width`, optionally setting flags.
    fn alu_rri(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, src: Reg, imm: i64);
    /// `(dst_lo, dst_hi) = a * b` (unsigned 64×64→128).
    fn mulfull(&mut self, dst_lo: Reg, dst_hi: Reg, a: Reg, b: Reg);
    /// `dst = crc32c(acc, data)`.
    fn crc32(&mut self, dst: Reg, acc: Reg, data: Reg);
    /// Division/remainder; traps on zero divisor or signed overflow.
    fn div(&mut self, signed: bool, rem: bool, width: Width, dst: Reg, a: Reg, b: Reg);
    /// `dst = sign_extend(src from `from`)`.
    fn sext(&mut self, from: Width, dst: Reg, src: Reg);
    /// Zero-extending load from `[base + index*scale + disp]`.
    fn load(&mut self, width: Width, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32);
    /// Store of the low `width` bytes of `src`.
    fn store(&mut self, width: Width, src: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32);
    /// Float load from `[base + disp]`.
    fn fload(&mut self, dst: FReg, base: Reg, disp: i32);
    /// Float store to `[base + disp]`.
    fn fstore(&mut self, src: FReg, base: Reg, disp: i32);
    /// `dst = base + index*scale + disp` (no memory access).
    fn lea(&mut self, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32);
    /// Flag-setting compare `a - b`.
    fn cmp(&mut self, width: Width, a: Reg, b: Reg);
    /// Flag-setting compare against an immediate.
    fn cmp_ri(&mut self, width: Width, a: Reg, imm: i64);
    /// `dst = cond ? 1 : 0`.
    fn setcc(&mut self, cond: Cond, dst: Reg);
    /// Conditional branch.
    fn jcc(&mut self, cond: Cond, label: MLabel);
    /// Unconditional branch.
    fn jmp(&mut self, label: MLabel);
    /// Unconditional trap (0 = unreachable, 1 = overflow).
    fn trap(&mut self, code: u8);
    /// Call to an absolute address (expands through the ABI scratch).
    fn call_abs(&mut self, addr: u64);
    /// Relative call to `sym`, relocated at link time.
    fn call_sym(&mut self, sym: SymbolRef);
    /// Indirect call through `reg`.
    fn call_ind(&mut self, reg: Reg);
    /// Indirect jump through `reg`. A jump to a runtime helper's
    /// address is a tail call: the helper returns to this function's
    /// caller.
    fn jmp_ind(&mut self, reg: Reg);
    /// Float arithmetic `dst = a op b`.
    fn falu(&mut self, op: FaluOp, dst: FReg, a: FReg, b: FReg);
    /// Float compare (unordered operands satisfy only `Ne`).
    fn fcmp(&mut self, a: FReg, b: FReg);
    /// Float register move.
    fn fmov(&mut self, dst: FReg, src: FReg);
    /// Bit-move GPR → float register.
    fn fmov_from_gpr(&mut self, dst: FReg, src: Reg);
    /// Bit-move float register → GPR.
    fn fmov_to_gpr(&mut self, dst: Reg, src: FReg);
    /// `dst = (double)(signed)src`.
    fn cvt_si2f(&mut self, dst: FReg, src: Reg);
    /// `dst = (i64)src`; traps on NaN or out-of-range.
    fn cvt_f2si(&mut self, dst: Reg, src: FReg);
    /// Return to the caller.
    fn ret(&mut self);
    /// Resolves labels and returns `(code, relocations)`.
    fn finish(self: Box<Self>) -> (Vec<u8>, Vec<Reloc>);
}

/// Creates the macro-assembler for `isa`.
pub fn new_masm(isa: Isa) -> Box<dyn MacroAssembler> {
    match isa {
        Isa::Tx64 => Box::new(Tx64Masm::default()),
        Isa::Ta64 => Box::new(Ta64Assembler::new()),
    }
}

/// TX64 implementation: wraps [`Tx64Assembler`] and performs the
/// two-address rewriting.
#[derive(Default, Debug)]
struct Tx64Masm {
    asm: Tx64Assembler,
    labels: Vec<TxLabel>,
}

impl Tx64Masm {
    fn tx(&self, label: MLabel) -> TxLabel {
        self.labels[label.0 as usize]
    }
}

fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::Adc | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor
    )
}

impl MacroAssembler for Tx64Masm {
    fn new_label(&mut self) -> MLabel {
        let l = self.asm.new_label();
        self.labels.push(l);
        MLabel(self.labels.len() as u32 - 1)
    }

    fn bind(&mut self, label: MLabel) {
        let l = self.tx(label);
        self.asm.bind(l);
    }

    fn offset(&self) -> usize {
        self.asm.offset()
    }

    fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.asm.mov_rr(dst, src);
    }

    fn mov_ri(&mut self, dst: Reg, imm: i64) {
        self.asm.mov_ri(dst, imm);
    }

    fn movk(&mut self, dst: Reg, imm16: u16, shift: u8) {
        self.asm.movk(dst, imm16, shift);
    }

    fn mov_sym(&mut self, dst: Reg, sym: SymbolRef) {
        self.asm.mov_ri64_sym(dst, sym);
    }

    fn alu_rrr(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, a: Reg, b: Reg) {
        if dst == a {
            self.asm.alu_rr(op, width, set_flags, dst, b);
        } else if dst == b {
            if commutative(op) {
                self.asm.alu_rr(op, width, set_flags, dst, a);
            } else {
                // `dst = a op dst`: save the old dst before clobbering.
                let scratch = TX64_ABI.scratch;
                self.asm.mov_rr(scratch, b);
                self.asm.mov_rr(dst, a);
                self.asm.alu_rr(op, width, set_flags, dst, scratch);
            }
        } else {
            self.asm.mov_rr(dst, a);
            self.asm.alu_rr(op, width, set_flags, dst, b);
        }
    }

    fn alu_rri(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, src: Reg, imm: i64) {
        if dst != src {
            self.asm.mov_rr(dst, src);
        }
        self.asm.alu_ri(op, width, set_flags, dst, imm);
    }

    fn mulfull(&mut self, dst_lo: Reg, dst_hi: Reg, a: Reg, b: Reg) {
        self.asm.mulfull(dst_lo, dst_hi, a, b);
    }

    fn crc32(&mut self, dst: Reg, acc: Reg, data: Reg) {
        self.asm.crc32(dst, acc, data);
    }

    fn div(&mut self, signed: bool, rem: bool, width: Width, dst: Reg, a: Reg, b: Reg) {
        self.asm.div(signed, rem, width, dst, a, b);
    }

    fn sext(&mut self, from: Width, dst: Reg, src: Reg) {
        self.asm.sext(from, dst, src);
    }

    fn load(&mut self, width: Width, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        self.asm.load(width, dst, MemArg { base, index, disp });
    }

    fn store(&mut self, width: Width, src: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        self.asm.store(width, src, MemArg { base, index, disp });
    }

    fn fload(&mut self, dst: FReg, base: Reg, disp: i32) {
        self.asm.fload(dst, MemArg::base_disp(base, disp));
    }

    fn fstore(&mut self, src: FReg, base: Reg, disp: i32) {
        self.asm.fstore(src, MemArg::base_disp(base, disp));
    }

    fn lea(&mut self, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        self.asm.lea(dst, MemArg { base, index, disp });
    }

    fn cmp(&mut self, width: Width, a: Reg, b: Reg) {
        self.asm.cmp_rr(width, a, b);
    }

    fn cmp_ri(&mut self, width: Width, a: Reg, imm: i64) {
        self.asm.cmp_ri(width, a, imm);
    }

    fn setcc(&mut self, cond: Cond, dst: Reg) {
        self.asm.setcc(cond, dst);
    }

    fn jcc(&mut self, cond: Cond, label: MLabel) {
        let l = self.tx(label);
        self.asm.jcc(cond, l);
    }

    fn jmp(&mut self, label: MLabel) {
        let l = self.tx(label);
        self.asm.jmp(l);
    }

    fn trap(&mut self, code: u8) {
        self.asm.trap(code);
    }

    fn call_abs(&mut self, addr: u64) {
        let scratch = TX64_ABI.scratch;
        self.asm.mov_ri64(scratch, addr as i64);
        self.asm.call_ind(scratch);
    }

    fn call_sym(&mut self, sym: SymbolRef) {
        self.asm.call_sym(sym);
    }

    fn call_ind(&mut self, reg: Reg) {
        self.asm.call_ind(reg);
    }

    fn jmp_ind(&mut self, reg: Reg) {
        self.asm.jmp_ind(reg);
    }

    fn falu(&mut self, op: FaluOp, dst: FReg, a: FReg, b: FReg) {
        self.asm.falu(op, dst, a, b);
    }

    fn fcmp(&mut self, a: FReg, b: FReg) {
        self.asm.fcmp(a, b);
    }

    fn fmov(&mut self, dst: FReg, src: FReg) {
        self.asm.fmov(dst, src);
    }

    fn fmov_from_gpr(&mut self, dst: FReg, src: Reg) {
        self.asm.fmov_from_gpr(dst, src);
    }

    fn fmov_to_gpr(&mut self, dst: Reg, src: FReg) {
        self.asm.fmov_to_gpr(dst, src);
    }

    fn cvt_si2f(&mut self, dst: FReg, src: Reg) {
        self.asm.cvt_si2f(dst, src);
    }

    fn cvt_f2si(&mut self, dst: Reg, src: FReg) {
        self.asm.cvt_f2si(dst, src);
    }

    fn ret(&mut self) {
        self.asm.ret();
    }

    fn finish(self: Box<Self>) -> (Vec<u8>, Vec<Reloc>) {
        self.asm.finish()
    }
}
