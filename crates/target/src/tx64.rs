//! The TX64 assembler and its variable-length binary encoding.
//!
//! TX64 is the paper's CISC stand-in: instructions are 1–10 bytes, ALU
//! operations are two-address (`dst op= src`), and comparisons set a
//! flags register. [`Tx64Assembler`] is the raw, ISA-specific interface
//! used by the DirectEmit back-end; the portable
//! [`crate::MacroAssembler`] wraps it for the shared emitter.

use crate::isa::{AluOp, Cond, FReg, FaluOp, MemArg, Reg, Width};
use crate::reloc::{Reloc, RelocKind, SymbolRef};

/// TX64 opcode bytes (also consumed by the decoder).
pub(crate) mod opc {
    pub const NOP: u8 = 0x00;
    pub const MOVRR: u8 = 0x01;
    pub const MOVRI32: u8 = 0x02;
    pub const MOVRI64: u8 = 0x03;
    pub const MOVK: u8 = 0x04;
    pub const ALURR: u8 = 0x05;
    pub const ALURI8: u8 = 0x06;
    pub const ALURI32: u8 = 0x07;
    pub const MULFULL: u8 = 0x08;
    pub const CRC32: u8 = 0x09;
    pub const DIV: u8 = 0x0A;
    pub const SEXT: u8 = 0x0B;
    pub const LOAD: u8 = 0x0C;
    pub const LOADX: u8 = 0x0D;
    pub const STORE: u8 = 0x0E;
    pub const STOREX: u8 = 0x0F;
    pub const LEA: u8 = 0x10;
    pub const LEAX: u8 = 0x11;
    pub const CMP: u8 = 0x12;
    pub const CMPI: u8 = 0x13;
    pub const SETCC: u8 = 0x14;
    pub const JCC: u8 = 0x15;
    pub const JMP: u8 = 0x16;
    pub const JMPIND: u8 = 0x17;
    pub const CALL: u8 = 0x18;
    pub const CALLIND: u8 = 0x19;
    pub const RET: u8 = 0x1A;
    pub const PUSH: u8 = 0x1B;
    pub const POP: u8 = 0x1C;
    pub const FALU: u8 = 0x1D;
    pub const FCMP: u8 = 0x1E;
    pub const FMOV: u8 = 0x1F;
    pub const FMOVFG: u8 = 0x20;
    pub const FMOVTG: u8 = 0x21;
    pub const CVTSI2F: u8 = 0x22;
    pub const CVTF2SI: u8 = 0x23;
    pub const FLOAD: u8 = 0x24;
    pub const FSTORE: u8 = 0x25;
    pub const TRAP: u8 = 0x26;
}

pub(crate) fn wsf(width: Width, set_flags: bool) -> u8 {
    width.code() | (set_flags as u8) << 2
}

/// A TX64 branch label handed out by [`Tx64Assembler::new_label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxLabel(pub(crate) u32);

/// Direct TX64 encoder with label fixups and relocation recording.
#[derive(Default, Debug)]
pub struct Tx64Assembler {
    code: Vec<u8>,
    relocs: Vec<Reloc>,
    labels: Vec<Option<usize>>,
    // (offset of the rel32 field, label) — displacement is relative to
    // the end of the field.
    fixups: Vec<(usize, u32)>,
}

impl Tx64Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Tx64Assembler {
        Tx64Assembler::default()
    }

    /// Current emission offset in bytes.
    pub fn offset(&self) -> usize {
        self.code.len()
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> TxLabel {
        self.labels.push(None);
        TxLabel(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the current offset.
    pub fn bind(&mut self, label: TxLabel) {
        self.labels[label.0 as usize] = Some(self.code.len());
    }

    fn b(&mut self, bytes: &[u8]) {
        self.code.extend_from_slice(bytes);
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.b(&[opc::NOP]);
    }

    /// `dst = src` (full 64 bits).
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.b(&[opc::MOVRR, dst.0, src.0]);
    }

    /// `dst = imm`, choosing the shortest encoding.
    pub fn mov_ri(&mut self, dst: Reg, imm: i64) {
        if let Ok(v) = i32::try_from(imm) {
            self.b(&[opc::MOVRI32, dst.0]);
            self.code.extend_from_slice(&v.to_le_bytes());
        } else {
            self.mov_ri64(dst, imm);
        }
    }

    /// `dst = imm` in the full 10-byte `movabs` form.
    pub fn mov_ri64(&mut self, dst: Reg, imm: i64) {
        self.b(&[opc::MOVRI64, dst.0]);
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `movabs dst, @sym`: a 10-byte move patched with the absolute
    /// address of `sym` at link time.
    pub fn mov_ri64_sym(&mut self, dst: Reg, sym: SymbolRef) {
        let at = self.code.len();
        self.b(&[opc::MOVRI64, dst.0]);
        self.code.extend_from_slice(&0u64.to_le_bytes());
        self.relocs.push(Reloc {
            offset: at + 2,
            kind: RelocKind::Abs64,
            sym,
            addend: 0,
        });
    }

    /// Replaces bits `[16*shift, 16*shift+16)` of `dst` with `imm16`.
    pub fn movk(&mut self, dst: Reg, imm16: u16, shift: u8) {
        let [lo, hi] = imm16.to_le_bytes();
        self.b(&[opc::MOVK, dst.0, shift, lo, hi]);
    }

    /// Two-address ALU: `dst = dst op src` at `width`.
    pub fn alu_rr(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, src: Reg) {
        self.b(&[opc::ALURR, op.code(), wsf(width, set_flags), dst.0, src.0]);
    }

    /// `dst = dst op imm` with a 32-bit immediate field.
    pub fn alu_ri32(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, imm: i32) {
        self.b(&[opc::ALURI32, op.code(), wsf(width, set_flags), dst.0]);
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `dst = dst op imm`, choosing the shortest immediate form and
    /// falling back to the reserved scratch for 64-bit immediates.
    pub fn alu_ri(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, imm: i64) {
        if let Ok(v) = i8::try_from(imm) {
            self.b(&[
                opc::ALURI8,
                op.code(),
                wsf(width, set_flags),
                dst.0,
                v as u8,
            ]);
        } else if let Ok(v) = i32::try_from(imm) {
            self.alu_ri32(op, width, set_flags, dst, v);
        } else {
            let scratch = crate::isa::TX64_ABI.scratch;
            debug_assert_ne!(dst, scratch, "64-bit alu_ri immediate needs the scratch");
            self.mov_ri64(scratch, imm);
            self.alu_rr(op, width, set_flags, dst, scratch);
        }
    }

    /// `(dst_lo, dst_hi) = a * b` as a full unsigned 64×64→128 product.
    pub fn mulfull(&mut self, dst_lo: Reg, dst_hi: Reg, a: Reg, b: Reg) {
        self.b(&[opc::MULFULL, dst_lo.0, dst_hi.0, a.0, b.0]);
    }

    /// `dst = crc32c(acc, data)` over all 8 data bytes.
    pub fn crc32(&mut self, dst: Reg, acc: Reg, data: Reg) {
        self.b(&[opc::CRC32, dst.0, acc.0, data.0]);
    }

    /// Division/remainder at `width`; traps on zero divisors and signed
    /// quotient overflow.
    pub fn div(&mut self, signed: bool, rem: bool, width: Width, dst: Reg, a: Reg, b: Reg) {
        let srw = (signed as u8) | (rem as u8) << 1 | width.code() << 2;
        self.b(&[opc::DIV, srw, dst.0, a.0, b.0]);
    }

    /// `dst = sign_extend(src from `from` bits)` to 64 bits.
    pub fn sext(&mut self, from: Width, dst: Reg, src: Reg) {
        self.b(&[opc::SEXT, from.code(), dst.0, src.0]);
    }

    fn mem_tail(&mut self, mem: MemArg) {
        match mem.index {
            None => {
                self.code.push(mem.base.0);
                self.code.extend_from_slice(&mem.disp.to_le_bytes());
            }
            Some((idx, scale)) => {
                // Synthetic ISA: any power-of-two scale encodes in the
                // byte (i128 columns use stride 16).
                debug_assert!(scale.is_power_of_two(), "bad scale {scale}");
                self.b(&[mem.base.0, idx.0, scale]);
                self.code.extend_from_slice(&mem.disp.to_le_bytes());
            }
        }
    }

    /// Zero-extending load of `width` bytes from `mem`.
    pub fn load(&mut self, width: Width, dst: Reg, mem: MemArg) {
        let op = if mem.index.is_some() {
            opc::LOADX
        } else {
            opc::LOAD
        };
        self.b(&[op, width.code(), dst.0]);
        self.mem_tail(mem);
    }

    /// Store of the low `width` bytes of `src` to `mem`.
    pub fn store(&mut self, width: Width, src: Reg, mem: MemArg) {
        let op = if mem.index.is_some() {
            opc::STOREX
        } else {
            opc::STORE
        };
        self.b(&[op, width.code(), src.0]);
        self.mem_tail(mem);
    }

    /// 64-bit float load.
    pub fn fload(&mut self, dst: FReg, mem: MemArg) {
        debug_assert!(mem.index.is_none(), "float loads are base+disp only");
        self.b(&[opc::FLOAD, dst.0, mem.base.0]);
        self.code.extend_from_slice(&mem.disp.to_le_bytes());
    }

    /// 64-bit float store.
    pub fn fstore(&mut self, src: FReg, mem: MemArg) {
        debug_assert!(mem.index.is_none(), "float stores are base+disp only");
        self.b(&[opc::FSTORE, src.0, mem.base.0]);
        self.code.extend_from_slice(&mem.disp.to_le_bytes());
    }

    /// `dst = effective address of mem` (no memory access).
    pub fn lea(&mut self, dst: Reg, mem: MemArg) {
        let op = if mem.index.is_some() {
            opc::LEAX
        } else {
            opc::LEA
        };
        self.b(&[op, dst.0]);
        self.mem_tail(mem);
    }

    /// Flag-setting compare `a - b` at `width`.
    pub fn cmp_rr(&mut self, width: Width, a: Reg, b: Reg) {
        self.b(&[opc::CMP, width.code(), a.0, b.0]);
    }

    /// Flag-setting compare against an immediate.
    pub fn cmp_ri(&mut self, width: Width, a: Reg, imm: i64) {
        if let Ok(v) = i32::try_from(imm) {
            self.b(&[opc::CMPI, width.code(), a.0]);
            self.code.extend_from_slice(&v.to_le_bytes());
        } else {
            let scratch = crate::isa::TX64_ABI.scratch;
            debug_assert_ne!(a, scratch, "64-bit cmp_ri immediate needs the scratch");
            self.mov_ri64(scratch, imm);
            self.cmp_rr(width, a, scratch);
        }
    }

    /// `dst = cond ? 1 : 0`.
    pub fn setcc(&mut self, cond: Cond, dst: Reg) {
        self.b(&[opc::SETCC, cond.code(), dst.0]);
    }

    /// Conditional branch to `label`.
    pub fn jcc(&mut self, cond: Cond, label: TxLabel) {
        self.b(&[opc::JCC, cond.code()]);
        self.fixups.push((self.code.len(), label.0));
        self.code.extend_from_slice(&0i32.to_le_bytes());
    }

    /// Unconditional branch to `label`.
    pub fn jmp(&mut self, label: TxLabel) {
        self.b(&[opc::JMP]);
        self.fixups.push((self.code.len(), label.0));
        self.code.extend_from_slice(&0i32.to_le_bytes());
    }

    /// `call @sym`: a 5-byte relative call patched at link time (with a
    /// thunk if the target is out of the ±2 GiB range).
    pub fn call_sym(&mut self, sym: SymbolRef) {
        let at = self.code.len();
        self.b(&[opc::CALL]);
        self.code.extend_from_slice(&0i32.to_le_bytes());
        self.relocs.push(Reloc {
            offset: at + 1,
            kind: RelocKind::Rel32,
            sym,
            addend: 0,
        });
    }

    /// Indirect call through `reg`.
    pub fn call_ind(&mut self, reg: Reg) {
        self.b(&[opc::CALLIND, reg.0]);
    }

    /// Indirect jump through `reg`.
    pub fn jmp_ind(&mut self, reg: Reg) {
        self.b(&[opc::JMPIND, reg.0]);
    }

    /// Return to the caller (shadow call stack).
    pub fn ret(&mut self) {
        self.b(&[opc::RET]);
    }

    /// `sp -= 8; [sp] = src`.
    pub fn push(&mut self, src: Reg) {
        self.b(&[opc::PUSH, src.0]);
    }

    /// `dst = [sp]; sp += 8`.
    pub fn pop(&mut self, dst: Reg) {
        self.b(&[opc::POP, dst.0]);
    }

    /// Float arithmetic `dst = a op b`.
    pub fn falu(&mut self, op: FaluOp, dst: FReg, a: FReg, b: FReg) {
        self.b(&[opc::FALU, op.code(), dst.0, a.0, b.0]);
    }

    /// Float compare, setting integer flags (unordered sets none).
    pub fn fcmp(&mut self, a: FReg, b: FReg) {
        self.b(&[opc::FCMP, a.0, b.0]);
    }

    /// Float register move.
    pub fn fmov(&mut self, dst: FReg, src: FReg) {
        self.b(&[opc::FMOV, dst.0, src.0]);
    }

    /// Bit-move of a GPR into a float register.
    pub fn fmov_from_gpr(&mut self, dst: FReg, src: Reg) {
        self.b(&[opc::FMOVFG, dst.0, src.0]);
    }

    /// Bit-move of a float register into a GPR.
    pub fn fmov_to_gpr(&mut self, dst: Reg, src: FReg) {
        self.b(&[opc::FMOVTG, dst.0, src.0]);
    }

    /// `dst = (double)(signed)src`.
    pub fn cvt_si2f(&mut self, dst: FReg, src: Reg) {
        self.b(&[opc::CVTSI2F, dst.0, src.0]);
    }

    /// `dst = (i64)src`, trapping on NaN or out-of-range values.
    pub fn cvt_f2si(&mut self, dst: Reg, src: FReg) {
        self.b(&[opc::CVTF2SI, dst.0, src.0]);
    }

    /// Unconditional trap with `code` (0 = unreachable, 1 = overflow).
    pub fn trap(&mut self, code: u8) {
        self.b(&[opc::TRAP, code]);
    }

    /// Resolves all label fixups and returns `(code, relocations)`.
    ///
    /// # Panics
    /// Panics if a referenced label was never bound.
    pub fn finish(mut self) -> (Vec<u8>, Vec<Reloc>) {
        for &(field, label) in &self.fixups {
            let target = self.labels[label as usize].expect("unbound TX64 label");
            let rel = target as i64 - (field as i64 + 4);
            let rel = i32::try_from(rel).expect("TX64 branch out of range");
            self.code[field..field + 4].copy_from_slice(&rel.to_le_bytes());
        }
        (self.code, self.relocs)
    }
}
