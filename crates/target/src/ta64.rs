//! The TA64 assembler: fixed 4-byte words, three-address operations,
//! 5-bit register fields, ±1 MiB direct branch range.
//!
//! TA64 is the paper's RISC stand-in. There is no raw per-ISA assembler
//! interface (nothing needs one); the type below implements
//! [`crate::MacroAssembler`] directly and is reached through
//! [`crate::new_masm`]. Operations the fixed 32-bit words cannot express
//! (large immediates, indexed addressing, `lea`) are expanded into
//! multi-word sequences through the ISA's reserved internal scratch
//! registers `r27` and `r26`.
//!
//! Word layout (little-endian): opcode in bits `[31:24]`, a 3-bit
//! auxiliary field in `[23:21]`, the destination register in `[20:16]`
//! (this placement is load-bearing: the linker and disassembler extract
//! the `movz` destination as `(word >> 16) & 31`), and
//! format-dependent low bits.

use crate::isa::{AluOp, Cond, FReg, FaluOp, Reg, Width};
use crate::masm::{MFixupKind, MLabel};
use crate::reloc::{Reloc, RelocKind, SymbolRef};

/// TA64 opcode bytes (also consumed by the decoder).
pub(crate) mod opc {
    pub const NOP: u8 = 0x00;
    pub const MOVRR: u8 = 0x01;
    pub const MOVZ: u8 = 0x02;
    pub const MOVK: u8 = 0x03;
    pub const ALURRR: u8 = 0x10;
    pub const ALURRI: u8 = 0x11;
    pub const MULFULL: u8 = 0x12;
    pub const CRC32: u8 = 0x13;
    pub const DIV: u8 = 0x14;
    pub const SEXT: u8 = 0x15;
    pub const CMP: u8 = 0x16;
    pub const CMPI: u8 = 0x17;
    pub const SETCC: u8 = 0x18;
    pub const LOAD: u8 = 0x20;
    pub const STORE: u8 = 0x21;
    pub const FLOAD: u8 = 0x22;
    pub const FSTORE: u8 = 0x23;
    pub const JCC: u8 = 0x30;
    pub const JMP: u8 = 0x31;
    pub const JMPIND: u8 = 0x32;
    pub const BL: u8 = 0x33;
    pub const CALLIND: u8 = 0x34;
    pub const RET: u8 = 0x35;
    pub const FALU: u8 = 0x40;
    pub const FCMP: u8 = 0x41;
    pub const FMOV: u8 = 0x42;
    pub const FMOVFG: u8 = 0x43;
    pub const FMOVTG: u8 = 0x44;
    pub const CVTSI2F: u8 = 0x45;
    pub const CVTF2SI: u8 = 0x46;
    pub const TRAP: u8 = 0x50;
}

/// First internal expansion scratch (reserved; not allocatable).
pub(crate) const S1: Reg = Reg(27);
/// Second internal expansion scratch (reserved; not allocatable).
pub(crate) const S2: Reg = Reg(26);

/// Range of a direct `bl` on TA64 in bytes (±1 MiB). Calls whose final
/// displacement exceeds this get a linker veneer.
pub(crate) const BL_RANGE: i64 = 1 << 20;

pub(crate) fn pack_r(op: u8, aux1: u8, rd: u8, aux2: u8, rn: u8, rm: u8) -> u32 {
    (op as u32) << 24
        | (aux1 as u32 & 7) << 21
        | (rd as u32 & 31) << 16
        | (aux2 as u32 & 63) << 10
        | (rn as u32 & 31) << 5
        | (rm as u32 & 31)
}

pub(crate) fn pack_i16(op: u8, aux1: u8, rd: u8, imm16: u16) -> u32 {
    (op as u32) << 24 | (aux1 as u32 & 7) << 21 | (rd as u32 & 31) << 16 | imm16 as u32
}

pub(crate) fn pack_ls(op: u8, aux1: u8, rd: u8, disp11: i32, rn: u8) -> u32 {
    debug_assert!((-1024..1024).contains(&disp11));
    (op as u32) << 24
        | (aux1 as u32 & 7) << 21
        | (rd as u32 & 31) << 16
        | (disp11 as u32 & 0x7FF) << 5
        | (rn as u32 & 31)
}

pub(crate) fn pack_rri(op: u8, aux1: u8, rd: u8, aluop: u8, imm7: i64, rn: u8) -> u32 {
    debug_assert!((-64..64).contains(&imm7));
    (op as u32) << 24
        | (aux1 as u32 & 7) << 21
        | (rd as u32 & 31) << 16
        | (aluop as u32 & 15) << 12
        | ((imm7 as u32) & 0x7F) << 5
        | (rn as u32 & 31)
}

pub(crate) fn fits_ls(disp: i32) -> bool {
    (-1024..1024).contains(&disp)
}

/// Fixed-width TA64 encoder; implements [`crate::MacroAssembler`].
#[derive(Default, Debug)]
pub struct Ta64Assembler {
    pub(crate) words: Vec<u32>,
    pub(crate) relocs: Vec<Reloc>,
    pub(crate) labels: Vec<Option<usize>>,
    // (word index, label, branch format)
    pub(crate) fixups: Vec<(usize, u32, MFixupKind)>,
}

impl Ta64Assembler {
    pub(crate) fn new() -> Ta64Assembler {
        Ta64Assembler::default()
    }

    pub(crate) fn w(&mut self, word: u32) {
        self.words.push(word);
    }

    pub(crate) fn byte_offset(&self) -> usize {
        self.words.len() * 4
    }

    /// `dst = imm`: `movz` of the low 16 bits plus a `movk` for every
    /// non-zero remaining 16-bit chunk.
    pub(crate) fn emit_mov_ri(&mut self, dst: Reg, imm: i64) {
        let v = imm as u64;
        self.w(pack_i16(opc::MOVZ, 0, dst.0, v as u16));
        for shift in 1..4u8 {
            let chunk = (v >> (16 * shift)) as u16;
            if chunk != 0 {
                self.w(pack_i16(opc::MOVK, shift, dst.0, chunk));
            }
        }
    }

    /// Materializes `[base + index*scale + disp]` into a `(reg, disp)`
    /// pair directly encodable by the load/store word format.
    pub(crate) fn lower_addr(
        &mut self,
        base: Reg,
        index: Option<(Reg, u8)>,
        disp: i32,
    ) -> (Reg, i32) {
        let reg = match index {
            None => {
                if fits_ls(disp) {
                    return (base, disp);
                }
                base
            }
            Some((ri, scale)) => {
                debug_assert!(scale.is_power_of_two(), "bad scale {scale}");
                let log2 = scale.trailing_zeros() as i64;
                if log2 == 0 {
                    self.w(pack_r(
                        opc::ALURRR,
                        Width::W64.code(),
                        S1.0,
                        AluOp::Add.code(),
                        ri.0,
                        base.0,
                    ));
                } else {
                    self.w(pack_rri(
                        opc::ALURRI,
                        Width::W64.code(),
                        S1.0,
                        AluOp::Shl.code(),
                        log2,
                        ri.0,
                    ));
                    self.w(pack_r(
                        opc::ALURRR,
                        Width::W64.code(),
                        S1.0,
                        AluOp::Add.code(),
                        S1.0,
                        base.0,
                    ));
                }
                S1
            }
        };
        if fits_ls(disp) {
            return (reg, disp);
        }
        self.emit_mov_ri(S2, disp as i64);
        self.w(pack_r(
            opc::ALURRR,
            Width::W64.code(),
            S1.0,
            AluOp::Add.code(),
            reg.0,
            S2.0,
        ));
        (S1, 0)
    }
}

impl crate::masm::MacroAssembler for Ta64Assembler {
    fn new_label(&mut self) -> MLabel {
        self.labels.push(None);
        MLabel(self.labels.len() as u32 - 1)
    }

    fn bind(&mut self, label: MLabel) {
        self.labels[label.0 as usize] = Some(self.words.len());
    }

    fn offset(&self) -> usize {
        self.byte_offset()
    }

    fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.w(pack_r(opc::MOVRR, 0, dst.0, 0, src.0, 0));
    }

    fn mov_ri(&mut self, dst: Reg, imm: i64) {
        self.emit_mov_ri(dst, imm);
    }

    fn movk(&mut self, dst: Reg, imm16: u16, shift: u8) {
        self.w(pack_i16(opc::MOVK, shift, dst.0, imm16));
    }

    fn mov_sym(&mut self, dst: Reg, sym: SymbolRef) {
        let at = self.byte_offset();
        self.w(pack_i16(opc::MOVZ, 0, dst.0, 0));
        for shift in 1..4u8 {
            self.w(pack_i16(opc::MOVK, shift, dst.0, 0));
        }
        self.relocs.push(Reloc {
            offset: at,
            kind: RelocKind::MovSeqAbs64,
            sym,
            addend: 0,
        });
    }

    fn alu_rrr(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, a: Reg, b: Reg) {
        let aux = width.code() | (set_flags as u8) << 2;
        self.w(pack_r(opc::ALURRR, aux, dst.0, op.code(), a.0, b.0));
    }

    fn alu_rri(&mut self, op: AluOp, width: Width, set_flags: bool, dst: Reg, src: Reg, imm: i64) {
        if (-64..64).contains(&imm) {
            let aux = width.code() | (set_flags as u8) << 2;
            self.w(pack_rri(opc::ALURRI, aux, dst.0, op.code(), imm, src.0));
        } else {
            self.emit_mov_ri(S1, imm);
            self.alu_rrr(op, width, set_flags, dst, src, S1);
        }
    }

    fn mulfull(&mut self, dst_lo: Reg, dst_hi: Reg, a: Reg, b: Reg) {
        self.w(pack_r(opc::MULFULL, 0, dst_lo.0, dst_hi.0, a.0, b.0));
    }

    fn crc32(&mut self, dst: Reg, acc: Reg, data: Reg) {
        self.w(pack_r(opc::CRC32, 0, dst.0, 0, acc.0, data.0));
    }

    fn div(&mut self, signed: bool, rem: bool, width: Width, dst: Reg, a: Reg, b: Reg) {
        let aux = (signed as u8) | (rem as u8) << 1;
        self.w(pack_r(opc::DIV, aux, dst.0, width.code(), a.0, b.0));
    }

    fn sext(&mut self, from: Width, dst: Reg, src: Reg) {
        self.w(pack_r(opc::SEXT, from.code(), dst.0, 0, src.0, 0));
    }

    fn load(&mut self, width: Width, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        let (b, d) = self.lower_addr(base, index, disp);
        self.w(pack_ls(opc::LOAD, width.code(), dst.0, d, b.0));
    }

    fn store(&mut self, width: Width, src: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        let (b, d) = self.lower_addr(base, index, disp);
        self.w(pack_ls(opc::STORE, width.code(), src.0, d, b.0));
    }

    fn fload(&mut self, dst: FReg, base: Reg, disp: i32) {
        let (b, d) = self.lower_addr(base, None, disp);
        self.w(pack_ls(opc::FLOAD, 0, dst.0, d, b.0));
    }

    fn fstore(&mut self, src: FReg, base: Reg, disp: i32) {
        let (b, d) = self.lower_addr(base, None, disp);
        self.w(pack_ls(opc::FSTORE, 0, src.0, d, b.0));
    }

    fn lea(&mut self, dst: Reg, base: Reg, index: Option<(Reg, u8)>, disp: i32) {
        if let (Some((ri, scale)), 0) = (index, disp) {
            // The last add writes `dst` itself: no copy out of `S1`.
            debug_assert!(scale.is_power_of_two(), "bad scale {scale}");
            let log2 = scale.trailing_zeros() as i64;
            let mut scaled = ri;
            if log2 != 0 {
                self.alu_rri(AluOp::Shl, Width::W64, false, S1, ri, log2);
                scaled = S1;
            }
            self.alu_rrr(AluOp::Add, Width::W64, false, dst, scaled, base);
            return;
        }
        let (b, d) = self.lower_addr(base, index, disp);
        if d == 0 {
            self.mov_rr(dst, b);
        } else if (-64..64).contains(&(d as i64)) {
            self.alu_rri(AluOp::Add, Width::W64, false, dst, b, d as i64);
        } else {
            self.emit_mov_ri(S2, d as i64);
            self.alu_rrr(AluOp::Add, Width::W64, false, dst, b, S2);
        }
    }

    fn cmp(&mut self, width: Width, a: Reg, b: Reg) {
        self.w(pack_r(opc::CMP, width.code(), 0, 0, a.0, b.0));
    }

    fn cmp_ri(&mut self, width: Width, a: Reg, imm: i64) {
        if let Ok(v) = i16::try_from(imm) {
            self.w(pack_i16(opc::CMPI, width.code(), a.0, v as u16));
        } else {
            self.emit_mov_ri(S1, imm);
            self.cmp(width, a, S1);
        }
    }

    fn setcc(&mut self, cond: Cond, dst: Reg) {
        self.w(pack_r(opc::SETCC, 0, dst.0, cond.code(), 0, 0));
    }

    fn jcc(&mut self, cond: Cond, label: MLabel) {
        self.fixups
            .push((self.words.len(), label.0, MFixupKind::Jcc));
        self.w((opc::JCC as u32) << 24 | (cond.code() as u32) << 20);
    }

    fn jmp(&mut self, label: MLabel) {
        self.fixups
            .push((self.words.len(), label.0, MFixupKind::Jmp));
        self.w((opc::JMP as u32) << 24);
    }

    fn trap(&mut self, code: u8) {
        self.w((opc::TRAP as u32) << 24 | code as u32);
    }

    fn call_abs(&mut self, addr: u64) {
        self.emit_mov_ri(S1, addr as i64);
        self.w(pack_r(opc::CALLIND, 0, S1.0, 0, 0, 0));
    }

    fn call_sym(&mut self, sym: SymbolRef) {
        let at = self.byte_offset();
        self.w((opc::BL as u32) << 24);
        self.relocs.push(Reloc {
            offset: at,
            kind: RelocKind::Rel24Words,
            sym,
            addend: 0,
        });
    }

    fn call_ind(&mut self, reg: Reg) {
        self.w(pack_r(opc::CALLIND, 0, reg.0, 0, 0, 0));
    }

    fn jmp_ind(&mut self, reg: Reg) {
        self.w(pack_r(opc::JMPIND, 0, reg.0, 0, 0, 0));
    }

    fn falu(&mut self, op: FaluOp, dst: FReg, a: FReg, b: FReg) {
        self.w(pack_r(opc::FALU, 0, dst.0, op.code(), a.0, b.0));
    }

    fn fcmp(&mut self, a: FReg, b: FReg) {
        self.w(pack_r(opc::FCMP, 0, 0, 0, a.0, b.0));
    }

    fn fmov(&mut self, dst: FReg, src: FReg) {
        self.w(pack_r(opc::FMOV, 0, dst.0, 0, src.0, 0));
    }

    fn fmov_from_gpr(&mut self, dst: FReg, src: Reg) {
        self.w(pack_r(opc::FMOVFG, 0, dst.0, 0, src.0, 0));
    }

    fn fmov_to_gpr(&mut self, dst: Reg, src: FReg) {
        self.w(pack_r(opc::FMOVTG, 0, dst.0, 0, src.0, 0));
    }

    fn cvt_si2f(&mut self, dst: FReg, src: Reg) {
        self.w(pack_r(opc::CVTSI2F, 0, dst.0, 0, src.0, 0));
    }

    fn cvt_f2si(&mut self, dst: Reg, src: FReg) {
        self.w(pack_r(opc::CVTF2SI, 0, dst.0, 0, src.0, 0));
    }

    fn ret(&mut self) {
        self.w((opc::RET as u32) << 24);
    }

    fn finish(self: Box<Self>) -> (Vec<u8>, Vec<Reloc>) {
        let mut me = *self;
        for &(site, label, kind) in &me.fixups {
            let target = me.labels[label as usize].expect("unbound TA64 label");
            let rel_words = target as i64 - (site as i64 + 1);
            match kind {
                MFixupKind::Jcc => {
                    assert!(
                        (-(1 << 15)..(1 << 15)).contains(&rel_words),
                        "TA64 jcc out of range"
                    );
                    me.words[site] |= (rel_words as u32) & 0xFFFF;
                }
                MFixupKind::Jmp => {
                    assert!(
                        (-(1 << 23)..(1 << 23)).contains(&rel_words),
                        "TA64 jmp out of range"
                    );
                    me.words[site] |= (rel_words as u32) & 0xFF_FFFF;
                }
            }
        }
        let mut bytes = Vec::with_capacity(me.words.len() * 4);
        for w in &me.words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        (bytes, me.relocs)
    }
}
