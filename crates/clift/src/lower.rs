//! Lowering: CIR → VCode (ISel preparation passes + tree-matching
//! instruction selection, paper Sec. VI-C2).

use crate::cir::{CBinOp, CInst, CTy, CirFunc};
use qc_backend::mir::{cond_of, fcond_of, CallTarget, MInst, RegClass, VCode, VReg, VNONE};
use qc_backend::BackendError;
use qc_ir::CmpOp;
use qc_target::{AluOp, Cond, FaluOp, Width};

/// Results of the three ISel preparation passes.
pub struct PrepInfo {
    /// Vreg pair per CIR value (`hi == VNONE` for one-register values).
    pub val_regs: Vec<(VReg, VReg)>,
    /// Register class per vreg.
    pub classes: Vec<RegClass>,
    /// Side-effect group per instruction (kept for ISel boundary checks).
    #[allow(dead_code)]
    pub groups: Vec<u32>,
    /// Use count per value.
    pub use_counts: Vec<u32>,
    /// Defining instruction per value (`u32::MAX` for params/block params).
    pub val_def: Vec<u32>,
}

/// The three preparation passes over the complete IR (paper Sec. VI-C2:
/// vreg allocation, side-effect partitioning, use-count computation).
pub fn prepare(cir: &CirFunc) -> PrepInfo {
    // Pass 1: vregs + register classes.
    let mut val_regs = Vec::with_capacity(cir.val_ty.len());
    let mut classes = Vec::new();
    for &ty in &cir.val_ty {
        match ty {
            CTy::F64 => {
                classes.push(RegClass::Float);
                val_regs.push(((classes.len() - 1) as VReg, VNONE));
            }
            CTy::I128 => {
                classes.push(RegClass::Int);
                classes.push(RegClass::Int);
                val_regs.push(((classes.len() - 2) as VReg, (classes.len() - 1) as VReg));
            }
            _ => {
                classes.push(RegClass::Int);
                val_regs.push(((classes.len() - 1) as VReg, VNONE));
            }
        }
    }
    // Pass 2: partition by side-effecting instructions.
    let mut groups = vec![0u32; cir.insts.len()];
    let mut g = 0u32;
    for b in 0..cir.num_blocks() {
        for i in cir.block_iter(b as u32) {
            groups[i as usize] = g;
            if cir.insts[i as usize].is_effectful() {
                g += 1;
            }
        }
    }
    // Pass 3: use counts via a depth-first walk from the roots.
    let mut use_counts = vec![0u32; cir.val_ty.len()];
    for inst in &cir.insts {
        inst.for_each_arg(|v| use_counts[v as usize] += 1);
    }
    let mut val_def = vec![u32::MAX; cir.val_ty.len()];
    for (i, &r) in cir.inst_result.iter().enumerate() {
        if r != u32::MAX {
            val_def[r as usize] = i as u32;
        }
    }
    PrepInfo {
        val_regs,
        classes,
        groups,
        use_counts,
        val_def,
    }
}

struct Lowerer<'c> {
    cir: &'c CirFunc,
    prep: PrepInfo,
    vcode: VCode,
    cur: Vec<MInst>,
    /// Fusion marks: instruction indices folded into their consumer.
    fused: Vec<bool>,
    mulfull_ext: bool,
}

/// Lowers CIR to VCode.
///
/// # Errors
/// Returns [`BackendError`] for unsupported constructs.
pub fn lower(cir: &CirFunc, mulfull_ext: bool) -> Result<VCode, BackendError> {
    let prep = prepare(cir);
    let nblocks = cir.num_blocks();
    let mut l = Lowerer {
        cir,
        vcode: VCode {
            name: cir.name.clone(),
            blocks: Vec::with_capacity(nblocks),
            succs: (0..nblocks)
                .map(|b| cir.succs(b as u32).iter().map(|&s| s as usize).collect())
                .collect(),
            classes: Vec::new(),
            params: Vec::new(),
            fusions: (0, 0),
        },
        cur: Vec::new(),
        fused: vec![false; cir.insts.len()],
        mulfull_ext,
        prep,
    };
    l.vcode.classes = l.prep.classes.clone();
    for &p in &cir.params {
        let (lo, hi) = l.prep.val_regs[p as usize];
        l.vcode.params.push(lo);
        debug_assert_eq!(hi, VNONE, "params are pre-flattened");
    }
    l.mark_fusions();
    for b in 0..nblocks {
        l.cur = Vec::new();
        for i in cir.block_iter(b as u32) {
            l.lower_inst(i)?;
        }
        let insts = std::mem::take(&mut l.cur);
        l.vcode.blocks.push(insts);
    }
    Ok(l.vcode)
}

impl Lowerer<'_> {
    fn ty_of(&self, v: u32) -> CTy {
        self.cir.val_ty[v as usize]
    }

    fn lo(&self, v: u32) -> VReg {
        self.prep.val_regs[v as usize].0
    }

    fn hi(&self, v: u32) -> VReg {
        self.prep.val_regs[v as usize].1
    }

    fn width(&self, v: u32) -> Width {
        match self.ty_of(v) {
            CTy::I8 => Width::W8,
            CTy::I16 => Width::W16,
            CTy::I32 => Width::W32,
            _ => Width::W64,
        }
    }

    /// Tree-matching preparation: mark single-use constants foldable into
    /// immediates and single-use compares fusable into branches, within
    /// the same side-effect group.
    fn mark_fusions(&mut self) {
        for (idx, inst) in self.cir.insts.iter().enumerate() {
            match inst {
                CInst::Bin { op, args } => {
                    if matches!(
                        op,
                        CBinOp::Iadd
                            | CBinOp::Isub
                            | CBinOp::Band
                            | CBinOp::Bor
                            | CBinOp::Bxor
                            | CBinOp::Ishl
                            | CBinOp::Ushr
                            | CBinOp::Sshr
                            | CBinOp::Rotr
                    ) {
                        self.try_fold_const(args[1]);
                    }
                }
                CInst::Icmp { args, .. } => {
                    self.try_fold_const(args[1]);
                    let _ = idx;
                }
                CInst::Brif { cond, .. } => {
                    // Fuse a single-use same-block icmp producer.
                    if let Some(def) = self.def_of(*cond) {
                        if self.prep.use_counts[*cond as usize] == 1
                            && matches!(self.cir.insts[def as usize], CInst::Icmp { .. })
                            && self.ty_of(self.icmp_arg_ty(def)) != CTy::I128
                        {
                            self.fused[def as usize] = true;
                            self.vcode.fusions.0 += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn icmp_arg_ty(&self, inst: u32) -> u32 {
        match &self.cir.insts[inst as usize] {
            CInst::Icmp { args, .. } => args[0],
            _ => unreachable!(),
        }
    }

    fn def_of(&self, v: u32) -> Option<u32> {
        let d = self.prep.val_def[v as usize];
        (d != u32::MAX).then_some(d)
    }

    fn try_fold_const(&mut self, v: u32) {
        if self.prep.use_counts[v as usize] != 1 {
            return;
        }
        if let Some(def) = self.def_of(v) {
            if let CInst::Iconst { imm } = self.cir.insts[def as usize] {
                if i32::try_from(imm).is_ok() && self.ty_of(v) != CTy::I128 {
                    self.fused[def as usize] = true;
                    self.vcode.fusions.1 += 1;
                }
            }
        }
    }

    /// Returns the folded constant if the operand's producer was fused.
    fn as_folded_imm(&self, v: u32) -> Option<i64> {
        let def = self.def_of(v)?;
        if !self.fused[def as usize] {
            return None;
        }
        match self.cir.insts[def as usize] {
            CInst::Iconst { imm } => Some(imm as i64),
            _ => None,
        }
    }

    fn emit_icmp_flags(&mut self, inst_idx: u32) -> Cond {
        let CInst::Icmp { cond, args } = self.cir.insts[inst_idx as usize].clone() else {
            unreachable!()
        };
        let w = self.width(args[0]);
        if let Some(imm) = self.as_folded_imm(args[1]) {
            self.cur.push(MInst::CmpImm {
                w,
                a: self.lo(args[0]),
                imm,
            });
        } else {
            self.cur.push(MInst::Cmp {
                w,
                a: self.lo(args[0]),
                b: self.lo(args[1]),
            });
        }
        cond_of(cond)
    }

    fn emit_cmp128(&mut self, cond: CmpOp, args: [u32; 2], dst: VReg) {
        let (alo, ahi) = (self.lo(args[0]), self.hi(args[0]));
        let (blo, bhi) = (self.lo(args[1]), self.hi(args[1]));
        let t1 = self.new_vreg(RegClass::Int);
        let t2 = self.new_vreg(RegClass::Int);
        match cond {
            CmpOp::Eq | CmpOp::Ne => {
                self.cur.push(MInst::Alu {
                    op: AluOp::Xor,
                    w: Width::W64,
                    sf: false,
                    d: t1,
                    s1: alo,
                    s2: blo,
                });
                self.cur.push(MInst::Alu {
                    op: AluOp::Xor,
                    w: Width::W64,
                    sf: false,
                    d: t2,
                    s1: ahi,
                    s2: bhi,
                });
                self.cur.push(MInst::Alu {
                    op: AluOp::Or,
                    w: Width::W64,
                    sf: true,
                    d: t1,
                    s1: t1,
                    s2: t2,
                });
                self.cur.push(MInst::SetCc {
                    cond: cond_of(cond),
                    d: dst,
                });
            }
            _ => {
                let (x, y, c) = match cond {
                    CmpOp::SLt => ((alo, ahi), (blo, bhi), Cond::Lt),
                    CmpOp::SGe => ((alo, ahi), (blo, bhi), Cond::Ge),
                    CmpOp::SGt => ((blo, bhi), (alo, ahi), Cond::Lt),
                    CmpOp::SLe => ((blo, bhi), (alo, ahi), Cond::Ge),
                    CmpOp::ULt => ((alo, ahi), (blo, bhi), Cond::B),
                    CmpOp::UGe => ((alo, ahi), (blo, bhi), Cond::Ae),
                    CmpOp::UGt => ((blo, bhi), (alo, ahi), Cond::B),
                    CmpOp::ULe => ((blo, bhi), (alo, ahi), Cond::Ae),
                    _ => unreachable!(),
                };
                self.cur.push(MInst::Alu {
                    op: AluOp::Sub,
                    w: Width::W64,
                    sf: true,
                    d: t1,
                    s1: x.0,
                    s2: y.0,
                });
                self.cur.push(MInst::Alu {
                    op: AluOp::Sbb,
                    w: Width::W64,
                    sf: true,
                    d: t2,
                    s1: x.1,
                    s2: y.1,
                });
                self.cur.push(MInst::SetCc { cond: c, d: dst });
            }
        }
    }

    fn new_vreg(&mut self, class: RegClass) -> VReg {
        self.vcode.classes.push(class);
        (self.vcode.classes.len() - 1) as VReg
    }

    #[allow(clippy::too_many_lines)]
    fn lower_inst(&mut self, idx: u32) -> Result<(), BackendError> {
        if self.fused[idx as usize] {
            return Ok(()); // matched into its consumer
        }
        let inst = self.cir.insts[idx as usize].clone();
        let res = self.cir.inst_result[idx as usize];
        match inst {
            CInst::Iconst { imm } => {
                if self.ty_of(res) == CTy::I128 {
                    self.cur.push(MInst::MovRI {
                        d: self.lo(res),
                        imm: imm as i64,
                    });
                    self.cur.push(MInst::MovRI {
                        d: self.hi(res),
                        imm: (imm >> 64) as i64,
                    });
                } else {
                    // Canonical (zero-extended-at-width) materialization.
                    let canon = match self.ty_of(res) {
                        CTy::I8 => (imm as u64) & 0xFF,
                        CTy::I16 => (imm as u64) & 0xFFFF,
                        CTy::I32 => (imm as u64) & 0xFFFF_FFFF,
                        _ => imm as u64,
                    };
                    self.cur.push(MInst::MovRI {
                        d: self.lo(res),
                        imm: canon as i64,
                    });
                }
            }
            CInst::Fconst { imm } => {
                let bits = self.new_vreg(RegClass::Int);
                self.cur.push(MInst::MovRI {
                    d: bits,
                    imm: imm.to_bits() as i64,
                });
                self.cur.push(MInst::FMovFromGpr {
                    d: self.lo(res),
                    s: bits,
                });
            }
            CInst::Bin { op, args } => self.lower_bin(idx, op, args, res)?,
            CInst::Icmp { args, .. } => {
                if self.ty_of(args[0]) == CTy::I128 {
                    let CInst::Icmp { cond, .. } = self.cir.insts[idx as usize] else {
                        unreachable!()
                    };
                    self.emit_cmp128(cond, args, self.lo(res));
                } else {
                    let c = self.emit_icmp_flags(idx);
                    self.cur.push(MInst::SetCc {
                        cond: c,
                        d: self.lo(res),
                    });
                }
            }
            CInst::Fcmp { cond, args } => {
                self.cur.push(MInst::FCmpM {
                    a: self.lo(args[0]),
                    b: self.lo(args[1]),
                });
                self.cur.push(MInst::SetCc {
                    cond: fcond_of(cond),
                    d: self.lo(res),
                });
            }
            CInst::Select { cond, args } => {
                let c = self.lo(cond);
                if self.ty_of(res) == CTy::F64 {
                    self.cur.push(MInst::FSelect {
                        cond: c,
                        d: self.lo(res),
                        t: self.lo(args[0]),
                        f: self.lo(args[1]),
                    });
                } else if self.ty_of(res) == CTy::I128 {
                    self.cur.push(MInst::Select {
                        cond: c,
                        d: self.lo(res),
                        t: self.lo(args[0]),
                        f: self.lo(args[1]),
                    });
                    self.cur.push(MInst::Select {
                        cond: c,
                        d: self.hi(res),
                        t: self.hi(args[0]),
                        f: self.hi(args[1]),
                    });
                } else {
                    self.cur.push(MInst::Select {
                        cond: c,
                        d: self.lo(res),
                        t: self.lo(args[0]),
                        f: self.lo(args[1]),
                    });
                }
            }
            CInst::Load { addr, off } => match self.ty_of(res) {
                CTy::F64 => self.cur.push(MInst::FLoad {
                    d: self.lo(res),
                    base: self.lo(addr),
                    disp: off,
                }),
                CTy::I128 => {
                    self.cur.push(MInst::Load {
                        w: Width::W64,
                        d: self.lo(res),
                        base: self.lo(addr),
                        disp: off,
                    });
                    self.cur.push(MInst::Load {
                        w: Width::W64,
                        d: self.hi(res),
                        base: self.lo(addr),
                        disp: off + 8,
                    });
                }
                _ => self.cur.push(MInst::Load {
                    w: self.width(res),
                    d: self.lo(res),
                    base: self.lo(addr),
                    disp: off,
                }),
            },
            CInst::Store { ty, addr, val, off } => match ty {
                CTy::F64 => self.cur.push(MInst::FStore {
                    s: self.lo(val),
                    base: self.lo(addr),
                    disp: off,
                }),
                CTy::I128 => {
                    self.cur.push(MInst::Store {
                        w: Width::W64,
                        s: self.lo(val),
                        base: self.lo(addr),
                        disp: off,
                    });
                    self.cur.push(MInst::Store {
                        w: Width::W64,
                        s: self.hi(val),
                        base: self.lo(addr),
                        disp: off + 8,
                    });
                }
                _ => {
                    let w = match ty {
                        CTy::I8 => Width::W8,
                        CTy::I16 => Width::W16,
                        CTy::I32 => Width::W32,
                        _ => Width::W64,
                    };
                    self.cur.push(MInst::Store {
                        w,
                        s: self.lo(val),
                        base: self.lo(addr),
                        disp: off,
                    });
                }
            },
            CInst::Sext { arg } => {
                let from = self.ty_of(arg);
                let to = self.ty_of(res);
                let fw = match from {
                    CTy::I8 => Width::W8,
                    CTy::I16 => Width::W16,
                    CTy::I32 => Width::W32,
                    _ => Width::W64,
                };
                if to == CTy::I128 {
                    if from == CTy::I64 {
                        self.cur.push(MInst::MovRR {
                            d: self.lo(res),
                            s: self.lo(arg),
                        });
                    } else {
                        self.cur.push(MInst::Sext {
                            from: fw,
                            d: self.lo(res),
                            s: self.lo(arg),
                        });
                    }
                    self.cur.push(MInst::MovRR {
                        d: self.hi(res),
                        s: self.lo(res),
                    });
                    self.cur.push(MInst::AluImm {
                        op: AluOp::Sar,
                        w: Width::W64,
                        sf: false,
                        d: self.hi(res),
                        s1: self.hi(res),
                        imm: 63,
                    });
                } else if from == CTy::I64 {
                    self.cur.push(MInst::MovRR {
                        d: self.lo(res),
                        s: self.lo(arg),
                    });
                } else {
                    self.cur.push(MInst::Sext {
                        from: fw,
                        d: self.lo(res),
                        s: self.lo(arg),
                    });
                }
            }
            CInst::Uext { arg } => {
                self.cur.push(MInst::MovRR {
                    d: self.lo(res),
                    s: self.lo(arg),
                });
                if self.ty_of(res) == CTy::I128 {
                    self.cur.push(MInst::MovRI {
                        d: self.hi(res),
                        imm: 0,
                    });
                }
            }
            CInst::Ireduce { arg } => {
                self.cur.push(MInst::MovRR {
                    d: self.lo(res),
                    s: self.lo(arg),
                });
                let mask: i64 = match self.ty_of(res) {
                    CTy::I8 => 0xFF,
                    CTy::I16 => 0xFFFF,
                    CTy::I32 => 0xFFFF_FFFF,
                    _ => -1,
                };
                if mask != -1 {
                    self.cur.push(MInst::AluImm {
                        op: AluOp::And,
                        w: Width::W64,
                        sf: false,
                        d: self.lo(res),
                        s1: self.lo(res),
                        imm: mask,
                    });
                }
            }
            CInst::SiToF { arg } => {
                if self.ty_of(arg) == CTy::I128 {
                    return Err(BackendError::new("clift: sitof from i128"));
                }
                let src = if self.ty_of(arg) == CTy::I64 {
                    self.lo(arg)
                } else {
                    let t = self.new_vreg(RegClass::Int);
                    let fw = self.width(arg);
                    self.cur.push(MInst::Sext {
                        from: fw,
                        d: t,
                        s: self.lo(arg),
                    });
                    t
                };
                self.cur.push(MInst::CvtSiToF {
                    d: self.lo(res),
                    s: src,
                });
            }
            CInst::FToSi { arg } => {
                self.cur.push(MInst::CvtFToSi {
                    d: self.lo(res),
                    s: self.lo(arg),
                });
            }
            CInst::Crc32 { args } => {
                self.cur.push(MInst::Crc32 {
                    d: self.lo(res),
                    acc: self.lo(args[0]),
                    data: self.lo(args[1]),
                });
            }
            CInst::Call { addr, args, ret } => {
                let mut flat = Vec::new();
                for &a in &args {
                    flat.push(self.lo(a));
                    if self.ty_of(a) == CTy::I128 {
                        flat.push(self.hi(a));
                    }
                }
                let ret_regs = match ret {
                    None => Vec::new(),
                    Some(CTy::I128) => vec![self.lo(res), self.hi(res)],
                    Some(_) => vec![self.lo(res)],
                };
                self.cur.push(MInst::CallRt {
                    target: CallTarget::Abs(addr),
                    args: flat,
                    ret: ret_regs,
                });
            }
            CInst::FuncAddr { func } => {
                self.cur.push(MInst::FuncAddr {
                    d: self.lo(res),
                    func,
                });
            }
            CInst::Jump { dest, args } => {
                if !args.is_empty() {
                    let mut moves = Vec::new();
                    let params = self.cir.block_params[dest as usize].clone();
                    let mut flat_params = Vec::new();
                    for &p in &params {
                        flat_params.push(self.lo(p));
                        if self.ty_of(p) == CTy::I128 {
                            flat_params.push(self.hi(p));
                        }
                    }
                    let mut flat_args = Vec::new();
                    for &a in &args {
                        flat_args.push(self.lo(a));
                        if self.ty_of(a) == CTy::I128 {
                            flat_args.push(self.hi(a));
                        }
                    }
                    debug_assert_eq!(flat_params.len(), flat_args.len());
                    for (s, d) in flat_args.into_iter().zip(flat_params) {
                        moves.push((s, d));
                    }
                    self.cur.push(MInst::ParMove { moves });
                }
                self.cur.push(MInst::Jmp {
                    target: dest as usize,
                });
            }
            CInst::Brif {
                cond,
                then_dest,
                else_dest,
            } => {
                // Fused compare?
                let c = if let Some(def) = self.def_of(cond) {
                    if self.fused[def as usize] {
                        self.emit_icmp_flags(def)
                    } else {
                        self.cur.push(MInst::CmpImm {
                            w: Width::W8,
                            a: self.lo(cond),
                            imm: 0,
                        });
                        Cond::Ne
                    }
                } else {
                    self.cur.push(MInst::CmpImm {
                        w: Width::W8,
                        a: self.lo(cond),
                        imm: 0,
                    });
                    Cond::Ne
                };
                self.cur.push(MInst::Jcc {
                    cond: c,
                    target: then_dest as usize,
                });
                self.cur.push(MInst::Jmp {
                    target: else_dest as usize,
                });
            }
            CInst::Ret { vals } => {
                let mut flat = Vec::new();
                for &v in &vals {
                    flat.push(self.lo(v));
                    if self.ty_of(v) == CTy::I128 {
                        flat.push(self.hi(v));
                    }
                }
                self.cur.push(MInst::Ret { vals: flat });
            }
            CInst::Trap { code } => self.cur.push(MInst::Trap { code }),
        }
        Ok(())
    }

    fn lower_bin(
        &mut self,
        idx: u32,
        op: CBinOp,
        args: [u32; 2],
        res: u32,
    ) -> Result<(), BackendError> {
        let ty = self.ty_of(res);
        if ty == CTy::F64 {
            let fop = match op {
                CBinOp::Fadd => FaluOp::Add,
                CBinOp::Fsub => FaluOp::Sub,
                CBinOp::Fmul => FaluOp::Mul,
                CBinOp::Fdiv => FaluOp::Div,
                _ => return Err(BackendError::new("int op typed f64")),
            };
            self.cur.push(MInst::Falu {
                op: fop,
                d: self.lo(res),
                a: self.lo(args[0]),
                b: self.lo(args[1]),
            });
            return Ok(());
        }
        if ty == CTy::I128 {
            let (lo_op, hi_op, trap) = match op {
                CBinOp::Iadd => (AluOp::Add, AluOp::Adc, false),
                CBinOp::Isub => (AluOp::Sub, AluOp::Sbb, false),
                CBinOp::SaddTrap => (AluOp::Add, AluOp::Adc, true),
                CBinOp::SsubTrap => (AluOp::Sub, AluOp::Sbb, true),
                other => {
                    return Err(BackendError::new(format!("clift: {other:?} at i128")));
                }
            };
            self.cur.push(MInst::Alu {
                op: lo_op,
                w: Width::W64,
                sf: true,
                d: self.lo(res),
                s1: self.lo(args[0]),
                s2: self.lo(args[1]),
            });
            self.cur.push(MInst::Alu {
                op: hi_op,
                w: Width::W64,
                sf: true,
                d: self.hi(res),
                s1: self.hi(args[0]),
                s2: self.hi(args[1]),
            });
            if trap {
                self.cur.push(MInst::TrapIf {
                    cond: Cond::O,
                    code: 1,
                });
            }
            return Ok(());
        }
        let w = self.width(res);
        match op {
            CBinOp::Sdiv | CBinOp::Udiv | CBinOp::Srem | CBinOp::Urem => {
                self.cur.push(MInst::Div {
                    signed: matches!(op, CBinOp::Sdiv | CBinOp::Srem),
                    rem: matches!(op, CBinOp::Srem | CBinOp::Urem),
                    w,
                    d: self.lo(res),
                    a: self.lo(args[0]),
                    b: self.lo(args[1]),
                });
            }
            CBinOp::UMulHi => {
                // Pattern: fuse an adjacent same-operand Imul into MulFull
                // when the combined-multiplication extension is enabled.
                let partner = self.find_mul_partner(idx, args);
                match partner {
                    Some(lo_res) if self.mulfull_ext => {
                        // Partner already emitted a MulFull for both halves.
                        let _ = lo_res;
                    }
                    _ => {
                        let dead = self.new_vreg(RegClass::Int);
                        self.cur.push(MInst::MulFull {
                            dlo: dead,
                            dhi: self.lo(res),
                            a: self.lo(args[0]),
                            b: self.lo(args[1]),
                        });
                    }
                }
                // Without the extension this is a second, separate multiply
                // — the cost difference Table II measures.
            }
            CBinOp::Imul if self.mulfull_ext && self.has_mulhi_consumer(idx, args) => {
                // Combined multiplication: produce both halves at once.
                let hi_res = self.mulhi_result(idx, args).expect("partner");
                self.cur.push(MInst::MulFull {
                    dlo: self.lo(res),
                    dhi: self.lo(hi_res),
                    a: self.lo(args[0]),
                    b: self.lo(args[1]),
                });
            }
            CBinOp::SaddTrap | CBinOp::SsubTrap | CBinOp::SmulTrap => {
                let aop = match op {
                    CBinOp::SaddTrap => AluOp::Add,
                    CBinOp::SsubTrap => AluOp::Sub,
                    _ => AluOp::Mul,
                };
                self.cur.push(MInst::Alu {
                    op: aop,
                    w,
                    sf: true,
                    d: self.lo(res),
                    s1: self.lo(args[0]),
                    s2: self.lo(args[1]),
                });
                self.cur.push(MInst::TrapIf {
                    cond: Cond::O,
                    code: 1,
                });
            }
            _ => {
                let aop = match op {
                    CBinOp::Iadd => AluOp::Add,
                    CBinOp::Isub => AluOp::Sub,
                    CBinOp::Imul => AluOp::Mul,
                    CBinOp::Band => AluOp::And,
                    CBinOp::Bor => AluOp::Or,
                    CBinOp::Bxor => AluOp::Xor,
                    CBinOp::Ishl => AluOp::Shl,
                    CBinOp::Ushr => AluOp::Shr,
                    CBinOp::Sshr => AluOp::Sar,
                    CBinOp::Rotr => AluOp::Rotr,
                    _ => unreachable!(),
                };
                if let Some(imm) = self.as_folded_imm(args[1]) {
                    self.cur.push(MInst::AluImm {
                        op: aop,
                        w,
                        sf: false,
                        d: self.lo(res),
                        s1: self.lo(args[0]),
                        imm,
                    });
                } else {
                    self.cur.push(MInst::Alu {
                        op: aop,
                        w,
                        sf: false,
                        d: self.lo(res),
                        s1: self.lo(args[0]),
                        s2: self.lo(args[1]),
                    });
                }
            }
        }
        Ok(())
    }

    /// For a UMulHi at `idx`: the result of an earlier adjacent Imul with
    /// the same operands, if any (combined-multiplication pattern).
    fn find_mul_partner(&self, idx: u32, args: [u32; 2]) -> Option<u32> {
        if idx == 0 {
            return None;
        }
        match &self.cir.insts[idx as usize - 1] {
            CInst::Bin {
                op: CBinOp::Imul,
                args: pargs,
            } if *pargs == args => Some(self.cir.inst_result[idx as usize - 1]),
            _ => None,
        }
    }

    /// For an Imul at `idx`: whether the next instruction is a UMulHi with
    /// the same operands.
    fn has_mulhi_consumer(&self, idx: u32, args: [u32; 2]) -> bool {
        self.mulhi_result(idx, args).is_some()
    }

    fn mulhi_result(&self, idx: u32, args: [u32; 2]) -> Option<u32> {
        match self.cir.insts.get(idx as usize + 1) {
            Some(CInst::Bin {
                op: CBinOp::UMulHi,
                args: nargs,
            }) if *nargs == args => Some(self.cir.inst_result[idx as usize + 1]),
            _ => None,
        }
    }
}
