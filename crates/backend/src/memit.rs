//! Shared MIR → machine-code emission core.
//!
//! Back-ends wrap this: the Cranelift analog adds its clobber/veneer
//! pre-passes, the LLVM analog its AsmPrinter layer (per-instruction MC
//! lowering, hooks, string-keyed labels, object-file assembly).

use crate::mir::{Allocation, CallTarget, Loc, MInst};
use crate::BackendError;
use qc_target::{new_masm, AluOp, Cond, FReg, Isa, MLabel, MacroAssembler, Reg, SymbolRef, Width};

/// The two emission scratch registers used for spill traffic.
pub fn emission_scratches(isa: Isa) -> (Reg, Reg) {
    match isa {
        Isa::Tx64 => (Reg(9), Reg(10)),
        Isa::Ta64 => (Reg(15), Reg(16)),
    }
}

/// The integer registers an allocator may assign: the ABI's allocatable
/// set without the emission scratches.
pub fn int_pool(isa: Isa) -> Vec<Reg> {
    let (es1, es2) = emission_scratches(isa);
    isa.abi()
        .allocatable
        .iter()
        .copied()
        .filter(|r| *r != es1 && *r != es2)
        .collect()
}

/// The float registers an allocator may assign: the ABI's allocatable
/// set below `f13` (the emitter keeps one more float scratch beside the
/// ABI's).
pub fn float_pool(isa: Isa) -> Vec<FReg> {
    isa.abi()
        .fallocatable
        .iter()
        .copied()
        .filter(|f| f.num() < 13)
        .collect()
}

/// A block's trailing branch, held back until the emitter knows which
/// block comes next (Cranelift's `MachBuffer` folds the same cases).
#[derive(Clone, Copy)]
enum HeldBranch {
    None,
    Jmp(usize),
    Jcc(Cond, usize),
    /// `Jcc c, T; Jmp F`.
    JccJmp {
        cond: Cond,
        taken: usize,
        other: usize,
    },
}

/// Emission core driving a [`MacroAssembler`] from allocated MIR.
///
/// Dead control flow and dead moves are never emitted: a `Jmp` to the
/// block bound next is dropped, `Jcc c, T; Jmp F` becomes `Jcc !c, F`
/// when `T` is bound next and `Jcc c, T` when `F` is, and a move whose
/// source and destination are one location emits nothing.
pub struct MirEmitter<'a> {
    masm: Box<dyn MacroAssembler>,
    alloc: &'a Allocation,
    isa: Isa,
    frame: u32,
    labels: Vec<MLabel>,
    func_names: &'a [String],
    held: HeldBranch,
    /// An `FCmpM` set the flags and no integer compare has replaced them
    /// since. A held `Jcc` is then not inverted: on unordered flags every
    /// condition but `Ne` is false, so `!c` is not the complement of `c`.
    /// MIR today consumes every `FCmpM` with a `SetCc` and branches on a
    /// bool or an integer compare, so this never binds.
    float_flags: bool,
}

impl<'a> MirEmitter<'a> {
    /// Creates an emitter; `extra_frame` reserves a user area (stack
    /// slots) above the spill slots.
    pub fn new(
        isa: Isa,
        alloc: &'a Allocation,
        func_names: &'a [String],
        nblocks: usize,
        extra_frame: u32,
    ) -> Self {
        let mut e = MirEmitter {
            masm: new_masm(isa),
            alloc,
            isa,
            frame: (alloc.spill_slots * 8 + extra_frame + 15) & !15,
            labels: Vec::new(),
            func_names,
            held: HeldBranch::None,
            float_flags: false,
        };
        for _ in 0..nblocks {
            let l = e.masm.new_label();
            e.labels.push(l);
        }
        e
    }

    /// Byte offset within the frame of the user area.
    pub fn user_frame_off(&self) -> u32 {
        self.alloc.spill_slots * 8
    }

    /// Emits the prologue and places the flattened parameters.
    pub fn prologue(&mut self, params: &[u32]) {
        let sp = self.isa.abi().sp;
        let frame = self.frame as i64;
        self.masm
            .alu_rri(AluOp::Sub, Width::W64, false, sp, sp, frame);
        let nreg = self.isa.abi().arg_regs.len();
        let moves: Vec<(Loc, Loc)> = params
            .iter()
            .take(nreg)
            .enumerate()
            .map(|(i, &p)| {
                (
                    Loc::R(self.isa.abi().arg_regs[i]),
                    self.alloc.locs[p as usize],
                )
            })
            .collect();
        self.par_move(moves);
        for (i, &p) in params.iter().enumerate().skip(nreg) {
            let disp = (self.frame + 8 * (i - nreg) as u32) as i32;
            match self.alloc.locs[p as usize] {
                Loc::R(r) => self.masm.load(Width::W64, r, sp, None, disp),
                Loc::Spill(t) => {
                    let (es1, _) = emission_scratches(self.isa);
                    self.masm.load(Width::W64, es1, sp, None, disp);
                    let sd = self.slot_disp(t);
                    self.masm.store(Width::W64, es1, sp, None, sd);
                }
                Loc::F(_) => unreachable!("float stack param"),
            }
        }
    }

    /// Binds block `b`'s label at the current position, first emitting
    /// the held branch folded against `b` as the fall-through block.
    pub fn bind_block(&mut self, b: usize) {
        self.release_branch(Some(b));
        let l = self.labels[b];
        self.masm.bind(l);
    }

    /// Finishes emission.
    pub fn finish(mut self) -> (Vec<u8>, Vec<qc_target::Reloc>, u32) {
        self.release_branch(None);
        let frame = self.frame;
        let (code, relocs) = self.masm.finish();
        (code, relocs, frame)
    }

    /// Emits the held branch; `next` is the block bound right after it.
    fn release_branch(&mut self, next: Option<usize>) {
        match std::mem::replace(&mut self.held, HeldBranch::None) {
            HeldBranch::None => {}
            HeldBranch::Jmp(t) if Some(t) == next => {}
            HeldBranch::Jmp(t) => self.jmp(t),
            HeldBranch::Jcc(c, t) => self.jcc(c, t),
            HeldBranch::JccJmp { cond, taken, other } => {
                if Some(other) == next {
                    self.jcc(cond, taken);
                } else if Some(taken) == next && !self.float_flags {
                    self.jcc(cond.negated(), other);
                } else {
                    self.jcc(cond, taken);
                    self.jmp(other);
                }
            }
        }
    }

    fn jmp(&mut self, b: usize) {
        let l = self.labels[b];
        self.masm.jmp(l);
    }

    fn jcc(&mut self, c: Cond, b: usize) {
        let l = self.labels[b];
        self.masm.jcc(c, l);
    }

    fn sp(&self) -> Reg {
        self.isa.abi().sp
    }

    fn slot_disp(&self, slot: u32) -> i32 {
        (slot * 8) as i32
    }

    /// Reads an int vreg into a register (spill → scratch `which`, by a
    /// reload or, for a rematerialized slot, a `mov` of its constant).
    fn rd(&mut self, v: u32, which: u8) -> Reg {
        match self.alloc.locs[v as usize] {
            Loc::R(r) => r,
            Loc::Spill(s) => {
                let (es1, es2) = emission_scratches(self.isa);
                let sc = if which == 0 { es1 } else { es2 };
                self.emit_move(Loc::Spill(s), Loc::R(sc), sc);
                sc
            }
            Loc::F(_) => panic!("int read of float vreg"),
        }
    }

    /// Destination register for an int def (spill → scratch 0, stored by
    /// [`Emitter::wb`]).
    fn wd(&mut self, v: u32) -> Reg {
        match self.alloc.locs[v as usize] {
            Loc::R(r) => r,
            Loc::Spill(_) => emission_scratches(self.isa).0,
            Loc::F(_) => panic!("int def of float vreg"),
        }
    }

    /// Write-back after a def computed via [`Emitter::wd`].
    fn wb(&mut self, v: u32) {
        if let Loc::Spill(s) = self.alloc.locs[v as usize] {
            let (es1, _) = emission_scratches(self.isa);
            let sp = self.sp();
            let disp = self.slot_disp(s);
            self.masm.store(Width::W64, es1, sp, None, disp);
        }
    }

    fn frd(&mut self, v: u32) -> FReg {
        match self.alloc.locs[v as usize] {
            Loc::F(f) => f,
            Loc::Spill(s) => {
                let fs = self.isa.abi().fscratch;
                let sp = self.sp();
                let disp = self.slot_disp(s);
                self.masm.fload(fs, sp, disp);
                fs
            }
            Loc::R(_) => panic!("float read of int vreg"),
        }
    }

    fn fwd(&mut self, v: u32) -> FReg {
        match self.alloc.locs[v as usize] {
            Loc::F(f) => f,
            Loc::Spill(_) => self.isa.abi().fscratch,
            Loc::R(_) => panic!("float def of int vreg"),
        }
    }

    fn fwb(&mut self, v: u32) {
        if let Loc::Spill(s) = self.alloc.locs[v as usize] {
            let fs = self.isa.abi().fscratch;
            let sp = self.sp();
            let disp = self.slot_disp(s);
            self.masm.fstore(fs, sp, disp);
        }
    }

    /// Parallel move between locations (block params, call setup).
    fn par_move(&mut self, moves: Vec<(Loc, Loc)>) {
        let mut pending: Vec<(Loc, Loc)> = moves.into_iter().filter(|(s, d)| s != d).collect();
        let (es1, es2) = emission_scratches(self.isa);
        let fs = self.isa.abi().fscratch;
        while !pending.is_empty() {
            // A move whose destination is no other pending move's source.
            let idx = pending
                .iter()
                .position(|&(_, d)| !pending.iter().any(|&(s, _)| s == d));
            match idx {
                Some(i) => {
                    let (s, d) = pending.remove(i);
                    self.emit_move(s, d, es2);
                }
                None => {
                    // Cycle: rotate through a scratch.
                    let (s, d) = pending[0];
                    let temp = match s {
                        Loc::F(_) => Loc::F(fs),
                        _ => Loc::R(es1),
                    };
                    self.emit_move(s, temp, es2);
                    // Redirect every pending use of `s` to the temp.
                    for m in &mut pending {
                        if m.0 == s {
                            m.0 = temp;
                        }
                    }
                    let _ = d;
                }
            }
        }
    }

    fn emit_move(&mut self, s: Loc, d: Loc, slot_scratch: Reg) {
        if s == d {
            return;
        }
        let sp = self.sp();
        match (s, d) {
            (Loc::R(a), Loc::R(b)) => self.masm.mov_rr(b, a),
            (Loc::F(a), Loc::F(b)) => self.masm.fmov(b, a),
            (Loc::R(a), Loc::Spill(t)) => {
                let disp = self.slot_disp(t);
                self.masm.store(Width::W64, a, sp, None, disp);
            }
            (Loc::Spill(t), Loc::R(b)) => match self.alloc.remat(t) {
                Some(imm) => self.masm.mov_ri(b, imm),
                None => {
                    let disp = self.slot_disp(t);
                    self.masm.load(Width::W64, b, sp, None, disp);
                }
            },
            (Loc::F(a), Loc::Spill(t)) => {
                let disp = self.slot_disp(t);
                self.masm.fstore(a, sp, disp);
            }
            (Loc::Spill(t), Loc::F(b)) => {
                let disp = self.slot_disp(t);
                self.masm.fload(b, sp, disp);
            }
            (Loc::Spill(_), Loc::Spill(b)) => {
                self.emit_move(s, Loc::R(slot_scratch), slot_scratch);
                let db = self.slot_disp(b);
                self.masm.store(Width::W64, slot_scratch, sp, None, db);
            }
            (Loc::R(_), Loc::F(_)) | (Loc::F(_), Loc::R(_)) => {
                unreachable!("cross-class move")
            }
        }
    }

    /// The moves of a select whose flags are set: `d = cc ? t : f`. Only
    /// moves, reloads and rematerializing `mov`s sit between the test and
    /// the jump, and none of them writes the flags.
    fn pick(&mut self, cc: Cond, d: u32, t: u32, f: u32) {
        let dl = self.alloc.locs[d as usize];
        let tl = self.alloc.locs[t as usize];
        let fl = self.alloc.locs[f as usize];
        let (_, es2) = emission_scratches(self.isa);
        let skip = self.masm.new_label();
        if dl == tl {
            // d already holds t; overwrite with f when cc fails.
            self.masm.jcc(cc, skip);
            self.emit_move(fl, dl, es2);
        } else {
            self.emit_move(fl, dl, es2);
            self.masm.jcc(cc.negated(), skip);
            self.emit_move(tl, dl, es2);
        }
        self.masm.bind(skip);
    }

    #[allow(clippy::too_many_lines)]
    /// Emits one MIR instruction. A `Jcc` or `Jmp` is held until the
    /// next instruction or block shows whether it can fold.
    pub fn emit_inst(&mut self, inst: &MInst) -> Result<(), BackendError> {
        if let (MInst::Jmp { target }, HeldBranch::Jcc(cond, taken)) = (inst, self.held) {
            self.held = HeldBranch::JccJmp {
                cond,
                taken,
                other: *target,
            };
            return Ok(());
        }
        self.release_branch(None);
        match inst {
            MInst::MovRR { d, s } => {
                let sl = self.alloc.locs[*s as usize];
                let dl = self.alloc.locs[*d as usize];
                self.emit_move(sl, dl, emission_scratches(self.isa).1);
            }
            MInst::FMovM { d, s } => {
                let sl = self.alloc.locs[*s as usize];
                let dl = self.alloc.locs[*d as usize];
                self.emit_move(sl, dl, emission_scratches(self.isa).1);
            }
            MInst::MovRI { d, imm } => {
                if let Loc::Spill(s) = self.alloc.locs[*d as usize] {
                    if self.alloc.remat(s).is_some() {
                        // Rematerialized at each use; the slot is never written.
                        return Ok(());
                    }
                }
                let dr = self.wd(*d);
                self.masm.mov_ri(dr, *imm);
                self.wb(*d);
            }
            MInst::Alu {
                op,
                w,
                sf,
                d,
                s1,
                s2,
            } => {
                let a = self.rd(*s1, 0);
                let b = self.rd(*s2, 1);
                let dr = self.wd(*d);
                self.masm.alu_rrr(*op, *w, *sf, dr, a, b);
                self.wb(*d);
            }
            MInst::AluImm {
                op,
                w,
                sf,
                d,
                s1,
                imm,
            } => {
                let a = self.rd(*s1, 0);
                let dr = self.wd(*d);
                self.masm.alu_rri(*op, *w, *sf, dr, a, *imm);
                self.wb(*d);
            }
            MInst::MulFull { dlo, dhi, a, b } => {
                let ra = self.rd(*a, 0);
                let rb = self.rd(*b, 1);
                // Both destinations must be registers and distinct; route
                // spilled ones through scratches.
                let (es1, es2) = emission_scratches(self.isa);
                let rlo = match self.alloc.locs[*dlo as usize] {
                    Loc::R(r) => r,
                    _ => es1,
                };
                let rhi = match self.alloc.locs[*dhi as usize] {
                    Loc::R(r) if r != rlo => r,
                    _ => {
                        if rlo == es2 {
                            es1
                        } else {
                            es2
                        }
                    }
                };
                self.masm.mulfull(rlo, rhi, ra, rb);
                if let Loc::Spill(s) = self.alloc.locs[*dlo as usize] {
                    let sp = self.sp();
                    let disp = self.slot_disp(s);
                    self.masm.store(Width::W64, rlo, sp, None, disp);
                }
                match self.alloc.locs[*dhi as usize] {
                    Loc::R(r) if r == rhi => {}
                    Loc::R(r) => self.masm.mov_rr(r, rhi),
                    Loc::Spill(s) => {
                        let sp = self.sp();
                        let disp = self.slot_disp(s);
                        self.masm.store(Width::W64, rhi, sp, None, disp);
                    }
                    Loc::F(_) => unreachable!(),
                }
            }
            MInst::Crc32 { d, acc, data } => {
                let a = self.rd(*acc, 0);
                let b = self.rd(*data, 1);
                let dr = self.wd(*d);
                self.masm.crc32(dr, a, b);
                self.wb(*d);
            }
            MInst::Div {
                signed,
                rem,
                w,
                d,
                a,
                b,
            } => {
                let ra = self.rd(*a, 0);
                let rb = self.rd(*b, 1);
                let dr = self.wd(*d);
                self.masm.div(*signed, *rem, *w, dr, ra, rb);
                self.wb(*d);
            }
            MInst::Sext { from, d, s } => {
                let rs = self.rd(*s, 0);
                let dr = self.wd(*d);
                self.masm.sext(*from, dr, rs);
                self.wb(*d);
            }
            MInst::Lea {
                d,
                base,
                index,
                disp,
            } => {
                let rb = self.rd(*base, 1);
                let idx = index.as_ref().map(|(i, scale)| (self.rd(*i, 0), *scale));
                let dr = self.wd(*d);
                self.masm.lea(dr, rb, idx, *disp);
                self.wb(*d);
            }
            MInst::Load { w, d, base, disp } => {
                let rb = self.rd(*base, 1);
                let dr = self.wd(*d);
                self.masm.load(*w, dr, rb, None, *disp);
                self.wb(*d);
            }
            MInst::Store { w, s, base, disp } => {
                let rs = self.rd(*s, 0);
                let rb = self.rd(*base, 1);
                self.masm.store(*w, rs, rb, None, *disp);
            }
            MInst::FLoad { d, base, disp } => {
                let rb = self.rd(*base, 1);
                let dr = self.fwd(*d);
                self.masm.fload(dr, rb, *disp);
                self.fwb(*d);
            }
            MInst::FStore { s, base, disp } => {
                let rs = self.frd(*s);
                let rb = self.rd(*base, 1);
                self.masm.fstore(rs, rb, *disp);
            }
            MInst::Cmp { w, a, b } => {
                let ra = self.rd(*a, 0);
                let rb = self.rd(*b, 1);
                self.masm.cmp(*w, ra, rb);
                self.float_flags = false;
            }
            MInst::CmpImm { w, a, imm } => {
                let ra = self.rd(*a, 0);
                self.masm.cmp_ri(*w, ra, *imm);
                self.float_flags = false;
            }
            MInst::SetCc { cond, d } => {
                let dr = self.wd(*d);
                self.masm.setcc(*cond, dr);
                self.wb(*d);
            }
            MInst::TrapIf { cond, code } => {
                let skip = self.masm.new_label();
                self.masm.jcc(cond.negated(), skip);
                self.masm.trap(*code);
                self.masm.bind(skip);
            }
            MInst::Trap { code } => self.masm.trap(*code),
            MInst::Select { cond, d, t, f } | MInst::FSelect { cond, d, t, f } => {
                let rc = self.rd(*cond, 0);
                self.masm.cmp_ri(Width::W8, rc, 0);
                self.float_flags = false;
                self.pick(Cond::Ne, *d, *t, *f);
            }
            MInst::SelectCc { cc, d, t, f } => self.pick(*cc, *d, *t, *f),
            MInst::Jcc { cond, target } => self.held = HeldBranch::Jcc(*cond, *target),
            MInst::Jmp { target } => self.held = HeldBranch::Jmp(*target),
            MInst::CallRt { target, args, ret } => {
                let abi = self.isa.abi();
                if args.len() > abi.arg_regs.len() {
                    return Err(BackendError::new("clift: stack call arguments unsupported"));
                }
                let moves: Vec<(Loc, Loc)> = args
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (self.alloc.locs[v as usize], Loc::R(abi.arg_regs[i])))
                    .collect();
                self.par_move(moves);
                match target {
                    CallTarget::Abs(addr) => self.masm.call_abs(*addr),
                    CallTarget::Sym(name) => self.masm.call_sym(SymbolRef::named(name)),
                }
                let ret_regs = [abi.ret, abi.ret_hi];
                let moves: Vec<(Loc, Loc)> = ret
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (Loc::R(ret_regs[i]), self.alloc.locs[v as usize]))
                    .collect();
                self.par_move(moves);
            }
            MInst::FrameAddr { d, off } => {
                let dr = self.wd(*d);
                let sp = self.sp();
                let disp = (self.user_frame_off() + off) as i32;
                self.masm.lea(dr, sp, None, disp);
                self.wb(*d);
            }
            MInst::FuncAddr { d, func } => {
                let dr = self.wd(*d);
                let name = &self.func_names[*func];
                self.masm.mov_sym(dr, SymbolRef::named(name));
                self.wb(*d);
            }
            MInst::Falu { op, d, a, b } => {
                let ra = self.frd(*a);
                // Only one float scratch: require register allocations for
                // float operands (regalloc spills floats rarely in query
                // code); fall back through the gpr path if needed.
                let rb = match self.alloc.locs[*b as usize] {
                    Loc::F(f) => f,
                    Loc::Spill(s) => {
                        let (es1, _) = emission_scratches(self.isa);
                        let sp = self.sp();
                        let disp = self.slot_disp(s);
                        self.masm.load(Width::W64, es1, sp, None, disp);
                        let fs = FReg(13); // reserved: excluded from the pool
                        self.masm.fmov_from_gpr(fs, es1);
                        fs
                    }
                    Loc::R(_) => unreachable!(),
                };
                let dr = self.fwd(*d);
                self.masm.falu(*op, dr, ra, rb);
                self.fwb(*d);
            }
            MInst::FCmpM { a, b } => {
                let ra = self.frd(*a);
                let rb = match self.alloc.locs[*b as usize] {
                    Loc::F(f) => f,
                    Loc::Spill(s) => {
                        let (es1, _) = emission_scratches(self.isa);
                        let sp = self.sp();
                        let disp = self.slot_disp(s);
                        self.masm.load(Width::W64, es1, sp, None, disp);
                        let fs = FReg(13);
                        self.masm.fmov_from_gpr(fs, es1);
                        fs
                    }
                    Loc::R(_) => unreachable!(),
                };
                self.masm.fcmp(ra, rb);
                self.float_flags = true;
            }
            MInst::FMovFromGpr { d, s } => {
                let rs = self.rd(*s, 0);
                let dr = self.fwd(*d);
                self.masm.fmov_from_gpr(dr, rs);
                self.fwb(*d);
            }
            MInst::FMovToGpr { d, s } => {
                let rs = self.frd(*s);
                let dr = self.wd(*d);
                self.masm.fmov_to_gpr(dr, rs);
                self.wb(*d);
            }
            MInst::CvtSiToF { d, s } => {
                let rs = self.rd(*s, 0);
                let dr = self.fwd(*d);
                self.masm.cvt_si2f(dr, rs);
                self.fwb(*d);
            }
            MInst::CvtFToSi { d, s } => {
                let rs = self.frd(*s);
                let dr = self.wd(*d);
                self.masm.cvt_f2si(dr, rs);
                self.wb(*d);
            }
            MInst::ParMove { moves } => {
                let moves: Vec<(Loc, Loc)> = moves
                    .iter()
                    .map(|&(s, d)| (self.alloc.locs[s as usize], self.alloc.locs[d as usize]))
                    .collect();
                self.par_move(moves);
            }
            MInst::Ret { vals } => {
                let abi = self.isa.abi();
                if vals.len() == 1 && matches!(self.alloc.locs[vals[0] as usize], Loc::F(_)) {
                    let f = self.frd(vals[0]);
                    self.masm.fmov_to_gpr(abi.ret, f);
                } else {
                    let ret_regs = [abi.ret, abi.ret_hi];
                    let moves: Vec<(Loc, Loc)> = vals
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (self.alloc.locs[v as usize], Loc::R(ret_regs[i])))
                        .collect();
                    self.par_move(moves);
                }
                let sp = self.sp();
                self.masm
                    .alu_rri(AluOp::Add, Width::W64, false, sp, sp, self.frame as i64);
                self.masm.ret();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_target::{decode_inst, DecodedInst, Emulator, ImageBuilder, Reentry, RuntimeDispatch};
    use qc_target::{Cond, Trap};

    /// A host for code that calls no helper.
    struct NoHost;

    impl RuntimeDispatch for NoHost {
        fn arg_slots(&self, _index: usize) -> usize {
            0
        }

        fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
            0
        }

        fn call_runtime(&mut self, _: usize, _: &[u64], _: Reentry<'_>) -> Result<[u64; 2], Trap> {
            Err(Trap::Runtime(0xEE))
        }
    }

    /// The rematerialized constant `f` of [`select_cc_on_spills`].
    const K: i64 = 0x1234_5678_9abc;

    /// `sel(x, y, t, f) = x cc y ? t : f` (against the immediate 7 when
    /// `imm`), with `t`, `f` and the result in spill slots, so every move
    /// of the select is a reload or a store between the compare and its
    /// jump. `d_is_t` puts the result in `t`'s slot; `remat` makes `f`
    /// the constant [`K`], moved into place instead of reloaded.
    fn select_cc_on_spills(isa: Isa, cc: Cond, imm: bool, d_is_t: bool, remat: bool) -> Vec<u8> {
        let abi = isa.abi();
        let alloc = Allocation {
            locs: vec![
                Loc::R(abi.arg_regs[0]),
                Loc::R(abi.arg_regs[1]),
                Loc::Spill(0),
                Loc::Spill(1),
                Loc::Spill(if d_is_t { 0 } else { 2 }),
            ],
            spill_slots: 3,
            spills: 3,
            remat: if remat {
                vec![None, Some(K), None]
            } else {
                Vec::new()
            },
        };
        let params: &[u32] = if remat { &[0, 1, 2] } else { &[0, 1, 2, 3] };
        let names = vec!["sel".to_string()];
        let mut e = MirEmitter::new(isa, &alloc, &names, 1, 0);
        e.prologue(params);
        e.bind_block(0);
        let test = if imm {
            MInst::CmpImm {
                w: Width::W64,
                a: 0,
                imm: 7,
            }
        } else {
            MInst::Cmp {
                w: Width::W64,
                a: 0,
                b: 1,
            }
        };
        for inst in [
            MInst::MovRI { d: 3, imm: K },
            test,
            MInst::SelectCc {
                cc,
                d: 4,
                t: 2,
                f: 3,
            },
            MInst::Ret { vals: vec![4] },
        ] {
            if remat || !matches!(inst, MInst::MovRI { .. }) {
                e.emit_inst(&inst).expect("emits");
            }
        }
        e.finish().0
    }

    /// Emits `f(x, y)` from `blocks` (in index order) with `x`, `y` in
    /// vregs 0 and 1 and every vreg at `locs`; returns the code and its
    /// decoded instructions.
    fn emit_blocks(isa: Isa, locs: Vec<Loc>, blocks: &[Vec<MInst>]) -> (Vec<u8>, Vec<DecodedInst>) {
        let alloc = Allocation {
            locs,
            spill_slots: 1,
            spills: 0,
            remat: Vec::new(),
        };
        let names = vec!["f".to_string()];
        let mut e = MirEmitter::new(isa, &alloc, &names, blocks.len(), 0);
        e.prologue(&[0, 1]);
        for (b, insts) in blocks.iter().enumerate() {
            e.bind_block(b);
            for inst in insts {
                e.emit_inst(inst).expect("emits");
            }
        }
        let code = e.finish().0;
        let mut insts = Vec::new();
        let mut off = 0;
        while off < code.len() {
            let (inst, len) = decode_inst(isa, &code, off).expect("decodes");
            insts.push(inst);
            off += len as usize;
        }
        (code, insts)
    }

    /// The branches of `insts`: `Some(cond)` for a `jcc`, `None` for a `jmp`.
    fn branches(insts: &[DecodedInst]) -> Vec<Option<Cond>> {
        insts
            .iter()
            .filter_map(|i| match *i {
                DecodedInst::Jcc { cond, .. } => Some(Some(cond)),
                DecodedInst::Jmp { .. } => Some(None),
                _ => None,
            })
            .collect()
    }

    fn run(isa: Isa, code: Vec<u8>, x: u64, y: u64) -> u64 {
        let mut image = ImageBuilder::new(isa);
        image.add_function("f", code, Vec::new());
        let mut emu = Emulator::new(image.link(&|_| None).expect("links"));
        emu.call(&mut NoHost, "f", &[x, y]).expect("runs")[0]
    }

    #[test]
    fn branches_fold_against_the_next_block_on_both_isas() {
        let ret = |v| vec![MInst::Ret { vals: vec![v] }];
        for isa in [Isa::Tx64, Isa::Ta64] {
            let locs = || vec![Loc::R(isa.abi().arg_regs[0]), Loc::R(isa.abi().arg_regs[1])];

            // A `Jmp` to the block bound next is dropped.
            let (code, insts) = emit_blocks(isa, locs(), &[vec![MInst::Jmp { target: 1 }], ret(0)]);
            assert_eq!(branches(&insts), [], "{isa}");
            assert_eq!(run(isa, code, 5, 9), 5, "{isa}");

            // `f = x < y ? x : y` with the taken block `t` returning `x`,
            // the other block `o` returning `y` and block 3 unreachable.
            for (t, o, want) in [
                (1, 2, vec![Some(Cond::Ge)]),
                (2, 1, vec![Some(Cond::Lt)]),
                (2, 3, vec![Some(Cond::Lt), None]),
            ] {
                let mut blocks = vec![
                    vec![
                        MInst::Cmp {
                            w: Width::W64,
                            a: 0,
                            b: 1,
                        },
                        MInst::Jcc {
                            cond: Cond::Lt,
                            target: t,
                        },
                        MInst::Jmp { target: o },
                    ],
                    ret(1),
                    ret(1),
                    ret(1),
                ];
                blocks[t] = ret(0);
                let (code, insts) = emit_blocks(isa, locs(), &blocks);
                assert_eq!(branches(&insts), want, "{isa} T={t} F={o}");
                for (x, y) in [(3i64, 9i64), (9, 3), (7, 7), (-1, 1)] {
                    let got = run(isa, code.clone(), x as u64, y as u64);
                    assert_eq!(got, x.min(y) as u64, "{isa} T={t} F={o} x={x} y={y}");
                }
            }
        }
    }

    /// A branch on float flags is never inverted: on unordered flags only
    /// `Ne` holds, so `!B` (`Ae`, the float `>=`) would also fail on a NaN
    /// and take the other way.
    #[test]
    fn a_branch_on_a_float_compare_keeps_its_condition() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let abi = isa.abi();
            let pool = float_pool(isa);
            let locs = vec![
                Loc::R(abi.arg_regs[0]),
                Loc::R(abi.arg_regs[1]),
                Loc::F(pool[0]),
                Loc::F(pool[1]),
            ];
            let blocks = [
                vec![
                    MInst::FMovFromGpr { d: 2, s: 0 },
                    MInst::FMovFromGpr { d: 3, s: 1 },
                    MInst::FCmpM { a: 2, b: 3 },
                    MInst::Jcc {
                        cond: Cond::B,
                        target: 1,
                    },
                    MInst::Jmp { target: 2 },
                ],
                vec![MInst::Ret { vals: vec![0] }],
                vec![MInst::Ret { vals: vec![1] }],
            ];
            let (code, insts) = emit_blocks(isa, locs, &blocks);
            assert_eq!(branches(&insts), [Some(Cond::B), None], "{isa}");
            for (x, y) in [(1.0, 2.0), (2.0, 1.0), (f64::NAN, 1.0), (1.0, f64::NAN)] {
                let want = if x < y { x } else { y };
                let got = run(isa, code.clone(), x.to_bits(), y.to_bits());
                assert_eq!(got, want.to_bits(), "{isa} x={x} y={y}");
            }
        }
    }

    #[test]
    fn a_move_onto_its_own_location_emits_nothing_on_both_isas() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let abi = isa.abi();
            let f = float_pool(isa)[0];
            let (r, x) = (Loc::R(abi.arg_regs[0]), Loc::R(abi.arg_regs[1]));
            let locs = vec![r, x, r, Loc::F(f), Loc::F(f), Loc::Spill(0), Loc::Spill(0)];
            let ret = MInst::Ret { vals: vec![2] };
            let (bare, _) = emit_blocks(isa, locs.clone(), &[vec![ret.clone()]]);
            let moves = vec![
                MInst::MovRR { d: 2, s: 0 },
                MInst::FMovM { d: 4, s: 3 },
                MInst::MovRR { d: 6, s: 5 },
                MInst::ParMove {
                    moves: vec![(0, 2), (5, 6)],
                },
                ret,
            ];
            let (code, _) = emit_blocks(isa, locs, &[moves]);
            assert_eq!(code, bare, "{isa}");
        }
    }

    #[test]
    fn select_cc_picks_correctly_with_spilled_operands_on_both_isas() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            for (cc, imm) in [(Cond::Lt, false), (Cond::Eq, true), (Cond::A, false)] {
                for d_is_t in [false, true] {
                    for remat in [false, true] {
                        let code = select_cc_on_spills(isa, cc, imm, d_is_t, remat);
                        // Only moves sit between the compare and the jump,
                        // and at least one of them touches memory or
                        // materializes the constant.
                        let mut insts = Vec::new();
                        let mut off = 0;
                        while off < code.len() {
                            let (inst, len) = decode_inst(isa, &code, off).expect("decodes");
                            insts.push(inst);
                            off += len as usize;
                        }
                        let at = |p: fn(&DecodedInst) -> bool| insts.iter().position(p).unwrap();
                        let test = at(|i| {
                            matches!(i, DecodedInst::Cmp { .. } | DecodedInst::CmpImm { .. })
                        });
                        let jump = at(|i| matches!(i, DecodedInst::Jcc { .. }));
                        let between = &insts[test + 1..jump];
                        assert!(
                            between.iter().all(|i| matches!(
                                i,
                                DecodedInst::Load { .. }
                                    | DecodedInst::Store { .. }
                                    | DecodedInst::MovRI { .. }
                                    | DecodedInst::MovK { .. }
                                    | DecodedInst::MovRR { .. }
                            )),
                            "{isa} {cc:?}: {between:?}"
                        );
                        assert!(d_is_t || !between.is_empty(), "{isa} {cc:?}: {insts:?}");

                        let mut image = ImageBuilder::new(isa);
                        image.add_function("sel", code, Vec::new());
                        let mut emu = Emulator::new(image.link(&|_| None).expect("links"));
                        for (x, y) in [(3u64, 9u64), (9, 3), (7, 7), (u64::MAX, 1), (7, 0)] {
                            let (t, f) = (0x7777, 0x4444);
                            let f = if remat { K as u64 } else { f };
                            let holds = match cc {
                                Cond::Lt => (x as i64) < (y as i64),
                                Cond::Eq => x == 7,
                                Cond::A => x > y,
                                _ => unreachable!(),
                            };
                            let got = emu.call(&mut NoHost, "sel", &[x, y, t, f]).expect("runs");
                            assert_eq!(
                                got[0],
                                if holds { t } else { f },
                                "{isa} {cc:?} imm={imm} d_is_t={d_is_t} remat={remat} x={x} y={y}"
                            );
                        }
                    }
                }
            }
        }
    }
}
