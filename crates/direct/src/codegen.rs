//! The single code-generation pass.

use qc_backend::mir::{cond_of, fcond_of, width_of};
use qc_backend::{BackendError, CompileStats};
use qc_ir::{
    Block, CastOp, CmpOp, Function, InstData, Liveness, Module, Opcode, ReversePostorder, Type,
    Value, ValueDef,
};
use qc_target::{
    AluOp, Cond, FReg, ImageBuilder, MemArg, Reg, SymbolRef, Tx64Assembler, UnwindEntry, Width,
    TX64_ABI,
};

/// Results of the analysis pass consumed by code generation.
pub struct Analysis {
    /// Reverse post-order (the emission order).
    pub rpo: ReversePostorder,
    /// Block-granularity liveness.
    pub live: Liveness,
}

fn alu_of(op: Opcode) -> AluOp {
    match op {
        Opcode::Add | Opcode::SAddTrap | Opcode::SAddOvf => AluOp::Add,
        Opcode::Sub | Opcode::SSubTrap | Opcode::SSubOvf => AluOp::Sub,
        Opcode::Mul | Opcode::SMulTrap | Opcode::SMulOvf => AluOp::Mul,
        Opcode::And => AluOp::And,
        Opcode::Or => AluOp::Or,
        Opcode::Xor => AluOp::Xor,
        Opcode::Shl => AluOp::Shl,
        Opcode::LShr => AluOp::Shr,
        Opcode::AShr => AluOp::Sar,
        Opcode::RotR => AluOp::Rotr,
        _ => unreachable!("not a plain ALU op"),
    }
}

#[derive(Clone)]
struct RegCache {
    /// reg -> (value, half)
    reg_val: Vec<Option<(Value, u8)>>,
    /// value-half (index v*2+h) -> reg
    val_reg: Vec<Option<Reg>>,
    /// freg -> value
    freg_val: Vec<Option<Value>>,
    /// value -> freg
    val_freg: Vec<Option<FReg>>,
    /// LRU stamps per reg.
    stamp: Vec<u64>,
    fstamp: Vec<u64>,
    tick: u64,
}

struct Emit<'a> {
    asm: Tx64Assembler,
    func: &'a Function,
    module: &'a Module,
    labels: Vec<qc_target::TxLabel>,
    home_off: Vec<u32>,
    needs_home: Vec<bool>,
    stored: Vec<bool>,
    uses_left: Vec<u32>,
    cache: RegCache,
    /// Extra sp displacement while pushing call arguments.
    sp_adjust: i32,
    frame: u32,
    phi_tmp_off: u32,
    stack_slot_off: Vec<u32>,
    pinned: Vec<Reg>,
    has_calls: bool,
}

const SP: Reg = Reg(15);
const SCRATCH: Reg = Reg(14);

impl RegCache {
    fn new(nv: usize) -> Self {
        RegCache {
            reg_val: vec![None; 16],
            val_reg: vec![None; nv * 2],
            freg_val: vec![None; 16],
            val_freg: vec![None; nv],
            stamp: vec![0; 16],
            fstamp: vec![0; 16],
            tick: 0,
        }
    }

    fn clear(&mut self) {
        for r in &mut self.reg_val {
            *r = None;
        }
        for v in &mut self.val_reg {
            *v = None;
        }
        for r in &mut self.freg_val {
            *r = None;
        }
        for v in &mut self.val_freg {
            *v = None;
        }
    }
}

impl<'a> Emit<'a> {
    fn home_mem(&self, v: Value, half: u8) -> MemArg {
        MemArg::base_disp(
            SP,
            (self.home_off[v.index()] + 8 * half as u32) as i32 + self.sp_adjust,
        )
    }

    fn touch(&mut self, r: Reg) {
        self.cache.tick += 1;
        self.cache.stamp[r.index()] = self.cache.tick;
    }

    fn bind(&mut self, v: Value, half: u8, r: Reg) {
        if let Some((old, oh)) = self.cache.reg_val[r.index()] {
            self.cache.val_reg[old.index() * 2 + oh as usize] = None;
        }
        self.cache.reg_val[r.index()] = Some((v, half));
        self.cache.val_reg[v.index() * 2 + half as usize] = Some(r);
        self.touch(r);
    }

    fn unbind_reg(&mut self, r: Reg) {
        if let Some((old, oh)) = self.cache.reg_val[r.index()].take() {
            self.cache.val_reg[old.index() * 2 + oh as usize] = None;
        }
    }

    /// Picks a register for a new value, evicting if necessary.
    fn alloc_reg(&mut self) -> Reg {
        let pool = TX64_ABI.allocatable;
        // Free register?
        for &r in pool {
            if self.cache.reg_val[r.index()].is_none() && !self.pinned.contains(&r) {
                self.touch(r);
                return r;
            }
        }
        // Evict: prefer dead values, then stored values, by LRU.
        let mut best: Option<(u8, u64, Reg)> = None; // (class, stamp, reg)
        for &r in pool {
            if self.pinned.contains(&r) {
                continue;
            }
            let (v, _) = self.cache.reg_val[r.index()].expect("occupied");
            let class = if self.uses_left[v.index()] == 0 {
                0u8
            } else if self.stored[v.index()] {
                1
            } else {
                2
            };
            let key = (class, self.cache.stamp[r.index()], r);
            if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                best = Some(key);
            }
        }
        let (class, _, r) = best.expect("register pool exhausted by pins");
        if class == 2 {
            // Emergency spill to the value's reserved home.
            let (v, half) = self.cache.reg_val[r.index()].expect("occupied");
            let mem = self.home_mem(v, half);
            self.asm.store(Width::W64, r, mem);
            // A pair value spills one half at a time; both halves marked
            // stored only when each half is written. Track per value: mark
            // stored once both halves are out of registers or stored.
            self.spill_other_half(v, half);
            self.stored[v.index()] = true;
        }
        self.unbind_reg(r);
        self.touch(r);
        r
    }

    /// When spilling one half of a pair, the other cached half must be
    /// stored too (stored flag is per value).
    fn spill_other_half(&mut self, v: Value, half: u8) {
        let other = 1 - half;
        if let Some(r2) = self.cache.val_reg[v.index() * 2 + other as usize] {
            let mem = self.home_mem(v, other);
            self.asm.store(Width::W64, r2, mem);
        } else if self.func.value_type(v).reg_count() == 2 && !self.stored[v.index()] {
            // Other half neither cached nor stored: impossible — halves are
            // defined together and stay cached until spilled/stored.
            unreachable!("pair half lost for {v}");
        }
    }

    /// Materializes `v`'s `half` into a register (loading from its home if
    /// not cached).
    fn use_half(&mut self, v: Value, half: u8) -> Reg {
        if let Some(r) = self.cache.val_reg[v.index() * 2 + half as usize] {
            self.touch(r);
            self.pinned.push(r);
            return r;
        }
        assert!(
            self.stored[v.index()],
            "value {v} not cached and not stored (@{})",
            self.func.name
        );
        let r = self.alloc_reg();
        let mem = self.home_mem(v, half);
        self.asm.load(Width::W64, r, mem);
        self.bind(v, half, r);
        self.pinned.push(r);
        r
    }

    /// Materializes a float value into an FP register.
    fn use_float(&mut self, v: Value) -> FReg {
        if let Some(f) = self.cache.val_freg[v.index()] {
            self.cache.tick += 1;
            self.cache.fstamp[f.index()] = self.cache.tick;
            return f;
        }
        assert!(self.stored[v.index()], "float {v} not available");
        let f = self.alloc_freg();
        let mem = self.home_mem(v, 0);
        self.asm.fload(f, mem);
        self.bind_float(v, f);
        f
    }

    fn alloc_freg(&mut self) -> FReg {
        for &f in TX64_ABI.fallocatable {
            if self.cache.freg_val[f.index()].is_none() {
                return f;
            }
        }
        // Evict LRU (floats are always restorable: defs store through).
        let f = *TX64_ABI
            .fallocatable
            .iter()
            .min_by_key(|f| self.cache.fstamp[f.index()])
            .expect("fp pool");
        if let Some(old) = self.cache.freg_val[f.index()].take() {
            if !self.stored[old.index()] {
                let mem = self.home_mem(old, 0);
                self.asm.fstore(f, mem);
                self.stored[old.index()] = true;
            }
            self.cache.val_freg[old.index()] = None;
        }
        f
    }

    fn bind_float(&mut self, v: Value, f: FReg) {
        if let Some(old) = self.cache.freg_val[f.index()] {
            self.cache.val_freg[old.index()] = None;
        }
        self.cache.freg_val[f.index()] = Some(v);
        self.cache.val_freg[v.index()] = Some(f);
        self.cache.tick += 1;
        self.cache.fstamp[f.index()] = self.cache.tick;
    }

    /// Finishes the definition of `v` living in `r` (half 0 given; pairs
    /// call this per half): store-through when it needs a home.
    fn def_half(&mut self, v: Value, half: u8, r: Reg) {
        self.bind(v, half, r);
        if self.needs_home[v.index()] {
            let mem = self.home_mem(v, half);
            self.asm.store(Width::W64, r, mem);
            self.stored[v.index()] = true;
        }
    }

    fn def_float(&mut self, v: Value, f: FReg) {
        self.bind_float(v, f);
        if self.needs_home[v.index()] {
            let mem = self.home_mem(v, 0);
            self.asm.fstore(f, mem);
            self.stored[v.index()] = true;
        }
    }

    fn consume(&mut self, v: Value) {
        self.uses_left[v.index()] = self.uses_left[v.index()].saturating_sub(1);
    }

    /// Stores every cached, unstored, still-needed value but keeps the
    /// cache bindings (used before branches so both arms agree on memory).
    fn flush_dirty(&mut self) {
        for r in 0..16usize {
            if let Some((v, half)) = self.cache.reg_val[r] {
                if self.uses_left[v.index()] > 0 && !self.stored[v.index()] {
                    let mem = self.home_mem(v, half);
                    self.asm.store(Width::W64, Reg(r as u8), mem);
                    self.spill_other_half(v, half);
                    self.stored[v.index()] = true;
                }
            }
        }
        for f in 0..16usize {
            if let Some(v) = self.cache.freg_val[f] {
                if self.uses_left[v.index()] > 0 && !self.stored[v.index()] {
                    let mem = self.home_mem(v, 0);
                    self.asm.fstore(FReg(f as u8), mem);
                    self.stored[v.index()] = true;
                }
            }
        }
    }

    /// Stores every cached, unstored value that is still needed (before a
    /// call clobbers the register file), then clears the caches.
    fn flush_for_call(&mut self) {
        self.flush_dirty();
        self.cache.clear();
    }

    fn emit_trap_check(&mut self) {
        let ok = self.asm.new_label();
        self.asm.jcc(Cond::No, ok);
        self.asm.trap(1);
        self.asm.bind(ok);
    }

    /// Loads all argument slots of a runtime call into the arg registers
    /// and stack, then emits the call and rebinds the result.
    fn emit_call(&mut self, symbol: &str, args: &[(Value, u8)], result: Option<Value>) {
        self.flush_for_call();
        let nreg = TX64_ABI.arg_regs.len();
        // Stack args, pushed in reverse so arg i lands at [sp + 8(i-nreg)].
        let extra = args.len().saturating_sub(nreg);
        if extra > 0 {
            for &(v, half) in args[nreg..].iter().rev() {
                let mem = self.home_mem(v, half);
                self.asm.load(Width::W64, SCRATCH, mem);
                self.asm.push(SCRATCH);
                self.sp_adjust += 8;
            }
        }
        for (i, &(v, half)) in args.iter().take(nreg).enumerate() {
            let mem = self.home_mem(v, half);
            self.asm.load(Width::W64, TX64_ABI.arg_regs[i], mem);
        }
        // Runtime addresses are hard-wired: DirectEmit produces no
        // relocations for runtime calls (its own fast encoder + no linker
        // work; only `funcaddr` references remain symbolic).
        match qc_runtime::resolve_runtime(symbol) {
            Some(addr) => {
                self.asm.mov_ri64(SCRATCH, addr as i64);
                self.asm.call_ind(SCRATCH);
            }
            None => self.asm.call_sym(SymbolRef::named(symbol)),
        }
        self.has_calls = true;
        if extra > 0 {
            self.asm
                .alu_ri32(AluOp::Add, Width::W64, false, SP, (extra * 8) as i32);
            self.sp_adjust -= (extra * 8) as i32;
        }
        self.cache.clear();
        if let Some(res) = result {
            let ty = self.func.value_type(res);
            if ty == Type::F64 {
                self.asm.fmov_from_gpr(TX64_ABI.fret, TX64_ABI.ret);
                self.def_float(res, TX64_ABI.fret);
            } else {
                self.def_half(res, 0, TX64_ABI.ret);
                if ty.reg_count() == 2 {
                    self.def_half(res, 1, TX64_ABI.ret_hi);
                }
            }
        }
    }

    /// Emits Φ-resolution copies for the edge `pred -> succ` through the
    /// temporary area (parallel-copy semantics).
    fn emit_edge_copies(&mut self, pred: Block, succ: Block) {
        let mut phis = Vec::new();
        for &inst in self.func.block_insts(succ) {
            if let InstData::Phi { pairs, ty } = self.func.inst(inst) {
                if let Some(&(_, src)) = pairs.iter().find(|&&(b, _)| b == pred) {
                    let dst = self.func.inst_result(inst).expect("phi result");
                    phis.push((src, dst, ty.reg_count()));
                }
            } else {
                break;
            }
        }
        if phis.is_empty() {
            return;
        }
        if phis.len() == 1 {
            let (src, dst, regs) = phis[0];
            for half in 0..regs as u8 {
                self.pinned.clear();
                let r = self.use_half(src, half);
                let mem = self.home_mem(dst, half);
                self.asm.store(Width::W64, r, mem);
            }
            self.consume(src);
            return;
        }
        // Phase A: sources -> temp area.
        for (i, &(src, _, regs)) in phis.iter().enumerate() {
            for half in 0..regs as u8 {
                self.pinned.clear();
                let r = self.use_half(src, half);
                let mem = MemArg::base_disp(
                    SP,
                    (self.phi_tmp_off + (i as u32) * 16 + 8 * half as u32) as i32 + self.sp_adjust,
                );
                self.asm.store(Width::W64, r, mem);
            }
            self.consume(src);
        }
        // Phase B: temp area -> phi homes.
        for (i, &(_, dst, regs)) in phis.iter().enumerate() {
            for half in 0..regs as u8 {
                let tmp = MemArg::base_disp(
                    SP,
                    (self.phi_tmp_off + (i as u32) * 16 + 8 * half as u32) as i32 + self.sp_adjust,
                );
                self.asm.load(Width::W64, SCRATCH, tmp);
                let mem = self.home_mem(dst, half);
                self.asm.store(Width::W64, SCRATCH, mem);
            }
        }
    }

    fn epilogue(&mut self) {
        self.asm
            .alu_ri32(AluOp::Add, Width::W64, false, SP, self.frame as i32);
        self.asm.ret();
    }
}

/// Emits one function into the image.
pub fn emit_function(
    func: &Function,
    module: &Module,
    an: &Analysis,
    image: &mut ImageBuilder,
    stats: &mut CompileStats,
) -> Result<(), BackendError> {
    let nv = func.num_values();

    // Use counts and needs-home flags.
    let mut uses = vec![0u32; nv];
    let mut needs_home = vec![false; nv];
    let mut def_block = vec![Block::new(0); nv];
    for &p in func.params() {
        needs_home[p.index()] = true;
    }
    // Dense side arrays (no hash tables — the DirectEmit idiom).
    let mut def_epoch = vec![u32::MAX; nv];
    let mut def_block_tag = vec![u32::MAX; nv];
    for block in func.blocks() {
        // Per-block call boundary tracking.
        let mut call_epoch = 0u32;
        let tag = block.index() as u32;
        for &inst in func.block_insts(block) {
            let data = func.inst(inst);
            data.for_each_arg(|v| {
                uses[v.index()] += 1;
                if def_block_tag[v.index()] == tag && def_epoch[v.index()] != call_epoch {
                    needs_home[v.index()] = true;
                }
            });
            let is_call = matches!(data, InstData::Call { .. })
                || matches!(
                    data,
                    InstData::Binary {
                        op: Opcode::SMulTrap | Opcode::SDiv | Opcode::SRem | Opcode::Mul,
                        ty: Type::I128,
                        ..
                    }
                );
            if let Some(res) = func.inst_result(inst) {
                def_block[res.index()] = block;
                def_epoch[res.index()] = call_epoch;
                def_block_tag[res.index()] = tag;
                if matches!(data, InstData::Phi { .. }) {
                    needs_home[res.index()] = true;
                }
            }
            if is_call {
                call_epoch += 1;
            }
        }
    }
    for i in 0..nv {
        let v = Value::new(i);
        let live_out = match func.value_def(v) {
            ValueDef::Param(_) => true,
            ValueDef::Inst(_) => an.live.is_live_out(def_block[i], v),
        };
        if live_out {
            needs_home[i] = true;
        }
    }

    // Frame layout: stack slots, phi temp area, value homes.
    let mut frame = 0u32;
    let mut stack_slot_off = Vec::new();
    for s in func.stack_slots() {
        frame = (frame + s.align - 1) & !(s.align - 1);
        stack_slot_off.push(frame);
        frame += s.size;
    }
    let max_phis = func
        .blocks()
        .map(|b| {
            func.block_insts(b)
                .iter()
                .take_while(|&&i| matches!(func.inst(i), InstData::Phi { .. }))
                .count()
        })
        .max()
        .unwrap_or(0) as u32;
    let phi_tmp_off = frame;
    frame += max_phis * 16;
    let mut home_off = vec![0u32; nv];
    for (i, off) in home_off.iter_mut().enumerate() {
        *off = frame;
        frame += 8 * func.value_type(Value::new(i)).reg_count().max(1);
    }
    frame = (frame + 15) & !15;

    let mut e = Emit {
        asm: Tx64Assembler::new(),
        func,
        module,
        labels: Vec::new(),
        home_off,
        needs_home,
        stored: {
            let mut st = vec![false; nv];
            for b in func.blocks() {
                for &i in func.block_insts(b) {
                    if matches!(func.inst(i), InstData::Phi { .. }) {
                        if let Some(r) = func.inst_result(i) {
                            st[r.index()] = true; // edges write the home
                        }
                    }
                }
            }
            st
        },
        uses_left: uses,
        cache: RegCache::new(nv),
        sp_adjust: 0,
        frame,
        phi_tmp_off,
        stack_slot_off,
        pinned: Vec::new(),
        has_calls: false,
    };
    for _ in 0..func.num_blocks() {
        let l = e.asm.new_label();
        e.labels.push(l);
    }

    // Prologue: allocate the frame, store parameters to their homes.
    e.asm
        .alu_ri32(AluOp::Sub, Width::W64, false, SP, frame as i32);
    let mut slot = 0usize;
    for &p in func.params() {
        let regs = func.value_type(p).reg_count();
        for half in 0..regs as u8 {
            let src = if slot < TX64_ABI.arg_regs.len() {
                TX64_ABI.arg_regs[slot]
            } else {
                let mem = MemArg::base_disp(
                    SP,
                    (frame as i32) + 8 * (slot - TX64_ABI.arg_regs.len()) as i32,
                );
                e.asm.load(Width::W64, SCRATCH, mem);
                SCRATCH
            };
            let mem = e.home_mem(p, half);
            e.asm.store(Width::W64, src, mem);
            slot += 1;
        }
        e.stored[p.index()] = true;
    }

    // Emit blocks in reverse post-order.
    for &block in an.rpo.order() {
        let label = e.labels[block.index()];
        e.asm.bind(label);
        e.cache.clear();
        for &inst in func.block_insts(block) {
            e.pinned.clear();
            emit_inst(&mut e, block, inst)?;
        }
    }
    // Unreachable blocks still need their labels bound (no refs exist, but
    // the assembler asserts all labels are resolved only when referenced).
    for block in func.blocks() {
        if !an.rpo.is_reachable(block) {
            // Labels of unreachable blocks are never referenced; nothing to
            // do — bind them defensively at the end.
            let l = e.labels[block.index()];
            // Binding twice is an error; only bind if never bound: the
            // assembler has no query, so track via rpo reachability only.
            e.asm.bind(l);
            e.asm.trap(0);
        }
    }

    let code_len = { e.asm.offset() };
    let has_calls = e.has_calls;
    let (code, relocs) = e.asm.finish();
    stats.bump("machine_insts_bytes", code.len() as u64);
    let off = image.add_function(&func.name, code, relocs);
    if has_calls {
        image.add_unwind(
            off,
            UnwindEntry {
                start: 0,
                end: code_len,
                frame_size: frame,
                synchronous_only: true,
            },
        );
    }
    Ok(())
}

fn emit_inst(e: &mut Emit, block: Block, inst: qc_ir::Inst) -> Result<(), BackendError> {
    let data = e.func.inst(inst).clone();
    let result = e.func.inst_result(inst);
    match data {
        InstData::Phi { .. } => {} // resolved on edges; value lives in its home
        InstData::IConst { ty, imm } => {
            let v = result.expect("const result");
            let r = e.alloc_reg();
            // Keep register values canonical: zero-extended at the width.
            let canon = if ty == Type::I128 || ty.bits() >= 64 {
                imm as u64
            } else {
                (imm as u64) & ((1u64 << ty.bits()) - 1)
            };
            e.asm.mov_ri64(r, canon as i64);
            e.pinned.push(r);
            e.def_half(v, 0, r);
            if ty == Type::I128 {
                let r2 = e.alloc_reg();
                e.asm.mov_ri64(r2, (imm >> 64) as i64);
                e.def_half(v, 1, r2);
            }
        }
        InstData::FConst { imm } => {
            let v = result.expect("const result");
            e.asm.mov_ri64(SCRATCH, imm.to_bits() as i64);
            let f = e.alloc_freg();
            e.asm.fmov_from_gpr(f, SCRATCH);
            e.def_float(v, f);
        }
        InstData::Binary { op, ty, args } => {
            emit_binary(e, op, ty, args, result.expect("binary result"))?;
        }
        InstData::Cmp { op, ty, args } => {
            let v = result.expect("cmp result");
            if ty == Type::I128 {
                emit_cmp128(e, op, args, v);
            } else {
                let a = e.use_half(args[0], 0);
                let b = e.use_half(args[1], 0);
                e.asm.cmp_rr(width_of(ty), a, b);
                e.consume(args[0]);
                e.consume(args[1]);
                let dst = e.alloc_reg();
                e.asm.setcc(cond_of(op), dst);
                e.def_half(v, 0, dst);
            }
        }
        InstData::FCmp { op, args } => {
            let v = result.expect("fcmp result");
            let a = e.use_float(args[0]);
            let b = e.use_float(args[1]);
            e.asm.fcmp(a, b);
            e.consume(args[0]);
            e.consume(args[1]);
            let dst = e.alloc_reg();
            e.asm.setcc(fcond_of(op), dst);
            e.def_half(v, 0, dst);
        }
        InstData::Cast { op, to, arg } => emit_cast(e, op, to, arg, result.expect("cast"))?,
        InstData::Crc32 { args } => {
            let v = result.expect("crc32 result");
            let a = e.use_half(args[0], 0);
            let b = e.use_half(args[1], 0);
            let dst = e.alloc_reg();
            e.asm.crc32(dst, a, b);
            e.consume(args[0]);
            e.consume(args[1]);
            e.def_half(v, 0, dst);
        }
        InstData::LongMulFold { args } => {
            let v = result.expect("lmulfold result");
            let a = e.use_half(args[0], 0);
            let b = e.use_half(args[1], 0);
            let dst = e.alloc_reg();
            e.asm.mulfull(dst, SCRATCH, a, b);
            e.asm.alu_rr(AluOp::Xor, Width::W64, false, dst, SCRATCH);
            e.consume(args[0]);
            e.consume(args[1]);
            e.def_half(v, 0, dst);
        }
        InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => {
            let v = result.expect("select result");
            if ty == Type::F64 {
                let c = e.use_half(cond, 0);
                e.asm.cmp_ri(Width::W8, c, 0);
                e.consume(cond);
                let t = e.use_float(if_true);
                let f = e.use_float(if_false);
                let dst = e.alloc_freg();
                let skip = e.asm.new_label();
                e.asm.fmov(dst, f);
                let use_true = e.asm.new_label();
                e.asm.jcc(Cond::Ne, use_true);
                e.asm.jmp(skip);
                e.asm.bind(use_true);
                e.asm.fmov(dst, t);
                e.asm.bind(skip);
                e.consume(if_true);
                e.consume(if_false);
                e.def_float(v, dst);
            } else {
                let regs = ty.reg_count();
                let c = e.use_half(cond, 0);
                e.asm.cmp_ri(Width::W8, c, 0);
                e.consume(cond);
                for half in 0..regs as u8 {
                    e.pinned.clear();
                    let t = e.use_half(if_true, half);
                    let f = e.use_half(if_false, half);
                    let dst = e.alloc_reg();
                    let skip = e.asm.new_label();
                    e.asm.mov_rr(dst, f);
                    let use_true = e.asm.new_label();
                    e.asm.jcc(Cond::Ne, use_true);
                    e.asm.jmp(skip);
                    e.asm.bind(use_true);
                    e.asm.mov_rr(dst, t);
                    e.asm.bind(skip);
                    e.def_half(v, half, dst);
                }
                e.consume(if_true);
                e.consume(if_false);
            }
        }
        InstData::Load { ty, ptr, offset } => {
            let v = result.expect("load result");
            let p = e.use_half(ptr, 0);
            e.consume(ptr);
            match ty {
                Type::F64 => {
                    let f = e.alloc_freg();
                    e.asm.fload(f, MemArg::base_disp(p, offset));
                    e.def_float(v, f);
                }
                Type::I128 | Type::String => {
                    let lo = e.alloc_reg();
                    e.asm.load(Width::W64, lo, MemArg::base_disp(p, offset));
                    e.pinned.push(lo);
                    let hi = e.alloc_reg();
                    e.asm.load(Width::W64, hi, MemArg::base_disp(p, offset + 8));
                    e.def_half(v, 0, lo);
                    e.def_half(v, 1, hi);
                }
                _ => {
                    let dst = e.alloc_reg();
                    e.asm.load(width_of(ty), dst, MemArg::base_disp(p, offset));
                    e.def_half(v, 0, dst);
                }
            }
        }
        InstData::Store {
            ty,
            ptr,
            value,
            offset,
        } => {
            let p = e.use_half(ptr, 0);
            match ty {
                Type::F64 => {
                    let f = e.use_float(value);
                    e.asm.fstore(f, MemArg::base_disp(p, offset));
                }
                Type::I128 | Type::String => {
                    let lo = e.use_half(value, 0);
                    e.asm.store(Width::W64, lo, MemArg::base_disp(p, offset));
                    let hi = e.use_half(value, 1);
                    e.asm
                        .store(Width::W64, hi, MemArg::base_disp(p, offset + 8));
                }
                _ => {
                    let s = e.use_half(value, 0);
                    e.asm.store(width_of(ty), s, MemArg::base_disp(p, offset));
                }
            }
            e.consume(ptr);
            e.consume(value);
        }
        InstData::Gep {
            base,
            offset,
            index,
            scale,
        } => {
            let v = result.expect("gep result");
            let b = e.use_half(base, 0);
            let mem = match index {
                Some(i) => {
                    let ir = e.use_half(i, 0);
                    e.consume(i);
                    MemArg {
                        base: b,
                        index: Some((ir, scale)),
                        disp: offset as i32,
                    }
                }
                None => MemArg::base_disp(b, offset as i32),
            };
            e.consume(base);
            let dst = e.alloc_reg();
            e.asm.lea(dst, mem);
            e.def_half(v, 0, dst);
        }
        InstData::StackAddr { slot } => {
            let v = result.expect("stackaddr result");
            let dst = e.alloc_reg();
            let off = e.stack_slot_off[slot.index()] as i32 + e.sp_adjust;
            e.asm.lea(dst, MemArg::base_disp(SP, off));
            e.def_half(v, 0, dst);
        }
        InstData::Call { callee, args } => {
            let decl = e.func.ext_func(callee).clone();
            let mut flat = Vec::new();
            for &a in &args {
                let regs = e.func.value_type(a).reg_count();
                for half in 0..regs as u8 {
                    flat.push((a, half));
                }
            }
            // Ensure every argument is stored (flush handles cached ones).
            e.emit_call(&decl.name, &flat, result);
            for &a in &args {
                e.consume(a);
            }
        }
        InstData::FuncAddr { func: fid } => {
            let v = result.expect("funcaddr result");
            let name = e.module.function(fid).name.clone();
            let dst = e.alloc_reg();
            e.asm.mov_ri64_sym(dst, SymbolRef::named(&name));
            e.def_half(v, 0, dst);
        }
        InstData::Jump { dest } => {
            e.emit_edge_copies(block, dest);
            let l = e.labels[dest.index()];
            e.asm.jmp(l);
        }
        InstData::Branch {
            cond,
            then_dest,
            else_dest,
        } => {
            e.flush_dirty();
            let c = e.use_half(cond, 0);
            e.consume(cond);
            e.asm.cmp_ri(Width::W8, c, 0);
            let saved = e.cache.clone();
            let then_tramp = e.asm.new_label();
            e.asm.jcc(Cond::Ne, then_tramp);
            // Else path (fallthrough).
            e.emit_edge_copies(block, else_dest);
            let le = e.labels[else_dest.index()];
            e.asm.jmp(le);
            // Then path (register state as of the branch).
            e.cache = saved;
            e.asm.bind(then_tramp);
            e.emit_edge_copies(block, then_dest);
            let lt = e.labels[then_dest.index()];
            e.asm.jmp(lt);
        }
        InstData::Return { value } => {
            if let Some(v) = value {
                let ty = e.func.value_type(v);
                if ty == Type::F64 {
                    let f = e.use_float(v);
                    e.asm.fmov_to_gpr(TX64_ABI.ret, f);
                } else if ty.reg_count() == 2 {
                    // Route through scratch: lo/hi may alias r0/r1.
                    let lo = e.use_half(v, 0);
                    let hi = e.use_half(v, 1);
                    e.asm.mov_rr(SCRATCH, hi);
                    if lo != TX64_ABI.ret {
                        e.asm.mov_rr(TX64_ABI.ret, lo);
                    }
                    e.asm.mov_rr(TX64_ABI.ret_hi, SCRATCH);
                } else {
                    let lo = e.use_half(v, 0);
                    if lo != TX64_ABI.ret {
                        e.asm.mov_rr(TX64_ABI.ret, lo);
                    }
                }
                e.consume(v);
            }
            e.epilogue();
        }
        InstData::Unreachable => e.asm.trap(0),
    }
    Ok(())
}

fn emit_binary(
    e: &mut Emit,
    op: Opcode,
    ty: Type,
    args: [Value; 2],
    v: Value,
) -> Result<(), BackendError> {
    if ty == Type::F64 {
        let a = e.use_float(args[0]);
        let b = e.use_float(args[1]);
        let dst = e.alloc_freg();
        let fop = match op {
            Opcode::FAdd => qc_target::FaluOp::Add,
            Opcode::FSub => qc_target::FaluOp::Sub,
            Opcode::FMul => qc_target::FaluOp::Mul,
            Opcode::FDiv => qc_target::FaluOp::Div,
            _ => return Err(BackendError::new(format!("float op {op} expected"))),
        };
        e.asm.falu(fop, dst, a, b);
        e.consume(args[0]);
        e.consume(args[1]);
        e.def_float(v, dst);
        return Ok(());
    }
    if ty == Type::I128 {
        return emit_binary128(e, op, args, v);
    }
    let width = width_of(ty);
    match op {
        Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem => {
            let a = e.use_half(args[0], 0);
            let b = e.use_half(args[1], 0);
            let dst = e.alloc_reg();
            let signed = matches!(op, Opcode::SDiv | Opcode::SRem);
            let rem = matches!(op, Opcode::SRem | Opcode::URem);
            e.asm.div(signed, rem, width, dst, a, b);
            e.consume(args[0]);
            e.consume(args[1]);
            e.def_half(v, 0, dst);
        }
        Opcode::SAddOvf | Opcode::SSubOvf | Opcode::SMulOvf => {
            let a = e.use_half(args[0], 0);
            let b = e.use_half(args[1], 0);
            e.asm.mov_rr(SCRATCH, a);
            e.asm.alu_rr(alu_of(op), width, true, SCRATCH, b);
            e.consume(args[0]);
            e.consume(args[1]);
            let dst = e.alloc_reg();
            e.asm.setcc(Cond::O, dst);
            e.def_half(v, 0, dst);
        }
        _ => {
            let trapping = op.can_trap();
            let a = e.use_half(args[0], 0);
            let b = e.use_half(args[1], 0);
            let dst = e.alloc_reg();
            e.asm.mov_rr(dst, a);
            e.asm.alu_rr(alu_of(op), width, trapping, dst, b);
            if trapping {
                e.emit_trap_check();
            }
            e.consume(args[0]);
            e.consume(args[1]);
            e.def_half(v, 0, dst);
        }
    }
    Ok(())
}

fn emit_binary128(
    e: &mut Emit,
    op: Opcode,
    args: [Value; 2],
    v: Value,
) -> Result<(), BackendError> {
    match op {
        Opcode::Add | Opcode::Sub | Opcode::SAddTrap | Opcode::SSubTrap => {
            let (lo_op, hi_op) = if matches!(op, Opcode::Add | Opcode::SAddTrap) {
                (AluOp::Add, AluOp::Adc)
            } else {
                (AluOp::Sub, AluOp::Sbb)
            };
            let trapping = op.can_trap();
            let alo = e.use_half(args[0], 0);
            let blo = e.use_half(args[1], 0);
            let dlo = e.alloc_reg();
            e.pinned.push(dlo);
            e.asm.mov_rr(dlo, alo);
            e.asm.alu_rr(lo_op, Width::W64, true, dlo, blo);
            let ahi = e.use_half(args[0], 1);
            let bhi = e.use_half(args[1], 1);
            let dhi = e.alloc_reg();
            e.asm.mov_rr(dhi, ahi);
            e.asm.alu_rr(hi_op, Width::W64, true, dhi, bhi);
            if trapping {
                e.emit_trap_check();
            }
            e.consume(args[0]);
            e.consume(args[1]);
            e.def_half(v, 0, dlo);
            e.def_half(v, 1, dhi);
            Ok(())
        }
        Opcode::SMulTrap => {
            let flat = vec![(args[0], 0), (args[0], 1), (args[1], 0), (args[1], 1)];
            e.emit_call("rt_mul128_ovf", &flat, Some(v));
            e.consume(args[0]);
            e.consume(args[1]);
            Ok(())
        }
        Opcode::SDiv => {
            let flat = vec![(args[0], 0), (args[0], 1), (args[1], 0), (args[1], 1)];
            e.emit_call("rt_i128_div", &flat, Some(v));
            e.consume(args[0]);
            e.consume(args[1]);
            Ok(())
        }
        other => Err(BackendError::new(format!(
            "DirectEmit does not support {other} at i128"
        ))),
    }
}

fn emit_cmp128(e: &mut Emit, op: CmpOp, args: [Value; 2], v: Value) {
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            let alo = e.use_half(args[0], 0);
            let blo = e.use_half(args[1], 0);
            e.asm.mov_rr(SCRATCH, alo);
            e.asm.alu_rr(AluOp::Xor, Width::W64, false, SCRATCH, blo);
            let ahi = e.use_half(args[0], 1);
            let bhi = e.use_half(args[1], 1);
            let t = e.alloc_reg();
            e.asm.mov_rr(t, ahi);
            e.asm.alu_rr(AluOp::Xor, Width::W64, false, t, bhi);
            e.asm.alu_rr(AluOp::Or, Width::W64, true, t, SCRATCH);
            e.consume(args[0]);
            e.consume(args[1]);
            let dst = e.alloc_reg();
            e.asm.setcc(cond_of(op), dst);
            e.def_half(v, 0, dst);
        }
        _ => {
            // Compute flags of (x - y) over 128 bits via sub/sbb; swap
            // operands for Gt/Le so only Lt/Ge conditions are needed.
            let (x, y, cond) = match op {
                CmpOp::SLt => (args[0], args[1], Cond::Lt),
                CmpOp::SGe => (args[0], args[1], Cond::Ge),
                CmpOp::SGt => (args[1], args[0], Cond::Lt),
                CmpOp::SLe => (args[1], args[0], Cond::Ge),
                CmpOp::ULt => (args[0], args[1], Cond::B),
                CmpOp::UGe => (args[0], args[1], Cond::Ae),
                CmpOp::UGt => (args[1], args[0], Cond::B),
                CmpOp::ULe => (args[1], args[0], Cond::Ae),
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            };
            let xlo = e.use_half(x, 0);
            let ylo = e.use_half(y, 0);
            e.asm.mov_rr(SCRATCH, xlo);
            e.asm.alu_rr(AluOp::Sub, Width::W64, true, SCRATCH, ylo);
            let xhi = e.use_half(x, 1);
            let yhi = e.use_half(y, 1);
            let t = e.alloc_reg();
            e.asm.mov_rr(t, xhi);
            e.asm.alu_rr(AluOp::Sbb, Width::W64, true, t, yhi);
            e.consume(args[0]);
            e.consume(args[1]);
            let dst = e.alloc_reg();
            e.asm.setcc(cond, dst);
            e.def_half(v, 0, dst);
        }
    }
}

fn emit_cast(e: &mut Emit, op: CastOp, to: Type, arg: Value, v: Value) -> Result<(), BackendError> {
    let from = e.func.value_type(arg);
    match op {
        CastOp::Zext => {
            let a = e.use_half(arg, 0);
            let dst = e.alloc_reg();
            e.asm.mov_rr(dst, a);
            e.consume(arg);
            e.def_half(v, 0, dst);
            if to == Type::I128 {
                let hi = e.alloc_reg();
                e.asm.mov_ri(hi, 0);
                e.def_half(v, 1, hi);
            }
        }
        CastOp::Sext => {
            if from == Type::I128 {
                let lo = e.use_half(arg, 0);
                let dlo = e.alloc_reg();
                e.pinned.push(dlo);
                e.asm.mov_rr(dlo, lo);
                let hi = e.use_half(arg, 1);
                let dhi = e.alloc_reg();
                e.asm.mov_rr(dhi, hi);
                e.consume(arg);
                e.def_half(v, 0, dlo);
                e.def_half(v, 1, dhi);
                return Ok(());
            }
            let a = e.use_half(arg, 0);
            let dst = e.alloc_reg();
            if from == Type::I64 || from == Type::Ptr {
                e.asm.mov_rr(dst, a);
            } else {
                e.asm.sext(width_of(from), dst, a);
            }
            e.consume(arg);
            if to == Type::I128 {
                e.pinned.push(dst);
                let hi = e.alloc_reg();
                e.asm.mov_rr(hi, dst);
                e.asm.alu_ri(AluOp::Sar, Width::W64, false, hi, 63);
                e.def_half(v, 0, dst);
                e.def_half(v, 1, hi);
            } else {
                e.def_half(v, 0, dst);
            }
        }
        CastOp::Trunc => {
            let a = e.use_half(arg, 0);
            let dst = e.alloc_reg();
            e.asm.mov_rr(dst, a);
            match to {
                Type::I64 | Type::Ptr => {}
                t => {
                    // Mask via a width-limited AND with all-ones.
                    e.asm.alu_ri(AluOp::And, width_of(t), false, dst, -1);
                }
            }
            e.consume(arg);
            e.def_half(v, 0, dst);
        }
        CastOp::SiToF => {
            let a = e.use_half(arg, 0);
            let src = if from == Type::I64 {
                a
            } else if from == Type::I128 {
                return Err(BackendError::new("sitof from i128 unsupported"));
            } else {
                e.asm.sext(width_of(from), SCRATCH, a);
                SCRATCH
            };
            let f = e.alloc_freg();
            e.asm.cvt_si2f(f, src);
            e.consume(arg);
            e.def_float(v, f);
        }
        CastOp::FToSi => {
            let f = e.use_float(arg);
            let dst = e.alloc_reg();
            e.asm.cvt_f2si(dst, f);
            if to != Type::I64 {
                e.asm.alu_ri(AluOp::And, width_of(to), false, dst, -1);
            }
            e.consume(arg);
            e.def_half(v, 0, dst);
        }
    }
    Ok(())
}
