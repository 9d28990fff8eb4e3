//! The deterministic emulator and its cycle model.
//!
//! Compiled code never runs on the real CPU: the emulator interprets
//! the linked [`CodeImage`] instruction by instruction, charging each
//! one a fixed cost so that reported cycle counts are exactly
//! reproducible across runs and machines (the paper's measurements
//! need a stable denominator).
//!
//! Execution model:
//!
//! * **Registers** are 64-bit and canonical: narrow operations store
//!   their result zero-extended, matching the interpreter tier
//!   bit-for-bit so tiers can be swapped mid-query.
//! * **Memory is host memory.** Loads and stores go straight through
//!   raw pointers (guarded against the null page), so compiled code,
//!   the interpreter tier, and the runtime share data structures by
//!   passing real addresses. The emulated stack is a heap buffer
//!   ([`EmuOptions::stack_size`], 64 KB by default) whose top is handed
//!   to the code in the ABI's stack-pointer register; it is allocated,
//!   zeroed, by the first [`Emulator::call`] and kept for the
//!   emulator's life, so an image that is linked but never run costs no
//!   stack. It is bounds-checked where the stack pointer moves down: a
//!   `push`, an ALU write to the stack pointer, or stack arguments that
//!   would put it below the buffer raise [`Trap::StackOverflow`].
//! * **Return addresses live on a shadow call stack** inside the
//!   emulator, never in emulated memory — `call` pushes, `ret` pops,
//!   and stack smashes cannot redirect control.
//! * **Runtime helpers** occupy reserved virtual addresses
//!   ([`runtime_addr`]). A `call`/`callind` landing in that range is
//!   dispatched to the host through [`RuntimeDispatch`]; the host can
//!   re-enter compiled code through [`Reentry`]. A `jmpind` landing
//!   there is a tail call (a PLT stub's): the helper returns to the
//!   current frame's caller, or ends the activation at its base.
//!   Control never falls into the runtime range other than by a call
//!   or such a jump.
//! * **Dispatch is pre-decoded.** Each image offset is decoded at most
//!   once per [`Emulator`]: the first fetch of an offset stores the
//!   instruction, its length and its cycle cost in a decode cache, and
//!   every later fetch is an index lookup (see [`DecodeCache`]).

use crate::decode::{decode_inst, DecodedInst};
use crate::image::CodeImage;
use crate::isa::{AluOp, Cond, FaluOp, MemArg, Width};
use std::fmt;

/// Fixed cycle cost of crossing the code/runtime boundary, charged per
/// runtime helper call on top of the helper's own modeled cost. The
/// interpreter tier charges the same constant so tier comparisons are
/// apples-to-apples.
pub const CALL_DISPATCH_COST: u64 = 20;

/// Base of the reserved virtual address range for runtime helpers.
const RUNTIME_BASE: u64 = 0x7254_0000_0000;
/// Address stride between runtime helper slots.
const RUNTIME_SLOT: u64 = 16;
/// Number of addressable runtime helper slots.
const RUNTIME_MAX: u64 = 1 << 16;

/// The reserved virtual address of runtime helper `index`, for linker
/// resolvers. The emulator recognizes these addresses at call sites and
/// indirect jumps and dispatches to the host instead of fetching.
pub fn runtime_addr(index: usize) -> u64 {
    RUNTIME_BASE + index as u64 * RUNTIME_SLOT
}

/// Reverse of [`runtime_addr`]: the helper index if `addr` is a slot
/// address in the runtime range.
fn runtime_index(addr: u64) -> Option<usize> {
    if (RUNTIME_BASE..RUNTIME_BASE + RUNTIME_MAX * RUNTIME_SLOT).contains(&addr)
        && (addr - RUNTIME_BASE).is_multiple_of(RUNTIME_SLOT)
    {
        Some(((addr - RUNTIME_BASE) / RUNTIME_SLOT) as usize)
    } else {
        None
    }
}

/// A fault raised by emulated code (or by a runtime helper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Signed arithmetic overflow (trapping ops, division overflow,
    /// float-to-int out of range).
    Overflow,
    /// Division or remainder by zero.
    DivByZero,
    /// Control transfer to an address that is neither in the image nor
    /// a runtime helper slot.
    BadJump(u64),
    /// Memory access to a guarded address (the null page).
    BadAccess(u64),
    /// An `unreachable` marker was executed.
    Unreachable,
    /// The fuel budget ([`EmuOptions::fuel`]) was exhausted.
    Fuel,
    /// A runtime-helper-defined error code.
    Runtime(u8),
    /// The stack pointer would have moved below the emulated stack.
    StackOverflow,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Overflow => write!(f, "signed overflow"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::BadJump(a) => write!(f, "bad jump target {a:#x}"),
            Trap::BadAccess(a) => write!(f, "bad memory access at {a:#x}"),
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::Fuel => write!(f, "fuel exhausted"),
            Trap::Runtime(c) => write!(f, "runtime error {c}"),
            Trap::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

impl std::error::Error for Trap {}

/// Deterministic execution counters, accumulated across calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Modeled cycles: per-instruction costs plus runtime helper costs.
    pub cycles: u64,
    /// Machine instructions executed (runtime helper calls count as
    /// one).
    pub insts: u64,
}

impl std::ops::Add for ExecStats {
    type Output = ExecStats;
    #[inline]
    fn add(self, other: ExecStats) -> ExecStats {
        ExecStats {
            cycles: self.cycles + other.cycles,
            insts: self.insts + other.insts,
        }
    }
}

impl std::ops::Sub for ExecStats {
    type Output = ExecStats;
    #[inline]
    fn sub(self, earlier: ExecStats) -> ExecStats {
        ExecStats {
            cycles: self.cycles - earlier.cycles,
            insts: self.insts - earlier.insts,
        }
    }
}

/// Emulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct EmuOptions {
    /// Maximum instructions per top-level [`Emulator::call`] (guards
    /// against miscompiled infinite loops). Exhaustion raises
    /// [`Trap::Fuel`].
    pub fuel: u64,
    /// Size in bytes of the emulated stack. The default, 64 KB, is 40×
    /// the deepest any benchmark query goes (1.6 KB: back-ends emit
    /// frames of a few hundred bytes); a program that needs more raises
    /// [`Trap::StackOverflow`] rather than writing below the buffer.
    pub stack_size: usize,
}

impl Default for EmuOptions {
    fn default() -> EmuOptions {
        EmuOptions {
            fuel: u64::MAX,
            stack_size: 1 << 16,
        }
    }
}

/// The host side of the code/runtime boundary: maps helper indices to
/// argument counts, models their cost, and executes them.
pub trait RuntimeDispatch {
    /// Number of 64-bit argument slots helper `index` consumes.
    fn arg_slots(&self, index: usize) -> usize;

    /// Modeled cycle cost of helper `index` with `args` (charged in
    /// addition to [`CALL_DISPATCH_COST`]). Must be deterministic.
    fn runtime_cost(&self, index: usize, args: &[u64]) -> u64;

    /// Executes helper `index`. `reentry` lets the helper call back
    /// into compiled code (function-pointer arguments such as
    /// comparators).
    fn call_runtime(
        &mut self,
        index: usize,
        args: &[u64],
        reentry: Reentry<'_>,
    ) -> Result<[u64; 2], Trap>;
}

/// A capability handed to [`RuntimeDispatch::call_runtime`] that lets a
/// runtime helper call back into compiled code mid-dispatch.
pub struct Reentry<'a> {
    emu: &'a mut Emulator,
}

impl Reentry<'_> {
    /// Calls the compiled function at absolute address `addr` with
    /// `args`, returning its first result register. The interrupted
    /// activation's register file is saved and restored around the
    /// nested one; the nested activation runs on the same stack, below
    /// the current stack pointer, and shares the outer fuel budget.
    ///
    /// # Errors
    /// Returns whatever [`Trap`] the nested code raises.
    pub fn call(
        &mut self,
        host: &mut dyn RuntimeDispatch,
        addr: u64,
        args: &[u64],
    ) -> Result<u64, Trap> {
        let emu = &mut *self.emu;
        let saved_regs = emu.regs;
        let saved_fregs = emu.fregs;
        let saved_flags = emu.flags;
        let sp = emu.regs[emu.image.isa().abi().sp.index()];
        let r = emu.run_activation(host, addr, args, sp);
        emu.regs = saved_regs;
        emu.fregs = saved_fregs;
        emu.flags = saved_flags;
        r.map(|rv| rv[0])
    }
}

/// Condition-flag state (`unordered` is set by `fcmp` on NaN operands;
/// while set, only [`Cond::Ne`] evaluates true).
#[derive(Clone, Copy, Debug, Default)]
struct Flags {
    zf: bool,
    sf: bool,
    of: bool,
    cf: bool,
    unordered: bool,
}

fn eval_cond(c: Cond, f: Flags) -> bool {
    if f.unordered {
        return matches!(c, Cond::Ne);
    }
    match c {
        Cond::Eq => f.zf,
        Cond::Ne => !f.zf,
        Cond::Lt => f.sf != f.of,
        Cond::Le => f.zf || f.sf != f.of,
        Cond::Gt => !f.zf && f.sf == f.of,
        Cond::Ge => f.sf == f.of,
        Cond::B => f.cf,
        Cond::Be => f.cf || f.zf,
        Cond::A => !f.cf && !f.zf,
        Cond::Ae => !f.cf,
        Cond::O => f.of,
        Cond::No => !f.of,
    }
}

fn sext(v: u64, w: Width) -> i64 {
    let bits = w.bits();
    ((v << (64 - bits)) as i64) >> (64 - bits)
}

fn read_mem(addr: u64, w: Width) -> Result<u64, Trap> {
    if addr < 0x10000 {
        return Err(Trap::BadAccess(addr));
    }
    // SAFETY: host-memory execution model (shared with the interpreter
    // tier): emulated code addresses real allocations — the emulated
    // stack, the linked image, and runtime-owned buffers.
    unsafe {
        Ok(match w {
            Width::W8 => std::ptr::read_unaligned(addr as *const u8) as u64,
            Width::W16 => std::ptr::read_unaligned(addr as *const u16) as u64,
            Width::W32 => std::ptr::read_unaligned(addr as *const u32) as u64,
            Width::W64 => std::ptr::read_unaligned(addr as *const u64),
        })
    }
}

fn write_mem(addr: u64, w: Width, v: u64) -> Result<(), Trap> {
    if addr < 0x10000 {
        return Err(Trap::BadAccess(addr));
    }
    // SAFETY: see `read_mem`.
    unsafe {
        match w {
            Width::W8 => std::ptr::write_unaligned(addr as *mut u8, v as u8),
            Width::W16 => std::ptr::write_unaligned(addr as *mut u16, v as u16),
            Width::W32 => std::ptr::write_unaligned(addr as *mut u32, v as u32),
            Width::W64 => std::ptr::write_unaligned(addr as *mut u64, v),
        }
    }
    Ok(())
}

/// Deterministic per-instruction cycle cost (Table III's machine-code
/// row; loads are slower than stores, division dominates).
fn inst_cost(inst: &DecodedInst) -> u8 {
    use DecodedInst as I;
    match inst {
        I::Nop | I::MovRR { .. } | I::MovRI { .. } | I::MovK { .. } => 1,
        I::Alu { op: AluOp::Mul, .. } | I::AluImm { op: AluOp::Mul, .. } => 3,
        I::Alu { .. } | I::AluImm { .. } => 1,
        I::MulFull { .. } => 4,
        I::Crc32 { .. } => 1,
        I::Div { .. } => 25,
        I::Sext { .. } | I::Lea { .. } => 1,
        I::Load { .. } | I::FLoad { .. } | I::Pop { .. } => 4,
        I::Store { .. } | I::FStore { .. } | I::Push { .. } => 2,
        I::Cmp { .. } | I::CmpImm { .. } | I::SetCc { .. } => 1,
        I::Jcc { .. } | I::Jmp { .. } | I::JmpInd { .. } => 1,
        I::Call { .. } | I::CallInd { .. } | I::Ret => 2,
        I::Falu {
            op: FaluOp::Div, ..
        } => 10,
        I::Falu { .. } => 2,
        I::FCmp { .. } | I::FMov { .. } | I::FMovFromGpr { .. } | I::FMovToGpr { .. } => 1,
        I::CvtSiToF { .. } | I::CvtFToSi { .. } => 3,
        I::Trap { .. } => 1,
    }
}

/// What the bytes at one image offset decode to, with the cycle cost
/// folded in so [`inst_cost`] runs once per distinct instruction.
#[derive(Clone, Copy)]
struct Decoded {
    inst: DecodedInst,
    /// Image offset the instruction was decoded at.
    off: u32,
    len: u8,
    cost: u8,
}

/// The per-[`Emulator`] decode cache.
///
/// `slot_at` has one entry per image byte offset — so variable-length
/// TX64, fixed-width TA64, unaligned and mid-instruction targets all
/// take the same path — holding 0 ("never fetched") or 1 + an index
/// into the dense `slots`. A slot is filled by the first fetch of its
/// offset; a fetch that fails to decode stores nothing and fails again
/// the same way next time.
///
/// Valid because **a linked [`CodeImage`]'s bytes are never written
/// after `link`** (`CodeImage` hands out `&[u8]` only; code that stored
/// into its own instructions would need a cache flush the emulator
/// does not have). The cache belongs to one `Emulator` and is not
/// shared across instantiations of one artifact: every `link` places
/// the image at a new base, so absolute immediates in the decoded
/// instructions differ between them.
#[derive(Default)]
struct DecodeCache {
    slot_at: Vec<u32>,
    slots: Vec<Decoded>,
}

impl DecodeCache {
    /// The index in `slots` of the instruction at image offset `off`
    /// (`off < image.len()`), decoding it if this is the first fetch
    /// of that offset. `guess` is tried first. Slots fill in fetch
    /// order, so the slot after the previous instruction's usually
    /// holds its fall-through successor; checking that is one compare,
    /// where going through `slot_at` puts two dependent loads between
    /// one program counter and the next (a quarter of the host time per
    /// instruction on the H-like suite).
    #[inline]
    fn locate(&mut self, image: &CodeImage, off: usize, guess: usize) -> Option<usize> {
        if self.slots.get(guess).is_some_and(|d| d.off as usize == off) {
            return Some(guess);
        }
        match self.slot_at[off] {
            0 => self.fill(image, off),
            n => Some(n as usize - 1),
        }
    }

    #[cold]
    fn fill(&mut self, image: &CodeImage, off: usize) -> Option<usize> {
        let (inst, len) = decode_inst(image.isa(), image.bytes(), off).ok()?;
        self.slots.push(Decoded {
            inst,
            off: u32::try_from(off).expect("images are far below 4 GiB"),
            len,
            cost: inst_cost(&inst),
        });
        // At most one slot per image byte, so this fits as `off` did.
        self.slot_at[off] = self.slots.len() as u32;
        Some(self.slots.len() - 1)
    }
}

/// Runtime-helper arguments up to this count (every ABI's register
/// arguments) are marshalled in a stack array; a helper that takes more
/// falls back to a heap buffer.
const INLINE_ARGS: usize = 8;

/// Executes linked machine code under the deterministic cycle model.
pub struct Emulator {
    image: CodeImage,
    opts: EmuOptions,
    stats: ExecStats,
    // The emulated stack and the decode cache's offset table are
    // allocated by the first `call`: an executable that is compiled and
    // linked but never run has neither.
    stack: Vec<u8>,
    cache: DecodeCache,
    // Return addresses of every live activation, innermost last; an
    // activation owns the entries above the length it started at.
    shadow: Vec<u64>,
    regs: [u64; 32],
    // f64 bit patterns
    fregs: [u64; 16],
    flags: Flags,
    fuel: u64,
}

impl fmt::Debug for Emulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Emulator")
            .field("isa", &self.image.isa())
            .field("image_len", &self.image.len())
            .field("stack_size", &self.opts.stack_size)
            .field("stack_allocated", &!self.stack.is_empty())
            .field("cached_slots", &self.cache.slots.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Emulator {
    /// Creates an emulator for `image` with default options.
    pub fn new(image: CodeImage) -> Emulator {
        Emulator::with_options(image, EmuOptions::default())
    }

    /// Creates an emulator with explicit fuel and stack limits.
    pub fn with_options(image: CodeImage, opts: EmuOptions) -> Emulator {
        Emulator {
            image,
            opts,
            stats: ExecStats::default(),
            stack: Vec::new(),
            cache: DecodeCache::default(),
            shadow: Vec::new(),
            regs: [0; 32],
            fregs: [0; 16],
            flags: Flags::default(),
            fuel: 0,
        }
    }

    /// The linked image being executed.
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// Execution counters accumulated over all calls so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Calls function `name` with 64-bit argument slots, returning the
    /// two ABI result registers. Resets the register file and the fuel
    /// budget, then runs to the entry function's `ret`.
    ///
    /// # Errors
    /// [`Trap::BadJump`]`(0)` if `name` is not defined in the image;
    /// otherwise whatever the code raises.
    pub fn call(
        &mut self,
        host: &mut dyn RuntimeDispatch,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let entry = self.image.addr_of(name).ok_or(Trap::BadJump(0))?;
        if self.stack.is_empty() {
            self.allocate_execution_state();
        }
        self.fuel = self.opts.fuel;
        self.regs = [0; 32];
        self.fregs = [0; 16];
        self.flags = Flags::default();
        let top = self.stack.as_ptr() as u64 + self.stack.len() as u64;
        self.run_activation(host, entry, args, top & !15)
    }

    /// What only an emulator that runs needs: the zeroed stack (never
    /// empty afterwards) and the decode cache's offset table.
    #[cold]
    fn allocate_execution_state(&mut self) {
        self.stack = vec![0u8; self.opts.stack_size.max(64)];
        self.cache.slot_at = vec![0; self.image.len()];
    }

    /// Sets up the ABI state for one activation (argument registers,
    /// stack arguments below `sp`) and runs it to completion.
    fn run_activation(
        &mut self,
        host: &mut dyn RuntimeDispatch,
        entry: u64,
        args: &[u64],
        sp: u64,
    ) -> Result<[u64; 2], Trap> {
        let abi = self.image.isa().abi();
        let nreg = abi.arg_regs.len();
        let mut sp = sp;
        if args.len() > nreg {
            let extra = args.len() - nreg;
            sp = sp
                .checked_sub(((extra * 8 + 15) & !15) as u64)
                .filter(|&sp| sp >= self.stack.as_ptr() as u64)
                .ok_or(Trap::StackOverflow)?;
            for (i, &a) in args[nreg..].iter().enumerate() {
                write_mem(sp + 8 * i as u64, Width::W64, a)?;
            }
        }
        for (i, &a) in args.iter().take(nreg).enumerate() {
            self.regs[abi.arg_regs[i].index()] = a;
        }
        self.regs[abi.sp.index()] = sp;
        let frames = self.shadow.len();
        let r = self.exec(host, entry, frames);
        // A trap leaves this activation's frames behind; the caller's
        // (a helper may swallow the trap and return) must survive it.
        self.shadow.truncate(frames);
        r?;
        Ok([self.regs[abi.ret.index()], self.regs[abi.ret_hi.index()]])
    }

    /// The fetch/execute loop for one activation, which owns the shadow
    /// frames above `frames`. Returns when a `ret` executes with none
    /// of them left.
    fn exec(
        &mut self,
        host: &mut dyn RuntimeDispatch,
        entry: u64,
        frames: usize,
    ) -> Result<(), Trap> {
        use DecodedInst as I;
        let abi = self.image.isa().abi();
        let base = self.image.base();
        let image_len = self.image.len() as u64;
        // The lowest value the stack pointer may take; the stack never
        // moves once allocated.
        let stack_base = self.stack.as_ptr() as u64;
        let mut pc = entry;
        // Where the next instruction's slot probably is: right after
        // the last one's (see `DecodeCache::locate`).
        let mut guess = 0;
        loop {
            let off = pc.wrapping_sub(base);
            if off >= image_len {
                return Err(Trap::BadJump(pc));
            }
            if self.fuel == 0 {
                return Err(Trap::Fuel);
            }
            self.fuel -= 1;
            let slot = self
                .cache
                .locate(&self.image, off as usize, guess)
                .ok_or(Trap::BadJump(pc))?;
            guess = slot + 1;
            let Decoded {
                inst, len, cost, ..
            } = self.cache.slots[slot];
            let next = pc + len as u64;
            self.stats.insts += 1;
            self.stats.cycles += cost as u64;
            pc = next;
            match inst {
                I::Nop => {}
                I::MovRR { dst, src } => self.regs[dst.index()] = self.regs[src.index()],
                I::MovRI { dst, imm } => self.regs[dst.index()] = imm as u64,
                I::MovK { dst, imm16, shift } => {
                    let sh = 16 * (shift as u32 & 3);
                    let r = &mut self.regs[dst.index()];
                    *r = (*r & !(0xFFFFu64 << sh)) | (imm16 as u64) << sh;
                }
                I::Alu {
                    op,
                    width,
                    set_flags,
                    dst,
                    src1,
                    src2,
                } => {
                    let (x, y) = (self.regs[src1.index()], self.regs[src2.index()]);
                    let r = self.alu(op, width, set_flags, x, y);
                    if dst == abi.sp && r < stack_base {
                        return Err(Trap::StackOverflow);
                    }
                    self.regs[dst.index()] = r;
                }
                I::AluImm {
                    op,
                    width,
                    set_flags,
                    dst,
                    src1,
                    imm,
                } => {
                    let x = self.regs[src1.index()];
                    let r = self.alu(op, width, set_flags, x, imm as u64);
                    if dst == abi.sp && r < stack_base {
                        return Err(Trap::StackOverflow);
                    }
                    self.regs[dst.index()] = r;
                }
                I::MulFull {
                    dst_lo,
                    dst_hi,
                    a,
                    b,
                } => {
                    let p = (self.regs[a.index()] as u128) * (self.regs[b.index()] as u128);
                    self.regs[dst_lo.index()] = p as u64;
                    self.regs[dst_hi.index()] = (p >> 64) as u64;
                }
                I::Crc32 { dst, acc, data } => {
                    self.regs[dst.index()] =
                        crate::hash::crc32c_u64(self.regs[acc.index()], self.regs[data.index()]);
                }
                I::Div {
                    signed,
                    rem,
                    width,
                    dst,
                    a,
                    b,
                } => {
                    let (x, y) = (self.regs[a.index()], self.regs[b.index()]);
                    self.regs[dst.index()] = div(signed, rem, width, x, y)?;
                }
                I::Sext { from, dst, src } => {
                    self.regs[dst.index()] = sext(self.regs[src.index()], from) as u64;
                }
                I::Load { width, dst, mem } => {
                    self.regs[dst.index()] = read_mem(self.addr(mem), width)?;
                }
                I::Store { width, src, mem } => {
                    write_mem(self.addr(mem), width, self.regs[src.index()])?;
                }
                I::Lea { dst, mem } => self.regs[dst.index()] = self.addr(mem),
                I::Cmp { width, a, b } => {
                    let (x, y) = (self.regs[a.index()], self.regs[b.index()]);
                    self.alu(AluOp::Sub, width, true, x, y);
                }
                I::CmpImm { width, a, imm } => {
                    let x = self.regs[a.index()];
                    self.alu(AluOp::Sub, width, true, x, imm as u64);
                }
                I::SetCc { cond, dst } => {
                    self.regs[dst.index()] = eval_cond(cond, self.flags) as u64;
                }
                I::Jcc { cond, rel } => {
                    if eval_cond(cond, self.flags) {
                        pc = next.wrapping_add(rel as i64 as u64);
                    }
                }
                I::Jmp { rel } => pc = next.wrapping_add(rel as i64 as u64),
                I::JmpInd { reg } => {
                    pc = self.regs[reg.index()];
                    if runtime_index(pc).is_some() {
                        // A tail call: the helper returns where a `ret`
                        // here would.
                        self.enter(host, pc, next)?;
                        if self.shadow.len() == frames {
                            return Ok(());
                        }
                        pc = self.shadow.pop().expect("above this activation's base");
                    }
                }
                I::Call { rel } => {
                    let target = next.wrapping_add(rel as i64 as u64);
                    pc = self.enter(host, target, next)?;
                }
                I::CallInd { reg } => {
                    let target = self.regs[reg.index()];
                    pc = self.enter(host, target, next)?;
                }
                I::Ret => {
                    if self.shadow.len() == frames {
                        return Ok(());
                    }
                    pc = self.shadow.pop().expect("above this activation's base");
                }
                I::Push { src } => {
                    let sp = self.regs[abi.sp.index()].wrapping_sub(8);
                    if sp < stack_base {
                        return Err(Trap::StackOverflow);
                    }
                    self.regs[abi.sp.index()] = sp;
                    write_mem(sp, Width::W64, self.regs[src.index()])?;
                }
                I::Pop { dst } => {
                    let sp = self.regs[abi.sp.index()];
                    self.regs[dst.index()] = read_mem(sp, Width::W64)?;
                    self.regs[abi.sp.index()] = sp.wrapping_add(8);
                }
                I::Falu { op, dst, a, b } => {
                    let x = f64::from_bits(self.fregs[a.index()]);
                    let y = f64::from_bits(self.fregs[b.index()]);
                    let r = match op {
                        FaluOp::Add => x + y,
                        FaluOp::Sub => x - y,
                        FaluOp::Mul => x * y,
                        FaluOp::Div => x / y,
                    };
                    self.fregs[dst.index()] = r.to_bits();
                }
                I::FCmp { a, b } => {
                    let x = f64::from_bits(self.fregs[a.index()]);
                    let y = f64::from_bits(self.fregs[b.index()]);
                    self.flags = Flags {
                        zf: x == y,
                        sf: false,
                        of: false,
                        cf: x < y,
                        unordered: x.is_nan() || y.is_nan(),
                    };
                }
                I::FMov { dst, src } => self.fregs[dst.index()] = self.fregs[src.index()],
                I::FMovFromGpr { dst, src } => {
                    self.fregs[dst.index()] = self.regs[src.index()];
                }
                I::FMovToGpr { dst, src } => {
                    self.regs[dst.index()] = self.fregs[src.index()];
                }
                I::CvtSiToF { dst, src } => {
                    self.fregs[dst.index()] = ((self.regs[src.index()] as i64) as f64).to_bits();
                }
                I::CvtFToSi { dst, src } => {
                    let f = f64::from_bits(self.fregs[src.index()]);
                    if f.is_nan() || f <= -9.3e18 || f >= 9.3e18 {
                        return Err(Trap::Overflow);
                    }
                    self.regs[dst.index()] = f.trunc() as i64 as u64;
                }
                I::FLoad { dst, mem } => {
                    self.fregs[dst.index()] = read_mem(self.addr(mem), Width::W64)?;
                }
                I::FStore { src, mem } => {
                    write_mem(self.addr(mem), Width::W64, self.fregs[src.index()])?;
                }
                I::Trap { code } => {
                    return Err(match code {
                        0 => Trap::Unreachable,
                        1 => Trap::Overflow,
                        c => Trap::Runtime(c),
                    });
                }
            }
        }
    }

    /// Handles a call to `target` and returns where execution
    /// continues: runtime helpers are dispatched to the host and
    /// control resumes at `ret_to`; code targets push a shadow frame
    /// and are jumped to.
    fn enter(
        &mut self,
        host: &mut dyn RuntimeDispatch,
        target: u64,
        ret_to: u64,
    ) -> Result<u64, Trap> {
        let Some(index) = runtime_index(target) else {
            self.shadow.push(ret_to);
            return Ok(target);
        };
        let abi = self.image.isa().abi();
        let slots = host.arg_slots(index);
        let mut inline = [0u64; INLINE_ARGS];
        let mut spilled = Vec::new();
        let argv: &mut [u64] = if slots <= INLINE_ARGS {
            &mut inline[..slots]
        } else {
            spilled.resize(slots, 0);
            &mut spilled
        };
        let sp = self.regs[abi.sp.index()];
        for (i, arg) in argv.iter_mut().enumerate() {
            *arg = match abi.arg_regs.get(i) {
                Some(r) => self.regs[r.index()],
                None => read_mem(sp + 8 * (i - abi.arg_regs.len()) as u64, Width::W64)?,
            };
        }
        self.stats.cycles += CALL_DISPATCH_COST + host.runtime_cost(index, argv);
        let r = host.call_runtime(index, argv, Reentry { emu: self })?;
        self.regs[abi.ret.index()] = r[0];
        self.regs[abi.ret_hi.index()] = r[1];
        Ok(ret_to)
    }

    /// Effective address of a memory operand.
    fn addr(&self, mem: MemArg) -> u64 {
        let mut a = self.regs[mem.base.index()].wrapping_add(mem.disp as i64 as u64);
        if let Some((idx, scale)) = mem.index {
            a = a.wrapping_add(self.regs[idx.index()].wrapping_mul(scale as u64));
        }
        a
    }

    /// Executes one integer ALU operation at `width`, returning the
    /// canonical (zero-extended) result and updating flags when
    /// requested. Semantics match the interpreter tier exactly.
    #[inline]
    fn alu(&mut self, op: AluOp, w: Width, set_flags: bool, x: u64, y: u64) -> u64 {
        // Shift counts, not `Width`'s matches: this runs per executed
        // instruction and a four-way branch on the width costs more
        // than the arithmetic.
        let bits = 8u32 << w.code();
        let sh = 64 - bits;
        let mask = u64::MAX >> sh;
        let sext = |v: u64| ((v << sh) as i64) >> sh;
        let (ux, uy) = (x & mask, y & mask);
        let (sx, sy) = (sext(x), sext(y));
        let wrap = |v: i64| (v as u64) & mask;
        let cin = self.flags.cf as u64;
        let r = match op {
            AluOp::Add => wrap(sx.wrapping_add(sy)),
            AluOp::Sub => wrap(sx.wrapping_sub(sy)),
            AluOp::Adc => ux.wrapping_add(uy).wrapping_add(cin) & mask,
            AluOp::Sbb => ux.wrapping_sub(uy).wrapping_sub(cin) & mask,
            AluOp::Mul => wrap(sx.wrapping_mul(sy)),
            AluOp::And => ux & uy,
            AluOp::Or => ux | uy,
            AluOp::Xor => ux ^ uy,
            AluOp::Shl => (ux << (y as u32 & (bits - 1))) & mask,
            AluOp::Shr => ux >> (y as u32 & (bits - 1)),
            AluOp::Sar => wrap(sx >> (y as u32 & (bits - 1))),
            AluOp::Rotr => {
                let amt = y as u32 & (bits - 1);
                if amt == 0 {
                    ux
                } else {
                    ((ux >> amt) | (ux << (bits - amt))) & mask
                }
            }
        };
        if set_flags {
            // Carry-out and signed overflow need the wide arithmetic;
            // most executed ALU instructions do not ask for them.
            let inexact = |v: Option<i64>| v.is_none_or(|v| sext(wrap(v)) != v);
            let (cf, of) = match op {
                AluOp::Add => (
                    ux as u128 + uy as u128 > mask as u128,
                    inexact(sx.checked_add(sy)),
                ),
                AluOp::Sub => (ux < uy, inexact(sx.checked_sub(sy))),
                AluOp::Adc => (
                    ux as u128 + uy as u128 + cin as u128 > mask as u128,
                    sext(r) as i128 != sx as i128 + sy as i128 + cin as i128,
                ),
                AluOp::Sbb => (
                    (ux as i128 - uy as i128 - cin as i128) < 0,
                    sext(r) as i128 != sx as i128 - sy as i128 - cin as i128,
                ),
                AluOp::Mul => {
                    let ovf = inexact(sx.checked_mul(sy));
                    (ovf, ovf)
                }
                _ => (false, false),
            };
            self.flags = Flags {
                zf: r == 0,
                sf: sext(r) < 0,
                of,
                cf,
                unordered: false,
            };
        }
        r
    }
}

fn div(signed: bool, rem: bool, w: Width, x: u64, y: u64) -> Result<u64, Trap> {
    let mask = w.mask();
    if signed {
        let (sx, sy) = (sext(x, w), sext(y, w));
        if sy == 0 {
            return Err(Trap::DivByZero);
        }
        if rem {
            Ok((sx.wrapping_rem(sy) as u64) & mask)
        } else {
            match sx.checked_div(sy) {
                Some(q) if sext((q as u64) & mask, w) == q => Ok((q as u64) & mask),
                _ => Err(Trap::Overflow),
            }
        }
    } else {
        let (ux, uy) = (x & mask, y & mask);
        if uy == 0 {
            return Err(Trap::DivByZero);
        }
        Ok(if rem { ux % uy } else { ux / uy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Under another name: CI keeps `emu.rs` at one textual decoder call,
    // the cache fill.
    use crate::decode::decode_inst as decode_afresh;
    use crate::{new_masm, ImageBuilder, Isa, Reg, Reloc, SymbolRef, Tx64Assembler};
    use proptest::prelude::*;

    struct NoHost;

    impl RuntimeDispatch for NoHost {
        fn arg_slots(&self, _index: usize) -> usize {
            0
        }

        fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
            0
        }

        fn call_runtime(&mut self, _: usize, _: &[u64], _: Reentry<'_>) -> Result<[u64; 2], Trap> {
            Ok([0, 0])
        }
    }

    /// `f(n, target)`: a counted loop over a flag-setting body, then
    /// `call target` — code, data or the middle of an instruction,
    /// whatever the test passes — and `ret`. `g` returns 7; `blob` is
    /// sixteen bytes no decoder accepts.
    fn emulator(isa: Isa) -> Emulator {
        let mut f = new_masm(isa);
        let top = f.new_label();
        f.bind(top);
        f.alu_rrr(AluOp::Add, Width::W32, true, Reg(2), Reg(2), Reg(0));
        f.alu_rri(AluOp::Sub, Width::W64, true, Reg(0), Reg(0), 1);
        f.jcc(Cond::Ne, top);
        f.call_ind(Reg(1));
        f.ret();
        let mut g = new_masm(isa);
        g.mov_ri(Reg(0), 0x1234_5678_9ABC);
        g.mov_ri(Reg(0), 7);
        g.ret();
        let mut b = ImageBuilder::new(isa);
        for (name, asm) in [("f", f), ("g", g)] {
            let (code, relocs) = asm.finish();
            b.add_function(name, code, relocs);
        }
        b.add_data("blob", vec![0xFF; 16], 8, Vec::new());
        Emulator::new(b.link(&|_| None).expect("link"))
    }

    /// Every filled slot is what the decoder and the cost model say
    /// about its offset today, and the offset table points back at it.
    fn assert_cache_is_the_decoder(emu: &Emulator) {
        let DecodeCache { slot_at, slots } = &emu.cache;
        for (i, d) in slots.iter().enumerate() {
            let (inst, len) = decode_afresh(emu.image.isa(), emu.image.bytes(), d.off as usize)
                .expect("only successful decodes are cached");
            assert_eq!((d.inst, d.len, d.cost), (inst, len, inst_cost(&inst)));
            assert_eq!(slot_at[d.off as usize] as usize, i + 1);
        }
        let filled = slot_at.iter().filter(|&&n| n != 0).count();
        assert_eq!(filled, slots.len(), "one slot per fetched offset");
    }

    #[test]
    fn cached_slots_equal_fresh_decodes_after_any_run() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut emu = emulator(isa);
            let g = emu.image.addr_of("g").expect("g");
            let blob = emu.image.addr_of("blob").expect("blob");
            // Returns, a trap in data, an unaligned entry (mid-
            // instruction on TX64, a misaligned word on TA64) whatever
            // it does, and a target outside the image.
            for target in [g, blob, g + 1, g + 2, g + 3, blob + 5, 64] {
                for _ in 0..2 {
                    let _ = emu.call(&mut NoHost, "f", &[5, target]);
                    assert_cache_is_the_decoder(&emu);
                    assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
                }
            }
            assert!(
                emu.cache.slots.len() >= 8,
                "{isa}: the runs filled the cache"
            );
        }
    }

    #[test]
    fn a_failed_decode_is_never_cached() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut emu = emulator(isa);
            let blob = emu.image.addr_of("blob").expect("blob");
            let off = (blob - emu.image.base()) as usize;
            for _ in 0..2 {
                let r = emu.call(&mut NoHost, "f", &[1, blob]);
                assert_eq!(r, Err(Trap::BadJump(blob)), "{isa}");
                assert_eq!(emu.cache.slot_at[off], 0, "{isa}");
                assert!(emu.cache.slots.iter().all(|d| d.off as usize != off));
            }
        }
    }

    #[test]
    fn the_decode_cache_is_allocated_by_the_first_call() {
        let mut emu = emulator(Isa::Tx64);
        let unallocated =
            |emu: &Emulator| emu.cache.slot_at.capacity() + emu.cache.slots.capacity() == 0;
        assert!(unallocated(&emu));
        assert_eq!(emu.call(&mut NoHost, "nope", &[]), Err(Trap::BadJump(0)));
        assert!(unallocated(&emu), "an unknown entry point runs nothing");
        let g = emu.image.addr_of("g").expect("g");
        assert_eq!(emu.call(&mut NoHost, "f", &[1, g]).map(|r| r[0]), Ok(7));
        assert_eq!(emu.cache.slot_at.len(), emu.image.len());
    }

    #[test]
    fn the_stack_is_allocated_by_the_first_call_and_stays_put() {
        let mut emu = emulator(Isa::Ta64);
        assert_eq!(emu.stack.capacity(), 0, "linking alone buys no stack");
        assert_eq!(emu.call(&mut NoHost, "nope", &[]), Err(Trap::BadJump(0)));
        assert_eq!(
            emu.stack.capacity(),
            0,
            "an unknown entry point runs nothing"
        );
        let g = emu.image.addr_of("g").expect("g");
        emu.call(&mut NoHost, "f", &[1, g]).expect("runs");
        assert_eq!(emu.stack.len(), EmuOptions::default().stack_size);
        let first = emu.stack.as_ptr();
        emu.call(&mut NoHost, "f", &[2, g]).expect("runs again");
        assert_eq!(emu.stack.as_ptr(), first);
    }

    #[test]
    fn debug_prints_a_summary_not_the_buffers() {
        let mut emu = emulator(Isa::Ta64);
        let unrun = format!("{emu:?}");
        let stack_size = format!("stack_size: {}", EmuOptions::default().stack_size);
        for part in [stack_size.as_str(), "stack_allocated: false"] {
            assert!(unrun.contains(part), "{part} missing from {unrun}");
        }
        let g = emu.image.addr_of("g").expect("g");
        emu.call(&mut NoHost, "f", &[3, g]).expect("runs");
        let text = format!("{emu:?}");
        let slots = format!("cached_slots: {}", emu.cache.slots.len());
        let insts = format!("insts: {}", emu.stats.insts);
        for part in [
            "Ta64",
            "image_len",
            &stack_size,
            "stack_allocated: true",
            &slots,
            &insts,
        ] {
            assert!(text.contains(part), "{part} missing from {text}");
        }
        assert!(text.len() < 300, "{text}");
    }

    /// Small enough that every test below fills it in a few hundred
    /// instructions.
    const SMALL_STACK: usize = 256;

    /// What `helper 0` returns for a nested activation that trapped.
    const SWALLOWED: u64 = 0xDEAD;

    /// A finished function: its code and relocations.
    type Assembled = (Vec<u8>, Vec<Reloc>);

    /// Links `funcs` for `isa` (`ext` is runtime helper 0) to run on a
    /// [`SMALL_STACK`]-byte stack, with fuel for far more instructions
    /// than any of them needs to reach its end or the stack's.
    fn small_stack(isa: Isa, funcs: Vec<(&str, Assembled)>) -> Emulator {
        let mut b = ImageBuilder::new(isa);
        for (name, (code, relocs)) in funcs {
            b.add_function(name, code, relocs);
        }
        let image = b.link(&|sym| (sym == "ext").then(|| runtime_addr(0)));
        let opts = EmuOptions {
            fuel: 10_000,
            stack_size: SMALL_STACK,
        };
        Emulator::with_options(image.expect("link"), opts)
    }

    /// Bytes between a top-level call's initial stack pointer and the
    /// stack's first byte, once the stack is allocated.
    fn room(emu: &Emulator) -> u64 {
        let base = emu.stack.as_ptr() as u64;
        ((base + emu.stack.len() as u64) & !15) - base
    }

    /// `frame(n)`: a register `sub sp, n`, a store at the new stack
    /// pointer, `add sp, n`, and return `n`.
    fn frame_fn(isa: Isa) -> Assembled {
        let (sp, n) = (isa.abi().sp, isa.abi().arg_regs[0]);
        let mut f = new_masm(isa);
        f.alu_rrr(AluOp::Sub, Width::W64, false, sp, sp, n);
        f.store(Width::W64, n, sp, None, 0);
        f.alu_rrr(AluOp::Add, Width::W64, false, sp, sp, n);
        f.ret();
        f.finish()
    }

    /// `spin(v)` pushes `v` forever: TX64's `push`, and on TA64, which
    /// has none, `sub sp, 8` and a store.
    fn push_loop(isa: Isa) -> Assembled {
        let (sp, v) = (isa.abi().sp, isa.abi().arg_regs[0]);
        if isa == Isa::Tx64 {
            let mut a = Tx64Assembler::new();
            let top = a.new_label();
            a.bind(top);
            a.push(v);
            a.jmp(top);
            return a.finish();
        }
        let mut a = new_masm(isa);
        let top = a.new_label();
        a.bind(top);
        a.alu_rri(AluOp::Sub, Width::W64, false, sp, sp, 8);
        a.store(Width::W64, v, sp, None, 0);
        a.jmp(top);
        a.finish()
    }

    #[test]
    fn a_push_loop_traps_at_the_stack_base() {
        assert_eq!(Trap::StackOverflow.to_string(), "stack overflow");
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut emu = small_stack(isa, vec![("spin", push_loop(isa))]);
            let v = 0x5A5A_0000_0000_00A5;
            let r = emu.call(&mut NoHost, "spin", &[v]);
            assert_eq!(r, Err(Trap::StackOverflow), "{isa}");
            // The last push that fit landed less than eight bytes above
            // the stack's first byte.
            let pushes = room(&emu) / 8;
            let last = (room(&emu) % 8) as usize;
            assert_eq!(emu.stack[last..last + 8], v.to_le_bytes(), "{isa}");
            // (instructions, cycles) per push that fit, and the cost
            // of the one that trapped: nothing else is charged.
            let ((insts, cycles), trapped) = match isa {
                Isa::Tx64 => ((2, 3), 2),
                Isa::Ta64 => ((3, 4), 1),
            };
            let want = ExecStats {
                insts: pushes * insts + 1,
                cycles: pushes * cycles + trapped,
            };
            assert_eq!(emu.stats(), want, "{isa}");
        }
    }

    #[test]
    fn a_frame_past_the_stack_base_traps_and_an_exact_fit_does_not() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let sp = isa.abi().sp;
            // An immediate beyond every encoding's short form.
            let over = 2 * SMALL_STACK as i64;
            let mut big = new_masm(isa);
            big.alu_rri(AluOp::Sub, Width::W64, false, sp, sp, over);
            big.alu_rri(AluOp::Add, Width::W64, false, sp, sp, over);
            big.ret();
            let funcs = vec![("frame", frame_fn(isa)), ("big", big.finish())];
            let mut emu = small_stack(isa, funcs);
            let frame = |emu: &mut Emulator, n| emu.call(&mut NoHost, "frame", &[n]);
            assert_eq!(frame(&mut emu, 16).map(|r| r[0]), Ok(16), "{isa}");
            // `sp == base`: the store lands on the stack's first byte.
            let room = room(&emu);
            assert_eq!(frame(&mut emu, room).map(|r| r[0]), Ok(room), "{isa}");
            assert_eq!(emu.stack[..8], room.to_le_bytes(), "{isa}");
            let r = frame(&mut emu, room + 16);
            assert_eq!(r, Err(Trap::StackOverflow), "{isa}");
            let r = emu.call(&mut NoHost, "big", &[]);
            assert_eq!(r, Err(Trap::StackOverflow), "{isa}");
        }
    }

    #[test]
    fn stack_arguments_that_do_not_fit_trap_before_any_cycle() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut f = new_masm(isa);
            f.ret();
            let mut emu = small_stack(isa, vec![("f", f.finish())]);
            emu.call(&mut NoHost, "f", &[])
                .expect("allocates the stack");
            let fit = isa.abi().arg_regs.len() + room(&emu) as usize / 8;
            let before = emu.stats();
            let r = emu.call(&mut NoHost, "f", &vec![1; fit + 1]);
            assert_eq!(r, Err(Trap::StackOverflow), "{isa}");
            assert_eq!(emu.stats(), before, "{isa}: a trapped call charges nothing");
            let r = emu.call(&mut NoHost, "f", &vec![1; fit]);
            assert!(r.is_ok(), "{isa}: exactly fits, got {r:?}");
        }
    }

    /// Helper 0 re-enters compiled code at its first argument with its
    /// second, records what the nested activation did, and swallows a
    /// trap into [`SWALLOWED`].
    #[derive(Default)]
    struct Reenter {
        nested: Vec<Result<u64, Trap>>,
    }

    impl RuntimeDispatch for Reenter {
        fn arg_slots(&self, _index: usize) -> usize {
            2
        }

        fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
            0
        }

        fn call_runtime(
            &mut self,
            _index: usize,
            args: &[u64],
            mut reentry: Reentry<'_>,
        ) -> Result<[u64; 2], Trap> {
            let r = reentry.call(self, args[0], &[args[1]]);
            self.nested.push(r);
            Ok([r.unwrap_or(SWALLOWED), 0])
        }
    }

    #[test]
    fn a_reentered_activation_that_overflows_traps_and_outer_frames_survive() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let abi = isa.abi();
            // `outer(cb, n)` takes a 48-byte frame and calls `mid`, which
            // calls helper 0: the nested `cb(n)` starts below that frame.
            // `outer` adds one to what `mid` returns, so a lost shadow
            // frame would show.
            let mut outer = new_masm(isa);
            outer.alu_rri(AluOp::Sub, Width::W64, false, abi.sp, abi.sp, 48);
            outer.call_sym(SymbolRef::named("mid"));
            outer.alu_rri(AluOp::Add, Width::W64, false, abi.ret, abi.ret, 1);
            outer.alu_rri(AluOp::Add, Width::W64, false, abi.sp, abi.sp, 48);
            outer.ret();
            let mut mid = new_masm(isa);
            mid.call_sym(SymbolRef::named("ext"));
            mid.ret();
            let funcs = vec![
                ("outer", outer.finish()),
                ("mid", mid.finish()),
                ("frame", frame_fn(isa)),
            ];
            let mut emu = small_stack(isa, funcs);
            let cb = emu.image.addr_of("frame").expect("frame");
            let mut host = Reenter::default();
            let mut outer = |emu: &mut Emulator, n| {
                let r = emu.call(&mut host, "outer", &[cb, n]).map(|r| r[0]);
                assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
                r
            };
            assert_eq!(outer(&mut emu, 16), Ok(17), "{isa}");
            let room = room(&emu) - 48;
            assert_eq!(outer(&mut emu, room), Ok(room + 1), "{isa}: exact fit");
            assert_eq!(outer(&mut emu, room + 16), Ok(SWALLOWED + 1), "{isa}");
            let want = [Ok(16), Ok(room), Err(Trap::StackOverflow)];
            assert_eq!(host.nested, want, "{isa}");
        }
    }

    /// Helper 0 doubles its argument and counts its calls.
    #[derive(Default)]
    struct Double {
        calls: u64,
    }

    impl RuntimeDispatch for Double {
        fn arg_slots(&self, _index: usize) -> usize {
            1
        }

        fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
            0
        }

        fn call_runtime(
            &mut self,
            _: usize,
            args: &[u64],
            _: Reentry<'_>,
        ) -> Result<[u64; 2], Trap> {
            self.calls += 1;
            Ok([args[0] * 2, 0])
        }
    }

    /// A PLT-style stub into helper 0: materialize its address in the
    /// ABI scratch and `jmpind` through it (`tail`), or the call-and-
    /// return form it replaces. A `trap 9` follows either, so falling
    /// through shows.
    fn stub(isa: Isa, tail: bool) -> Assembled {
        let scratch = isa.abi().scratch;
        let mut f = new_masm(isa);
        f.mov_ri(scratch, runtime_addr(0) as i64);
        if tail {
            f.jmp_ind(scratch);
        } else {
            f.call_ind(scratch);
            f.ret();
        }
        f.trap(9);
        f.finish()
    }

    /// `outer(..)`: calls `callee` and adds one to what it returns, so
    /// a lost or extra shadow frame shows.
    fn outer_fn(isa: Isa, callee: &str) -> Assembled {
        let ret = isa.abi().ret;
        let mut f = new_masm(isa);
        f.call_sym(SymbolRef::named(callee));
        f.alu_rri(AluOp::Add, Width::W64, false, ret, ret, 1);
        f.ret();
        f.finish()
    }

    #[test]
    fn a_tail_jump_into_the_runtime_returns_to_the_callers_caller() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut stats = Vec::new();
            for tail in [false, true] {
                let funcs = vec![("outer", outer_fn(isa, "mid")), ("mid", stub(isa, tail))];
                let mut emu = small_stack(isa, funcs);
                let mut host = Double::default();
                let r = emu.call(&mut host, "outer", &[20]).map(|r| r[0]);
                assert_eq!(r, Ok(41), "{isa} tail={tail}");
                assert_eq!(host.calls, 1, "{isa} tail={tail}");
                assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
                stats.push(emu.stats());
            }
            // `jmpind` (1 cycle) replaces `callind` + `ret` (2 + 2).
            let (call, jump) = (stats[0], stats[1]);
            assert_eq!(jump.insts + 1, call.insts, "{isa}");
            assert_eq!(jump.cycles + 3, call.cycles, "{isa}");
        }
    }

    #[test]
    fn a_tail_jump_into_the_runtime_at_the_activation_base_ends_the_call() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut emu = small_stack(isa, vec![("tail", stub(isa, true))]);
            let mut host = Double::default();
            for n in [3, 8] {
                let r = emu.call(&mut host, "tail", &[n]).map(|r| r[0]);
                assert_eq!(r, Ok(2 * n), "{isa}");
                assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
            }
            assert_eq!(host.calls, 2, "{isa}");
        }
    }

    #[test]
    fn a_tail_called_helper_may_reenter_compiled_code() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            // `outer(cb, n)` calls the stub, whose helper runs `cb(n)`
            // (a comparator, say) before returning to `outer`.
            let funcs = vec![
                ("outer", outer_fn(isa, "mid")),
                ("mid", stub(isa, true)),
                ("frame", frame_fn(isa)),
            ];
            let mut emu = small_stack(isa, funcs);
            let cb = emu.image.addr_of("frame").expect("frame");
            let mut host = Reenter::default();
            let r = emu.call(&mut host, "outer", &[cb, 32]).map(|r| r[0]);
            assert_eq!(r, Ok(33), "{isa}");
            assert_eq!(host.nested, [Ok(32)], "{isa}");
            assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
        }
    }

    #[test]
    fn a_jmpind_to_an_image_address_stays_a_plain_jump() {
        for isa in [Isa::Tx64, Isa::Ta64] {
            // `mid` jumps to `g` (returns 7); `g`'s `ret` is `mid`'s.
            let scratch = isa.abi().scratch;
            let mut mid = new_masm(isa);
            mid.mov_sym(scratch, SymbolRef::named("g"));
            mid.jmp_ind(scratch);
            mid.trap(9);
            let mut g = new_masm(isa);
            g.mov_ri(isa.abi().ret, 7);
            g.ret();
            let funcs = vec![
                ("outer", outer_fn(isa, "mid")),
                ("mid", mid.finish()),
                ("g", g.finish()),
            ];
            let mut emu = small_stack(isa, funcs);
            let mut host = Double::default();
            assert_eq!(emu.call(&mut host, "outer", &[0]).map(|r| r[0]), Ok(8));
            assert_eq!(host.calls, 0, "{isa}");
            assert!(emu.shadow.is_empty(), "{isa}: frames left behind");
        }
    }

    #[test]
    fn ta64_lea_with_an_index_and_no_displacement_computes_into_its_destination() {
        let isa = Isa::Ta64;
        let (base_v, index_v) = (0x1234_5678_u64, 0x9A_u64);
        let (a, b) = (Reg(1), Reg(2));
        // (dst, base, index): all distinct, dst = base, dst = index.
        for (dst, base, index) in [(Reg(3), a, b), (a, a, b), (b, a, b)] {
            for scale in [1u8, 2, 4, 8] {
                let mut f = new_masm(isa);
                f.mov_ri(base, base_v as i64);
                f.mov_ri(index, index_v as i64);
                let start = f.offset();
                f.lea(dst, base, Some((index, scale)), 0);
                let words = (f.offset() - start) / 4;
                f.mov_rr(isa.abi().ret, dst);
                f.ret();
                let mut emu = small_stack(isa, vec![("f", f.finish())]);
                let r = emu.call(&mut NoHost, "f", &[]).map(|r| r[0]);
                let case = format!("dst {dst:?} base {base:?} index {index:?} scale {scale}");
                assert_eq!(r, Ok(base_v + index_v * scale as u64), "{case}");
                // The old form: `shl` unless the scale is 1, `add`, and
                // a `mov` out of the scratch.
                let old = if scale == 1 { 2 } else { 3 };
                assert_eq!(words, old - 1, "{case}");
            }
        }
    }

    fn alu_op() -> impl Strategy<Value = AluOp> {
        (0u8..12).prop_map(|c| AluOp::from_code(c).expect("twelve operations"))
    }

    fn width() -> impl Strategy<Value = Width> {
        (0u8..4).prop_map(Width::from_code)
    }

    /// Operands whose interesting bits sit at every width's edges.
    fn operand() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s),
            (0u32..64, -2i64..3).prop_map(|(s, d)| (1u64 << s).wrapping_add(d as u64)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `alu` against the definition in exact (128-bit) arithmetic.
        #[test]
        fn alu_matches_exact_arithmetic(
            op in alu_op(),
            w in width(),
            x in operand(),
            y in operand(),
            carry_in in any::<bool>(),
        ) {
            let bits = w.bits();
            let modulus = 1i128 << bits;
            let (ux, uy) = ((x & w.mask()) as i128, (y & w.mask()) as i128);
            let signed = |u: i128| if u >= modulus / 2 { u - modulus } else { u };
            let (sx, sy, cin) = (signed(ux), signed(uy), carry_in as i128);
            let amt = y as u32 & (bits - 1);
            // (exact unsigned result, exact signed result) where the
            // operation has a carry and an overflow; the bits otherwise.
            let (unsigned, exact) = match op {
                AluOp::Add => (ux + uy, Some(sx + sy)),
                AluOp::Adc => (ux + uy + cin, Some(sx + sy + cin)),
                AluOp::Sub => (ux - uy, Some(sx - sy)),
                AluOp::Sbb => (ux - uy - cin, Some(sx - sy - cin)),
                AluOp::Mul => (sx * sy, Some(sx * sy)),
                AluOp::And => (ux & uy, None),
                AluOp::Or => (ux | uy, None),
                AluOp::Xor => (ux ^ uy, None),
                AluOp::Shl => (ux << amt, None),
                AluOp::Shr => (ux >> amt, None),
                AluOp::Sar => (sx >> amt, None),
                AluOp::Rotr => ((ux >> amt) | (ux << (bits - amt)), None),
            };
            let want = unsigned.rem_euclid(modulus);
            let of = exact.is_some_and(|e| !(-modulus / 2..modulus / 2).contains(&e));
            let cf = match op {
                AluOp::Mul => of,
                _ => exact.is_some() && !(0..modulus).contains(&unsigned),
            };

            let mut emu = emulator(Isa::Tx64);
            for set_flags in [false, true] {
                let before = Flags { cf: carry_in, sf: true, ..Flags::default() };
                emu.flags = before;
                let got = emu.alu(op, w, set_flags, x, y);
                prop_assert_eq!(got as i128, want, "{:?} {:?} {:#x} {:#x}", op, w, x, y);
                let f = emu.flags;
                let flags = (f.zf, f.sf, f.cf, f.of, f.unordered);
                let expected = if set_flags {
                    (want == 0, signed(want) < 0, cf, of, false)
                } else {
                    (before.zf, before.sf, before.cf, before.of, before.unordered)
                };
                prop_assert_eq!(flags, expected, "{:?} {:?} {:#x} {:#x}", op, w, x, y);
            }
        }
    }
}
