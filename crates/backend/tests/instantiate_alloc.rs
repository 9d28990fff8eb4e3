//! What linking and the first `call` allocate: `instantiate` buys no
//! emulated stack (every cold compile, cache hit and per-worker relink
//! ends in one, most of them for modules that never run), the first
//! `call` buys exactly one, later calls none. Nor does `instantiate`
//! copy the artifact's compile statistics, and adding to a counter that
//! exists allocates nothing.
//!
//! The allocator counts per thread, so the harness's other threads do
//! not show up in a test's numbers.

use qc_backend::{CodeArtifact, CompileStats, NativeArtifact};
use qc_runtime::RuntimeState;
use qc_target::{
    new_masm, AluOp, EmuOptions, Emulator, ImageBuilder, Isa, Reentry, Reg, RuntimeDispatch,
    SymbolRef, Trap, Width,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread has asked the allocator for since `measure` began.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Allocation requests (a `realloc` counts as one).
    requests: usize,
    /// Sum of requested sizes (a `realloc` counts its new size).
    bytes: usize,
    /// Requests of at least the default emulated stack's size.
    stack_sized: usize,
    /// Zeroed one-byte-aligned requests of exactly [`STACK_FLOOR`]
    /// bytes: the shape of `vec![0u8; 64]`.
    floor_sized: usize,
}

/// The smallest stack `Emulator::call` allocates, whatever `stack_size`
/// says.
const STACK_FLOOR: usize = 64;

thread_local! {
    // `const` and without a destructor, so reading it from inside the
    // allocator neither allocates nor registers anything.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { requests: 0, bytes: 0, stack_sized: 0, floor_sized: 0 })
    };
}

struct Counting;

fn record(size: usize, floor_shaped: bool) {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.requests += 1;
        tally.bytes += size;
        tally.stack_sized += usize::from(size >= EmuOptions::default().stack_size);
        tally.floor_sized += usize::from(floor_shaped);
        t.set(tally);
    });
}

// SAFETY: every request is forwarded unchanged to `System`; the
// bookkeeping touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(
            layout.size(),
            layout.size() == STACK_FLOOR && layout.align() == 1,
        );
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it allocated on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    let out = f();
    (out, TALLY.with(Cell::get))
}

/// `f(a, b)` spills `a` below the stack pointer, calls `g(a, b)` =
/// `a + b`, reloads the spill and adds it: `2a + b`, through one
/// internal call relocation and the emulated stack.
fn two_function_builder(isa: Isa) -> ImageBuilder {
    let abi = isa.abi();
    let (a0, a1, ret) = (abi.arg_regs[0], abi.arg_regs[1], abi.ret);
    let spill = Reg(9);
    assert!(![a0, a1, ret, abi.sp, abi.scratch].contains(&spill));

    let mut f = new_masm(isa);
    f.store(Width::W64, a0, abi.sp, None, -8);
    f.call_sym(SymbolRef::named("g"));
    f.load(Width::W64, spill, abi.sp, None, -8);
    f.alu_rrr(AluOp::Add, Width::W64, false, ret, ret, spill);
    f.ret();
    let mut g = new_masm(isa);
    g.alu_rrr(AluOp::Add, Width::W64, false, ret, a0, a1);
    g.ret();

    let mut b = ImageBuilder::new(isa);
    for (name, asm) in [("f", f), ("g", g)] {
        let (code, relocs) = asm.finish();
        b.add_function(name, code, relocs);
    }
    b
}

#[test]
fn instantiate_buys_no_stack_and_the_first_call_buys_one() {
    for isa in [Isa::Tx64, Isa::Ta64] {
        let stats = CompileStats {
            functions: 2,
            ..CompileStats::default()
        };
        let artifact = NativeArtifact::new(two_function_builder(isa), stats);
        let mut state = RuntimeState::new();

        let (exe, linked) = measure(|| artifact.instantiate());
        let mut exe = exe.expect("links");
        assert_eq!(linked.stack_sized, 0, "{isa}: {linked:?}");
        assert!(linked.bytes < 64 << 10, "{isa}: {linked:?}");

        let (r, first) = measure(|| exe.call(&mut state, "f", &[20, 2]));
        assert_eq!(r.map(|r| r[0]), Ok(42), "{isa}");
        assert_eq!(first.stack_sized, 1, "{isa}: {first:?}");

        let (r, second) = measure(|| exe.call(&mut state, "f", &[3, 4]));
        assert_eq!(r.map(|r| r[0]), Ok(10), "{isa}");
        assert_eq!(second.stack_sized, 0, "{isa}: {second:?}");
        assert!(second.bytes < 4 << 10, "{isa}: {second:?}");
    }
}

#[test]
fn instantiate_copies_no_statistics_and_present_counters_allocate_nothing() {
    let mut many = CompileStats::default();
    for i in 0..50 {
        many.bump(&format!("counter{i}"), 1);
    }
    for isa in [Isa::Tx64, Isa::Ta64] {
        let none = NativeArtifact::new(two_function_builder(isa), CompileStats::default());
        let fifty = NativeArtifact::new(two_function_builder(isa), many.clone());
        let (exe, with_none) = measure(|| none.instantiate());
        assert!(exe.is_ok(), "{isa}");
        let (exe, with_fifty) = measure(|| fifty.instantiate());
        assert!(exe.is_ok(), "{isa}");
        assert_eq!(with_none, with_fifty, "{isa}");
    }

    let mut total = many.clone();
    let ((), present) = measure(|| {
        total.merge(&many);
        total.bump("counter7", 3);
    });
    assert_eq!(present.requests, 0, "{present:?}");
    assert_eq!(total.counters.len(), 50);
    assert_eq!(total.counters["counter7"], 5);
}

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

#[test]
fn a_zero_stack_size_still_gets_the_floor() {
    for isa in [Isa::Tx64, Isa::Ta64] {
        let image = two_function_builder(isa).link(&|_| None).expect("links");
        let opts = EmuOptions {
            stack_size: 0,
            ..EmuOptions::default()
        };
        let (mut emu, built) = measure(|| Emulator::with_options(image, opts));
        assert_eq!(built.floor_sized, 0, "{isa}: {built:?}");

        // `f` stores eight bytes below the top of that stack.
        let (r, first) = measure(|| emu.call(&mut NoHost, "f", &[20, 2]));
        assert_eq!(r.map(|r| r[0]), Ok(42), "{isa}");
        assert_eq!((first.floor_sized, first.stack_sized), (1, 0), "{isa}");

        let (r, second) = measure(|| emu.call(&mut NoHost, "f", &[1, 1]));
        assert_eq!(r.map(|r| r[0]), Ok(3), "{isa}");
        assert_eq!(second.floor_sized, 0, "{isa}: {second:?}");
    }
}
