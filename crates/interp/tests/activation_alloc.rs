//! What an interpreter activation allocates: a call and every re-entry
//! of a sort comparator take their register file and frame from the
//! executable's spare buffers, so once a call depth has been reached a
//! call allocates nothing, however often the comparator re-enters.
//!
//! The allocator counts per thread (allocations plus reallocations), so
//! the harness's other threads do not show up in a test's numbers.

use qc_backend::Backend;
use qc_interp::InterpBackend;
use qc_ir::{ExtFuncDecl, FunctionBuilder, Module, Signature, Type};
use qc_runtime::{rtfn, RuntimeState};
use qc_target::Trap;
use qc_timing::TimeTrace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor, so touching it from inside the
    // allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`; the
// bookkeeping touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Runs `f` and returns how often it allocated on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `cmp(a, b)` compares the first u64 of two rows through a stack slot
/// (so each activation has a frame); `sort(buf)` sorts buffer `buf`
/// with it through `rt_sort`, which re-enters `cmp` per comparison.
fn sort_module() -> Module {
    let mut module = Module::new("sort");
    let mut cmp =
        FunctionBuilder::new("cmp", Signature::new(vec![Type::Ptr, Type::Ptr], Type::I64));
    let entry = cmp.entry_block();
    cmp.switch_to(entry);
    let slot = cmp.stack_slot(8);
    let spill = cmp.stack_addr(slot);
    let (a, b) = (cmp.param(0), cmp.param(1));
    let x = cmp.load(Type::I64, a, 0);
    cmp.store(Type::I64, spill, x, 0);
    let y = cmp.load(Type::I64, b, 0);
    let x = cmp.load(Type::I64, spill, 0);
    let d = cmp.sub(Type::I64, x, y);
    cmp.ret(Some(d));
    let cmp = module.push_function(cmp.finish());

    let mut sort = FunctionBuilder::new("sort", Signature::new(vec![Type::I64], Type::I64));
    let entry = sort.entry_block();
    sort.switch_to(entry);
    let rt_sort = sort.declare_ext_func(ExtFuncDecl {
        name: "rt_sort".into(),
        sig: Signature::new(vec![Type::I64, Type::Ptr], Type::Void),
    });
    let buf = sort.param(0);
    let cmp_addr = sort.func_addr(cmp);
    sort.call(rt_sort, vec![buf, cmp_addr]);
    let zero = sort.iconst(Type::I64, 0);
    sort.ret(Some(zero));
    module.push_function(sort.finish());
    module
}

/// A buffer of `keys.len()` eight-byte rows holding `keys`.
fn buffer(state: &mut RuntimeState, keys: &[u64]) -> u64 {
    let mut no_callback = |_: &mut RuntimeState, _: u64, _: &[u64]| -> Result<u64, Trap> { Ok(0) };
    let buf = state
        .invoke(rtfn::BUF_CREATE, &[8], &mut no_callback)
        .expect("buffer")[0];
    for &key in keys {
        let row = state
            .invoke(rtfn::BUF_ALLOC, &[buf], &mut no_callback)
            .expect("row")[0];
        // SAFETY: a freshly allocated eight-byte row.
        unsafe { std::ptr::write_unaligned(row as *mut u64, key) };
    }
    buf
}

fn keys_of(state: &RuntimeState, buf: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let row: [u8; 8] = state.buffer(buf).row_bytes(i)[..8]
                .try_into()
                .expect("eight bytes");
            u64::from_le_bytes(row)
        })
        .collect()
}

#[test]
fn calls_and_comparator_reentries_reuse_their_buffers() {
    // Few enough rows that `sort_by` sorts in place without a scratch
    // buffer of its own: what is counted is the interpreter's.
    const KEYS: [u64; 16] = [9, 3, 14, 1, 12, 7, 0, 15, 5, 10, 2, 13, 8, 4, 11, 6];
    let sorted: Vec<u64> = (0..16).collect();
    let mut exe = InterpBackend::new()
        .compile(&sort_module(), &TimeTrace::disabled())
        .expect("compiles");
    let mut state = RuntimeState::new();
    let bufs = [buffer(&mut state, &KEYS), buffer(&mut state, &KEYS)];

    let (r, first) = measure(|| exe.call(&mut state, "sort", &[bufs[0]]));
    assert_eq!(r, Ok([0, 0]));
    assert_eq!(keys_of(&state, bufs[0], KEYS.len()), sorted);
    let once = exe.exec_stats();
    // `sort`'s register file (its frame is empty), the first
    // comparator activation's register file and frame, and the spare
    // list's first growth; the comparator's other re-entries reuse them
    // (each used to allocate its own register file and frame).
    assert_eq!(first, 4, "first call allocated {first} times");

    let (r, second) = measure(|| exe.call(&mut state, "sort", &[bufs[1]]));
    assert_eq!(r, Ok([0, 0]));
    assert_eq!(keys_of(&state, bufs[1], KEYS.len()), sorted);
    assert_eq!(
        second, 0,
        "a call at a depth reached before allocates nothing"
    );
    let twice = exe.exec_stats();
    assert_eq!(
        (twice.insts, twice.cycles),
        (2 * once.insts, 2 * once.cycles),
        "same rows, same work: {once:?} then {twice:?}"
    );
    assert!(once.insts > 16 * 8, "the comparator re-entered: {once:?}");
}
