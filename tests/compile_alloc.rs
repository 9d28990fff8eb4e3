//! What a compile allocates, an exact and host-independent twin of the
//! paper's compile-time ranking (Table III): one uncached
//! `.direct().compile()` of every DS-like statement (sf 0.01) per
//! back-end × ISA cell, counted exactly. Wall-clock compile times swing
//! between processes; these counts do not, so a change that makes one
//! back-end do more work moves its own row here.
//!
//! The allocator counts per thread (allocations, reallocations and
//! zeroed allocations; no bytes), so the harness's other threads do not
//! show up in a cell's count. The statements are prepared before any
//! count starts, and every cell compiles on a fresh thread: the
//! LLVM-analog builds its thread-local TargetMachine cache on a
//! thread's first compile, and other back-ends keep per-thread growth
//! buffers, so a reused thread would count less.
//!
//! A debug build pins every cell. An optimized build allocates 2 078
//! times less on LVM-cheap (both ISAs) and the same elsewhere, so it
//! checks only the ordering and that two passes count the same.

use qc_engine::{backends, PreparedStatement, Session};
use qc_target::Isa;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Allocations of one whole-suite compile per cell in a debug build,
/// in [`backends::all_for`] order (Table III's): TX64 then TA64.
const PINNED: [(&str, Isa, u64); 11] = [
    ("Interpreter", Isa::Tx64, 25_506),
    ("DirectEmit", Isa::Tx64, 164_055),
    ("Clift", Isa::Tx64, 254_273),
    ("LVM-cheap", Isa::Tx64, 307_369),
    ("LVM-opt", Isa::Tx64, 784_837),
    ("GCC/C", Isa::Tx64, 2_356_276),
    ("Interpreter", Isa::Ta64, 25_506),
    ("Clift", Isa::Ta64, 258_917),
    ("LVM-cheap", Isa::Ta64, 301_682),
    ("LVM-opt", Isa::Ta64, 780_008),
    ("GCC/C", Isa::Ta64, 2_332_492),
];

/// One pass: for every cell, on a fresh thread, the allocations of one
/// direct compile of each statement, summed over the suite.
fn pass(session: &Session<'_>, statements: &[PreparedStatement]) -> Vec<(String, Isa, u64)> {
    let mut counts = Vec::new();
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in backends::all_for(isa) {
            let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
            let name = backend.name().to_string();
            let allocations = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut total = 0;
                    for statement in statements {
                        let run = session
                            .run(statement.clone())
                            .backend(Arc::clone(&backend))
                            .direct();
                        let before = ALLOCATIONS.with(Cell::get);
                        run.compile().expect("compiles");
                        total += ALLOCATIONS.with(Cell::get) - before;
                    }
                    total
                })
                .join()
                .expect("cell thread")
            });
            counts.push((name, isa, allocations));
        }
    }
    counts
}

#[test]
fn compile_allocations_rank_the_back_ends_as_table_iii_and_are_pinned() {
    let db = qc_storage::gen_dslike(0.01);
    let session = Session::new(&db);
    let statements: Vec<PreparedStatement> = qc_workloads::dslike_suite()
        .iter()
        .map(|q| session.statement(&q.plan).expect("prepares"))
        .collect();

    let first = pass(&session, &statements);
    let second = pass(&session, &statements);
    let table: String = first
        .iter()
        .map(|(name, isa, n)| format!("  {name:<12} {:<5} {n:>10}\n", isa.name()))
        .collect();
    println!("allocations per whole-suite compile:\n{table}");
    assert_eq!(first, second, "two passes must count the same");

    for isa in [Isa::Tx64, Isa::Ta64] {
        let row: Vec<_> = first.iter().filter(|(_, i, _)| *i == isa).collect();
        for pair in row.windows(2) {
            assert!(
                pair[0].2 < pair[1].2,
                "{}: {} ({}) must allocate less than {} ({})",
                isa.name(),
                pair[0].0,
                pair[0].2,
                pair[1].0,
                pair[1].2
            );
        }
    }

    let cells: Vec<_> = first.iter().map(|(n, i, _)| (n.as_str(), *i)).collect();
    let pinned_cells: Vec<_> = PINNED.iter().map(|&(n, i, _)| (n, i)).collect();
    assert_eq!(cells, pinned_cells, "the cells and their order");
    if cfg!(debug_assertions) {
        let counts: Vec<_> = first.iter().map(|c| c.2).collect();
        let pinned: Vec<_> = PINNED.iter().map(|c| c.2).collect();
        assert_eq!(counts, pinned, "allocation counts moved:\n{table}");
    }
}
