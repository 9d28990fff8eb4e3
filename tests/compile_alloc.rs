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
//!
//! A second test counts what a warm code cache leaves a compile: one
//! service compile per statement and cell with every module an L1 hit,
//! so only the link (`CodeArtifact::instantiate`) and the query's
//! statistics remain, as in every `cache_reuse` L1 pass, `hot_exec`
//! request and per-worker relink. It is pinned the same way.

use qc_engine::{backends, CompileServiceConfig, PreparedStatement, Session, SessionConfig};
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
    ("Interpreter", Isa::Tx64, 24_166),
    ("DirectEmit", Isa::Tx64, 161_690),
    ("Clift", Isa::Tx64, 242_488),
    ("LVM-cheap", Isa::Tx64, 285_368),
    ("LVM-opt", Isa::Tx64, 764_657),
    ("GCC/C", Isa::Tx64, 2_354_077),
    ("Interpreter", Isa::Ta64, 24_166),
    ("Clift", Isa::Ta64, 247_132),
    ("LVM-cheap", Isa::Ta64, 279_681),
    ("LVM-opt", Isa::Ta64, 759_828),
    ("GCC/C", Isa::Ta64, 2_330_293),
];

/// Allocations of one L1-hit service compile of every statement per
/// cell in a debug build, in the order of [`PINNED`].
const PINNED_L1_HITS: [(&str, Isa, u64); 11] = [
    ("Interpreter", Isa::Tx64, 1_099),
    ("DirectEmit", Isa::Tx64, 6_516),
    ("Clift", Isa::Tx64, 7_031),
    ("LVM-cheap", Isa::Tx64, 17_387),
    ("LVM-opt", Isa::Tx64, 7_546),
    ("GCC/C", Isa::Tx64, 6_619),
    ("Interpreter", Isa::Ta64, 1_099),
    ("Clift", Isa::Ta64, 7_031),
    ("LVM-cheap", Isa::Ta64, 17_387),
    ("LVM-opt", Isa::Ta64, 7_546),
    ("GCC/C", Isa::Ta64, 6_619),
];

/// One pass: for every cell, on a fresh thread, the allocations of one
/// compile of each statement, summed over the suite; `direct` compiles
/// bypass the compile service and its code cache.
fn pass(
    session: &Session<'_>,
    statements: &[PreparedStatement],
    direct: bool,
) -> Vec<(String, Isa, u64)> {
    let mut counts = Vec::new();
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in backends::all_for(isa) {
            let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
            let name = backend.name().to_string();
            let allocations = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut total = 0;
                    for statement in statements {
                        let mut run = session.run(statement.clone()).backend(Arc::clone(&backend));
                        if direct {
                            run = run.direct();
                        }
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

    let first = pass(&session, &statements, true);
    let second = pass(&session, &statements, true);
    let table = table(&first);
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

    assert_pinned(&first, &PINNED, &table);
}

#[test]
fn l1_hit_compiles_are_pinned() {
    let db = qc_storage::gen_dslike(0.01);
    let session = Session::with_config(
        &db,
        SessionConfig {
            compile: CompileServiceConfig {
                workers: 1,
                cache_capacity: 1 << 16,
            },
            ..SessionConfig::default()
        },
    );
    let statements: Vec<PreparedStatement> = qc_workloads::dslike_suite()
        .iter()
        .map(|q| session.statement(&q.plan).expect("prepares"))
        .collect();
    // Fill the code cache with every cell's artifacts.
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in backends::all_for(isa) {
            let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
            for statement in &statements {
                let run = session.run(statement.clone()).backend(Arc::clone(&backend));
                run.compile().expect("compiles");
            }
        }
    }

    let misses = session.compile_service().cache_stats().misses;
    let first = pass(&session, &statements, false);
    let second = pass(&session, &statements, false);
    assert_eq!(
        session.compile_service().cache_stats().misses,
        misses,
        "every module must hit the code cache"
    );
    let table = table(&first);
    println!("allocations per whole-suite L1-hit compile:\n{table}");
    assert_eq!(first, second, "two passes must count the same");
    assert_pinned(&first, &PINNED_L1_HITS, &table);
}

/// One row per cell: name, ISA, count.
fn table(counts: &[(String, Isa, u64)]) -> String {
    counts
        .iter()
        .map(|(name, isa, n)| format!("  {name:<12} {:<5} {n:>10}\n", isa.name()))
        .collect()
}

/// The measured cells are `pinned`'s, in its order, and in a debug
/// build so are the counts.
fn assert_pinned(measured: &[(String, Isa, u64)], pinned: &[(&str, Isa, u64)], table: &str) {
    let cells: Vec<_> = measured.iter().map(|(n, i, _)| (n.as_str(), *i)).collect();
    let pinned_cells: Vec<_> = pinned.iter().map(|&(n, i, _)| (n, i)).collect();
    assert_eq!(cells, pinned_cells, "the cells and their order");
    if cfg!(debug_assertions) {
        let counts: Vec<_> = measured.iter().map(|c| c.2).collect();
        let pinned: Vec<_> = pinned.iter().map(|c| c.2).collect();
        assert_eq!(counts, pinned, "allocation counts moved:\n{table}");
    }
}
