//! What a `cache_reuse` round leaves behind: rounds of that workload's
//! shape — a fresh artifact-store directory, a cold session compiling
//! every statement through the compile service, an L1-hit pass, then
//! restart sessions served from the statement records and artifacts on
//! disk — run through the public API, and the live heap is measured once
//! every session of a round is dropped. The first round may leave
//! process-lifetime state behind (thread-local buffers, lazily built
//! statics); every later round must leave exactly what the second did.
//!
//! The allocator counts live bytes across all threads, so this binary
//! holds this one test only.

use qc_backend::Backend;
use qc_engine::{backends, ArtifactStoreConfig, CompileServiceConfig, Session, SessionConfig};
use qc_storage::Database;
use qc_target::Isa;
use qc_workloads::BenchQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the
// bookkeeping is one atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A session as `cache_reuse` opens one: caches that hold the working
/// set, one compile worker, a store in `dir`.
fn session<'db>(db: &'db Database, dir: &Path) -> Session<'db> {
    let config = SessionConfig {
        statement_cache_capacity: 128,
        compile: CompileServiceConfig {
            workers: 1,
            cache_capacity: 4096,
        },
        artifact_store: Some(ArtifactStoreConfig::at(dir)),
        ..SessionConfig::default()
    };
    Session::with_config(db, config)
}

/// Every statement with every back-end, compiled through the service.
fn pass(session: &Session<'_>, queries: &[&BenchQuery], cells: &[Arc<dyn Backend>]) {
    for q in queries {
        for backend in cells {
            session
                .prepare(&q.plan)
                .expect("prepare")
                .backend(Arc::clone(backend))
                .compile()
                .expect("compile");
        }
    }
}

#[test]
fn a_cache_reuse_round_leaves_what_the_second_round_left() {
    const ROUNDS: usize = 4;
    const RESTARTS: usize = 2;
    let db = qc_storage::gen_dslike(0.01);
    let suite = qc_workloads::dslike_suite();
    let queries: Vec<&BenchQuery> = suite.iter().step_by(8).collect();
    let cells: Vec<Arc<dyn Backend>> = vec![
        Arc::from(backends::clift(Isa::Tx64)),
        Arc::from(backends::lvm_cheap(Isa::Ta64)),
    ];
    let scratch = std::env::temp_dir().join(format!("qc-rounds-{}", std::process::id()));
    let mut live = Vec::with_capacity(ROUNDS);
    let mut restart_hits = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let dir = scratch.join(format!("store-{round}"));
        let first = session(&db, &dir);
        pass(&first, &queries, &cells);
        pass(&first, &queries, &cells);
        drop(first);
        let mut hits = 0;
        for _ in 0..RESTARTS {
            let restarted = session(&db, &dir);
            pass(&restarted, &queries, &cells);
            let store = restarted.compile_service().artifact_store().expect("store");
            hits += store.counters().statement_hits;
        }
        let _ = std::fs::remove_dir_all(&dir);
        live.push(LIVE.load(Ordering::Relaxed));
        restart_hits.push(hits);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let expected_hits = (RESTARTS * queries.len()) as u64;
    assert!(
        restart_hits.iter().all(|&h| h == expected_hits),
        "every restart prepares from records: {restart_hits:?}"
    );
    assert!(
        live[2..].iter().all(|&bytes| bytes == live[1]),
        "live heap bytes after each round: {live:?}"
    );
}
