//! What the front end allocates and what it produces: one statement
//! miss (canonical text, planning, IR generation) and one statement hit
//! per suite query, each on a fresh `Session`, counted exactly; the IR
//! those misses generate, pinned by a digest that the front-end stamp
//! statement records are keyed by must match; and the structural hash a
//! prepared statement keeps for the compile service, checked against a
//! fresh walk of every module, also when a statement record supplied it.
//!
//! The allocator counts per thread (allocations plus reallocations), so
//! the harness's other threads do not show up in a test's numbers. The
//! IR builder reuses its growth buffers per thread, and every test runs
//! on a thread of its own, so the counts repeat exactly.

use qc_engine::{
    ArtifactStoreConfig, CompileServiceConfig, Session, SessionConfig, FRONTEND_STAMP,
};
use qc_ir::{module_structural_hash, print_module};
use qc_storage::Database;
use qc_workloads::BenchQuery;
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

/// One suite with what this file pins about it.
struct Suite {
    name: &'static str,
    db: Database,
    queries: Vec<BenchQuery>,
    /// Allocations per statement miss, averaged over the suite, before
    /// the statement path was put on its diet.
    seed_miss_per_query: f64,
    /// Allocations of all statement misses of the suite.
    miss_total: u64,
    /// Allocations of all statement hits of the suite.
    hit_total: u64,
    /// Allocations of all statement misses of the suite that a restart
    /// answers from statement records.
    record_hit_total: u64,
    /// The same, when the record-hit branch still copied the plan for
    /// the IR it generates on first use.
    seed_record_hit_total: u64,
    /// [`ir_digest`] of the IR the misses generate.
    ir_digest: u64,
}

fn dslike() -> Suite {
    Suite {
        name: "DS-like sf 0.01",
        db: qc_storage::gen_dslike(0.01),
        queries: qc_workloads::dslike_suite(),
        seed_miss_per_query: 897.8,
        miss_total: 24_482,
        hit_total: 103,
        record_hit_total: 6_727,
        seed_record_hit_total: 10_275,
        ir_digest: 0x67ce_ce8f_b915_4a4d,
    }
}

fn hlike() -> Suite {
    Suite {
        name: "H-like sf 0.1",
        db: qc_storage::gen_hlike(0.1),
        queries: qc_workloads::hlike_suite(),
        seed_miss_per_query: 600.2,
        miss_total: 4_169,
        hit_total: 22,
        record_hit_total: 1_073,
        seed_record_hit_total: 1_654,
        ir_digest: 0xc57d_598d_a210_4c82,
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every module's printed text and structural hash, in
/// suite and pipeline order.
fn ir_digest(modules: &[std::sync::Arc<qc_ir::Module>], h: &mut u64) {
    for module in modules {
        fnv1a(h, print_module(module).as_bytes());
        fnv1a(h, &module_structural_hash(module).to_le_bytes());
    }
}

/// At most this many allocations per statement hit: the canonical text
/// is the only one, rendered into a `String` sized up front.
const HIT_LIMIT: u64 = 2;

/// A statement miss allocates at most this share of what it did before.
const MISS_SHARE: f64 = 0.4;

#[test]
fn statement_misses_and_hits_allocate_what_is_pinned_and_the_ir_is_unchanged() {
    let mut report = String::new();
    let mut pinned = true;
    let mut stamp = 0xcbf2_9ce4_8422_2325u64;
    for suite in [dslike(), hlike()] {
        let (mut miss, mut hit, mut digest) = (0, 0, 0xcbf2_9ce4_8422_2325u64);
        for q in &suite.queries {
            let session = Session::new(&suite.db);
            let (statement, m) = measure(|| session.statement(&q.plan).expect("prepares"));
            let (again, h) = measure(|| session.statement(&q.plan).expect("prepares"));
            assert_eq!(again.text(), statement.text(), "{}", q.name);
            assert!(
                h <= HIT_LIMIT,
                "{}: a statement hit allocated {h} times",
                q.name
            );
            miss += m;
            hit += h;
            ir_digest(&statement.query().ir.modules, &mut digest);
        }
        let per_query = miss as f64 / suite.queries.len() as f64;
        assert!(
            per_query <= MISS_SHARE * suite.seed_miss_per_query,
            "{}: {per_query:.1} allocations per statement miss, limit {:.1}",
            suite.name,
            MISS_SHARE * suite.seed_miss_per_query
        );
        assert_eq!(
            digest, suite.ir_digest,
            "{}: generated IR differs from the pinned IR (digest {digest:#018x}); \
             re-pin it together with FRONTEND_STAMP",
            suite.name
        );
        fnv1a(&mut stamp, &digest.to_le_bytes());
        report += &format!(
            "{}: misses {miss} (pinned {}), hits {hit} (pinned {}), {per_query:.1} per miss\n",
            suite.name, suite.miss_total, suite.hit_total
        );
        pinned &= (miss, hit) == (suite.miss_total, suite.hit_total);
    }
    assert!(pinned, "allocation counts moved:\n{report}");
    // Statement records are keyed by the front end's stamp, so a change
    // to the generated IR must come with a new stamp, or a restart would
    // trust hashes the new front end no longer produces.
    assert_eq!(
        FRONTEND_STAMP, stamp,
        "FRONTEND_STAMP must be the fold of the pinned IR digests ({stamp:#018x})"
    );
}

/// A statement handle is cloned once per run (`session.run(stmt.clone())`),
/// so a clone shares the statement cache's text and query: it
/// allocates nothing, also after the cache has dropped the entry.
#[test]
fn cloning_a_statement_allocates_nothing() {
    let suite = hlike();
    for capacity in [0, 16] {
        let config = SessionConfig {
            statement_cache_capacity: capacity,
            ..SessionConfig::default()
        };
        let session = Session::with_config(&suite.db, config);
        for q in &suite.queries {
            let statement = session.statement(&q.plan).expect("prepares");
            let (clone, n) = measure(|| statement.clone());
            assert_eq!(n, 0, "{}: cloning a statement allocated {n} times", q.name);
            assert_eq!(clone.text(), statement.text());
        }
    }
}

#[test]
fn the_stored_module_hash_is_the_structural_hash_and_keys_the_code_cache() {
    for suite in [dslike(), hlike()] {
        // Caches that hold a whole suite.
        let config = SessionConfig {
            statement_cache_capacity: 256,
            compile: CompileServiceConfig {
                cache_capacity: 4096,
                ..CompileServiceConfig::default()
            },
            ..SessionConfig::default()
        };
        let session = Session::with_config(&suite.db, config);
        let mut modules = 0;
        for q in &suite.queries {
            let run = session.prepare(&q.plan).expect("prepares");
            run.compile().expect("compiles");
            let query = run.statement().query();
            let fresh: Vec<u64> = query
                .ir
                .modules
                .iter()
                .map(|m| module_structural_hash(m))
                .collect();
            assert_eq!(query.module_hashes(), fresh, "{}", q.name);
            modules += fresh.len() as u64;
        }

        // A reopened session keeps the statements with their hashes, and
        // the stored hashes find the artifacts the first compiles cached.
        let reopened = session.reopen(&suite.db);
        let before = reopened.compile_service().cache_stats().hits;
        for q in &suite.queries {
            let run = reopened.prepare(&q.plan).expect("prepares");
            let query = run.statement().query();
            for (module, &hash) in query.ir.modules.iter().zip(query.module_hashes()) {
                assert_eq!(hash, module_structural_hash(module), "{}", q.name);
            }
            run.compile().expect("compiles");
        }
        let hits = reopened.compile_service().cache_stats().hits - before;
        assert_eq!(
            hits, modules,
            "{}: every module is a code-cache hit",
            suite.name
        );
        assert_eq!(
            reopened.statement_cache_stats().misses,
            suite.queries.len() as u64,
            "{}: the reopened session prepared nothing again",
            suite.name
        );
    }
}

#[test]
fn a_statement_record_holds_the_structural_hashes() {
    let dir = std::env::temp_dir().join(format!("qc-frontend-records-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for suite in [dslike(), hlike()] {
        let config = || SessionConfig {
            statement_cache_capacity: 256,
            artifact_store: Some(ArtifactStoreConfig::at(&dir)),
            ..SessionConfig::default()
        };
        let cold = Session::with_config(&suite.db, config());
        for q in &suite.queries {
            cold.prepare(&q.plan)
                .expect("prepares")
                .compile()
                .expect("compiles");
        }
        drop(cold);

        // A restart takes every statement's hashes from its record; the
        // IR the statement generates on demand hashes to the same. The
        // statement keeps one plan for itself and that IR: its misses
        // allocate a plan copy less than when they kept two.
        let restarted = Session::with_config(&suite.db, config());
        let (mut hit, mut copy) = (0, 0);
        for q in &suite.queries {
            let (statement, n) = measure(|| restarted.statement(&q.plan).expect("prepares"));
            hit += n;
            let query = statement.query();
            copy += measure(|| query.plan().clone()).1;
            assert!(!query.has_ir(), "{}: prepared from its record", q.name);
            let recorded = query.module_hashes().to_vec();
            let fresh: Vec<u64> = query
                .ir
                .modules
                .iter()
                .map(|m| module_structural_hash(m))
                .collect();
            assert_eq!(recorded, fresh, "{}", q.name);
        }
        assert_eq!(
            (hit, hit + copy),
            (suite.record_hit_total, suite.seed_record_hit_total),
            "{}: record-hit misses allocate {hit}, plan copies {copy}",
            suite.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
