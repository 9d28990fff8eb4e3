//! Compile-service ablation: cold vs. warm compilation through the
//! two-tier artifact cache, per back-end.
//!
//! Three passes per back-end:
//!
//! * **cold** — fresh service, empty in-memory cache (the persistent
//!   store may still answer if a previous *process* populated it; that
//!   is the warm-restart effect this harness exists to show);
//! * **warm-lru** — same service, second pass: pure L1 hits, pays only
//!   the link/unwind-registration step;
//! * **warm-disk** — a fresh service (empty L1) over the same artifact
//!   directory: every compile is an L1 miss served from disk, the cost
//!   profile of a process restart.
//!
//! Set `QC_ARTIFACT_DIR` to persist the store across invocations — a
//! second run then reports `disk_hits > 0` in its cold pass, and
//! `first_statement_hits > 0`: the statements of its first session find
//! the module hashes the first process recorded and generate no IR
//! (`statement_hits` also counts the records later sessions of one
//! process find). The CI warm-restart smoke asserts both, grepping the
//! final `artifact-store:` summary line. Without the variable a private
//! temporary directory is used and removed at exit.

use qc_backend::Backend;
use qc_bench::{env_sf, env_suite, secs};
use qc_engine::{backends, ArtifactStoreConfig, ArtifactStoreCounters, Session, SessionConfig};
use qc_storage::Database;
use qc_target::Isa;
use qc_timing::TimeTrace;
use qc_workloads::BenchQuery;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn session_with_store<'db>(db: &'db Database, dir: &Path) -> Session<'db> {
    let mut config = SessionConfig::with_artifact_store(ArtifactStoreConfig::at(dir.to_path_buf()));
    config.compile.cache_capacity = 4096;
    Session::with_config(db, config)
}

fn compile_pass(
    session: &Session<'_>,
    suite: &[BenchQuery],
    backend: &Arc<dyn Backend>,
    trace: &TimeTrace,
) -> Duration {
    let mut total = Duration::ZERO;
    for q in suite {
        let compiled = session
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(backend))
            .trace(trace)
            .compile()
            .expect("compile");
        total += compiled.compile_time;
    }
    total
}

fn store_counters(session: &Session<'_>) -> ArtifactStoreCounters {
    session
        .compile_service()
        .artifact_store()
        .map(|store| store.counters())
        .unwrap_or_default()
}

fn main() {
    let db = qc_storage::gen_dslike(env_sf(1.0));
    let suite = env_suite(qc_workloads::dslike_suite());
    let trace = TimeTrace::disabled();
    let (dir, persistent) = match std::env::var_os("QC_ARTIFACT_DIR") {
        Some(d) => (PathBuf::from(d), true),
        None => (
            std::env::temp_dir().join(format!("qc-ablation-cache-{}", std::process::id())),
            false,
        ),
    };

    println!("Compile-service ablation: cold vs. warm artifact cache (TX64)");
    println!(
        "  artifact dir: {} (persistent: {persistent})",
        dir.display()
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "backend", "cold", "warm-lru", "warm-disk", "lru-x", "disk-x"
    );

    let mut disk_hits_total = 0u64;
    let mut disk_writes_total = 0u64;
    let mut corrupt_total = 0u64;
    let mut statement_hits_total = 0u64;
    let mut first_statement_hits = None;
    for backend in backends::all_for(Isa::Tx64) {
        let backend: Arc<dyn Backend> = Arc::from(backend);

        // Pass 1+2: one session, cold then warm-LRU.
        let session = session_with_store(&db, &dir);
        let cold = compile_pass(&session, &suite, &backend, &trace);
        let warm_lru = compile_pass(&session, &suite, &backend, &trace);
        let stats = session.compile_service().cache_stats();

        // Pass 3: a fresh service (empty L1) over the same store — the
        // warm-restart profile.
        let restarted = session_with_store(&db, &dir);
        let warm_disk = compile_pass(&restarted, &suite, &backend, &trace);
        let rstats = restarted.compile_service().cache_stats();

        disk_hits_total += stats.disk_hits + rstats.disk_hits;
        disk_writes_total += stats.disk_writes + rstats.disk_writes;
        corrupt_total += stats.disk_corrupt_rejected + rstats.disk_corrupt_rejected;
        let first_hits = store_counters(&session).statement_hits;
        first_statement_hits.get_or_insert(first_hits);
        statement_hits_total += first_hits + store_counters(&restarted).statement_hits;

        let ratio = |base: Duration, v: Duration| {
            if v.is_zero() {
                f64::INFINITY
            } else {
                base.as_secs_f64() / v.as_secs_f64()
            }
        };
        println!(
            "  {:<12} {:>10} {:>10} {:>10} {:>7.1}x {:>7.1}x",
            backend.name(),
            secs(cold),
            secs(warm_lru),
            secs(warm_disk),
            ratio(cold, warm_lru),
            ratio(cold, warm_disk),
        );
    }

    // Machine-readable summary for the CI warm-restart smoke.
    let first_statement_hits = first_statement_hits.unwrap_or(0);
    println!("artifact-store: disk_hits={disk_hits_total} disk_writes={disk_writes_total} corrupt_rejected={corrupt_total} statement_hits={statement_hits_total} first_statement_hits={first_statement_hits}");

    if !persistent {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
