//! Integration tests for the persistent artifact store (L2) under the
//! session/compile-service stack: warm restarts served from disk,
//! checksum rejection of corrupted or truncated files followed by a
//! clean recompile, concurrent writers publishing no torn files, the
//! directory size budget, and graceful pass-through degradation when
//! the store directory is unusable.

use qc_backend::{Backend, CompileStats, NativeArtifact};
use qc_engine::{
    backends, ArtifactKey, ArtifactStore, ArtifactStoreConfig, CompileServiceConfig, CompiledQuery,
    Session, SessionConfig,
};
use qc_plan::{reference, PlanNode};
use qc_target::{new_masm, ImageBuilder, Isa};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Fresh, empty per-test directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qc-artifact-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_session<'db>(db: &'db qc_storage::Database, dir: &Path) -> Session<'db> {
    Session::with_config(
        db,
        SessionConfig::with_artifact_store(ArtifactStoreConfig::at(dir.to_path_buf())),
    )
}

fn native_backend() -> Arc<dyn Backend> {
    Arc::from(backends::clift(Isa::Tx64))
}

/// Compiles through the session's compile service (L1 + L2 visible),
/// not the direct one-shot path.
fn compile_via_service(
    session: &Session<'_>,
    plan: &PlanNode,
    backend: &Arc<dyn Backend>,
) -> CompiledQuery {
    session
        .prepare(plan)
        .expect("prepare")
        .backend(Arc::clone(backend))
        .compile()
        .expect("compile")
}

fn execute(session: &Session<'_>, plan: &PlanNode, compiled: &mut CompiledQuery) -> Vec<String> {
    let stmt = session.statement(plan).expect("statement");
    let result = session
        .run(stmt)
        .execute_compiled(compiled)
        .expect("execute");
    reference::normalize(&result.rows)
}

fn qca_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qca"))
        .collect()
}

#[test]
fn warm_restart_is_served_from_disk() {
    let dir = fresh_dir("warm");
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[0];
    let backend = native_backend();
    let expected = reference::normalize(&reference::execute(&q.plan, &db).expect("reference"));

    // Cold process: every module misses both tiers and is written out.
    let cold = store_session(&db, &dir);
    let mut compiled = compile_via_service(&cold, &q.plan, &backend);
    let stats = cold.compile_service().cache_stats();
    assert_eq!(stats.disk_hits, 0, "cold run must not hit the disk tier");
    assert!(stats.disk_writes > 0, "cold run must persist its artifacts");
    assert_eq!(execute(&cold, &q.plan, &mut compiled), expected);
    drop(cold);

    // Fresh session over the same directory models a process restart:
    // the in-memory LRU is empty, so every module is served from disk.
    let warm = store_session(&db, &dir);
    let mut compiled = compile_via_service(&warm, &q.plan, &backend);
    let stats = warm.compile_service().cache_stats();
    assert_eq!(stats.hits, 0, "restart cannot hit the in-memory tier");
    assert!(stats.disk_hits > 0, "restart must hit the disk tier");
    assert_eq!(stats.disk_writes, 0, "disk hits must not be re-written");
    assert_eq!(execute(&warm, &q.plan, &mut compiled), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_artifacts_are_rejected_then_recompiled() {
    let dir = fresh_dir("corrupt");
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[2];
    let backend = native_backend();
    let expected = reference::normalize(&reference::execute(&q.plan, &db).expect("reference"));

    let seed = store_session(&db, &dir);
    compile_via_service(&seed, &q.plan, &backend);
    drop(seed);

    // Damage every stored artifact: flip a payload byte in half of the
    // files (checksum mismatch), truncate the rest (short read).
    let files = qca_files(&dir);
    assert!(!files.is_empty(), "seed run must leave artifacts behind");
    for (i, path) in files.iter().enumerate() {
        let mut bytes = std::fs::read(path).expect("read artifact");
        if i % 2 == 0 {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
        } else {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(path, &bytes).expect("re-write artifact");
    }

    // A restart sees only damaged files: every load is rejected by
    // verification, the query recompiles cleanly, and the event is
    // visible in both the cache and fault counter surfaces.
    let warm = store_session(&db, &dir);
    let mut compiled = compile_via_service(&warm, &q.plan, &backend);
    let stats = warm.compile_service().cache_stats();
    assert_eq!(stats.disk_hits, 0, "damaged artifacts must not be served");
    assert_eq!(
        stats.disk_corrupt_rejected,
        files.len() as u64,
        "every damaged file must be rejected"
    );
    assert!(
        warm.compile_service().fault_stats().artifact_corruptions > 0,
        "corruption must surface in the fault counters"
    );
    assert!(stats.disk_writes > 0, "recompile must re-publish artifacts");
    assert_eq!(execute(&warm, &q.plan, &mut compiled), expected);

    // The rejected files were removed and replaced: a further restart
    // is served from the re-published artifacts.
    let again = store_session(&db, &dir);
    compile_via_service(&again, &q.plan, &backend);
    let stats = again.compile_service().cache_stats();
    assert!(stats.disk_hits > 0, "re-published artifacts must serve");
    assert_eq!(stats.disk_corrupt_rejected, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_publish_no_torn_files() {
    let dir = fresh_dir("race");
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let picks: Vec<&qc_workloads::BenchQuery> = suite.iter().take(4).collect();

    // Several sessions (each with its own store handle over the same
    // directory) race to publish the same artifact files.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let dir = dir.clone();
            let db = &db;
            let picks = &picks;
            s.spawn(move || {
                let session = store_session(db, &dir);
                let backend = native_backend();
                for q in picks {
                    compile_via_service(&session, &q.plan, &backend);
                }
            });
        }
    });

    // Every published file parses and checksums; rename-publishing left
    // no torn or partial files behind.
    let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    let (intact, corrupt) = store.fsck();
    assert!(intact > 0, "racing writers must have published artifacts");
    assert_eq!(corrupt, 0, "no torn files may be published");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn size_budget_evicts_artifacts() {
    let dir = fresh_dir("budget");
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let backend = native_backend();

    // A 1-byte budget forces eviction after every write; the store
    // keeps compiling and the counters record the evictions.
    let session = Session::with_config(
        &db,
        SessionConfig::with_artifact_store(ArtifactStoreConfig::at(dir.clone()).with_max_bytes(1)),
    );
    for q in suite.iter().take(3) {
        compile_via_service(&session, &q.plan, &backend);
    }
    let store = session.compile_service().artifact_store().expect("store");
    let counters = store.counters();
    assert!(counters.writes > 0);
    assert!(
        counters.evictions > 0,
        "a 1-byte budget must evict: {counters:?}"
    );
    assert!(
        qca_files(&dir).is_empty(),
        "nothing fits a 1-byte budget after eviction"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn under_budget_writes_do_not_rescan_and_eviction_stays_oldest_first() {
    let dir = fresh_dir("budget-scans");
    let mut masm = new_masm(Isa::Tx64);
    masm.ret();
    let (code, relocs) = masm.finish();
    let mut builder = ImageBuilder::new(Isa::Tx64);
    builder.add_function("f", code, relocs);
    let artifact = NativeArtifact::new(builder, CompileStats::default());
    // Same artifact, same-length key: every file has the same size.
    let key = |module_hash: u64| ArtifactKey {
        module_hash,
        backend: "Test",
        isa: "TX64",
        config: 0,
    };
    let unbudgeted = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    unbudgeted.store(&key(0), &artifact);
    let only = qca_files(&dir).pop().expect("one file");
    let file_len = std::fs::metadata(&only).expect("metadata").len();
    std::fs::remove_file(&only).expect("remove");
    assert_eq!(unbudgeted.counters().budget_scans, 0, "no budget, no scan");

    const FIT: u64 = 40;
    let budget = FIT * file_len + file_len / 2;
    let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()).with_max_bytes(budget));
    for h in 1..=FIT {
        store.store(&key(h), &artifact);
    }
    let c = store.counters();
    assert_eq!(
        (c.writes, c.evictions, c.budget_scans),
        (FIT, 0, 1),
        "one scan to learn the directory's size, none while under budget"
    );

    // Age two files out of write order: eviction goes by modification
    // time, whichever file was published first.
    let epoch = SystemTime::now() - Duration::from_secs(3_600);
    for (age_rank, h) in [(0, 17), (1, 5)] {
        let path = qca_files(&dir)
            .into_iter()
            .find(|p| p.to_string_lossy().ends_with(&format!("{h:016x}.qca")))
            .expect("file of key");
        let file = std::fs::File::options()
            .write(true)
            .open(path)
            .expect("open");
        file.set_modified(epoch + Duration::from_secs(age_rank))
            .expect("set mtime");
    }
    for (write, evicted) in [(FIT + 1, 17), (FIT + 2, 5)] {
        store.store(&key(write), &artifact);
        assert!(store.load(&key(evicted)).is_none(), "{evicted} is oldest");
        assert_eq!(qca_files(&dir).len() as u64, FIT);
    }
    let c = store.counters();
    assert_eq!((c.evictions, c.budget_scans), (2, 3));
    assert!(store.load(&key(1)).is_some() && store.load(&key(FIT + 2)).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_store_directory_degrades_to_passthrough() {
    // A regular file where the directory should be: the store cannot
    // create it and must open in pass-through mode without failing any
    // compile.
    let blocker =
        std::env::temp_dir().join(format!("qc-artifact-test-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let dir = blocker.join("store");

    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[0];
    let backend = native_backend();
    let expected = reference::normalize(&reference::execute(&q.plan, &db).expect("reference"));

    let session = store_session(&db, &dir);
    let store = session.compile_service().artifact_store().expect("store");
    assert!(!store.is_enabled());
    assert!(store.disabled_reason().is_some());

    let mut compiled = compile_via_service(&session, &q.plan, &backend);
    assert_eq!(execute(&session, &q.plan, &mut compiled), expected);
    let stats = session.compile_service().cache_stats();
    assert_eq!(stats.disk_writes, 0, "pass-through must not write");
    assert_eq!(stats.disk_hits, 0);
    assert!(stats.disk_misses > 0, "loads still count as misses");

    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn zero_l1_capacity_still_serves_disk_hits() {
    let dir = fresh_dir("zero-l1");
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[0];
    let backend = native_backend();

    let session = Session::with_config(
        &db,
        SessionConfig {
            compile: CompileServiceConfig {
                cache_capacity: 0,
                ..Default::default()
            },
            artifact_store: Some(ArtifactStoreConfig::at(dir.clone())),
            ..Default::default()
        },
    );
    compile_via_service(&session, &q.plan, &backend);
    compile_via_service(&session, &q.plan, &backend);
    let stats = session.compile_service().cache_stats();
    assert_eq!(stats.hits, 0, "L1 is disabled");
    assert_eq!(stats.entries, 0, "L1 must stay empty at capacity 0");
    assert!(
        stats.disk_hits > 0,
        "second compile must be served by the disk tier: {stats:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
