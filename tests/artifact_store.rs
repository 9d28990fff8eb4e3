//! Integration tests for the persistent artifact store (L2) under the
//! session/compile-service stack: warm restarts served from disk,
//! checksum rejection of corrupted or truncated records followed by a
//! clean recompile, segments a crash left torn, a live store serving
//! what another appends, concurrent writers publishing no torn
//! records, one segment per writing store, the directory size budget,
//! and graceful pass-through degradation when the store directory is
//! unusable. Statement records, which share the segments, have tests
//! of their own in `tests/statement_records.rs`.

use qc_backend::{Backend, CompileStats, NativeArtifact};
use qc_engine::{
    backends, ArtifactKey, ArtifactStore, ArtifactStoreConfig, CompileServiceConfig, CompiledQuery,
    FsckReport, Session, SessionConfig,
};
use qc_plan::{reference, PlanNode};
use qc_target::{new_masm, ImageBuilder, Isa};
use std::ops::Range;
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

/// The segment files in a store directory.
fn segments(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qcs"))
        .collect()
}

/// The one segment a directory written by one store holds.
fn only_segment(dir: &Path) -> PathBuf {
    let [segment] = segments(dir).try_into().expect("exactly one segment");
    segment
}

/// Byte ranges of the records in a segment's bytes, each with whether
/// it is an artifact record. An artifact record is magic `QCAS`,
/// version, module hash and config (24 bytes), back-end and ISA names
/// (each a u64 length and the bytes), payload length and checksum (16
/// bytes), then the payload. A statement record is magic `QCSR`,
/// version, text hash, schemas and stamp (32 bytes), payload length and
/// checksum, then the payload.
fn records(segment: &[u8]) -> Vec<(Range<usize>, bool)> {
    let u64_at = |at: usize| {
        let le: [u8; 8] = segment[at..at + 8].try_into().expect("eight bytes");
        u64::from_le_bytes(le) as usize
    };
    let mut spans = Vec::new();
    let mut at = 0;
    while at < segment.len() {
        let artifact = &segment[at..at + 4] == b"QCAS";
        let mut field = at + if artifact { 24 } else { 32 };
        if artifact {
            field += 8 + u64_at(field);
            field += 8 + u64_at(field);
        }
        let end = field + 16 + u64_at(field);
        spans.push((at..end, artifact));
        at = end;
    }
    spans
}

/// Byte ranges of the artifact records in a segment's bytes. A session
/// appends a statement's record after its artifacts, so cutting inside
/// the last artifact record cuts the statement record away too.
fn artifact_spans(segment: &[u8]) -> Vec<Range<usize>> {
    records(segment)
        .into_iter()
        .filter_map(|(span, artifact)| artifact.then_some(span))
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

    // Damage the seed run's segment: flip the last payload byte of every
    // other artifact record (checksum mismatch), and cut the segment
    // inside its last artifact record (short read), which drops the
    // statement record behind it.
    let segment = only_segment(&dir);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let spans = artifact_spans(&bytes);
    assert!(spans.len() >= 2, "seed run must leave records behind");
    let last = spans.len() - 1;
    for span in spans.iter().step_by(2) {
        bytes[span.end - 1] ^= 0xFF;
    }
    bytes.truncate(spans[last].start + spans[last].len() / 2);
    std::fs::write(&segment, &bytes).expect("re-write segment");
    let damaged = (0..spans.len())
        .filter(|i| i % 2 == 0 || *i == last)
        .count() as u64;

    // A restart serves the intact records; every damaged one is rejected
    // by verification and recompiled cleanly, and the event is visible
    // in both the cache and fault counter surfaces.
    let warm = store_session(&db, &dir);
    let mut compiled = compile_via_service(&warm, &q.plan, &backend);
    let stats = warm.compile_service().cache_stats();
    assert_eq!(
        stats.disk_hits,
        spans.len() as u64 - damaged,
        "intact records must be served"
    );
    assert_eq!(
        stats.disk_corrupt_rejected, damaged,
        "every damaged record must be rejected"
    );
    assert_eq!(
        stats.disk_writes, damaged,
        "recompile must re-publish every damaged record"
    );
    assert_eq!(execute(&warm, &q.plan, &mut compiled), expected);
    drop(warm);

    // The re-published records supersede the damaged ones, which the
    // integrity scan no longer reports as corrupt.
    let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    assert_eq!(
        store.fsck(),
        FsckReport {
            artifacts: spans.len(),
            statements: 1,
            corrupt: 0,
            superseded: damaged as usize,
        }
    );

    // A further restart is served from disk alone.
    let again = store_session(&db, &dir);
    compile_via_service(&again, &q.plan, &backend);
    let stats = again.compile_service().cache_stats();
    assert_eq!(
        stats.disk_hits,
        spans.len() as u64,
        "every record must serve"
    );
    assert_eq!((stats.disk_corrupt_rejected, stats.disk_writes), (0, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// How a crash can leave a segment's end.
#[derive(Debug, Clone, Copy)]
enum Tail {
    /// Cut inside the last record's payload: its header names its key.
    HalfPayload,
    /// Cut inside the last record's header: its key is lost.
    HalfHeader,
    /// Bytes after the last record that do not parse as one.
    Garbage,
}

#[test]
fn a_torn_or_garbage_tail_restarts_with_every_complete_record() {
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[2];
    let backend = native_backend();
    let expected = reference::normalize(&reference::execute(&q.plan, &db).expect("reference"));
    for tail in [Tail::HalfPayload, Tail::HalfHeader, Tail::Garbage] {
        let dir = fresh_dir(&format!("tail-{tail:?}"));
        compile_via_service(&store_session(&db, &dir), &q.plan, &backend);
        let segment = only_segment(&dir);
        let mut bytes = std::fs::read(&segment).expect("read segment");
        let spans = artifact_spans(&bytes);
        let records = spans.len() as u64;
        let last = &spans[spans.len() - 1];
        // (complete records left, records rejected on load); a cut
        // inside the last artifact record drops the statement record
        // behind it, and garbage goes after the statement record.
        let (complete, rejected) = match tail {
            Tail::HalfPayload => {
                bytes.truncate(last.end - 10);
                (records - 1, 1)
            }
            Tail::HalfHeader => {
                bytes.truncate(last.start + 20);
                (records - 1, 0)
            }
            Tail::Garbage => {
                bytes.extend(std::iter::repeat_n(0xA5, 100));
                (records, 0)
            }
        };
        std::fs::write(&segment, &bytes).expect("re-write segment");

        let warm = store_session(&db, &dir);
        let mut compiled = compile_via_service(&warm, &q.plan, &backend);
        let stats = warm.compile_service().cache_stats();
        assert_eq!(stats.disk_hits, complete, "{tail:?}");
        assert_eq!(stats.disk_corrupt_rejected, rejected, "{tail:?}");
        assert_eq!(
            stats.disk_writes,
            records - complete,
            "{tail:?}: recompiled"
        );
        assert_eq!(execute(&warm, &q.plan, &mut compiled), expected);
        drop(warm);

        // The recompile supersedes a cut record whose header names its
        // key; a tail whose key is lost stays corrupt.
        let (corrupt, superseded) = match tail {
            Tail::HalfPayload => (0, 1),
            Tail::HalfHeader | Tail::Garbage => (1, 0),
        };
        let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
        let report = FsckReport {
            artifacts: records as usize,
            statements: 1,
            corrupt,
            superseded,
        };
        assert_eq!(store.fsck(), report, "{tail:?}");
        // Counted once: the next restart finds the recompiled record.
        let again = store_session(&db, &dir);
        compile_via_service(&again, &q.plan, &backend);
        let stats = again.compile_service().cache_stats();
        assert_eq!(stats.disk_hits, records, "{tail:?}");
        assert_eq!(stats.disk_corrupt_rejected, 0, "{tail:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_live_store_serves_what_another_store_appends_after_its_scan() {
    let dir = fresh_dir("live");
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let backend = native_backend();
    let (first, second) = (&suite[0].plan, &suite[1].plan);

    let a = store_session(&db, &dir);
    compile_via_service(&a, first, &backend);
    let b = store_session(&db, &dir);
    compile_via_service(&b, first, &backend);
    let scanned = b.compile_service().cache_stats();
    assert!(scanned.disk_hits > 0 && scanned.disk_misses == 0);

    // A appends to its segment after B indexed it: B lists again on the
    // miss, scans the segment's new tail, and serves it from disk.
    compile_via_service(&a, second, &backend);
    assert!(a.compile_service().cache_stats().disk_writes > scanned.disk_hits);
    compile_via_service(&b, second, &backend);
    let stats = b.compile_service().cache_stats();
    assert!(stats.disk_hits > scanned.disk_hits, "{stats:?}");
    assert_eq!((stats.disk_misses, stats.disk_writes), (0, 0), "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A small artifact, and keys of equal length for it, so every record
/// has the same size.
fn tiny_artifact() -> NativeArtifact {
    let mut masm = new_masm(Isa::Tx64);
    masm.ret();
    let (code, relocs) = masm.finish();
    let mut builder = ImageBuilder::new(Isa::Tx64);
    builder.add_function("f", code, relocs);
    NativeArtifact::new(builder, CompileStats::default())
}

fn tiny_key(module_hash: u64) -> ArtifactKey {
    ArtifactKey {
        module_hash,
        backend: "Test",
        isa: "TX64",
        config: 0,
    }
}

fn dir_entries(dir: &Path) -> Vec<std::ffi::OsString> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    names.sort();
    names
}

#[test]
fn a_store_writes_one_segment_and_a_loading_store_none() {
    const N: u64 = 25;
    let dir = fresh_dir("one-file");
    let artifact = tiny_artifact();
    let writer = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    for h in 0..N {
        writer.store(&tiny_key(h), &artifact);
    }
    assert_eq!(writer.counters().writes, N);
    let entries = dir_entries(&dir);
    assert_eq!(
        entries,
        [only_segment(&dir).file_name().expect("name")],
        "one segment and nothing else"
    );
    assert_eq!(
        records(&std::fs::read(only_segment(&dir)).expect("read")).len() as u64,
        N
    );
    drop(writer);

    let loader = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    for h in 0..N {
        assert!(loader.load(&tiny_key(h)).is_some(), "{h}");
    }
    assert!(loader.load(&tiny_key(N)).is_none());
    assert_eq!(dir_entries(&dir), entries, "loading creates no file");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_publish_no_torn_files() {
    let dir = fresh_dir("race");
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let picks: Vec<&qc_workloads::BenchQuery> = suite.iter().take(4).collect();

    // Several sessions (each with its own store handle over the same
    // directory) race to append the same artifacts, each to a segment
    // of its own. A racer that starts late may find every artifact in
    // the others' segments already and write nothing; such a store
    // creates no segment. One that finds every artifact but no
    // statement record yet appends only a statement record, which opens
    // a segment too, so a writer is a store that appended either kind.
    let writes: Vec<(u64, u64)> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let dir = dir.clone();
                let db = &db;
                let picks = &picks;
                s.spawn(move || {
                    let session = store_session(db, &dir);
                    let backend = native_backend();
                    for q in picks {
                        compile_via_service(&session, &q.plan, &backend);
                    }
                    let service = session.compile_service();
                    let store = service.artifact_store().expect("store attached");
                    (
                        service.cache_stats().disk_writes,
                        store.counters().statement_writes,
                    )
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer"))
            .collect()
    });
    let writers = writes.iter().filter(|&&(a, s)| a + s > 0).count();
    let writes: u64 = writes.iter().map(|&(artifacts, _)| artifacts).sum();

    // Every appended record parses and checksums; no writer tore
    // another's records.
    assert_eq!(
        segments(&dir).len(),
        writers,
        "one segment per writing store"
    );
    let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    let report = store.fsck();
    assert!(
        report.artifacts > 0,
        "racing writers must have published artifacts"
    );
    assert_eq!(
        report.artifacts as u64, writes,
        "every append is one intact record"
    );
    assert!(report.statements >= picks.len(), "{report:?}");
    assert_eq!(
        (report.corrupt, report.superseded),
        (0, 0),
        "no torn records may be published"
    );

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
    assert_eq!(counters.evictions, counters.writes, "every record goes");
    assert!(
        segments(&dir).is_empty(),
        "nothing fits a 1-byte budget after eviction"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The module hash of a segment's first record.
fn first_module_hash(segment: &Path) -> u64 {
    let bytes = std::fs::read(segment).expect("read segment");
    u64::from_le_bytes(bytes[8..16].try_into().expect("eight bytes"))
}

#[test]
fn under_budget_writes_do_not_rescan_and_eviction_stays_oldest_first() {
    let dir = fresh_dir("budget-scans");
    let artifact = tiny_artifact();
    let unbudgeted = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
    unbudgeted.store(&tiny_key(0), &artifact);
    let only = only_segment(&dir);
    let record_len = std::fs::metadata(&only).expect("metadata").len();
    assert_eq!(unbudgeted.counters().budget_scans, 0, "no budget, no scan");
    drop(unbudgeted);
    std::fs::remove_file(&only).expect("remove");

    // Three older segments of ten records each, one per store; store `s`
    // writes keys `1000 * (s + 1) + 1..=1000 * (s + 1) + 10`.
    const TEN: u64 = 10;
    let first_key = |s: u64| 1000 * (s + 1) + 1;
    for s in 0..3 {
        let older = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
        for h in first_key(s)..first_key(s) + TEN {
            older.store(&tiny_key(h), &artifact);
        }
    }
    let mut segment_of = segments(&dir);
    assert_eq!(segment_of.len(), 3);
    segment_of.sort_by_key(|p| first_module_hash(p));

    const FIT: u64 = 40;
    let budget = (3 * TEN + FIT) * record_len + record_len / 2;
    let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()).with_max_bytes(budget));
    for h in 1..=FIT {
        store.store(&tiny_key(h), &artifact);
    }
    let c = store.counters();
    assert_eq!(
        (c.writes, c.evictions, c.budget_scans),
        (FIT, 0, 1),
        "one scan to learn the directory's size, none while under budget"
    );

    // Age the older segments out of write order: eviction goes by
    // modification time, whichever segment was written first, and takes
    // whole segments.
    let epoch = SystemTime::now() - Duration::from_secs(3_600);
    for (age_rank, s) in [(0, 1), (1, 0), (2, 2)] {
        let file = std::fs::File::options()
            .write(true)
            .open(&segment_of[s])
            .expect("open");
        file.set_modified(epoch + Duration::from_secs(age_rank))
            .expect("set mtime");
    }
    // The first write past the budget evicts store 1's segment; nine
    // more fit, and the tenth crosses again and evicts store 0's.
    let evicts = |write: u64, evicted: usize, left: usize| {
        store.store(&tiny_key(write), &artifact);
        let key = tiny_key(first_key(evicted as u64));
        assert!(store.load(&key).is_none(), "{evicted} is oldest");
        assert!(!segment_of[evicted].exists());
        assert_eq!(segments(&dir).len(), left);
    };
    evicts(FIT + 1, 1, 3);
    for h in FIT + 2..=FIT + 10 {
        store.store(&tiny_key(h), &artifact);
    }
    assert_eq!(store.counters().evictions, TEN, "whole segments, by record");
    evicts(FIT + 11, 0, 2);
    let c = store.counters();
    assert_eq!(
        (c.writes, c.evictions, c.budget_scans),
        (FIT + 11, 2 * TEN, 3)
    );
    assert!(
        store.load(&tiny_key(first_key(2))).is_some(),
        "youngest older segment stays"
    );
    assert!(store.load(&tiny_key(1)).is_some() && store.load(&tiny_key(FIT + 11)).is_some());

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
