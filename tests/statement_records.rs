//! Statement records in the persistent artifact store: a restarted
//! session plans every statement but finds its module hashes on disk and
//! generates no IR; a record whose modules are gone regenerates the IR
//! and republishes them; a record under another schema or front-end
//! stamp is ignored; a damaged record is rejected once; racing writers
//! publish no torn record; `Session::reopen` and the scheduler's
//! admission both use records; and a restarted serve's tier-up compile
//! generates no IR.

use qc_backend::Backend;
use qc_engine::{
    backends, ArtifactStore, ArtifactStoreConfig, CompiledQuery, FsckReport, OutcomeStatus,
    QueryScheduler, SchedulerConfig, Session, SessionConfig, SessionRequest, StatementKey,
    FRONTEND_STAMP,
};
use qc_plan::{reference, PlanNode};
use qc_storage::Database;
use qc_target::Isa;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh, empty per-test directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qc-records-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_session<'db>(db: &'db Database, dir: &Path) -> Session<'db> {
    let mut config = SessionConfig::with_artifact_store(ArtifactStoreConfig::at(dir));
    config.statement_cache_capacity = 256;
    config.compile.cache_capacity = 4096;
    Session::with_config(db, config)
}

fn native_backend() -> Arc<dyn Backend> {
    Arc::from(backends::direct_emit())
}

fn compile(session: &Session<'_>, plan: &PlanNode, backend: &Arc<dyn Backend>) -> CompiledQuery {
    session
        .prepare(plan)
        .expect("prepare")
        .backend(Arc::clone(backend))
        .compile()
        .expect("compile")
}

/// Executes `compiled` and returns its rows normalized for comparison.
fn rows(session: &Session<'_>, plan: &PlanNode, compiled: &mut CompiledQuery) -> Vec<String> {
    let statement = session.statement(plan).expect("statement");
    let result = session
        .run(statement)
        .execute_compiled(compiled)
        .expect("execute");
    reference::normalize(&result.rows)
}

fn expected(db: &Database, plan: &PlanNode) -> Vec<String> {
    reference::normalize(&reference::execute(plan, db).expect("reference"))
}

fn store_of<'s>(session: &'s Session<'_>) -> &'s ArtifactStore {
    session.compile_service().artifact_store().expect("store")
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qcs"))
        .collect();
    paths.sort();
    paths
}

fn only_segment(dir: &Path) -> PathBuf {
    let [segment] = segments(dir).try_into().expect("exactly one segment");
    segment
}

/// Byte ranges of a segment's records, each with whether it is a
/// statement record (magic `QCSR`: magic, version, text hash, schemas
/// and stamp, payload length and checksum, payload) rather than an
/// artifact record (magic `QCAS`: magic, version, module hash, config,
/// two length-prefixed names, payload length and checksum, payload).
fn records(segment: &[u8]) -> Vec<(Range<usize>, bool)> {
    let u64_at = |at: usize| {
        let le: [u8; 8] = segment[at..at + 8].try_into().expect("eight bytes");
        u64::from_le_bytes(le) as usize
    };
    let mut spans = Vec::new();
    let mut at = 0;
    while at < segment.len() {
        let statement = &segment[at..at + 4] == b"QCSR";
        let mut field = at + if statement { 32 } else { 24 };
        if !statement {
            field += 8 + u64_at(field);
            field += 8 + u64_at(field);
        }
        let end = field + 16 + u64_at(field);
        spans.push((at..end, statement));
        at = end;
    }
    spans
}

/// The schema fingerprint a statement record's header carries.
fn record_schemas(segment: &[u8], span: &Range<usize>) -> u64 {
    u64::from_le_bytes(
        segment[span.start + 16..span.start + 24]
            .try_into()
            .expect("8"),
    )
}

/// The one statement record of a store directory a single session
/// wrote, with the segment bytes.
fn the_statement_record(dir: &Path) -> (PathBuf, Vec<u8>, Range<usize>) {
    let segment = only_segment(dir);
    let bytes = std::fs::read(&segment).expect("read segment");
    let [span] = records(&bytes)
        .into_iter()
        .filter_map(|(span, statement)| statement.then_some(span))
        .collect::<Vec<_>>()
        .try_into()
        .expect("one statement record");
    (segment, bytes, span)
}

#[test]
fn a_restart_prepares_every_dslike_statement_from_its_record_and_generates_no_ir() {
    let dir = fresh_dir("restart");
    let db = qc_storage::gen_dslike(0.01);
    let suite = qc_workloads::dslike_suite();
    let backend = native_backend();

    let cold = store_session(&db, &dir);
    let mut modules = 0;
    for q in &suite {
        compile(&cold, &q.plan, &backend);
        modules += cold
            .statement(&q.plan)
            .expect("statement")
            .query()
            .module_hashes()
            .len();
    }
    let written = store_of(&cold).counters();
    assert_eq!(written.statement_writes, suite.len() as u64);
    assert!(written.writes > 0);
    drop(cold);

    let warm = store_session(&db, &dir);
    for (i, q) in suite.iter().enumerate() {
        let run = warm
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(&backend));
        let mut compiled = run.compile().expect("compile");
        assert!(
            !run.statement().query().has_ir(),
            "{}: IR generated",
            q.name
        );
        if i % 10 == 0 {
            let got = rows(&warm, &q.plan, &mut compiled);
            assert_eq!(got, expected(&db, &q.plan), "{}", q.name);
        }
    }
    let counters = store_of(&warm).counters();
    assert_eq!(
        (counters.statement_hits, counters.statement_misses),
        (suite.len() as u64, 0)
    );
    // A module two statements share is a disk hit once, then an L1 hit.
    let l1_hits = warm.compile_service().cache_stats().hits;
    assert_eq!(
        (counters.hits + l1_hits, counters.misses),
        (modules as u64, 0)
    );
    assert_eq!((counters.writes, counters.statement_writes), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_whose_modules_are_gone_regenerates_the_ir_and_republishes_them() {
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[2];
    let backend = native_backend();
    let want = expected(&db, &q.plan);
    for damage in ["deleted", "damaged"] {
        let dir = fresh_dir(&format!("gone-{damage}"));
        compile(&store_session(&db, &dir), &q.plan, &backend);
        let (segment, bytes, statement) = the_statement_record(&dir);
        let artifacts = records(&bytes).len() as u64 - 1;
        let kept = if damage == "deleted" {
            bytes[statement].to_vec()
        } else {
            let mut bytes = bytes.clone();
            for (span, is_statement) in records(&bytes) {
                if !is_statement {
                    bytes[span.end - 1] ^= 0xFF;
                }
            }
            bytes
        };
        std::fs::write(&segment, kept).expect("re-write segment");

        let warm = store_session(&db, &dir);
        let run = warm
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(&backend));
        assert!(!run.statement().query().has_ir(), "{damage}");
        let mut compiled = run.compile().expect("compile");
        assert!(run.statement().query().has_ir(), "{damage}: IR regenerated");
        assert_eq!(rows(&warm, &q.plan, &mut compiled), want, "{damage}");
        let c = store_of(&warm).counters();
        assert_eq!(c.statement_hits, 1, "{damage}");
        assert_eq!(c.writes, artifacts, "{damage}: every module republished");
        assert_eq!(c.statement_writes, 0, "{damage}: the record still holds");
        let rejected = if damage == "damaged" { artifacts } else { 0 };
        assert_eq!(c.corrupt_rejected, rejected, "{damage}");
        drop(warm);

        let again = store_session(&db, &dir);
        let run = again
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(&backend));
        run.compile().expect("compile");
        assert!(!run.statement().query().has_ir(), "{damage}");
        let c = store_of(&again).counters();
        assert_eq!((c.hits, c.writes, c.corrupt_rejected), (artifacts, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Modules another back-end never compiled are gone too.
    let dir = fresh_dir("gone-backend");
    compile(&store_session(&db, &dir), &q.plan, &backend);
    let warm = store_session(&db, &dir);
    let clift: Arc<dyn Backend> = Arc::from(backends::clift(qc_target::Isa::Tx64));
    let run = warm.prepare(&q.plan).expect("prepare").backend(clift);
    let mut compiled = run.compile().expect("compile");
    assert!(run.statement().query().has_ir());
    assert_eq!(rows(&warm, &q.plan, &mut compiled), want);
    assert_eq!(store_of(&warm).counters().statement_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_under_another_schema_or_stamp_or_text_is_ignored() {
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[1];
    let backend = native_backend();
    let seeded = fresh_dir("keys-seed");
    compile(&store_session(&db, &seeded), &q.plan, &backend);
    let (_, bytes, span) = the_statement_record(&seeded);
    let schemas = record_schemas(&bytes, &span);
    let text = q.plan.canonical_text();
    let hashes = store_session(&db, &seeded)
        .statement(&q.plan)
        .expect("statement")
        .query()
        .module_hashes()
        .to_vec();
    let _ = std::fs::remove_dir_all(&seeded);

    let keys = [
        ("right key", schemas, FRONTEND_STAMP, true),
        ("another schema", schemas ^ 1, FRONTEND_STAMP, false),
        ("another stamp", schemas, FRONTEND_STAMP ^ 1, false),
    ];
    for (what, schemas, stamp, found) in keys {
        let dir = fresh_dir("keys");
        let key = StatementKey {
            text: &text,
            schemas,
            stamp,
        };
        ArtifactStore::open(ArtifactStoreConfig::at(&dir)).store_statement(&key, &hashes);
        let session = store_session(&db, &dir);
        let run = session.prepare(&q.plan).expect("prepare");
        assert_eq!(!run.statement().query().has_ir(), found, "{what}");
        let c = store_of(&session).counters();
        assert_eq!(
            (c.statement_hits, c.statement_misses, c.statement_rejected),
            (u64::from(found), u64::from(!found), 0),
            "{what}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A record whose header matches but whose text differs (checksum
    // made to fit) is rejected: the text is compared in full.
    let dir = fresh_dir("keys-text");
    compile(&store_session(&db, &dir), &q.plan, &backend);
    let (segment, mut bytes, span) = the_statement_record(&dir);
    let payload = span.start + 48..span.end;
    bytes[payload.start + 8] ^= 0x20;
    let checksum = qc_ir::fnv1a_64(&bytes[payload.clone()]);
    bytes[span.start + 40..span.start + 48].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&segment, &bytes).expect("re-write segment");
    let session = store_session(&db, &dir);
    let run = session.prepare(&q.plan).expect("prepare");
    assert!(run.statement().query().has_ir());
    let c = store_of(&session).counters();
    assert_eq!((c.statement_hits, c.statement_rejected), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_or_garbage_record_tail_is_rejected_once() {
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[0];
    let backend = native_backend();
    let want = expected(&db, &q.plan);
    // (tail, statement records rejected, found by the restart)
    let tails: [(&str, u64, bool); 3] = [
        ("half payload", 1, false),
        ("half header", 0, false),
        ("garbage", 0, true),
    ];
    for (tail, rejected, found) in tails {
        let dir = fresh_dir(&format!("tail-{}", tail.replace(' ', "-")));
        compile(&store_session(&db, &dir), &q.plan, &backend);
        let (segment, mut bytes, span) = the_statement_record(&dir);
        match tail {
            "half payload" => bytes.truncate(span.end - 5),
            "half header" => bytes.truncate(span.start + 20),
            _ => bytes.extend(std::iter::repeat_n(0x5A, 100)),
        }
        std::fs::write(&segment, &bytes).expect("re-write segment");

        let warm = store_session(&db, &dir);
        let run = warm
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(&backend));
        assert_eq!(!run.statement().query().has_ir(), found, "{tail}");
        let mut compiled = run.compile().expect("compile");
        assert_eq!(rows(&warm, &q.plan, &mut compiled), want, "{tail}");
        let c = store_of(&warm).counters();
        assert_eq!(c.statement_rejected, rejected, "{tail}");
        assert_eq!(c.statement_writes, u64::from(!found), "{tail}: rewritten");
        assert_eq!((c.misses, c.writes), (0, 0), "{tail}: artifacts intact");
        drop(warm);

        let report = ArtifactStore::open(ArtifactStoreConfig::at(&dir)).fsck();
        let (corrupt, superseded) = match tail {
            "half payload" => (0, 1),
            _ => (1, 0),
        };
        assert_eq!(
            (report.corrupt, report.superseded),
            (corrupt, superseded),
            "{tail}"
        );
        assert_eq!(report.statements, 1, "{tail}");

        // Rejected once: the next restart finds the rewritten record.
        let again = store_session(&db, &dir);
        let run = again
            .prepare(&q.plan)
            .expect("prepare")
            .backend(Arc::clone(&backend));
        assert!(!run.statement().query().has_ir(), "{tail}");
        let c = store_of(&again).counters();
        assert_eq!((c.statement_hits, c.statement_rejected), (1, 0), "{tail}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn racing_writers_publish_no_torn_statement_record() {
    const WRITERS: usize = 4;
    const RECORDS: usize = 50;
    let dir = fresh_dir("race");
    let text = |w: usize, r: usize| format!("statement {w}/{r} {}", "x".repeat(r));
    let hashes = |w: usize, r: usize| -> Vec<u64> {
        (0..r as u64 % 7 + 1).map(|h| h * 31 + w as u64).collect()
    };
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (dir, text, hashes) = (&dir, &text, &hashes);
            s.spawn(move || {
                let store = ArtifactStore::open(ArtifactStoreConfig::at(dir));
                for r in 0..RECORDS {
                    let text = text(w, r);
                    let key = StatementKey {
                        text: &text,
                        schemas: 7,
                        stamp: FRONTEND_STAMP,
                    };
                    store.store_statement(&key, &hashes(w, r));
                }
            });
        }
    });
    let reader = ArtifactStore::open(ArtifactStoreConfig::at(&dir));
    assert_eq!(
        reader.fsck(),
        FsckReport {
            statements: WRITERS * RECORDS,
            ..FsckReport::default()
        }
    );
    assert_eq!(segments(&dir).len(), WRITERS, "one segment per writer");
    for w in 0..WRITERS {
        for r in 0..RECORDS {
            let text = text(w, r);
            let key = StatementKey {
                text: &text,
                schemas: 7,
                stamp: FRONTEND_STAMP,
            };
            assert_eq!(reader.load_statement(&key), Some(hashes(w, r)), "{w}/{r}");
        }
    }
    let c = reader.counters();
    assert_eq!((c.statement_rejected, c.hits, c.writes), (0, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_and_scheduler_admission_use_records() {
    let dir = fresh_dir("admission");
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let picks: Vec<_> = suite.iter().take(4).collect();
    let backend = native_backend();
    let cold = store_session(&db, &dir);
    for q in &picks {
        compile(&cold, &q.plan, &backend);
    }
    drop(cold);

    // A restarted session reopened over another snapshot prepares from
    // the records its shared store holds.
    let restarted = store_session(&db, &dir);
    let db2 = qc_storage::gen_hlike(0.02);
    let reopened = restarted.reopen(&db2);
    let q = picks[0];
    let run = reopened
        .prepare(&q.plan)
        .expect("prepare")
        .backend(Arc::clone(&backend));
    let mut compiled = run.compile().expect("compile");
    assert!(!run.statement().query().has_ir());
    assert_eq!(
        rows(&reopened, &q.plan, &mut compiled),
        expected(&db2, &q.plan)
    );
    assert_eq!(store_of(&restarted).counters().statement_hits, 1);
    drop((reopened, restarted));

    // The scheduler admits through the same statement cache.
    let served = store_session(&db, &dir);
    let requests = picks
        .iter()
        .map(|q| SessionRequest::new(q.name.clone(), q.plan.clone()))
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&served, &backend, requests);
    for (outcome, q) in report.outcomes.iter().zip(&picks) {
        assert_eq!(outcome.status, OutcomeStatus::Ok, "{:?}", outcome.error);
        assert_eq!(reference::normalize(&outcome.rows), expected(&db, &q.plan));
        let statement = served.statement(&q.plan).expect("cached");
        assert!(!statement.query().has_ir(), "{}", q.name);
    }
    let c = store_of(&served).counters();
    assert_eq!(
        (c.statement_hits, c.statement_misses),
        (picks.len() as u64, 0)
    );
    assert_eq!((c.misses, c.writes), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restarted session's tier-up compile is a statement's background
/// job like any other: it keys the cache from the record's hashes on a
/// pool worker and finds both tiers on disk, so the statement still has
/// no IR after a serve that tiered it up.
#[test]
fn a_tier_up_after_a_restart_generates_no_ir() {
    let dir = fresh_dir("tier-up");
    let db = qc_storage::gen_hlike(2.0);
    let q = &qc_workloads::hlike_suite()[0];
    let first = native_backend();
    let optimized: Arc<dyn Backend> = Arc::from(backends::lvm_opt(Isa::Tx64));
    let cold = store_session(&db, &dir);
    for tier in [&first, &optimized] {
        compile(&cold, &q.plan, tier);
    }
    drop(cold);

    // Small morsels, one per slice: the query runs long past its
    // tier-up compile.
    let mut config = SessionConfig::with_artifact_store(ArtifactStoreConfig::at(&dir));
    config.engine.morsel_size = 16;
    let restarted = Session::with_config(&db, config);
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 1,
        morsel_credits: 1,
        tier_up_backend: Some(optimized),
        ..Default::default()
    })
    .expect("valid scheduler config");
    let request = SessionRequest::new(q.name.clone(), q.plan.clone());
    let report = scheduler.serve_session(&restarted, &first, vec![request]);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Ok, "{:?}", outcome.error);
    assert!(outcome.tiered_up, "{}: no tier-up", q.name);
    assert_eq!(reference::normalize(&outcome.rows), expected(&db, &q.plan));
    let statement = restarted.statement(&q.plan).expect("cached");
    assert!(!statement.query().has_ir(), "{}: IR generated", q.name);
    let c = store_of(&restarted).counters();
    assert_eq!((c.statement_hits, c.misses, c.writes), (1, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_direct_path_and_a_passthrough_store_write_no_record() {
    let db = qc_storage::gen_hlike(0.02);
    let q = &qc_workloads::hlike_suite()[0];
    let backend = native_backend();

    let dir = fresh_dir("direct");
    let session = store_session(&db, &dir);
    let run = session.prepare(&q.plan).expect("prepare");
    run.backend(Arc::clone(&backend))
        .direct()
        .compile()
        .expect("compile");
    let c = store_of(&session).counters();
    assert_eq!((c.statement_writes, c.writes), (0, 0), "{c:?}");
    assert_eq!(c.statement_misses, 1, "the prepare looked");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);

    let blocker = std::env::temp_dir().join(format!("qc-records-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let session = store_session(&db, &blocker.join("store"));
    assert!(!store_of(&session).is_enabled());
    compile(&session, &q.plan, &backend);
    let c = store_of(&session).counters();
    let records = (
        c.statement_hits,
        c.statement_misses,
        c.statement_writes,
        c.statement_rejected,
    );
    assert_eq!(
        records,
        (0, 0, 0, 0),
        "a pass-through store reads no record"
    );
    let _ = std::fs::remove_file(&blocker);
}
