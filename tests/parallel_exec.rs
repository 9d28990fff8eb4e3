//! Parallel-execution determinism suite: the morsel-parallel executor
//! must produce byte-identical rows to the single-threaded engine for
//! every worker count. (Cycle totals are exactly serial at one worker
//! and reproducible at every worker count, because worker `w` of `n`
//! always runs the same stride of morsels; see the `morsel_exec`
//! module docs for the full cycle story.)

use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, Executable};
use qc_engine::{
    backends, EngineConfig, QueryScheduler, SchedulerConfig, Session, SessionConfig, SessionRequest,
};
use qc_ir::Module;
use qc_plan::{col, AggFunc, PlanNode};
use qc_runtime::RuntimeState;
use qc_storage::{Column, ColumnType, Database, Schema, Table};
use qc_target::{ExecStats, Isa, Trap};
use qc_timing::TimeTrace;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

#[test]
fn rows_byte_identical_across_worker_counts() {
    let db = qc_storage::gen_hlike(0.02);
    // Tiny morsels: hlike tables at sf 0.02 have ~10–120 rows, so 16
    // rows per morsel makes every scan split across workers.
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 16 },
            ..Default::default()
        },
    );
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let trace = TimeTrace::disabled();
    for q in qc_workloads::hlike_suite() {
        let serial = session
            .prepare(&q.plan)
            .map(|run| run.backend(Arc::clone(&backend)))
            .and_then(|run| run.execute())
            .unwrap_or_else(|e| panic!("serial {} failed: {e}", q.name));
        let stmt = session.statement(&q.plan).expect("prepare");
        for workers in [1usize, 2, 8] {
            let run = session
                .run(stmt.clone())
                .backend(Arc::clone(&backend))
                .trace(&trace)
                .direct();
            let mut compiled = run.compile().expect("compile");
            let result = run
                .workers(workers)
                .execute_compiled(&mut compiled)
                .unwrap_or_else(|e| panic!("{} at {workers} workers failed: {e}", q.name));
            assert_eq!(
                result.rows, serial.rows,
                "{} rows diverged at {workers} workers",
                q.name
            );
            if workers == 1 {
                // One worker is the exact serial path, cycles included.
                assert_eq!(
                    result.exec_stats.cycles, serial.exec_stats.cycles,
                    "{} single-worker cycles diverged",
                    q.name
                );
                assert_eq!(
                    result.critical_path_cycles, result.exec_stats.cycles,
                    "{} serial critical path must equal total cycles",
                    q.name
                );
            } else {
                // The critical path never exceeds the total charged
                // work; when morsels actually spread across workers it
                // is strictly shorter (model-time speedup).
                assert!(
                    result.critical_path_cycles <= result.exec_stats.cycles,
                    "{} critical path exceeds total cycles at {workers} workers",
                    q.name
                );
            }
        }
    }
}

#[test]
fn static_schedule_cycles_are_reproducible() {
    let db = qc_storage::gen_hlike(0.02);
    // 16-row morsels split the 120-row lineitem scan into 8 morsels.
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 16 },
            ..Default::default()
        },
    );
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let trace = TimeTrace::disabled();
    let q = &qc_workloads::hlike_suite()[0];
    let stmt = session.statement(&q.plan).expect("prepare");
    let mut cycles = Vec::new();
    let mut critical = Vec::new();
    for _ in 0..3 {
        let run = session
            .run(stmt.clone())
            .backend(Arc::clone(&backend))
            .trace(&trace)
            .direct();
        let mut compiled = run.compile().expect("compile");
        let result = run
            .workers(4)
            .execute_compiled(&mut compiled)
            .expect("parallel run");
        cycles.push(result.exec_stats.cycles);
        critical.push(result.critical_path_cycles);
    }
    assert_eq!(cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[2]);
    assert_eq!(critical[0], critical[1]);
    assert_eq!(critical[1], critical[2]);
    // With 16-row morsels spread over 4 workers the model-time
    // critical path is strictly shorter than the serial cycle total.
    assert!(
        critical[0] < cycles[0],
        "4 workers should shorten the critical path \
         (critical {} vs total {})",
        critical[0],
        cycles[0]
    );
}

#[test]
fn scheduler_rows_match_serial_for_every_session() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let suite = qc_workloads::hlike_suite();
    let shapes = &suite[..6];

    // 18 sessions over 6 shapes through 3 serving workers, with the
    // background tier-up governor active.
    let requests: Vec<SessionRequest> = (0..18)
        .map(|i| {
            let q = &shapes[i % shapes.len()];
            SessionRequest::new(q.name.clone(), q.plan.clone())
        })
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 3,
        admission_limit: 4,
        morsel_credits: 2,
        tier_up_backend: Some(Arc::from(backends::lvm_cheap(Isa::Tx64))),
        tier_up_inflight: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &backend, requests);

    assert_eq!(report.outcomes.len(), 18);
    assert_eq!(report.failures(), 0, "no session may fail");
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let q = &shapes[i % shapes.len()];
        assert_eq!(outcome.name, q.name, "outcomes keep submission order");
        let serial = session
            .prepare(&q.plan)
            .map(|run| run.backend(Arc::clone(&backend)))
            .and_then(|run| run.execute())
            .expect("serial reference");
        assert_eq!(
            outcome.rows, serial.rows,
            "session {} diverged from serial rows",
            outcome.name
        );
    }
    assert!(report.utilization() <= 1.0);
    // Shared cache: 6 shapes, 18 sessions — at least the repeats hit.
    assert!(
        session.compile_service().cache_stats().hits > 0,
        "repeated shapes must hit the shared code cache"
    );
}

/// `fact(k, v)` with 48 morsels of rows and `dim(dk, w)` with eight, at
/// 16-row morsels.
fn fact_and_dim() -> Database {
    let ints = |n: i64, f: fn(i64) -> i64| Column::I64((0..n).map(f).collect());
    let two_i64 = |a: &'static str, b: &'static str| {
        Schema::new(vec![(a, ColumnType::I64), (b, ColumnType::I64)])
    };
    let mut db = Database::new();
    db.add_table(Table::new(
        "fact",
        two_i64("k", "v"),
        vec![
            ints(48 * 16, |i| i * 13 % 97),
            ints(48 * 16, |i| i * 7 % 101),
        ],
    ));
    db.add_table(Table::new(
        "dim",
        two_i64("dk", "w"),
        vec![ints(128, |i| i), ints(128, |i| i % 5 + 1)],
    ));
    db
}

fn tiny_morsels(db: &Database) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 16 },
            ..Default::default()
        },
    )
}

/// Three of the four pipelines fan out: the `dim` scan builds a join
/// table, a `fact` scan feeds an integer group-by, and the probing
/// `fact` scan writes the output. (The group buffer's join build is one
/// morsel and stays serial.)
fn fan_out_plan() -> PlanNode {
    let groups = PlanNode::scan("fact", &["k", "v"])
        .map(vec![("gk", col("k")), ("gv", col("v"))])
        .group_by(
            &["gk"],
            vec![("n", AggFunc::CountStar), ("s", AggFunc::Sum(col("gv")))],
        );
    PlanNode::scan("fact", &["k", "v"])
        .hash_join(PlanNode::scan("dim", &["dk", "w"]), &["k"], &["dk"], &["w"])
        .hash_join(groups, &["k"], &["gk"], &["n", "s"])
}

/// With the default configuration, a fanned-out query is reproducible
/// to the cycle: rows, `exec_stats` and `critical_path_cycles` do not
/// depend on how the threads happened to interleave.
#[test]
fn default_fan_out_is_reproducible_to_the_cycle() {
    let db = fact_and_dim();
    let session = tiny_morsels(&db);
    let plan = fan_out_plan();
    let backend: Arc<dyn Backend> = Arc::from(backends::clift(Isa::Tx64));
    let serial = session
        .prepare(&plan)
        .and_then(|run| run.backend(Arc::clone(&backend)).execute())
        .expect("serial run");
    assert_eq!(
        serial.rows.len(),
        48 * 16,
        "every fact row finds its groups"
    );
    for workers in [2usize, 4] {
        let runs: Vec<_> = (0..3)
            .map(|_| {
                session
                    .prepare(&plan)
                    .and_then(|run| run.backend(Arc::clone(&backend)).workers(workers).execute())
                    .unwrap_or_else(|e| panic!("{workers} workers: {e}"))
            })
            .collect();
        for r in &runs {
            assert_eq!(r.rows, serial.rows, "{workers} workers: rows diverged");
            assert_eq!(
                (r.exec_stats, r.critical_path_cycles),
                (runs[0].exec_stats, runs[0].critical_path_cycles),
                "{workers} workers: cycles depend on thread timing"
            );
        }
        assert!(runs[0].critical_path_cycles < runs[0].exec_stats.cycles);
    }
}

/// Wraps a back-end so each executable logs the thread of every `main`
/// call into one shared list.
struct MainThreads {
    inner: Box<dyn Backend>,
    log: Arc<Mutex<Vec<ThreadId>>>,
}

struct MainThreadsArtifact {
    inner: Box<dyn CodeArtifact>,
    log: Arc<Mutex<Vec<ThreadId>>>,
}

struct MainThreadsExecutable {
    inner: Box<dyn Executable>,
    log: Arc<Mutex<Vec<ThreadId>>>,
}

impl Backend for MainThreads {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn config_fingerprint(&self) -> u64 {
        // Never share cache entries with the plain back-end.
        self.inner.config_fingerprint() ^ 0x7468_7265_6164
    }

    fn link_phase(&self) -> &'static str {
        self.inner.link_phase()
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        Ok(self.inner.compile_artifact(module, trace)?.map(|inner| {
            Box::new(MainThreadsArtifact {
                inner,
                log: Arc::clone(&self.log),
            }) as Box<dyn CodeArtifact>
        }))
    }
}

impl CodeArtifact for MainThreadsArtifact {
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
        Ok(Box::new(MainThreadsExecutable {
            inner: self.inner.instantiate()?,
            log: Arc::clone(&self.log),
        }))
    }

    fn compile_stats(&self) -> &CompileStats {
        self.inner.compile_stats()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.inner.content_bytes()
    }
}

impl Executable for MainThreadsExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        if name == "main" {
            let mut log = self.log.lock().expect("thread log");
            log.push(std::thread::current().id());
        }
        self.inner.call(state, name, args)
    }

    fn exec_stats(&self) -> ExecStats {
        self.inner.exec_stats()
    }

    fn code_bytes(&self) -> usize {
        self.inner.code_bytes()
    }
}

/// At two workers the calling thread is worker 0: a fanned-out
/// pipeline's morsels run on exactly two threads, the caller's and one
/// spawned, and no thread only coordinates.
#[test]
fn the_calling_thread_runs_worker_zero() {
    let db = fact_and_dim();
    let session = tiny_morsels(&db);
    let log = Arc::new(Mutex::new(Vec::new()));
    let backend: Arc<dyn Backend> = Arc::new(MainThreads {
        inner: backends::clift(Isa::Tx64),
        log: Arc::clone(&log),
    });
    // One pipeline: every `main` call is one of its 48 morsels.
    let plan = PlanNode::scan("fact", &["k", "v"]).filter(col("v").ge(qc_plan::lit_i64(50)));
    let run = session.prepare(&plan).expect("prepare");
    let run = run.backend(backend).workers(2);
    let mut compiled = run.compile().expect("compile");
    log.lock().expect("thread log").clear();
    run.execute_compiled(&mut compiled).expect("parallel run");
    let log = log.lock().expect("thread log");
    assert_eq!(log.len(), 48, "one `main` call per morsel");
    let threads: HashSet<ThreadId> = log.iter().copied().collect();
    assert_eq!(threads.len(), 2, "two workers, two threads: {threads:?}");
    assert!(
        threads.contains(&std::thread::current().id()),
        "the calling thread ran no morsel"
    );
}
