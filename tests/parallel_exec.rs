//! Parallel-execution determinism suite: the morsel-parallel executor
//! must produce byte-identical rows to the single-threaded engine for
//! every worker count and schedule. (Cycle totals are exactly
//! serial at one worker and reproducible under the static schedule;
//! see the `morsel_exec` module docs for the full cycle story.)

use qc_engine::{
    backends, EngineConfig, MorselSchedule, QueryScheduler, SchedulerConfig, Session,
    SessionConfig, SessionRequest,
};
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;

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
                .schedule(MorselSchedule::Stealing)
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
            .schedule(MorselSchedule::Static)
            .execute_compiled(&mut compiled)
            .expect("static parallel run");
        cycles.push(result.exec_stats.cycles);
        critical.push(result.critical_path_cycles);
    }
    assert_eq!(cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[2]);
    assert_eq!(critical[0], critical[1]);
    assert_eq!(critical[1], critical[2]);
    // With 16-row morsels spread statically over 4 workers the
    // model-time critical path is strictly shorter than the serial
    // cycle total.
    assert!(
        critical[0] < cycles[0],
        "4-worker static schedule should shorten the critical path \
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
