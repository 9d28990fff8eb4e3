//! Execution-side fault-tolerance suite: query budgets (deadline,
//! cycle/row caps, cancellation), morsel-worker panic isolation, and
//! the serving scheduler's per-tier circuit breaker — all driven by the deterministic [`ChaosExecBackend`] so
//! the faults land *inside* morsel execution. One breaker test injects
//! compile faults with a [`ChaosBackend`] instead: a failing compile
//! walks the breaker's chain and trips the failing tier's breaker.
//!
//! The headline acceptance test serves 1024 sessions with ~10% of
//! morsel calls panicking: the process must survive every panic, every
//! outcome must be accounted for in the [`ServeReport`], and every
//! surviving result must be byte-identical to the serial reference.

use qc_backend::chaos::{ChaosBackend, ChaosExecBackend, ChaosFault, ExecFault};
use qc_engine::{
    backends, BreakerPolicy, CancelToken, EngineConfig, EngineError, FallbackChain, OutcomeStatus,
    QueryBudget, QueryScheduler, SchedulerConfig, Session, SessionConfig, SessionRequest,
};
use qc_storage::{Column, Database, Schema, Table};
use qc_target::Isa;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Keeps injected-panic backtraces out of the test output; every other
/// panic still reports through the default hook.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.contains("chaos: injected")) {
                default_hook(info);
            }
        }));
    });
}

fn small_morsel_session(db: &Database) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 16 },
            ..Default::default()
        },
    )
}

fn clean_clift() -> Arc<dyn qc_backend::Backend> {
    Arc::from(backends::clift(Isa::Tx64))
}

// ---------------------------------------------------------------------
// Query budgets: typed errors, partial accounting, one-morsel stop.
// ---------------------------------------------------------------------

#[test]
fn cycle_budget_trips_with_typed_error_and_partial_tally() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let backend = clean_clift();
    let q = &qc_workloads::hlike_suite()[0];

    let full = session
        .prepare(&q.plan)
        .and_then(|run| run.backend(Arc::clone(&backend)).execute())
        .expect("unbudgeted run")
        .exec_stats
        .cycles;
    assert!(full > 0);

    for workers in [1usize, 4] {
        let err = session
            .prepare(&q.plan)
            .map(|run| {
                run.backend(Arc::clone(&backend))
                    .workers(workers)
                    .query_budget(QueryBudget::unlimited().with_max_cycles(1))
            })
            .and_then(|run| run.execute())
            .expect_err("a 1-cycle budget must trip");
        match err {
            EngineError::BudgetExhausted {
                what,
                used,
                limit,
                partial,
            } => {
                assert_eq!(what, "model cycles");
                assert_eq!(limit, 1);
                assert!(used >= limit, "trip reports at least the limit");
                assert!(partial.cycles > 0, "partial work must be accounted");
                // The budget is checked at every morsel claim, so the
                // query stops within one morsel of tripping: far below
                // the full query's cost on this many-morsel plan.
                assert!(
                    partial.cycles < full / 2,
                    "stopped at {} of {full} cycles at {workers} workers — \
                     more than one morsel late",
                    partial.cycles
                );
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }
}

#[test]
fn zero_deadline_trips_before_any_morsel() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let q = &qc_workloads::hlike_suite()[0];
    let err = session
        .prepare(&q.plan)
        .map(|run| {
            run.backend(clean_clift())
                .query_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO))
        })
        .and_then(|run| run.execute())
        .expect_err("a zero deadline must trip");
    match err {
        EngineError::DeadlineExceeded { limit, .. } => assert_eq!(limit, Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn pre_cancelled_token_stops_query() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let q = &qc_workloads::hlike_suite()[0];
    let token = CancelToken::new();
    token.cancel();
    for workers in [1usize, 4] {
        let err = session
            .prepare(&q.plan)
            .map(|run| {
                run.backend(clean_clift())
                    .workers(workers)
                    .query_budget(QueryBudget::unlimited().cancelled_by(token.clone()))
            })
            .and_then(|run| run.execute())
            .expect_err("a cancelled token must stop the query");
        assert!(
            matches!(err, EngineError::Cancelled { .. }),
            "expected Cancelled at {workers} workers, got {err}"
        );
    }
}

#[test]
fn row_cap_trips_on_producing_query() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let backend = clean_clift();
    // Find a suite query that returns rows, then cap below its output.
    let suite = qc_workloads::hlike_suite();
    let q = suite
        .iter()
        .find(|q| {
            session
                .prepare(&q.plan)
                .and_then(|run| run.backend(Arc::clone(&backend)).execute())
                .is_ok_and(|r| !r.rows.is_empty())
        })
        .expect("some suite query returns rows");
    let err = session
        .prepare(&q.plan)
        .map(|run| {
            run.backend(Arc::clone(&backend))
                .query_budget(QueryBudget::unlimited().with_max_rows(0))
        })
        .and_then(|run| run.execute())
        .expect_err("a zero row cap must trip");
    match err {
        EngineError::BudgetExhausted { what, .. } => assert_eq!(what, "result rows"),
        other => panic!("expected BudgetExhausted on rows, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Morsel-worker panic isolation.
// ---------------------------------------------------------------------

#[test]
fn worker_panic_is_isolated_and_result_stays_byte_identical() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let clean = clean_clift();
    let (mut recovered, mut contained) = (0usize, 0usize);
    for q in &qc_workloads::hlike_suite()[..4] {
        let serial = session
            .prepare(&q.plan)
            .and_then(|run| run.backend(Arc::clone(&clean)).execute())
            .unwrap_or_else(|e| panic!("serial {} failed: {e}", q.name));
        // One injected panic somewhere in the morsel stream. Faults
        // landing in a *parallel* pipeline are recovered: the poisoned
        // worker's lost morsels are replayed by the retry pass and the
        // merged result must not change at all. Faults landing in a
        // serial section (serial-fallback pipeline, canonical
        // setup/finish) have no surviving worker to replay onto, so
        // the contract there is containment: a typed `WorkerPanic`,
        // never a process crash.
        for nth in [0u64, 2, 5] {
            let chaos = Arc::new(ChaosExecBackend::on_nth(
                Arc::clone(&clean),
                nth,
                ExecFault::Panic,
            ));
            let backend: Arc<dyn qc_backend::Backend> = chaos.clone() as _;
            match session
                .prepare(&q.plan)
                .and_then(|run| run.backend(backend).workers(4).execute())
            {
                Ok(result) => {
                    assert_eq!(
                        result.rows, serial.rows,
                        "{} rows diverged after panic recovery (call {nth})",
                        q.name
                    );
                    // Short queries may not reach the nth call at all;
                    // only runs where the fault actually fired count as
                    // recoveries.
                    if chaos.injected() == 1 {
                        recovered += 1;
                    }
                }
                Err(EngineError::WorkerPanic(msg)) => {
                    assert!(
                        msg.contains("chaos: injected"),
                        "{} surfaced a foreign panic: {msg}",
                        q.name
                    );
                    contained += 1;
                }
                Err(other) => {
                    panic!("{} must contain a panic on call {nth}, got {other}", q.name)
                }
            }
            assert!(chaos.injected() <= 1, "at most one fault scheduled");
        }
    }
    // The suite must exercise the recovery path, not just containment:
    // the wide scan shapes decompose into parallel morsel pipelines
    // where the retry pass fully replays the lost work.
    assert!(
        recovered >= 3,
        "expected the parallel retry pass to recover several runs \
         (recovered {recovered}, contained {contained})"
    );
}

#[test]
fn always_panicking_execution_fails_cleanly() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let backend: Arc<dyn qc_backend::Backend> =
        Arc::new(ChaosExecBackend::always(clean_clift(), ExecFault::Panic));
    let q = &qc_workloads::hlike_suite()[0];
    for workers in [1usize, 4] {
        let err = session
            .prepare(&q.plan)
            .and_then(|run| run.backend(Arc::clone(&backend)).workers(workers).execute())
            .expect_err("all-panic execution must fail, not crash");
        assert!(
            matches!(err, EngineError::WorkerPanic(_)),
            "expected WorkerPanic at {workers} workers, got {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Serving path: the 1024-session chaos acceptance test.
// ---------------------------------------------------------------------

#[test]
fn serving_1024_sessions_under_execution_chaos() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 64 },
            ..Default::default()
        },
    );
    let suite = qc_workloads::hlike_suite();
    let clean = clean_clift();

    // Serial reference, one result per distinct shape.
    let mut reference: HashMap<String, Vec<Vec<qc_runtime::SqlValue>>> = HashMap::new();
    for q in &suite {
        let result = session
            .prepare(&q.plan)
            .and_then(|run| run.backend(Arc::clone(&clean)).execute())
            .unwrap_or_else(|e| panic!("serial reference {} failed: {e}", q.name));
        reference.insert(q.name.clone(), result.rows);
    }

    // ~10% of morsel calls panic, on a schedule fixed by the seed.
    let chaos = Arc::new(ChaosExecBackend::seeded(
        Arc::clone(&clean),
        0x5EED,
        100,
        ExecFault::Panic,
    ));
    let backend: Arc<dyn qc_backend::Backend> = chaos.clone() as _;
    let total = 1024usize;
    let requests: Vec<SessionRequest> = (0..total)
        .map(|i| {
            let q = &suite[i % suite.len()];
            SessionRequest::new(q.name.clone(), q.plan.clone())
        })
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 4,
        admission_limit: 8,
        morsel_credits: 4,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &backend, requests);

    // Reaching this line at all means no injected panic escaped the
    // containment layers and killed the process.
    assert!(chaos.injected() > 0, "the chaos schedule must have fired");
    assert_eq!(report.outcomes.len(), total);

    let ok = report
        .outcomes
        .iter()
        .filter(|o| o.status == OutcomeStatus::Ok)
        .count();
    // Every outcome is accounted for exactly once in the breakdown.
    assert_eq!(
        ok + report.failed() + report.killed(),
        total,
        "statuses must partition the batch"
    );
    assert_eq!(report.killed(), 0, "no budgets configured");
    assert_eq!(report.failures(), report.failed());
    assert!(ok > 0, "some sessions must survive 10% injection");
    assert!(
        report.failed() > 0,
        "10% injection over {total} sessions must fail some"
    );

    for (i, o) in report.outcomes.iter().enumerate() {
        let q = &suite[i % suite.len()];
        assert_eq!(o.name, q.name, "outcomes keep submission order");
        match o.status {
            OutcomeStatus::Ok => {
                assert!(o.error.is_none());
                assert_eq!(
                    o.rows, reference[&o.name],
                    "surviving session {i} ({}) diverged from serial rows",
                    o.name
                );
            }
            OutcomeStatus::Failed => {
                let err = o.error.as_deref().expect("failed outcome carries error");
                assert!(
                    err.contains("chaos: injected"),
                    "session {i} failed for a non-injected reason: {err}"
                );
                assert!(o.rows.is_empty(), "failed sessions return no rows");
            }
            other => panic!("unexpected status {other:?} for session {i}"),
        }
    }
}

// ---------------------------------------------------------------------
// Per-tier circuit breaker.
// ---------------------------------------------------------------------

/// Serializes serving (1 worker, admission 1) so the chaos schedule's
/// global call index maps deterministically onto sessions.
fn serial_scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        admission_limit: 1,
        morsel_credits: 1,
        ..Default::default()
    }
}

#[test]
fn breaker_trips_and_reroutes_admissions_down_the_chain() {
    let db = qc_storage::gen_hlike(0.02);
    let suite = qc_workloads::hlike_suite();
    let plan = &suite[0].plan;
    let serial = Session::new(&db)
        .prepare(plan)
        .and_then(|run| run.backend(clean_clift()).execute())
        .expect("serial run");

    // Every morsel call on the primary tier traps; after two
    // consecutive execution faults the breaker opens and later
    // admissions route to the interpreter tier instead.
    let chaos: Arc<dyn qc_backend::Backend> =
        Arc::new(ChaosExecBackend::always(clean_clift(), ExecFault::Trap(7)));
    let session = Session::new(&db);
    let requests: Vec<SessionRequest> = (0..5)
        .map(|i| SessionRequest::new(format!("s{i}"), plan.clone()))
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        breaker: Some(BreakerPolicy {
            trip_after: 2,
            cooldown: Duration::from_secs(600),
            chain: FallbackChain::new(vec![Arc::from(backends::interpreter())]),
        }),
        ..serial_scheduler_config()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &chaos, requests);

    assert_eq!(report.breaker_trips, 1, "one trip after two faults");
    assert_eq!(report.failed(), 2, "the two pre-trip sessions fail");
    for o in &report.outcomes[..2] {
        assert_eq!(o.status, OutcomeStatus::Failed);
        assert!(
            o.error.as_deref().is_some_and(|e| e.contains("trap")),
            "pre-trip failure is the injected trap: {:?}",
            o.error
        );
    }
    for o in &report.outcomes[2..] {
        assert_eq!(o.status, OutcomeStatus::Ok, "rerouted session {}", o.name);
        assert_eq!(
            o.rows, serial.rows,
            "rerouted session {} must match serial rows",
            o.name
        );
    }
}

/// A tier whose every compile fails degrades each admission down the
/// breaker's chain instead of failing it, and its compile faults trip
/// its breaker: after `trip_after` doomed compiles no admission pays
/// for another. Without a breaker every request fails on its one tier.
#[test]
fn a_failing_compile_walks_the_chain_and_trips_the_breaker() {
    const N: usize = 6;
    let db = qc_storage::gen_hlike(0.02);
    let plan = &qc_workloads::hlike_suite()[0].plan;
    let expected = qc_plan::reference::execute(plan, &db).expect("reference");
    let requests = || {
        (0..N)
            .map(|i| SessionRequest::new(format!("s{i}"), plan.clone()))
            .collect::<Vec<_>>()
    };
    for with_breaker in [true, false] {
        let chaos = Arc::new(ChaosBackend::always(
            clean_clift(),
            ChaosFault::PermanentError,
        ));
        let top: Arc<dyn qc_backend::Backend> = Arc::clone(&chaos) as _;
        let breaker = with_breaker.then(|| BreakerPolicy {
            trip_after: 2,
            cooldown: Duration::from_secs(600),
            chain: FallbackChain::new(vec![Arc::clone(&top), Arc::from(backends::interpreter())]),
        });
        let scheduler = QueryScheduler::try_new(SchedulerConfig {
            breaker,
            ..serial_scheduler_config()
        })
        .expect("valid scheduler config");
        let session = Session::new(&db);
        let modules = session
            .statement(plan)
            .expect("prepare")
            .query()
            .ir
            .modules
            .len() as u64;
        let report = scheduler.serve_session(&session, &top, requests());
        if with_breaker {
            for o in &report.outcomes {
                assert_eq!(o.status, OutcomeStatus::Ok, "{}: {:?}", o.name, o.error);
                assert_eq!(o.tier, "Interpreter", "{} served on the floor tier", o.name);
                assert_eq!(
                    qc_plan::reference::normalize(&o.rows),
                    qc_plan::reference::normalize(&expected),
                    "{}",
                    o.name
                );
            }
            assert_eq!(report.breaker_trips, 1);
            assert_eq!(chaos.calls(), 2 * modules, "two doomed compiles, then none");
        } else {
            assert_eq!(report.failed(), N, "no breaker: every compile fault fails");
            assert!(report.outcomes.iter().all(|o| o.tier == "Clift"));
            assert_eq!(report.breaker_trips, 0);
            assert_eq!(chaos.calls(), N as u64 * modules);
        }
    }
}

// ---------------------------------------------------------------------
// Budgets through the scheduler.
// ---------------------------------------------------------------------

#[test]
fn per_request_budget_kills_only_that_session() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let suite = qc_workloads::hlike_suite();
    let plan = &suite[0].plan;
    let requests: Vec<SessionRequest> = (0..4)
        .map(|i| {
            let req = SessionRequest::new(format!("s{i}"), plan.clone());
            if i == 2 {
                req.with_budget(QueryBudget::unlimited().with_max_cycles(1))
            } else {
                req
            }
        })
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &clean_clift(), requests);
    assert_eq!(report.killed(), 1);
    assert_eq!(report.failed(), 0);
    assert_eq!(report.outcomes[2].status, OutcomeStatus::Killed);
    for (i, o) in report.outcomes.iter().enumerate() {
        if i != 2 {
            assert_eq!(o.status, OutcomeStatus::Ok, "unbudgeted session {i}");
        }
    }
}

/// A budget is a request's own: every request that carries a cycle
/// cap is killed by it.
#[test]
fn scheduler_default_budget_applies_to_every_request() {
    let db = qc_storage::gen_hlike(0.02);
    let session = small_morsel_session(&db);
    let suite = qc_workloads::hlike_suite();
    let requests: Vec<SessionRequest> = (0..3)
        .map(|i| {
            SessionRequest::new(format!("s{i}"), suite[0].plan.clone())
                .with_budget(QueryBudget::unlimited().with_max_cycles(1))
        })
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &clean_clift(), requests);
    assert_eq!(report.killed(), 3, "every request's own budget kills it");
}

// ---------------------------------------------------------------------
// Satellites: admission edge cases and configuration validation.
// ---------------------------------------------------------------------

#[test]
fn admission_limit_one_still_serves_everything() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let requests: Vec<SessionRequest> = (0..6)
        .map(|i| {
            let q = &suite[i % suite.len()];
            SessionRequest::new(q.name.clone(), q.plan.clone())
        })
        .collect();
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        admission_limit: 1,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let report = scheduler.serve_session(&session, &clean_clift(), requests);
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.failures(), 0);
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.status == OutcomeStatus::Ok));
}

#[test]
fn zero_morsel_empty_table_query_completes() {
    use qc_plan::{col, lit_i64, PlanNode};
    use qc_storage::ColumnType;
    let mut db = Database::new();
    db.add_table(Table::new(
        "empty",
        Schema::new(vec![("a", ColumnType::I64), ("b", ColumnType::I64)]),
        vec![Column::I64(Vec::new()), Column::I64(Vec::new())],
    ));
    let session = Session::new(&db);
    let plan = PlanNode::scan("empty", &["a", "b"]).filter(col("a").lt(lit_i64(5)));

    // Direct execution, serial and parallel, with a budget attached:
    // zero morsels means nothing to claim, so the budget never trips.
    for workers in [1usize, 4] {
        let result = session
            .prepare(&plan)
            .and_then(|run| {
                run.backend(clean_clift())
                    .workers(workers)
                    .query_budget(QueryBudget::unlimited().with_max_cycles(u64::MAX))
                    .execute()
            })
            .unwrap_or_else(|e| panic!("empty-table query failed at {workers} workers: {e}"));
        assert!(result.rows.is_empty());
    }

    // Through the scheduler: a zero-morsel query must admit, run, and
    // finish Ok under a cycle cap.
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");
    let request = SessionRequest::new("empty-scan", plan.clone())
        .with_budget(QueryBudget::unlimited().with_max_cycles(u64::MAX));
    let report = scheduler.serve_session(&session, &clean_clift(), vec![request]);
    assert_eq!(report.failures(), 0);
    assert_eq!(report.outcomes[0].status, OutcomeStatus::Ok);
    assert!(report.outcomes[0].rows.is_empty());
}

#[test]
fn fully_cached_session_serves_from_statement_and_code_cache() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend = clean_clift();
    let mk_requests = || -> Vec<SessionRequest> {
        suite[..4]
            .iter()
            .map(|q| SessionRequest::new(q.name.clone(), q.plan.clone()))
            .collect()
    };
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("valid scheduler config");

    let first = scheduler.serve_session(&session, &backend, mk_requests());
    assert_eq!(first.failures(), 0);
    let hits_after_first = session.compile_service().cache_stats().hits;

    // Second serve of identical shapes: planning and compilation both
    // come from the session's caches, and the results are unchanged.
    let second = scheduler.serve_session(&session, &backend, mk_requests());
    assert_eq!(second.failures(), 0);
    assert!(
        session.compile_service().cache_stats().hits > hits_after_first,
        "the second serve must hit the shared code cache"
    );
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.status, OutcomeStatus::Ok);
        assert_eq!(b.status, OutcomeStatus::Ok);
        assert_eq!(a.rows, b.rows, "cached serve changed {}", a.name);
    }
}

#[test]
fn scheduler_config_validation_rejects_nonsense() {
    let bad = [
        SchedulerConfig {
            workers: 0,
            ..Default::default()
        },
        SchedulerConfig {
            admission_limit: 0,
            ..Default::default()
        },
        SchedulerConfig {
            morsel_credits: 0,
            ..Default::default()
        },
        SchedulerConfig {
            breaker: Some(BreakerPolicy {
                trip_after: 0,
                cooldown: Duration::from_millis(1),
                chain: FallbackChain::new(vec![Arc::from(backends::interpreter())]),
            }),
            ..Default::default()
        },
        SchedulerConfig {
            tier_up_backend: Some(clean_clift()),
            tier_up_inflight: 0,
            ..Default::default()
        },
    ];
    for (i, config) in bad.into_iter().enumerate() {
        match QueryScheduler::try_new(config) {
            Err(EngineError::Config(_)) => {}
            Err(other) => panic!("config {i}: expected Config error, got {other}"),
            Ok(_) => panic!("config {i} must be rejected"),
        }
    }
    assert!(QueryScheduler::try_new(SchedulerConfig::default()).is_ok());
}
