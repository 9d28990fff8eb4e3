//! The pipeline driver is one loop behind every execution entry point:
//! `QueryRun::execute_compiled` steps it to completion, the
//! serving scheduler steps it a credit slice at a time. These tests pin
//! what that buys: one query mixing a fan-out pipeline with a
//! serial-fallback one is right at every worker count, the
//! two entry points charge and budget a statement identically, and a
//! session leaving the scheduler — however it ends — gives back what
//! it held and reports what it did, and a failed background tier leaves
//! the first tier's result.

use qc_backend::chaos::{ChaosBackend, ChaosExecBackend, ChaosFault, ExecFault};
use qc_backend::Backend;
use qc_engine::{
    backends, EngineConfig, EngineError, OutcomeStatus, QueryBudget, QueryScheduler,
    SchedulerConfig, ServeReport, Session, SessionConfig, SessionRequest,
};
use qc_plan::{col, AggFunc, PlanNode};
use qc_storage::{Column, ColumnType, Database, Schema, Table};
use qc_target::Isa;
use std::sync::Arc;
use std::time::Duration;

const MORSEL: usize = 16;

/// `fact(k, v)` with 60 morsels of rows, `dim(dk, w)` with four, and
/// `tiny(k, v)` with less than one.
fn database() -> Database {
    let ints = |n: i64, f: fn(i64) -> i64| Column::I64((0..n).map(f).collect());
    let two_i64 = |a: &'static str, b: &'static str| {
        Schema::new(vec![(a, ColumnType::I64), (b, ColumnType::I64)])
    };
    let mut db = Database::new();
    let fact_rows = 60 * MORSEL as i64;
    db.add_table(Table::new(
        "fact",
        two_i64("k", "v"),
        vec![
            ints(fact_rows, |i| i % 64),
            ints(fact_rows, |i| i * 7 % 101),
        ],
    ));
    db.add_table(Table::new(
        "dim",
        two_i64("dk", "w"),
        vec![ints(64, |i| i), ints(64, |i| i % 5 + 1)],
    ));
    db.add_table(Table::new(
        "tiny",
        two_i64("k", "v"),
        vec![ints(4, |i| i), ints(4, |i| i)],
    ));
    db
}

fn session(db: &Database) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            engine: EngineConfig {
                morsel_size: MORSEL,
            },
            ..Default::default()
        },
    )
}

/// Four pipelines: the `dim` scan builds the join table (fans out: four
/// morsels, mergeable sink), the `fact` scan probes it into a
/// floating-point sum (60 morsels, but an `F64` aggregation state cannot
/// merge — serial fallback), and the group and sort buffers are one
/// morsel each.
fn mixed_plan() -> PlanNode {
    PlanNode::scan("fact", &["k", "v"])
        .hash_join(PlanNode::scan("dim", &["dk", "w"]), &["k"], &["dk"], &["w"])
        .map(vec![("x", col("v").mul(col("w")).cast_f64())])
        .group_by(
            &["k"],
            vec![("total", AggFunc::Sum(col("x"))), ("n", AggFunc::CountStar)],
        )
        .sort(&[("k", true)], None)
}

fn scan_of(table: &str) -> PlanNode {
    PlanNode::scan(table, &["k", "v"]).filter(col("v").ge(qc_plan::lit_i64(0)))
}

fn clift() -> Arc<dyn Backend> {
    Arc::from(backends::clift(Isa::Tx64))
}

/// One serving worker, one admitted session, one morsel per slice:
/// sessions run strictly one after another, a morsel at a time.
fn one_at_a_time() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        admission_limit: 1,
        morsel_credits: 1,
        ..Default::default()
    }
}

fn serve(
    session: &Session<'_>,
    config: SchedulerConfig,
    backend: &Arc<dyn Backend>,
    requests: Vec<SessionRequest>,
) -> ServeReport {
    QueryScheduler::try_new(config)
        .expect("valid scheduler config")
        .serve_session(session, backend, requests)
}

#[test]
fn mixed_plan_matches_the_reference_at_every_worker_count_and_schedule() {
    let db = database();
    let session = session(&db);
    let plan = mixed_plan();
    let reference = qc_plan::reference::execute(&plan, &db).expect("reference");
    assert_eq!(reference.len(), 64, "one group per key");

    let serial = session
        .prepare(&plan)
        .and_then(|run| run.backend(clift()).execute())
        .expect("serial run");
    for workers in [1usize, 2, 4] {
        let result = session
            .prepare(&plan)
            .map(|run| run.backend(clift()).workers(workers))
            .and_then(|run| run.execute())
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        // The sort key is unique, so row order is part of the answer.
        assert_eq!(
            result.rows, reference,
            "{workers} workers: rows diverged from the reference"
        );
        if workers == 1 {
            assert_eq!(result.exec_stats, serial.exec_stats);
            assert_eq!(result.critical_path_cycles, result.exec_stats.cycles);
        } else {
            // Only the join build fans out; its workers' setup is the
            // extra work, and part of it overlaps.
            assert!(result.exec_stats.cycles > serial.exec_stats.cycles);
            assert!(result.critical_path_cycles < result.exec_stats.cycles);
        }
    }

    // The scheduler steps the same driver: same rows, same cycles.
    let report = serve(
        &session,
        one_at_a_time(),
        &clift(),
        vec![SessionRequest::new("mixed", plan)],
    );
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Ok, "{:?}", outcome.error);
    assert_eq!(outcome.rows, reference);
    assert_eq!(outcome.cycles, serial.exec_stats.cycles);
}

#[test]
fn a_cycle_cap_trips_identically_through_query_run_and_scheduler() {
    let db = database();
    let session = session(&db);
    let plan = mixed_plan();
    let full = session
        .prepare(&plan)
        .and_then(|run| run.backend(clift()).execute())
        .expect("unbudgeted run")
        .exec_stats
        .cycles;
    // Trips in the middle of the probe pipeline's 60 morsels.
    let budget = QueryBudget::unlimited().with_max_cycles(full / 2);

    let err = session
        .prepare(&plan)
        .map(|run| run.backend(clift()).query_budget(budget.clone()))
        .and_then(|run| run.execute())
        .expect_err("half the query's cycles cannot finish it");
    let EngineError::BudgetExhausted { partial, used, .. } = &err else {
        panic!("expected BudgetExhausted, got {err}");
    };
    assert_eq!(*used, partial.cycles);
    assert!(partial.cycles >= full / 2 && partial.cycles < full);

    let request = SessionRequest::new("capped", plan).with_budget(budget);
    let report = serve(&session, one_at_a_time(), &clift(), vec![request]);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Killed);
    assert_eq!(outcome.cycles, partial.cycles, "same trip point either way");
    // The message carries `used`, the limit and the partial cycles.
    assert_eq!(outcome.error.as_deref(), Some(err.to_string().as_str()));
}

/// A free worker takes the admitted or pending query with the fewest
/// estimated morsels left. With one worker and one-morsel slices, a
/// batch then completes shortest first whatever its submission order:
/// the long scan, submitted first, waits unadmitted until every shorter
/// query is done, and equal estimates finish in submission order.
#[test]
fn the_shortest_remaining_query_runs_first() {
    let db = database();
    let session = session(&db);
    let config = SchedulerConfig {
        admission_limit: 4,
        ..one_at_a_time()
    };
    let tiny_sum =
        PlanNode::scan("tiny", &["k", "v"]).group_by(&[], vec![("s", AggFunc::Sum(col("v")))]);
    // (name, plan, estimated morsels: a table scan counts its morsels,
    // each group or sort buffer one).
    let batch = [
        ("long", scan_of("fact"), 60),
        ("dim", PlanNode::scan("dim", &["dk", "w"]), 4),
        ("sorted", scan_of("tiny").sort(&[("k", false)], None), 2),
        ("summed", tiny_sum, 2),
        ("tiny", scan_of("tiny"), 1),
    ];
    let requests = batch
        .iter()
        .map(|(name, plan, _)| SessionRequest::new(*name, plan.clone()))
        .collect();
    let report = serve(&session, config, &clift(), requests);
    for ((name, plan, _), outcome) in batch.iter().zip(&report.outcomes) {
        assert_eq!(
            outcome.status,
            OutcomeStatus::Ok,
            "{name}: {:?}",
            outcome.error
        );
        let reference = qc_plan::reference::execute(plan, &db).expect("reference");
        assert_eq!(outcome.rows, reference, "{name}: rows diverged");
    }
    let mut completed: Vec<_> = batch.iter().zip(&report.outcomes).collect();
    completed.sort_by_key(|(_, outcome)| outcome.latency);
    let order: Vec<_> = completed.iter().map(|((name, _, _), _)| *name).collect();
    // Ascending estimates; `sorted` and `summed` tie and keep their
    // submission order.
    assert_eq!(order, ["tiny", "sorted", "summed", "dim", "long"]);
    assert!(completed.windows(2).all(|w| w[0].0 .2 <= w[1].0 .2));

    let long = &report.outcomes[0];
    for (name, outcome) in batch.iter().map(|b| b.0).zip(&report.outcomes).skip(1) {
        assert!(
            long.queue_wait >= outcome.latency,
            "`long` was admitted ({:?}) before `{name}` finished ({:?})",
            long.queue_wait,
            outcome.latency
        );
    }
}

/// First tier for the tier-up tests: every morsel takes at least
/// `MORSEL_DELAY`, so the 60-morsel `fact` scan is still running long
/// after the delayed background compile below has finished.
const MORSEL_DELAY: Duration = Duration::from_millis(10);
const COMPILE_DELAY: Duration = Duration::from_millis(50);

fn slow_first_tier() -> Arc<dyn Backend> {
    Arc::new(ChaosExecBackend::always(
        Arc::from(backends::interpreter()),
        ExecFault::Delay(MORSEL_DELAY),
    ))
}

/// Background tier whose every module compile takes `COMPILE_DELAY`:
/// long against the one-morsel `tiny` scan, short against `fact`'s.
fn slow_compiling(tier: Arc<dyn Backend>) -> Arc<dyn Backend> {
    Arc::new(ChaosBackend::always(tier, ChaosFault::Delay(COMPILE_DELAY)))
}

#[test]
fn a_session_finishing_before_its_tier_compile_gives_the_slot_back() {
    let db = database();
    let session = session(&db);
    let config = SchedulerConfig {
        tier_up_backend: Some(slow_compiling(clift())),
        tier_up_inflight: 1,
        ..one_at_a_time()
    };
    // `early` is done (one 10 ms morsel) while its background compile
    // still sleeps, holding the only tier-up slot. `long` runs for
    // 600 ms and can only tier up if `early` gave that slot back.
    let requests = vec![
        SessionRequest::new("early", scan_of("tiny")),
        SessionRequest::new("long", scan_of("fact")),
    ];
    let report = serve(&session, config, &slow_first_tier(), requests);
    assert_eq!(report.failures(), 0);
    let [early, long] = &report.outcomes[..] else {
        panic!("two outcomes");
    };
    assert!(!early.tiered_up, "finished before its compile did");
    assert!(
        long.tiered_up,
        "the slot of `early`'s abandoned compile was never released"
    );
    let reference = qc_plan::reference::execute(&scan_of("fact"), &db).expect("reference");
    assert_eq!(long.rows, reference);
}

#[test]
fn a_session_failing_after_its_tier_swap_still_reports_the_swap() {
    let db = database();
    let session = session(&db);
    // The background tier's own sixth morsel traps, so the failure can
    // only happen after the swap.
    let trapping_tier: Arc<dyn Backend> =
        Arc::new(ChaosExecBackend::on_nth(clift(), 5, ExecFault::Trap(7)));
    let config = SchedulerConfig {
        tier_up_backend: Some(slow_compiling(trapping_tier)),
        tier_up_inflight: 1,
        ..one_at_a_time()
    };
    let requests = vec![SessionRequest::new("long", scan_of("fact"))];
    let report = serve(&session, config, &slow_first_tier(), requests);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Failed);
    assert!(
        outcome.error.as_deref().is_some_and(|e| e.contains("trap")),
        "{:?}",
        outcome.error
    );
    assert!(outcome.tiered_up, "the swap happened before the trap");
}

/// A background tier that panics or fails for good is never adopted:
/// the query finishes on its first tier with that tier's rows and
/// cycles, and the serve goes on. The panic is caught in the compile
/// service, and the session's tier-up slot and pool survive it.
#[test]
fn a_failed_background_tier_keeps_the_first_tier_result() {
    // Injected panics unwind through the compile service's supervisor;
    // silence their default-hook spam without hiding real panics.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if !msg.is_some_and(|m| m.contains("chaos: injected")) {
            default(info);
        }
    }));

    let db = database();
    let session = session(&db);
    let lvm_opt = || -> Arc<dyn Backend> { Arc::from(backends::lvm_opt(Isa::Tx64)) };
    let long = || vec![SessionRequest::new("long", scan_of("fact"))];
    let tier_up = |tier: Arc<dyn Backend>| SchedulerConfig {
        tier_up_backend: Some(tier),
        tier_up_inflight: 1,
        ..one_at_a_time()
    };
    let plain = serve(&session, one_at_a_time(), &slow_first_tier(), long());
    let plain = &plain.outcomes[0];
    assert_eq!(plain.status, OutcomeStatus::Ok, "{:?}", plain.error);

    let statement = session.statement(&scan_of("fact")).expect("statement");
    let modules = statement.query().module_hashes().len() as u64;
    for fault in [ChaosFault::Panic, ChaosFault::PermanentError] {
        let failing = Arc::new(ChaosBackend::always(lvm_opt(), fault));
        let report = serve(
            &session,
            tier_up(failing.clone()),
            &slow_first_tier(),
            long(),
        );
        // One background compile per request: a failed tier-up is final.
        assert_eq!(failing.calls(), modules, "{fault:?}: background compiles");
        let outcome = &report.outcomes[0];
        assert_eq!(
            outcome.status,
            OutcomeStatus::Ok,
            "{fault:?}: {:?}",
            outcome.error
        );
        assert!(!outcome.tiered_up, "{fault:?}: a failed tier was adopted");
        assert_eq!(outcome.rows, plain.rows, "{fault:?}: rows disturbed");
        assert_eq!(outcome.cycles, plain.cycles, "{fault:?}: cycles disturbed");
        if fault == ChaosFault::Panic {
            let faults = session.compile_service().fault_stats();
            assert!(faults.panics_caught > 0, "the panic was not caught");
        }
    }

    // The same session tiers up through a clean tier afterwards.
    let report = serve(&session, tier_up(lvm_opt()), &slow_first_tier(), long());
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Ok, "{:?}", outcome.error);
    assert!(outcome.tiered_up, "no tier-up after the failed ones");
}
