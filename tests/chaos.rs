//! Chaos suite: deterministic fault injection against the compilation
//! service's fault-tolerance layer. With a `ChaosBackend` injecting a
//! panic, error, or deadline overrun into any tier, every query of the
//! differential picks must still return the reference result through
//! the fallback chain, with the downgrade visible in compile stats and
//! no worker-pool deadlock or cache poisoning.

use qc_backend::chaos::{ChaosBackend, ChaosFault};
use qc_backend::{Backend, BackendErrorKind};
use qc_engine::{
    backends, CompileBudget, CompileService, CompileServiceConfig, EngineError, FallbackChain,
    Session,
};
use qc_plan::reference;
use qc_plan::PlanNode;
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;
use std::time::Duration;

/// Injected panics unwind through `catch_unwind` in the service; keep
/// their default-hook backtraces out of the test output while letting
/// real panics print. Installed at most once per test binary.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

/// The differential picks from `crates/core/tests/differential.rs`:
/// representative operator shapes across the H-like suite.
fn suite_picks() -> Vec<(String, PlanNode)> {
    let suite = qc_workloads::hlike_suite();
    [0usize, 2, 4, 5, 12, 16, 21]
        .iter()
        .map(|&i| (suite[i].name.clone(), suite[i].plan.clone()))
        .collect()
}

/// The standard TX64 chain with tiers `0..=faulty_through` replaced by
/// chaos wrappers injecting `fault` on every compile call.
fn chaotic_chain(faulty_through: usize, fault: ChaosFault) -> FallbackChain {
    let clean = FallbackChain::standard(Isa::Tx64);
    let tiers: Vec<Arc<dyn Backend>> = clean
        .tiers()
        .iter()
        .enumerate()
        .map(|(i, tier)| -> Arc<dyn Backend> {
            if i <= faulty_through {
                Arc::new(ChaosBackend::always(Arc::clone(tier), fault))
            } else {
                Arc::clone(tier)
            }
        })
        .collect();
    FallbackChain::new(tiers)
}

/// Every differential pick, compiled through a chain whose top tier
/// panics, errors, or overruns its deadline, must produce the
/// reference result and record the downgrade.
#[test]
fn every_pick_survives_a_faulty_top_tier() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let faults = [
        ChaosFault::Panic,
        ChaosFault::PermanentError,
        ChaosFault::TransientError, // exhausts retries, then downgrades
    ];
    for fault in faults {
        let chain = chaotic_chain(0, fault);
        for (name, plan) in suite_picks() {
            let expected = reference::execute(&plan, &db).expect("reference");
            let stmt = session.statement(&plan).expect("prepare");
            let prepared = stmt.query();
            let (mut compiled, report) = service
                .compile_with_fallback(prepared, &chain, CompileBudget::default(), &trace)
                .unwrap_or_else(|e| panic!("{name} under {fault:?}: {e}"));
            assert!(report.degraded(), "{name}: downgrade expected");
            assert_eq!(report.tier_used, 1, "{name}: LVM-cheap must serve");
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.failures[0].backend, "LVM-opt");
            assert_eq!(
                compiled.compile_stats.counters.get("fallback_downgrades"),
                Some(&1),
                "{name}: downgrade missing from compile stats"
            );
            assert_eq!(
                compiled.compile_stats.counters.get("fallback_from_LVM-opt"),
                Some(&1)
            );
            let got = session
                .run(stmt.clone())
                .execute_compiled(&mut compiled)
                .expect("execute");
            assert_eq!(
                reference::normalize(&got.rows),
                reference::normalize(&expected),
                "{name} under {fault:?}: wrong result after fallback"
            );
        }
    }
    let stats = service.fault_stats();
    assert!(stats.panics_caught > 0, "panics must be caught: {stats:?}");
    assert!(stats.retries > 0, "transient faults must be retried");
    assert!(stats.downgrades > 0, "downgrades must be counted");
}

/// Deeper cascades: with tiers 0..=k all faulty, tier k+1 serves; the
/// interpreter floor makes the chain total for supported queries.
#[test]
fn cascade_degrades_to_the_first_healthy_tier() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let (_, plan) = suite_picks().remove(0);
    let expected = reference::execute(&plan, &db).expect("reference");
    let stmt = session.statement(&plan).expect("prepare");
    let prepared = stmt.query();
    let chain_len = FallbackChain::standard(Isa::Tx64).tiers().len();
    for k in 0..chain_len - 1 {
        let chain = chaotic_chain(k, ChaosFault::Panic);
        let (mut compiled, report) = service
            .compile_with_fallback(prepared, &chain, CompileBudget::default(), &trace)
            .unwrap_or_else(|e| panic!("cascade k={k}: {e}"));
        assert_eq!(report.tier_used, k + 1, "cascade k={k}");
        assert_eq!(report.failures.len(), k + 1);
        assert_eq!(
            compiled.compile_stats.counters.get("fallback_downgrades"),
            Some(&((k + 1) as u64))
        );
        let got = session
            .run(stmt.clone())
            .execute_compiled(&mut compiled)
            .expect("execute");
        assert_eq!(
            reference::normalize(&got.rows),
            reference::normalize(&expected),
            "cascade k={k}: wrong result"
        );
    }
}

/// A whole chain of faulty tiers fails cleanly — an error naming every
/// tier, not a deadlock or a panic.
#[test]
fn all_tiers_faulty_is_a_clean_error() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let service = CompileService::default();
    let (_, plan) = suite_picks().remove(0);
    let stmt = session.statement(&plan).expect("prepare");
    let prepared = stmt.query();
    let chain_len = FallbackChain::standard(Isa::Tx64).tiers().len();
    let chain = chaotic_chain(chain_len - 1, ChaosFault::Panic);
    match service.compile_with_fallback(
        prepared,
        &chain,
        CompileBudget::default(),
        &TimeTrace::disabled(),
    ) {
        Err(EngineError::Backend(e)) => {
            for tier in ["LVM-opt", "LVM-cheap", "DirectEmit", "Interpreter"] {
                assert!(e.message.contains(tier), "missing tier {tier}: {e}");
            }
        }
        Err(other) => panic!("expected chain exhaustion error, got {other:?}"),
        Ok(_) => panic!("expected chain exhaustion error, got a compiled query"),
    }
    // The pool survives total chain failure: a clean compile works.
    let clean: Arc<dyn Backend> = Arc::from(backends::interpreter());
    service
        .compile(prepared, &clean, &TimeTrace::disabled())
        .expect("service must stay usable");
}

/// A deadline overrun in the optimizing tier (driven by an injected
/// delay) downgrades instead of stalling the query, and the too-slow
/// tier's artifacts never enter the cache.
///
/// The per-module deadline sits two orders of magnitude above a clean
/// LVM-cheap module compile (about 0.5 ms), so a loaded host cannot push
/// the fallback tier past it too; the injected delay sits 2.5× above the
/// deadline, so the optimizing tier always overruns it.
#[test]
fn deadline_overrun_downgrades_and_does_not_pollute_the_cache() {
    const DEADLINE: Duration = Duration::from_millis(200);
    const DELAY: Duration = Duration::from_millis(500);
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let (_, plan) = suite_picks().remove(0);
    let expected = reference::execute(&plan, &db).expect("reference");
    let stmt = session.statement(&plan).expect("prepare");
    let prepared = stmt.query();

    let clean = FallbackChain::standard(Isa::Tx64);
    let slow: Arc<dyn Backend> = Arc::new(ChaosBackend::always(
        Arc::clone(&clean.tiers()[0]),
        ChaosFault::Delay(DELAY),
    ));
    let mut tiers = clean.tiers().to_vec();
    tiers[0] = slow;
    let chain = FallbackChain::new(tiers);

    let entries_before = service.cache_stats().entries;
    let budget = CompileBudget::with_deadline(DEADLINE);
    let (mut compiled, report) = service
        .compile_with_fallback(prepared, &chain, budget, &trace)
        .expect("fallback under deadline");
    assert_eq!(report.tier_used, 1, "LVM-cheap must take over");
    assert_eq!(report.failures[0].error.kind, BackendErrorKind::Deadline);
    let got = session
        .run(stmt.clone())
        .execute_compiled(&mut compiled)
        .expect("execute");
    assert_eq!(
        reference::normalize(&got.rows),
        reference::normalize(&expected)
    );
    assert!(service.fault_stats().deadline_overruns > 0);
    // Only the serving tier's modules may be resident; the slow tier
    // produced nothing cacheable.
    let entries_after = service.cache_stats().entries;
    assert!(
        entries_after - entries_before <= prepared.ir.modules.len(),
        "over-deadline artifacts leaked into the cache"
    );
}

/// A one-shot transient fault is absorbed by the retry policy: the
/// faulty tier itself still serves the query, with no downgrade.
#[test]
fn transient_fault_is_retried_on_the_same_tier() {
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let (_, plan) = suite_picks().remove(0);
    let expected = reference::execute(&plan, &db).expect("reference");
    let stmt = session.statement(&plan).expect("prepare");
    let prepared = stmt.query();

    let clean = FallbackChain::standard(Isa::Tx64);
    let flaky: Arc<dyn Backend> = Arc::new(ChaosBackend::on_nth(
        Arc::clone(&clean.tiers()[0]),
        0,
        ChaosFault::TransientError,
    ));
    let mut tiers = clean.tiers().to_vec();
    tiers[0] = flaky;
    let chain = FallbackChain::new(tiers);

    let (mut compiled, report) = service
        .compile_with_fallback(prepared, &chain, CompileBudget::default(), &trace)
        .expect("retry should succeed");
    assert!(!report.degraded(), "retry must avoid the downgrade");
    assert_eq!(report.backend_name, "LVM-opt");
    assert!(service.fault_stats().retries >= 1);
    let got = session
        .run(stmt.clone())
        .execute_compiled(&mut compiled)
        .expect("execute");
    assert_eq!(
        reference::normalize(&got.rows),
        reference::normalize(&expected)
    );
}

/// Seeded random faults across the whole suite on one long-lived
/// service: results stay correct, the pool never wedges, and a final
/// clean pass over the same service warm-hits the cache.
#[test]
fn seeded_chaos_soak_keeps_results_correct() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let service = CompileService::new(CompileServiceConfig {
        workers: 4,
        cache_capacity: 256,
        ..Default::default()
    });
    let trace = TimeTrace::disabled();
    let clean = FallbackChain::standard(Isa::Tx64);
    // Top two tiers each fail ~30% of calls, mixing errors and panics.
    let mut tiers = clean.tiers().to_vec();
    tiers[0] = Arc::new(ChaosBackend::seeded(
        Arc::clone(&clean.tiers()[0]),
        0x5EED_0001,
        300,
        ChaosFault::Panic,
    ));
    tiers[1] = Arc::new(ChaosBackend::seeded(
        Arc::clone(&clean.tiers()[1]),
        0x5EED_0002,
        300,
        ChaosFault::PermanentError,
    ));
    let chain = FallbackChain::new(tiers);

    for (name, plan) in suite_picks() {
        let expected = reference::execute(&plan, &db).expect("reference");
        let stmt = session.statement(&plan).expect("prepare");
        let prepared = stmt.query();
        let (mut compiled, _report) = service
            .compile_with_fallback(prepared, &chain, CompileBudget::default(), &trace)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = session
            .run(stmt.clone())
            .execute_compiled(&mut compiled)
            .expect("execute");
        assert_eq!(
            reference::normalize(&got.rows),
            reference::normalize(&expected),
            "{name}: wrong result under seeded chaos"
        );
    }

    // The same service still serves clean compiles, and nothing the
    // chaos runs cached is corrupt: a warm pass agrees with reference.
    let cheap: Arc<dyn Backend> = Arc::from(backends::lvm_cheap(Isa::Tx64));
    for (name, plan) in suite_picks() {
        let expected = reference::execute(&plan, &db).expect("reference");
        let stmt = session.statement(&plan).expect("prepare");
        let prepared = stmt.query();
        let mut compiled = service
            .compile(prepared, &cheap, &trace)
            .unwrap_or_else(|e| panic!("clean pass {name}: {e}"));
        let got = session
            .run(stmt.clone())
            .execute_compiled(&mut compiled)
            .expect("execute");
        assert_eq!(
            reference::normalize(&got.rows),
            reference::normalize(&expected),
            "{name}: cache served corrupt code after chaos"
        );
    }
}
