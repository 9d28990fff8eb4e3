//! Chaos suite: deterministic compile-fault injection against the
//! serving scheduler's degradation ladder. With a `ChaosBackend`
//! injecting a panic or an error into tiers of a
//! `BreakerPolicy`'s chain, every query of the differential picks must
//! still return the reference result on the first healthy tier below,
//! with that tier named in its `QueryOutcome`, and with no worker-pool
//! deadlock or cache poisoning.

use qc_backend::chaos::{ChaosBackend, ChaosFault};
use qc_backend::Backend;
use qc_engine::{
    backends, BreakerPolicy, CompileServiceConfig, FallbackChain, OutcomeStatus, QueryOutcome,
    QueryScheduler, SchedulerConfig, ServeReport, Session, SessionConfig, SessionRequest,
};
use qc_plan::reference;
use qc_plan::PlanNode;
use qc_storage::Database;
use qc_target::Isa;
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

/// The standard TX64 chain with tier `i` replaced by `chaos(i, tier)`
/// where that returns a wrapper, and the wrappers it made.
fn chain_with(
    chaos: impl Fn(usize, &Arc<dyn Backend>) -> Option<ChaosBackend>,
) -> (FallbackChain, Vec<Arc<ChaosBackend>>) {
    let mut wrappers = Vec::new();
    let tiers = FallbackChain::standard(Isa::Tx64)
        .tiers()
        .iter()
        .enumerate()
        .map(|(i, tier)| match chaos(i, tier) {
            Some(wrapper) => {
                let wrapper = Arc::new(wrapper);
                wrappers.push(Arc::clone(&wrapper));
                wrapper as Arc<dyn Backend>
            }
            None => Arc::clone(tier),
        })
        .collect();
    (FallbackChain::new(tiers), wrappers)
}

/// The standard TX64 chain with tiers `0..=faulty_through` replaced by
/// chaos wrappers injecting `fault` on every compile call.
fn chaotic_chain(
    faulty_through: usize,
    fault: ChaosFault,
) -> (FallbackChain, Vec<Arc<ChaosBackend>>) {
    chain_with(|i, tier| {
        (i <= faulty_through).then(|| ChaosBackend::always(Arc::clone(tier), fault))
    })
}

/// Serves `plans` on `session` from the chain's top tier, with a
/// breaker that never trips: every request walks the chain on its own.
fn serve(
    session: &Session<'_>,
    chain: FallbackChain,
    workers: usize,
    plans: &[(String, PlanNode)],
) -> ServeReport {
    let top = Arc::clone(&chain.tiers()[0]);
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers,
        breaker: Some(BreakerPolicy {
            trip_after: u32::MAX,
            cooldown: Duration::from_secs(600),
            chain,
        }),
        ..SchedulerConfig::default()
    })
    .expect("valid scheduler config");
    scheduler.serve_session(session, &top, requests(plans))
}

fn requests(plans: &[(String, PlanNode)]) -> Vec<SessionRequest> {
    let request = |(name, plan): &(String, PlanNode)| SessionRequest::new(name, plan.clone());
    plans.iter().map(request).collect()
}

/// `outcome` completed on `tier` with the reference rows of `plan`.
fn assert_served(outcome: &QueryOutcome, tier: &str, plan: &PlanNode, db: &Database) {
    let name = &outcome.name;
    assert_eq!(
        outcome.status,
        OutcomeStatus::Ok,
        "{name}: {:?}",
        outcome.error
    );
    assert_eq!(outcome.tier, tier, "{name}: served on the wrong tier");
    let expected = reference::execute(plan, db).expect("reference");
    assert_eq!(
        reference::normalize(&outcome.rows),
        reference::normalize(&expected),
        "{name}: wrong result after degradation"
    );
}

/// Every differential pick, served from a chain whose top tier panics
/// or errors, must produce the reference result on the next tier.
#[test]
fn every_pick_survives_a_faulty_top_tier() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let picks = suite_picks();
    for fault in [ChaosFault::Panic, ChaosFault::PermanentError] {
        let (chain, _) = chaotic_chain(0, fault);
        let report = serve(&session, chain, 1, &picks);
        for (outcome, (_, plan)) in report.outcomes.iter().zip(&picks) {
            assert_served(outcome, "LVM-cheap", plan, &db);
        }
    }
    let stats = session.compile_service().fault_stats();
    assert!(stats.panics_caught > 0, "panics must be caught: {stats:?}");
}

/// Deeper cascades: with tiers 0..=k all faulty, tier k+1 serves; the
/// interpreter floor makes the chain total for supported queries.
#[test]
fn cascade_degrades_to_the_first_healthy_tier() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::new(&db);
    let pick = &suite_picks()[..1];
    let clean = FallbackChain::standard(Isa::Tx64);
    for k in 0..clean.tiers().len() - 1 {
        let (chain, _) = chaotic_chain(k, ChaosFault::Panic);
        let report = serve(&session, chain, 1, pick);
        assert_served(
            &report.outcomes[0],
            clean.tiers()[k + 1].name(),
            &pick[0].1,
            &db,
        );
    }
}

/// A whole chain of faulty tiers fails cleanly — a failed outcome that
/// tried each tier exactly once, not a deadlock or a panic — and the
/// session serves a clean request afterwards.
#[test]
fn all_tiers_faulty_is_a_clean_error() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let pick = &suite_picks()[..1];
    let modules = session
        .statement(&pick[0].1)
        .expect("prepare")
        .query()
        .ir
        .modules
        .len() as u64;
    let chain_len = FallbackChain::standard(Isa::Tx64).tiers().len();
    let (chain, wrappers) = chaotic_chain(chain_len - 1, ChaosFault::Panic);
    let report = serve(&session, chain, 1, pick);
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, OutcomeStatus::Failed);
    assert_eq!(outcome.tier, "Interpreter", "the last tier tried");
    let error = outcome.error.as_deref().unwrap_or_default();
    assert!(error.contains("chaos: injected"), "{error}");
    for wrapper in &wrappers {
        assert_eq!(wrapper.calls(), modules, "each tier tried once");
    }
    // The pool survives total chain failure: a clean serve works.
    let clean = QueryScheduler::try_new(SchedulerConfig::default()).expect("valid config");
    let interp: Arc<dyn Backend> = Arc::from(backends::interpreter());
    let report = clean.serve_session(&session, &interp, requests(pick));
    assert_served(&report.outcomes[0], "Interpreter", &pick[0].1, &db);
}

/// Seeded random faults across the whole suite on one long-lived
/// session served by two workers: results stay correct, the pool never
/// wedges, and a final clean serve over the same session agrees with
/// the reference, so nothing the chaos serve cached is corrupt.
#[test]
fn seeded_chaos_soak_keeps_results_correct() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.03);
    let session = Session::with_config(
        &db,
        SessionConfig {
            compile: CompileServiceConfig {
                workers: 4,
                cache_capacity: 256,
            },
            ..SessionConfig::default()
        },
    );
    // Top two tiers each fail ~30% of calls, mixing errors and panics.
    let (chain, _) = chain_with(|i, tier| match i {
        0 => Some(ChaosBackend::seeded(
            Arc::clone(tier),
            0x5EED_0001,
            300,
            ChaosFault::Panic,
        )),
        1 => Some(ChaosBackend::seeded(
            Arc::clone(tier),
            0x5EED_0002,
            300,
            ChaosFault::PermanentError,
        )),
        _ => None,
    });
    let picks = suite_picks();
    let report = serve(&session, chain, 2, &picks);
    for (outcome, (_, plan)) in report.outcomes.iter().zip(&picks) {
        assert_served(outcome, outcome.tier, plan, &db);
    }

    let clean = QueryScheduler::try_new(SchedulerConfig::default()).expect("valid config");
    let cheap: Arc<dyn Backend> = Arc::from(backends::lvm_cheap(Isa::Tx64));
    let report = clean.serve_session(&session, &cheap, requests(&picks));
    for (outcome, (_, plan)) in report.outcomes.iter().zip(&picks) {
        assert_served(outcome, "LVM-cheap", plan, &db);
    }
}
