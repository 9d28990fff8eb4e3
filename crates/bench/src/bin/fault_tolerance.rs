//! Fault-tolerance ablation: serve the suite on one worker from the
//! top of the standard fallback chain while a seeded `ChaosBackend`
//! injects panics and errors into the optimizing tiers. The chain is a
//! `BreakerPolicy`'s, with a breaker that never trips, so every request
//! whose compile fails walks down the chain on its own. Reports which
//! tier served each query and its latency, the tier occupancy, the
//! service's fault counters, and the latency the faults added
//! over a clean serve of the same chain — the price of graceful
//! degradation instead of query failure.
//!
//! A second section exercises the *execution* fault envelope: a seeded
//! [`ChaosExecBackend`] panics inside ~10% of morsel calls while the
//! serving scheduler drives a batch of sessions. The process must not
//! crash, every surviving result must stay byte-identical to the
//! serial reference, and the section reports throughput and latency
//! percentiles under injection.
//!
//! Env knobs: `QC_SF` (scale factor), `QC_QUERIES` (suite prefix),
//! `QC_CHAOS_SEED` (schedule seed), `QC_CHAOS_PERMILLE` (per-call
//! compile-fault probability, default 300 = 30%), `QC_EXEC_PERMILLE`
//! (per-morsel exec-fault probability, default 100 = 10%),
//! `QC_SESSIONS` (serving-section session count, default 256).

use qc_backend::chaos::{ChaosBackend, ChaosExecBackend, ChaosFault, ExecFault};
use qc_bench::{env_sf, env_suite, secs, LatencyStats};
use qc_engine::{
    backends, BreakerPolicy, FallbackChain, OutcomeStatus, QueryScheduler, SchedulerConfig,
    Session, SessionRequest,
};
use qc_target::Isa;
use std::sync::Arc;
use std::time::Duration;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    // The injected panics unwind through the service's catch_unwind;
    // keep their default-hook backtraces off the report.
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

    let seed = env_u64("QC_CHAOS_SEED", 0xC4A05);
    let permille = env_u64("QC_CHAOS_PERMILLE", 300).min(1000) as u16;
    let db = qc_storage::gen_hlike(env_sf(0.05));
    let suite = env_suite(qc_workloads::hlike_suite());
    let session = Session::new(&db);

    // Top two tiers misbehave: the optimizer panics, the cheap JIT
    // errors out, each on ~permille/1000 of compile calls.
    let clean = FallbackChain::standard(Isa::Tx64);
    let mut tiers = clean.tiers().to_vec();
    tiers[0] = Arc::new(ChaosBackend::seeded(
        Arc::clone(&clean.tiers()[0]),
        seed,
        permille,
        ChaosFault::Panic,
    ));
    tiers[1] = Arc::new(ChaosBackend::seeded(
        Arc::clone(&clean.tiers()[1]),
        seed.wrapping_add(1),
        permille,
        ChaosFault::PermanentError,
    ));
    let chain = FallbackChain::new(tiers);
    let tier_names: Vec<&str> = chain.tiers().iter().map(|t| t.name()).collect();

    println!(
        "Fault-tolerance ablation: seeded chaos (seed={seed:#x}, p={}%) on {}",
        permille as f64 / 10.0,
        tier_names.join(" → ")
    );
    println!("  {:<24} {:>12} {:>10}", "query", "tier", "latency");

    // One worker serves each chain's batch; the clean serve is the
    // baseline (cache-cold for the chaotic one: the chaos wrappers have
    // distinct fingerprints, so no cross-pollution).
    let serve = |chain: &FallbackChain| {
        let top = Arc::clone(&chain.tiers()[0]);
        let scheduler = QueryScheduler::try_new(SchedulerConfig {
            workers: 1,
            breaker: Some(BreakerPolicy {
                trip_after: u32::MAX,
                cooldown: Duration::from_secs(600),
                chain: chain.clone(),
            }),
            ..Default::default()
        })
        .expect("valid scheduler config");
        let requests = suite
            .iter()
            .map(|q| SessionRequest::new(q.name.clone(), q.plan.clone()))
            .collect();
        scheduler.serve_session(&session, &top, requests)
    };
    let clean_report = serve(&clean);
    let chaos_report = serve(&chain);

    let mut served_by = vec![0u64; tier_names.len()];
    for o in &chaos_report.outcomes {
        if o.status == OutcomeStatus::Ok {
            let tier = tier_names.iter().position(|&t| t == o.tier);
            served_by[tier.expect("a chain tier served")] += 1;
            println!("  {:<24} {:>12} {:>10}", o.name, o.tier, secs(o.latency));
        } else {
            println!(
                "  {:<24} FAILED: {}",
                o.name,
                o.error.as_deref().unwrap_or("")
            );
        }
    }

    println!("\nTier occupancy under chaos:");
    for (name, n) in tier_names.iter().zip(&served_by) {
        println!("  {name:<12} served {n:>3} queries");
    }
    if chaos_report.failed() > 0 {
        println!("  {} queries failed every tier", chaos_report.failed());
    }
    // Fault injection mostly shows up in tail latency: tier downgrades
    // hit a minority of queries hard.
    for (label, report) in [("clean", &clean_report), ("chaotic", &chaos_report)] {
        let latencies: Vec<_> = report.outcomes.iter().map(|o| o.latency).collect();
        if let Some(stats) = LatencyStats::from_samples(&latencies) {
            println!("Serve latency ({label}): {}", stats.render());
        }
    }

    let f = session.compile_service().fault_stats();
    println!("\nService fault counters:");
    println!("  panics caught      {:>6}", f.panics_caught);
    println!("  workers respawned  {:>6}", f.workers_respawned);
    println!("  inline fallbacks   {:>6}", f.inline_fallbacks);
    let (clean_wall, chaos_wall) = (clean_report.wall, chaos_report.wall);
    println!(
        "\nServe wall clock: clean chain {} vs. chaotic chain {} ({:+.1}% overhead)",
        secs(clean_wall),
        secs(chaos_wall),
        if clean_wall.is_zero() {
            0.0
        } else {
            100.0 * (chaos_wall.as_secs_f64() - clean_wall.as_secs_f64()) / clean_wall.as_secs_f64()
        }
    );

    // ---- Execution-phase chaos: serving under injected morsel panics.
    let exec_permille = env_u64("QC_EXEC_PERMILLE", 100).min(1000) as u16;
    let n_sessions = env_u64("QC_SESSIONS", 256) as usize;
    println!(
        "\nServing under execution chaos: {n_sessions} sessions, {}% of morsel calls panic",
        exec_permille as f64 / 10.0
    );

    // Serial reference on the clean back-end, one result per shape.
    let clean_backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let mut reference = std::collections::HashMap::new();
    for q in &suite {
        let result = session
            .prepare(&q.plan)
            .and_then(|run| run.backend(Arc::clone(&clean_backend)).execute())
            .unwrap_or_else(|e| panic!("serial reference {} failed: {e}", q.name));
        reference.insert(q.name.clone(), result.rows);
    }

    let chaos_exec = Arc::new(ChaosExecBackend::seeded(
        Arc::clone(&clean_backend),
        seed.wrapping_add(2),
        exec_permille,
        ExecFault::Panic,
    ));
    let serve_backend: Arc<dyn qc_backend::Backend> = Arc::clone(&chaos_exec) as _;
    let requests: Vec<SessionRequest> = (0..n_sessions)
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
    let serve_session = Session::new(&db);
    let report = scheduler.serve_session(&serve_session, &serve_backend, requests);

    let mut divergent = 0usize;
    for o in &report.outcomes {
        if o.status == OutcomeStatus::Ok && o.rows != reference[&o.name] {
            eprintln!("session {} diverged from serial rows under chaos", o.name);
            divergent += 1;
        }
    }
    let ok = report
        .outcomes
        .iter()
        .filter(|o| o.status == OutcomeStatus::Ok)
        .count();
    let latencies: Vec<_> = report.outcomes.iter().map(|o| o.latency).collect();
    println!(
        "  outcomes: {ok} ok, {} failed, {} killed  ({} morsel faults injected)",
        report.failed(),
        report.killed(),
        chaos_exec.injected()
    );
    println!(
        "  {:>8.1} q/s  util {:>5.1}%  wall {}",
        report.throughput_qps(),
        100.0 * report.utilization(),
        secs(report.wall)
    );
    if let Some(stats) = LatencyStats::from_samples(&latencies) {
        println!("  latency under injection: {}", stats.render());
    }
    if divergent > 0 {
        eprintln!("\n{divergent} surviving session(s) diverged under execution chaos");
        std::process::exit(1);
    }
    println!(
        "  all {ok} surviving results byte-identical to serial; process survived \
         every injected panic"
    );
}
