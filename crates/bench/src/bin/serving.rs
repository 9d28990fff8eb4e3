//! Multi-query serving benchmark: drives a large batch of concurrent
//! DS-like sessions through the [`qc_engine::QueryScheduler`] (one
//! shared engine, compile service, and code cache) and reports
//! throughput, latency percentiles, worker utilization, and the
//! speedup over a single serving worker. A second section scales one
//! heavy query across [`qc_engine::QueryRun::workers`] — the
//! intra-query parallelism axis.
//!
//! Every served result is checked byte-for-byte against the serial
//! engine path; any divergence exits non-zero (CI runs this binary as
//! the parallel-correctness smoke test).
//!
//! Flags: `--queries N` (default 1024; the whole batch is served, so
//! this is the queue bound), `--workers W` (default 4), `--tier-up`
//! (background-optimize long queries). Env: `QC_SF`.

use qc_bench::{env_sf, secs, LatencyStats, MODEL_HZ};
use qc_engine::{
    backends, EngineConfig, OutcomeStatus, QueryScheduler, SchedulerConfig, ServeReport, Session,
    SessionConfig, SessionRequest,
};
use qc_runtime::SqlValue;
use qc_target::Isa;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn flag_usize(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_queries = flag_usize(&args, "--queries", 1024);
    let workers = flag_usize(&args, "--workers", 4).max(1);
    let tier_up = args.iter().any(|a| a == "--tier-up");

    let sf = env_sf(0.02);
    let db = qc_storage::gen_dslike(sf);
    let session = Session::new(&db);
    let suite = qc_workloads::dslike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));

    // Serial reference results, one per distinct query shape.
    println!(
        "Serving benchmark: {n_queries} DS-like sessions, sf={sf}, backend={}",
        backend.name()
    );
    let mut reference: HashMap<String, Vec<Vec<SqlValue>>> = HashMap::new();
    let mut ref_cycles: HashMap<String, u64> = HashMap::new();
    for q in &suite {
        let result = session
            .prepare(&q.plan)
            .and_then(|run| run.backend(Arc::clone(&backend)).execute())
            .unwrap_or_else(|e| panic!("serial reference {} failed: {e}", q.name));
        ref_cycles.insert(q.name.clone(), result.exec_stats.cycles);
        reference.insert(q.name.clone(), result.rows);
    }

    let requests = |n: usize| -> Vec<SessionRequest> {
        (0..n)
            .map(|i| {
                let q = &suite[i % suite.len()];
                SessionRequest::new(q.name.clone(), q.plan.clone())
            })
            .collect()
    };
    let config = |w: usize| SchedulerConfig {
        workers: w,
        admission_limit: 32,
        morsel_credits: 8,
        tier_up_backend: tier_up.then(|| Arc::from(backends::lvm_opt(Isa::Tx64))),
        tier_up_inflight: 2,
        ..Default::default()
    };
    let serve = |w: usize| -> ServeReport {
        // A fresh session per run: identical cold-cache conditions for
        // the 1-worker baseline and the W-worker measurement. Serving
        // through the session threads its prepared-statement cache
        // under admission, so repeated plan shapes skip planning too.
        let run_session = Session::new(&db);
        QueryScheduler::try_new(config(w))
            .expect("valid scheduler config")
            .serve_session(&run_session, &backend, requests(n_queries))
    };

    let baseline = serve(1);
    let report = serve(workers);

    let mut divergent = 0usize;
    let mut checked = 0usize;
    for run in [&baseline, &report] {
        for o in &run.outcomes {
            if o.status != OutcomeStatus::Ok {
                let err = o.error.as_deref().unwrap_or("unknown error");
                eprintln!("session {} failed: {err}", o.name);
                divergent += 1;
                continue;
            }
            checked += 1;
            let expected = &reference[&o.name];
            if &o.rows != expected {
                eprintln!(
                    "session {} diverged from serial rows ({} vs {} rows)",
                    o.name,
                    o.rows.len(),
                    expected.len()
                );
                divergent += 1;
            }
        }
    }

    for (label, r) in [("1 worker", &baseline), ("parallel", &report)] {
        let latencies: Vec<_> = r.outcomes.iter().map(|o| o.latency).collect();
        let stats = LatencyStats::from_samples(&latencies).expect("non-empty run");
        let tiered = r.outcomes.iter().filter(|o| o.tiered_up).count();
        println!(
            "  {label:<9} ({} workers): {:>8.1} q/s  {}  util {:>5.1}%  wall {}{}",
            r.workers,
            r.throughput_qps(),
            stats.render(),
            100.0 * r.utilization(),
            secs(r.wall),
            if tiered > 0 {
                format!("  tiered-up {tiered}")
            } else {
                String::new()
            }
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  speedup at {workers} workers: {:.2}x wall, {:.2}x work-distribution (host cores: {cores})",
        report.throughput_qps() / baseline.throughput_qps().max(1e-9),
        report.parallel_speedup(),
    );
    if cores < workers {
        println!(
            "  note: host has {cores} core(s) for {workers} workers; wall-clock speedup is \
             core-bound, work-distribution shows the model-time scheduling parallelism"
        );
    }

    // Intra-query axis: one heavy query across morsel-executor
    // workers. Fine-grained morsels (vs the serving default of 2048)
    // so the heavy scans decompose into enough claims to spread.
    println!("\nIntra-query morsel scaling (heaviest suite query):");
    let heavy = suite
        .iter()
        .max_by_key(|q| ref_cycles[&q.name])
        .expect("non-empty suite");
    let intra_session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 256 },
            ..Default::default()
        },
    );
    let stmt = intra_session.statement(&heavy.plan).expect("prepare");
    let mut serial_cycles = 0u64;
    for w in [1usize, 2, 4] {
        // Worker `i` of `w` runs a fixed stride of the morsels. On a
        // host with fewer cores than workers, work-stealing would be
        // claim-order luck (the first scheduled thread drains the
        // queues), so fixed strides are the honest picture of the
        // model-time scaling.
        let run = intra_session
            .run(stmt.clone())
            .backend(Arc::clone(&backend))
            .workers(w)
            .direct();
        let mut compiled = run.compile().expect("compile");
        let t0 = Instant::now();
        let result = run
            .execute_compiled(&mut compiled)
            .expect("parallel execute");
        let wall = t0.elapsed();
        if result.rows != reference[&heavy.name] {
            eprintln!("morsel executor diverged at {w} workers on {}", heavy.name);
            divergent += 1;
        }
        if w == 1 {
            serial_cycles = result.exec_stats.cycles;
        }
        // Critical-path cycles: serial sections plus the busiest
        // worker per parallel pipeline — the model-time lower bound on
        // one core per worker. The ratio to the 1-worker cycles is the
        // speedup this execution would see on real cores.
        println!(
            "  {} @ {w} workers: {:>10} cycles ({:.3} model-s)  critical path {:>10} \
             ({:.2}x model speedup)  wall {}  rows {}",
            heavy.name,
            result.exec_stats.cycles,
            result.exec_stats.cycles as f64 / MODEL_HZ,
            result.critical_path_cycles,
            serial_cycles as f64 / result.critical_path_cycles.max(1) as f64,
            secs(wall),
            result.rows.len()
        );
    }
    if divergent > 0 {
        eprintln!("\n{divergent} session(s) diverged from the serial path");
        std::process::exit(1);
    }
    println!(
        "\nall {} parallel results byte-identical to serial",
        checked + 3
    );
}
