//! One run of one workload. The run itself only starts measuring
//! processes, one after another, and pools what they report; each
//! measuring process sets up once, runs rounds for its share of the
//! seconds, and reports its per-round samples — or, traced, the
//! per-layer values with the probes and the span file.
//!
//! Several short-lived processes instead of one long one, because heap
//! layout and thread placement differ from process to process and shift
//! every timing of a process together; pooling rounds over processes
//! keeps one unlucky process from deciding the run. It also gives
//! `setup_s` one sample per process.

use crate::env::{peak_rss_mb, Env};
use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::probes::{self, Values};
use crate::stats::{percentile, summarize, tail_percentile, Summary};
use crate::workload::{self, Counters, Ctx, Inputs, Round, Spec};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Measuring processes of an untraced run.
const PROCESSES: u64 = 3;

/// glibc malloc settings of every measuring process: never return heap
/// memory to the kernel and grow the heap in large steps. Each query
/// allocates and frees megabytes (emulator stacks, arenas); with the
/// defaults that is a stream of heap trims and page faults whose cost
/// in the sandbox VM varies two-fold from run to run (±20 % on
/// `serve_mixed`). Ignored by other allocators. Recorded in the facts.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
    ("MALLOC_TOP_PAD_", "268435456"),
];

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Seconds of measured rounds (a measuring process gets its share).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one process, the minimum number of rounds. Marked
    /// in every output so it cannot pass for a baseline.
    pub quick: bool,
}

/// What one measuring process does: one set-up, rounds for
/// `opts.seconds`, then its report — counts, conditions and the samples
/// of every metric (one per round, set-up or process).
pub fn child(spec: &Spec, opts: Opts, env: &Env) -> Json {
    let started = Instant::now();
    let inputs = Inputs::generate(spec.suite, spec.sf);
    let mut workload = workload::open(spec, &inputs, env);
    let mut ctx = Ctx::new(opts.seed);
    workload.round(&mut ctx, true);
    let setup_s = started.elapsed().as_secs_f64();

    let before = workload.counters();
    let clock = Instant::now();
    // A traced run alternates traced and untraced rounds, so that the
    // overhead compares like with like.
    let min_rounds = if opts.trace { 4 } else { 2 };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < min_rounds || (!opts.quick && clock.elapsed().as_secs_f64() < opts.seconds)
    {
        ctx.trace_on = opts.trace && rounds.len().is_multiple_of(2);
        let round = workload.round(&mut ctx, false);
        rounds.push((ctx.trace_on, round));
    }
    ctx.trace_on = false;
    let counters = workload.counters().since(&before);

    let mut notes = Vec::new();
    let samples: Vec<(String, Vec<f64>)> = if opts.trace {
        let mut values = probes::run(&mut ctx, spec, &inputs, env);
        layer_values(&ctx, &rounds, &counters, &mut values);
        let path = env.out_dir.join(format!("trace-{}.json", spec.name));
        match ctx.tracer.write_chrome(&path) {
            Ok(()) => notes.push(format!("{} spans in {}", ctx.tracer.len(), path.display())),
            Err(e) => ctx.fail(format!("writing {}: {e}", path.display())),
        }
        values
            .into_iter()
            .map(|(name, v)| (name, vec![v]))
            .collect()
    } else {
        end_to_end(&ctx, &rounds, setup_s, &mut notes)
    };

    let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
    let strs = |values: &[String]| Json::Arr(values.iter().map(Json::str).collect());
    Json::obj([
        ("attempted", Json::Num(ctx.attempted as f64)),
        ("failed", Json::Num(ctx.failed as f64)),
        ("failures", strs(&ctx.failures)),
        ("notes", strs(&notes)),
        (
            "facts",
            Json::obj([
                ("rounds", Json::Num(rounds.len() as f64)),
                ("nproc", Json::Num(env.nproc as f64)),
                ("threads", Json::str(threads(spec, env))),
                ("tmp_fs", Json::str(env.tmp_fs.clone())),
                ("suite_queries", Json::Num(inputs.suite.len() as f64)),
            ]),
        ),
        (
            "samples",
            Json::obj(samples.iter().map(|(name, v)| (name.clone(), nums(v)))),
        ),
    ])
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    pub def: MetricDef,
    pub summary: Summary,
    /// The values behind the summary — one per round, set-up or
    /// process — in order.
    pub samples: Vec<f64>,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub opts: Opts,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Reported>,
    /// Conditions of the run, recorded beside the numbers.
    pub facts: Vec<(String, Json)>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

/// Runs `spec` once under `opts`: starts the measuring processes one
/// after another, waits for each, and pools their samples.
///
/// # Errors
/// Returns a message when a measuring process cannot be started or
/// ends without a report.
pub fn measure(spec: &'static Spec, opts: Opts) -> Result<Outcome, String> {
    let started = Instant::now();
    let processes = if opts.trace || opts.quick {
        1
    } else {
        PROCESSES
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut reports = Vec::new();
    for i in 0..processes {
        let mut child = Command::new(&exe);
        child
            .args(["--child", "--workload", spec.name])
            // Each process orders and draws its requests differently.
            .args([
                "--seed",
                &opts.seed.wrapping_mul(16).wrapping_add(i).to_string(),
            ])
            .args(["--seconds", &(opts.seconds / processes as f64).to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .envs(MALLOC_ENV)
            .stdout(Stdio::piped());
        if opts.quick {
            child.arg("--quick");
        }
        // `output` waits for the process to end.
        let output = child
            .output()
            .map_err(|e| format!("starting a measuring process: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let report = stdout
            .lines()
            .last()
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("measuring process {i} of {} gave no report", spec.name))
            .and_then(Json::parse)?;
        reports.push(report);
    }

    let count = |key: &str| -> u64 {
        let of = |r: &Json| r.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        reports.iter().map(of).sum()
    };
    let texts = |key: &str| -> Vec<String> {
        let of = |r: &Json| -> Vec<String> {
            let items = r.get(key).and_then(Json::as_array).unwrap_or_default();
            items
                .iter()
                .filter_map(Json::as_str)
                .map(String::from)
                .collect()
        };
        reports.iter().flat_map(of).collect()
    };
    let (mut failed, mut failures) = (count("failed"), texts("failures"));

    let defs = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut reported = Vec::new();
    for def in defs {
        let samples: Vec<f64> = reports
            .iter()
            .flat_map(|r| {
                let values = r.get("samples").and_then(|s| s.get(&def.name));
                values.and_then(Json::as_array).unwrap_or_default()
            })
            .filter_map(Json::as_f64)
            .collect();
        if samples.is_empty() {
            return Err(format!(
                "{}: metric {} was not measured",
                spec.name, def.name
            ));
        }
        if def.exact && samples.iter().any(|&v| v != samples[0]) {
            failed += 1;
            failures.push(format!("{} differs between processes", def.name));
        }
        reported.push(Reported {
            summary: summarize(&samples),
            def,
            samples,
        });
    }

    let first = |key: &str| {
        let fact = reports[0].get("facts").and_then(|f| f.get(key));
        (key.to_string(), fact.cloned().unwrap_or(Json::Null))
    };
    let rounds: f64 = reports
        .iter()
        .filter_map(|r| r.get("facts")?.get("rounds")?.as_f64())
        .sum();
    let malloc: Vec<String> = MALLOC_ENV.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let facts = vec![
        ("why".to_string(), Json::str(spec.why)),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("quick".to_string(), Json::Bool(opts.quick)),
        ("processes".to_string(), Json::Num(processes as f64)),
        ("rounds".to_string(), Json::Num(rounds)),
        (
            "wall_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ),
        first("nproc"),
        first("threads"),
        first("tmp_fs"),
        ("malloc".to_string(), Json::str(malloc.join(" "))),
        first("suite_queries"),
        ("scale_factor".to_string(), Json::Num(spec.sf)),
        ("cells".to_string(), Json::str(spec.cells.join(" "))),
    ];
    Ok(Outcome {
        workload: spec.name,
        opts,
        attempted: count("attempted"),
        failed,
        failures,
        metrics: reported,
        facts,
        notes: texts("notes"),
    })
}

/// Threads that can be runnable at once, by what they are.
fn threads(spec: &Spec, env: &Env) -> String {
    match spec.name {
        "serve_mixed" => format!(
            "{} scheduler workers + 1 compile-service worker (blocks its caller)",
            env.nproc.min(2)
        ),
        "hot_exec" => "1 harness thread, 2 morsel workers on the .w2 cell".to_string(),
        "cold_compile" => "1 harness thread".to_string(),
        _ => "1 harness thread + 1 compile-service worker (blocks its caller)".to_string(),
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn throughput(round: &Round) -> f64 {
    round.latencies_ns.len() as f64 / round.busy.as_secs_f64().max(1e-12)
}

/// A round's 50th and 95th latency percentile in milliseconds.
fn percentiles(round: &Round) -> (f64, f64) {
    let mut v = round.latencies_ns.clone();
    v.sort_by(f64::total_cmp);
    (ms(percentile(&v, 50.0)), ms(percentile(&v, 95.0)))
}

/// The samples of every end-to-end metric from one process.
fn end_to_end(
    ctx: &Ctx,
    rounds: &[(bool, Round)],
    setup_s: f64,
    notes: &mut Vec<String>,
) -> Vec<(String, Vec<f64>)> {
    let (p50, p95): (Vec<f64>, Vec<f64>) = rounds.iter().map(|(_, r)| percentiles(r)).unzip();
    let mut all: Vec<f64> = rounds
        .iter()
        .flat_map(|(_, r)| r.latencies_ns.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    if let Some(p) = tail_percentile(all.len()) {
        notes.push(format!(
            "query_p{p:.2}_ms ms {:.4} (highest percentile with 10 samples beyond it, {} samples)",
            ms(percentile(&all, p)),
            all.len()
        ));
    }
    metrics::end_to_end()
        .into_iter()
        .map(|def| {
            let samples = match def.name.as_str() {
                "setup_s" => vec![setup_s],
                "throughput_qps" => rounds.iter().map(|(_, r)| throughput(r)).collect(),
                "query_p50_ms" => p50.clone(),
                "query_p95_ms" => p95.clone(),
                "peak_rss_mb" => vec![peak_rss_mb()],
                "model_cycles_per_query" => vec![ctx.ledger.mean("cycles", None)],
                "code_bytes_per_query" => vec![ctx.ledger.mean("code_bytes", None)],
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            (def.name, samples)
        })
        .collect()
}

/// Per-layer values that come from the workload's own rounds: span
/// self times, cache counters, the scheduler's reports.
fn layer_values(ctx: &Ctx, rounds: &[(bool, Round)], counters: &Counters, v: &mut Values) {
    let median_throughput = |traced: bool| {
        let picked: Vec<f64> = rounds
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| throughput(r))
            .collect();
        summarize(&picked).median
    };
    v.insert(
        "harness.trace_overhead_pct".into(),
        100.0 * (median_throughput(false) / median_throughput(true).max(1e-12) - 1.0),
    );

    let totals = ctx.tracer.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let request = of("request");
    let requests = request.count.max(1) as f64;
    for (metric, span) in [
        ("request.statement_us", "session.statement"),
        ("request.compile_us", "run.compile"),
        ("request.execute_us", "run.execute"),
        ("request.queue_us", "scheduler.queue"),
        ("request.service_us", "scheduler.service"),
    ] {
        v.insert(metric.into(), of(span).self_ns as f64 / 1e3 / requests);
    }
    v.insert(
        "harness.span_sum_error_pct".into(),
        100.0 * request.sum_error(),
    );
    v.insert(
        "separation.compile_share_pct".into(),
        100.0 * of("run.compile").total_ns as f64 / request.total_ns.max(1) as f64,
    );
    let passes = ["pass.cold", "pass.l1", "pass.restart"].map(|p| of(p).total_ns as f64);
    v.insert(
        "separation.warm_pass_share_pct".into(),
        100.0 * (passes[1] + passes[2]) / passes.iter().sum::<f64>().max(1.0),
    );

    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let measured_rounds = rounds.len() as f64;
    let statements = (counters.statement_hits + counters.statement_misses).max(1) as f64;
    v.insert(
        "session.statement_hit_ratio".into(),
        ratio(counters.statement_hits, counters.statement_misses),
    );
    v.insert(
        "compile_service.l1_hit_ratio".into(),
        ratio(counters.l1_hits, counters.l1_misses),
    );
    v.insert(
        "compile_service.l1_evictions_per_query".into(),
        counters.l1_evictions as f64 / statements,
    );
    v.insert(
        "compile_service.resident_kb".into(),
        counters.l1_resident_bytes as f64 / 1024.0,
    );
    v.insert(
        "artifact_store.writes_per_round".into(),
        counters.disk_writes as f64 / measured_rounds,
    );
    v.insert(
        "artifact_store.disk_hits_per_round".into(),
        counters.disk_hits as f64 / measured_rounds,
    );

    let sched = &ctx.sched;
    let served = sched.queries.max(1) as f64;
    let mut waits = sched.queue_wait_ns.clone();
    waits.sort_by(f64::total_cmp);
    let busiest = sched.worker_busy.iter().max().copied().unwrap_or_default();
    v.insert(
        "scheduler.queue_wait_p50_ms".into(),
        ms(percentile(&waits, 50.0)),
    );
    v.insert(
        "scheduler.busy_ms_per_query".into(),
        sched.busy.as_secs_f64() * 1e3 / served,
    );
    v.insert(
        "scheduler.utilization".into(),
        sched.busy.as_secs_f64()
            / (sched.wall.as_secs_f64() * sched.worker_busy.len() as f64).max(1e-12),
    );
    v.insert(
        "scheduler.work_distribution_speedup".into(),
        sched.busy.as_secs_f64() / busiest.as_secs_f64().max(1e-12),
    );
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([
                ("value", Json::Num(m.summary.median)),
                ("unit", Json::str(m.def.unit)),
            ]);
            (m.def.name.clone(), value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The run with its spread and conditions, for result files.
    pub fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = &m.summary;
            let value = Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(m.def.unit)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                ("exact", Json::Bool(m.def.exact)),
                (
                    "samples",
                    Json::Arr(m.samples.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]);
            (m.def.name.clone(), value)
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("trace", Json::Bool(self.opts.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("facts", Json::Obj(self.facts.clone())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric as `name unit value`, timings with quartiles and
    /// sample count, then notes and failures.
    pub fn print(&self) {
        let kind = if self.opts.trace {
            "traced"
        } else {
            "untraced"
        };
        let quick = if self.opts.quick {
            "  [QUICK: smoke run, not a baseline]"
        } else {
            ""
        };
        println!(
            "== {} ({kind}, seed {}){quick}",
            self.workload, self.opts.seed
        );
        for m in &self.metrics {
            let s = &m.summary;
            let tail = if m.def.exact {
                "  exact".to_string()
            } else if s.n > 1 {
                format!("  q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            println!("{} {} {:.6}{tail}", m.def.name, m.def.unit, s.median);
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for (key, value) in &self.facts {
            println!("# {key}: {}", value.render());
        }
        println!("# attempted {} failed {}", self.attempted, self.failed);
        for failure in &self.failures {
            println!("# FAILED {failure}");
        }
    }
}
