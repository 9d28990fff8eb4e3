//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! qc-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! qc-benchmark run       [--seed N] [--seconds S] [--quick] [--out FILE]
//! qc-benchmark trace     [--seed N] [--seconds S] [--quick] [--out FILE]
//! qc-benchmark compare   BASE CANDIDATE
//! qc-benchmark selfcheck [--seed N] [--seconds S] [--quick]
//! ```

mod cells;
mod compare;
mod env;
mod json;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workload;
mod workloads;

use json::Json;
use run::Opts;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds a run measures unless told otherwise; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("qc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..], false),
        Some("trace") => run_set(&args[1..], true),
        Some("compare") => match &args[1..] {
            [base, cand] => compare_files(Path::new(base), Path::new(cand)),
            _ => Err("usage: compare BASE CANDIDATE".to_string()),
        },
        Some("selfcheck") => selfcheck(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_run(args),
        _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 | run | trace | compare A B | selfcheck".to_string()),
    }
}

/// Value of `--name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn opts(args: &[String], trace: bool) -> Result<Opts, String> {
    Ok(Opts {
        seed: flag(args, "--seed")?.unwrap_or(1),
        seconds: flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
        trace,
        quick: args.iter().any(|a| a == "--quick"),
    })
}

/// One workload: the driver's form, or (`--child`) one of the
/// measuring processes such a run starts.
fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let spec = workload::SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match flag::<u8>(args, "--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(_) => return Err("--trace takes 0 or 1".to_string()),
    };
    let opts = opts(args, trace)?;
    if args.iter().any(|a| a == "--child") {
        let env = env::Env::init().map_err(|e| format!("preparing benchmark/out: {e}"))?;
        println!("{}", run::child(spec, opts, &env).render());
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = measure_and_print(spec, opts)?;
    println!("{}", outcome.result_line());
    Ok(exit_code(outcome.correct()))
}

/// Runs one workload, prints its metrics, and leaves its detail file.
fn measure_and_print(spec: &'static workload::Spec, opts: Opts) -> Result<run::Outcome, String> {
    let outcome = run::measure(spec, opts)?;
    outcome.print();
    let kind = if opts.trace { "trace" } else { "run" };
    let out_dir = env::out_dir();
    let path = out_dir.join(format!("last-{kind}-{}.json", spec.name));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, outcome.detail().render() + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(outcome)
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Output of a command, trimmed; `"unknown"` when it cannot run.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `run` / `trace`: every workload in turn. Writes the set to `out`
/// and returns it with whether every request of every workload was
/// correct.
fn run_all(opts: Opts, out: &Path) -> Result<(Json, bool), String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    for spec in &workload::SPECS {
        let outcome = measure_and_print(spec, opts)?;
        correct &= outcome.correct();
        workloads.push((spec.name, outcome.detail()));
    }
    let manifest_dir = env::out_dir()
        .parent()
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let commit = tool_output(
        "git",
        &["-C", &manifest_dir.to_string_lossy(), "rev-parse", "HEAD"],
    );
    let set = Json::obj([
        (
            "facts",
            Json::obj([
                ("commit", Json::str(commit)),
                ("rustc", Json::str(tool_output("rustc", &["--version"]))),
                ("seed", Json::Num(opts.seed as f64)),
                ("seconds", Json::Num(opts.seconds)),
                ("trace", Json::Bool(opts.trace)),
                ("quick", Json::Bool(opts.quick)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(out, set.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    let quick = if opts.quick {
        "  [QUICK: smoke run, not a baseline]"
    } else {
        ""
    };
    println!("# result file: {}{quick}", out.display());
    Ok((set, correct))
}

fn run_set(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let opts = opts(args, trace)?;
    let default = if trace { "trace.json" } else { "result.json" };
    let out = flag::<PathBuf>(args, "--out")?.unwrap_or_else(|| env::out_dir().join(default));
    let (_, correct) = run_all(opts, &out)?;
    Ok(exit_code(correct))
}

fn compare_files(base: &Path, cand: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))
            .and_then(|text| Json::parse(&text))
    };
    let (base, cand) = (read(base)?, read(cand)?);
    for (label, doc) in [("base", &base), ("candidate", &cand)] {
        let facts = doc.get("facts").map_or_else(String::new, Json::render);
        println!("# {label}: {facts}");
    }
    let worse = compare::print(&compare::compare(&base, &cand)?);
    Ok(exit_code(!worse))
}

/// Two sets of the same code and seed, compared: the benchmark's own
/// repeatability under its own bounds.
fn selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let opts = opts(args, false)?;
    let out_dir = env::out_dir();
    let (a, b) = (
        out_dir.join("selfcheck-a.json"),
        out_dir.join("selfcheck-b.json"),
    );
    let (base, ok_a) = run_all(opts, &a)?;
    let (cand, ok_b) = run_all(opts, &b)?;
    let rows = compare::compare(&base, &cand)?;
    let worse = compare::print(&rows);
    let unresolved = rows.iter().any(|r| r.verdict == stats::Verdict::Unresolved);
    Ok(exit_code(!worse && !unresolved && ok_a && ok_b))
}
