//! Layer probes of the traced run: direct calls to public functions of
//! single layers, on the workload's own inputs, each inside a
//! `probe.*` span. They give every layer a number even on a workload
//! that does not exercise it, so a change to a layer can be explained
//! (or shown absent) everywhere.

use crate::cells::{self, Cell};
use crate::env::Env;
use crate::metrics::PHASES;
use crate::stats::summarize;
use crate::workload::{issue, Ctx, Exec, Inputs, Issued, Request, Spec, Statement};
use crate::workloads::compile_config;
use qc_backend::{CodeArtifact, NativeArtifact};
use qc_engine::{ArtifactKey, ArtifactStore, ArtifactStoreConfig, Session, SessionConfig};
use qc_ir::module_structural_hash;
use qc_plan::PhysicalPlan;
use qc_runtime::rtfn;
use qc_runtime::RuntimeState;
use qc_timing::TimeTrace;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `work` inside a `probe.<name>` span and returns its result.
fn probe<T>(ctx: &mut Ctx, name: &'static str, work: impl FnOnce(&mut Ctx) -> T) -> T {
    let start = Instant::now();
    let id = ctx.tracer.open(name, None, start);
    let out = work(ctx);
    ctx.tracer.close(id, Instant::now());
    out
}

/// Times `work` as a whole.
fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed())
}

/// A session whose caches hold the whole suite, with or without an
/// artifact store.
fn roomy_session<'a>(inputs: &'a Inputs, store: Option<&std::path::Path>) -> Session<'a> {
    Session::with_config(
        &inputs.db,
        SessionConfig {
            statement_cache_capacity: 128,
            compile: compile_config(4096),
            artifact_store: store.map(ArtifactStoreConfig::at),
            ..SessionConfig::default()
        },
    )
}

/// Runs every probe and returns the probe-derived per-layer values.
pub fn run(ctx: &mut Ctx, spec: &Spec, inputs: &Inputs, env: &Env) -> Values {
    let mut v = Values::new();
    let queries = inputs.suite.len() as f64;

    probe(ctx, "probe.storage", |_| {
        let (_, ds) = timed(|| qc_storage::gen_dslike(spec.sf));
        let (_, h) = timed(|| qc_storage::gen_hlike(spec.sf));
        v.insert("storage.gen_dslike_ms".into(), ms(ds));
        v.insert("storage.gen_hlike_ms".into(), ms(h));
    });
    probe(ctx, "probe.suites", |_| {
        let (_, both) = timed(|| (qc_workloads::dslike_suite(), qc_workloads::hlike_suite()));
        v.insert("workloads.build_suites_ms".into(), ms(both));
    });
    probe(ctx, "probe.reference", |_| {
        let (_, all) = timed(|| {
            for q in &inputs.suite {
                let _ = std::hint::black_box(qc_plan::reference::execute(&q.plan, &inputs.db));
            }
        });
        v.insert("plan.reference_ms_per_query".into(), ms(all) / queries);
    });
    probe(ctx, "probe.frontend", |_| frontend(inputs, &mut v));
    probe(ctx, "probe.statement_cache", |_| {
        let session = roomy_session(inputs, None);
        let pass = || {
            timed(|| {
                for q in &inputs.suite {
                    let _ = std::hint::black_box(session.statement(&q.plan));
                }
            })
            .1
        };
        let (miss, hit) = (pass(), pass());
        v.insert("session.statement_miss_us".into(), us(miss) / queries);
        v.insert("session.statement_hit_us".into(), us(hit) / queries);
    });
    let direct_us = probe(ctx, "probe.cells", |ctx| serial_cells(ctx, inputs, &mut v));
    probe(ctx, "probe.timetrace", |_| time_trace(inputs, &mut v));
    probe(ctx, "probe.backend", |_| {
        backend_and_store(inputs, env, &mut v)
    });
    probe(ctx, "probe.compile_service", |_| {
        compile_service(inputs, env, direct_us["clift.tx64"], &mut v);
    });
    probe(ctx, "probe.runtime", |_| runtime(&mut v));
    probe(ctx, "probe.morsel", |ctx| morsel(ctx, inputs, &mut v));
    v
}

/// `qc-plan` and `qc-codegen` as the session drives them on a miss,
/// and the two cache-key computations paid on every warm request.
fn frontend(inputs: &Inputs, v: &mut Values) {
    let queries = inputs.suite.len() as f64;
    let catalog = |t: &str| {
        inputs
            .db
            .table(t)
            .map(|t| t.schema.iter().map(|(n, ty)| (n.to_string(), ty)).collect())
    };
    let (texts, text_time) = timed(|| {
        inputs
            .suite
            .iter()
            .map(|q| q.plan.canonical_text().len())
            .sum::<usize>()
    });
    std::hint::black_box(texts);
    let (plans, decompose) = timed(|| {
        inputs
            .suite
            .iter()
            .map(|q| PhysicalPlan::decompose(&q.plan, &catalog).expect("suite query plans"))
            .collect::<Vec<_>>()
    });
    let (generated, generate) = timed(|| {
        plans
            .iter()
            .map(|p| qc_codegen::generate(p, "q"))
            .collect::<Vec<_>>()
    });
    let modules: Vec<_> = generated.iter().flat_map(|g| &g.modules).collect();
    let (hashes, hash) = timed(|| {
        modules
            .iter()
            .fold(0u64, |acc, m| acc ^ module_structural_hash(m))
    });
    std::hint::black_box(hashes);
    let functions: usize = modules.iter().map(|m| m.functions().len()).sum();
    let insts: usize = modules
        .iter()
        .flat_map(|m| m.functions())
        .map(qc_ir::Function::num_insts)
        .sum();
    let pipelines: usize = plans.iter().map(|p| p.pipelines.len()).sum();
    v.insert(
        "plan.canonical_text_us_per_query".into(),
        us(text_time) / queries,
    );
    v.insert(
        "plan.decompose_us_per_query".into(),
        us(decompose) / queries,
    );
    v.insert(
        "plan.pipelines_per_query".into(),
        pipelines as f64 / queries,
    );
    v.insert(
        "codegen.generate_us_per_query".into(),
        us(generate) / queries,
    );
    v.insert("codegen.ir_insts_per_query".into(), insts as f64 / queries);
    v.insert(
        "codegen.functions_per_query".into(),
        functions as f64 / queries,
    );
    v.insert(
        "ir.module_hash_us_per_module".into(),
        us(hash) / modules.len() as f64,
    );
}

/// Direct compile (median of three passes) and execution of every
/// serial cell × query: the paper's Table III as per-cell rows, and the emulator's and the
/// interpreter's host cost per instruction. Returns each cell's
/// compile time per query for the overhead probes.
fn serial_cells(ctx: &mut Ctx, inputs: &Inputs, v: &mut Values) -> BTreeMap<&'static str, f64> {
    let queries = inputs.suite.len() as f64;
    let session = roomy_session(inputs, None);
    // Host execution time and model counts, pooled per target.
    let mut pooled: BTreeMap<&'static str, (Duration, u64, u64, f64)> = BTreeMap::new();
    let mut compile_us = BTreeMap::new();
    for name in cells::serial() {
        let cell = Cell::new(name);
        // Three passes: a single pass is noisy enough to swap cells
        // whose compile times are close. The first also executes.
        let mut total = Issued::default();
        let mut compile_passes = Vec::new();
        for exec in [Exec::Timed, Exec::No, Exec::No] {
            let mut compile = Duration::ZERO;
            for q in 0..inputs.suite.len() {
                let one = issue(
                    ctx,
                    inputs,
                    &session,
                    Request {
                        cell: &cell,
                        query: q,
                        statement: Statement::Prepare,
                        direct: true,
                        exec,
                        parent: None,
                    },
                );
                compile += one.compile;
                total.execute += one.execute;
                total.insts += one.insts;
                total.cycles += one.cycles;
            }
            compile_passes.push(us(compile) / queries);
        }
        let per_query = summarize(&compile_passes).median;
        compile_us.insert(cell.name, per_query);
        v.insert(format!("{name}.compile_us_per_query"), per_query);
        v.insert(
            format!("{name}.code_bytes_per_query"),
            ctx.ledger.mean("code_bytes", Some(cell.id)),
        );
        v.insert(
            format!("{name}.model_cycles_per_query"),
            total.cycles as f64 / queries,
        );
        // Both interpreter cells run the same bytecode; pool them.
        let target = if cell.is_interpreter() {
            "interp"
        } else {
            cell.isa()
        };
        let p = pooled.entry(target).or_default();
        p.0 += total.execute;
        p.1 += total.insts;
        p.2 += total.cycles;
        p.3 += queries;
    }
    for (target, (host, insts, cycles, runs)) in pooled {
        let prefix = if target == "interp" {
            "interp".to_string()
        } else {
            format!("target.{target}")
        };
        let insts_f = insts.max(1) as f64;
        v.insert(
            format!("{prefix}.host_ns_per_inst"),
            host.as_nanos() as f64 / insts_f,
        );
        v.insert(format!("{prefix}.insts_per_query"), insts as f64 / runs);
        if target != "interp" {
            v.insert(format!("{prefix}.model_cpi"), cycles as f64 / insts_f);
        }
    }
    compile_us
}

/// Every tx64 compiling cell compiles the suite with `TimeTrace` on
/// and with it disabled, alternating which goes first: Figs. 2-5 and
/// Table I as numbers, and what the tracing costs. (An enabled trace
/// also makes the engine link in one shot instead of through an
/// artifact; the overhead includes that, as a user would see it.)
fn time_trace(inputs: &Inputs, v: &mut Values) {
    let session = Session::new(&inputs.db);
    let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
    let (mut events, mut compiles) = (0u64, 0u64);
    for name in cells::serial() {
        if !PHASES.iter().any(|(cell, _, _)| cell == name) {
            continue;
        }
        let cell = Cell::new(name);
        let trace = TimeTrace::new();
        let disabled = TimeTrace::disabled();
        for (i, q) in inputs.suite.iter().enumerate() {
            let compile = |trace: &TimeTrace| {
                let run = session
                    .prepare(&q.plan)
                    .expect("suite query plans")
                    .backend(cell.backend.clone())
                    .trace(trace)
                    .direct();
                let (compiled, took) = timed(|| run.compile());
                compiled.expect("suite query compiles");
                took
            };
            if i % 2 == 0 {
                traced += compile(&trace);
                untraced += compile(&disabled);
            } else {
                untraced += compile(&disabled);
                traced += compile(&trace);
            }
            compiles += 1;
        }
        let report = trace.report();
        for (_, suffix, path) in PHASES.iter().filter(|(cell, _, _)| cell == name) {
            v.insert(
                format!("{name}.{suffix}_pct"),
                100.0 * report.fraction(path),
            );
        }
        events += trace.event_count();
    }
    v.insert(
        "timing.timetrace_overhead_pct".into(),
        100.0 * (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0),
    );
    v.insert(
        "timing.events_per_query".into(),
        events as f64 / compiles as f64,
    );
}

/// `qc-backend` artifacts of `clift.tx64` (link, serialise,
/// deserialise) and the artifact store's own write and read.
fn backend_and_store(inputs: &Inputs, env: &Env, v: &mut Values) {
    let cell = Cell::new("clift.tx64");
    let session = roomy_session(inputs, None);
    let disabled = TimeTrace::disabled();
    let mut artifacts: Vec<(ArtifactKey, Box<dyn CodeArtifact>)> = Vec::new();
    for q in &inputs.suite {
        let statement = session.statement(&q.plan).expect("suite query plans");
        for module in &statement.query().ir.modules {
            let artifact = cell
                .backend
                .compile_artifact(module, &disabled)
                .expect("suite module compiles")
                .expect("clift produces artifacts");
            let key = ArtifactKey {
                module_hash: module_structural_hash(module),
                backend: cell.backend.name(),
                isa: cell.backend.isa().name(),
                config: cell.backend.config_fingerprint(),
            };
            artifacts.push((key, artifact));
        }
    }
    let modules = artifacts.len() as f64;
    let (_, instantiate) = timed(|| {
        for (_, a) in &artifacts {
            let _ = std::hint::black_box(a.instantiate());
        }
    });
    let (blobs, serialize) = timed(|| {
        artifacts
            .iter()
            .map(|(_, a)| a.serialize().expect("native artifacts serialise"))
            .collect::<Vec<_>>()
    });
    let (_, deserialize) = timed(|| {
        for blob in &blobs {
            let _ = std::hint::black_box(NativeArtifact::deserialize(blob));
        }
    });
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    v.insert(
        "backend.instantiate_us_per_module".into(),
        us(instantiate) / modules,
    );
    v.insert(
        "backend.serialize_us_per_module".into(),
        us(serialize) / modules,
    );
    v.insert(
        "backend.deserialize_us_per_module".into(),
        us(deserialize) / modules,
    );
    v.insert(
        "backend.artifact_bytes_per_module".into(),
        bytes as f64 / modules,
    );

    let dir = env.tmp_dir.join("probe-store");
    let store = ArtifactStore::open(ArtifactStoreConfig::at(&dir));
    let (_, write) = timed(|| {
        for (key, a) in &artifacts {
            store.store(key, a.as_ref());
        }
    });
    let (_, read) = timed(|| {
        for (key, _) in &artifacts {
            let _ = std::hint::black_box(store.load(key));
        }
    });
    // Modules of different queries can be structurally equal and share
    // a file, so sizes are per file, not per store call.
    let files: Vec<u64> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .collect()
        })
        .unwrap_or_default();
    v.insert(
        "artifact_store.store_us_per_module".into(),
        us(write) / modules,
    );
    v.insert(
        "artifact_store.load_us_per_module".into(),
        us(read) / modules,
    );
    v.insert(
        "artifact_store.bytes_per_module".into(),
        files.iter().sum::<u64>() as f64 / files.len().max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `clift.tx64` through the compile service: cold, L1 hit, and after a
/// restart from the artifact store.
fn compile_service(inputs: &Inputs, env: &Env, direct_us: f64, v: &mut Values) {
    let queries = inputs.suite.len() as f64;
    let cell = Cell::new("clift.tx64");
    let pass = |session: &Session<'_>| {
        let mut total = Duration::ZERO;
        for q in &inputs.suite {
            let run = session
                .prepare(&q.plan)
                .expect("suite query plans")
                .backend(cell.backend.clone());
            let (compiled, took) = timed(|| run.compile());
            compiled.expect("suite query compiles");
            total += took;
        }
        us(total) / queries
    };
    let session = roomy_session(inputs, None);
    let (cold, hit) = (pass(&session), pass(&session));
    v.insert("compile_service.cold_us_per_query".into(), cold);
    v.insert("compile_service.l1_hit_us_per_query".into(), hit);
    v.insert(
        "compile_service.overhead_us_per_query".into(),
        cold - direct_us,
    );

    let dir = env.tmp_dir.join("probe-restart");
    pass(&roomy_session(inputs, Some(&dir)));
    let restarted = pass(&roomy_session(inputs, Some(&dir)));
    v.insert("artifact_store.disk_hit_us_per_query".into(), restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `qc-runtime` helpers as generated code calls them.
fn runtime(v: &mut Values) {
    const ENTRIES: u64 = 50_000;
    let mut state = RuntimeState::new();
    let mut no_callback =
        |_: &mut RuntimeState, _: u64, _: &[u64]| -> Result<u64, qc_target::Trap> { Ok(0) };
    let table = state
        .invoke(rtfn::HT_CREATE, &[ENTRIES], &mut no_callback)
        .expect("ht_create")[0];
    let hash = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (_, insert) = timed(|| {
        for i in 0..ENTRIES {
            let _ = state.invoke(rtfn::HT_INSERT, &[table, hash(i), 16], &mut no_callback);
        }
    });
    let (found, lookup) = timed(|| {
        (0..ENTRIES)
            .filter(|&i| {
                state
                    .invoke(rtfn::HT_PROBE, &[table, hash(i)], &mut no_callback)
                    .is_ok_and(|r| r[0] != 0)
            })
            .count()
    });
    assert_eq!(found as u64, ENTRIES, "every inserted hash has a chain");
    let forks: Vec<f64> = (0..32)
        .map(|_| us(timed(|| std::hint::black_box(state.fork_worker())).1))
        .collect();
    v.insert(
        "runtime.ht_insert_ns".into(),
        insert.as_nanos() as f64 / ENTRIES as f64,
    );
    v.insert(
        "runtime.ht_probe_ns".into(),
        lookup.as_nanos() as f64 / ENTRIES as f64,
    );
    v.insert("runtime.fork_worker_us".into(), summarize(&forks).median);
}

/// The suite's heaviest query on `clift.ta64` with one and two morsel
/// workers.
fn morsel(ctx: &mut Ctx, inputs: &Inputs, v: &mut Values) {
    let serial = Cell::new("clift.ta64");
    let parallel = Cell::new("clift.ta64.w2");
    let heaviest = (0..inputs.suite.len())
        .max_by_key(|&q| ctx.ledger.get("cycles", serial.id, q))
        .unwrap_or(0);
    let session = roomy_session(inputs, None);
    let statement = session
        .statement(&inputs.suite[heaviest].plan)
        .expect("suite query plans");
    let mut measure = |cell: &Cell| {
        let runs: Vec<Issued> = (0..5)
            .map(|_| {
                issue(
                    ctx,
                    inputs,
                    &session,
                    Request {
                        cell,
                        query: heaviest,
                        statement: Statement::Prepared(&statement),
                        direct: false,
                        exec: Exec::Timed,
                        parent: None,
                    },
                )
            })
            .collect();
        let walls: Vec<f64> = runs.iter().map(|r| us(r.execute)).collect();
        (summarize(&walls).median, runs[0])
    };
    let (wall_1, one) = measure(&serial);
    let (wall_2, two) = measure(&parallel);
    v.insert(
        "morsel_exec.w2_wall_speedup".into(),
        wall_1 / wall_2.max(1e-9),
    );
    v.insert(
        "morsel_exec.w2_model_speedup".into(),
        two.cycles as f64 / two.critical_path_cycles.max(1) as f64,
    );
    v.insert(
        "morsel_exec.w2_extra_cycles_pct".into(),
        100.0 * (two.cycles as f64 / one.cycles.max(1) as f64 - 1.0),
    );
}
