//! The compilation service: parallel pipeline compiles must produce
//! bit-identical artifacts to sequential ones, warm cache hits must skip
//! code generation, and background tier-up must swap at a deterministic
//! morsel boundary without blocking the first morsel.

use qc_backend::chaos::{ChaosBackend, ChaosExecBackend, ChaosFault, ExecFault};
use qc_backend::BackendErrorKind;
use qc_backend::{Backend, BackendError, Executable};
use qc_engine::{
    backends, AdaptiveExecution, AdaptiveOutcome, CompileService, CompileServiceConfig,
    CompiledQuery, EngineConfig, EngineError, PreparedStatement, Session, SessionConfig,
};
use qc_ir::Module;
use qc_plan::{col, lit_i64, reference, PlanNode};
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;
use std::time::Duration;

/// Picks a query from the H-like suite that decomposes into several
/// pipelines, so the fan-out path is actually exercised.
fn multi_pipeline_query(session: &Session<'_>) -> PreparedStatement {
    let suite = qc_workloads::hlike_suite();
    for q in &suite {
        if let Ok(stmt) = session.statement(&q.plan) {
            if stmt.query().ir.modules.len() >= 2 {
                return stmt;
            }
        }
    }
    panic!("no multi-pipeline query in the suite");
}

fn direct_compile(
    session: &Session<'_>,
    stmt: &PreparedStatement,
    backend: &Arc<dyn Backend>,
) -> qc_engine::CompiledQuery {
    session
        .run(stmt.clone())
        .backend(Arc::clone(backend))
        .direct()
        .compile()
        .expect("direct compile")
}

fn execute(
    session: &Session<'_>,
    stmt: &PreparedStatement,
    compiled: &mut qc_engine::CompiledQuery,
) -> qc_engine::ExecutionResult {
    session
        .run(stmt.clone())
        .execute_compiled(compiled)
        .expect("execute")
}

fn artifact_bytes_sequential(backend: &dyn Backend, modules: &[Arc<Module>]) -> Vec<Vec<u8>> {
    let trace = TimeTrace::disabled();
    modules
        .iter()
        .map(|m| {
            backend
                .compile_artifact(m, &trace)
                .expect("compile")
                .expect("artifact support")
                .content_bytes()
        })
        .collect()
}

fn artifact_bytes_parallel(backend: &dyn Backend, modules: &[Arc<Module>]) -> Vec<Vec<u8>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = modules
            .iter()
            .map(|m| {
                s.spawn(move || {
                    let trace = TimeTrace::disabled();
                    backend
                        .compile_artifact(m, &trace)
                        .expect("compile")
                        .expect("artifact support")
                        .content_bytes()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compile thread"))
            .collect()
    })
}

#[test]
fn parallel_compilation_is_bit_identical_to_sequential() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    for backend in backends::all_for(Isa::Tx64) {
        let seq = artifact_bytes_sequential(backend.as_ref(), &prepared.ir.modules);
        let par = artifact_bytes_parallel(backend.as_ref(), &prepared.ir.modules);
        assert_eq!(
            seq,
            par,
            "{}: concurrent compilation changed artifact content",
            backend.name()
        );
    }
}

#[test]
fn service_compile_matches_engine_compile() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    // Cache disabled so every module goes through the worker fan-out.
    let service = CompileService::new(CompileServiceConfig {
        workers: 4,
        cache_capacity: 0,
        ..Default::default()
    });
    let trace = TimeTrace::disabled();
    for backend in backends::all_for(Isa::Tx64) {
        let backend: Arc<dyn Backend> = Arc::from(backend);
        let mut a = direct_compile(&session, &stmt, &backend);
        let mut b = service
            .compile(prepared, &backend, &trace)
            .expect("service compile");
        let ra = execute(&session, &stmt, &mut a);
        let rb = execute(&session, &stmt, &mut b);
        assert_eq!(
            reference::normalize(&ra.rows),
            reference::normalize(&rb.rows),
            "{}: results differ",
            backend.name()
        );
        assert_eq!(
            ra.exec_stats.cycles,
            rb.exec_stats.cycles,
            "{}: cycle counts differ",
            backend.name()
        );
        assert_eq!(
            ra.compile_stats.code_bytes,
            rb.compile_stats.code_bytes,
            "{}: emitted code size differs",
            backend.name()
        );
        assert_eq!(
            ra.compile_stats.functions,
            rb.compile_stats.functions,
            "{}: compiled function count differs",
            backend.name()
        );
    }
}

#[test]
fn second_compile_hits_the_cache_and_reuses_code() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len() as u64;
    let trace = TimeTrace::disabled();
    for backend in backends::all_for(Isa::Tx64) {
        let backend: Arc<dyn Backend> = Arc::from(backend);
        let service = CompileService::new(CompileServiceConfig {
            workers: 2,
            cache_capacity: 64,
            ..Default::default()
        });
        let mut cold = service
            .compile(prepared, &backend, &trace)
            .expect("cold compile");
        let after_cold = service.cache_stats();
        assert_eq!(after_cold.hits, 0, "{}: cold run hit", backend.name());
        assert_eq!(
            after_cold.misses,
            n,
            "{}: expected one miss per pipeline",
            backend.name()
        );
        assert_eq!(after_cold.entries, n as usize);
        assert!(after_cold.resident_bytes > 0);

        let mut warm = service
            .compile(prepared, &backend, &trace)
            .expect("warm compile");
        let after_warm = service.cache_stats();
        assert_eq!(
            after_warm.hits,
            n,
            "{}: warm run did not hit on every pipeline",
            backend.name()
        );
        assert_eq!(after_warm.misses, n, "{}: warm run missed", backend.name());

        // Cached code must behave identically to freshly compiled code.
        let rc = execute(&session, &stmt, &mut cold);
        let rw = execute(&session, &stmt, &mut warm);
        assert_eq!(
            reference::normalize(&rc.rows),
            reference::normalize(&rw.rows)
        );
        assert_eq!(rc.exec_stats.cycles, rw.exec_stats.cycles);
        assert_eq!(rc.compile_stats.code_bytes, rw.compile_stats.code_bytes);
        assert_eq!(rc.compile_stats.functions, rw.compile_stats.functions);
    }
}

#[test]
fn distinct_configs_do_not_share_cached_code() {
    // lvm cheap-mode variants share name and ISA but differ in options;
    // the config fingerprint must keep their cache entries apart.
    let mut opts_a = qc_lvm::LvmOptions::defaults(Isa::Tx64, qc_lvm::OptMode::Cheap);
    opts_a.fastisel_crc32 = false;
    let mut opts_b = opts_a;
    opts_b.fastisel_crc32 = true;
    let a = backends::lvm_with(opts_a);
    let b = backends::lvm_with(opts_b);
    assert_eq!(a.name(), b.name());
    assert_ne!(
        a.config_fingerprint(),
        b.config_fingerprint(),
        "option variants must have distinct fingerprints"
    );

    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len() as u64;
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let a: Arc<dyn Backend> = Arc::from(a);
    let b: Arc<dyn Backend> = Arc::from(b);
    service.compile(prepared, &a, &trace).expect("variant a");
    service.compile(prepared, &b, &trace).expect("variant b");
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 0, "variant b must not reuse variant a's code");
    assert_eq!(stats.misses, 2 * n);
}

#[test]
fn background_tier_up_swaps_at_a_deterministic_boundary() {
    let db = qc_storage::gen_hlike(0.05);
    // Small morsels: many morsel boundaries.
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 256 },
            ..Default::default()
        },
    );
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let service = CompileService::default();
    let cheap: Arc<dyn Backend> = Arc::from(backends::interpreter());
    let optimized: Arc<dyn Backend> = Arc::from(backends::lvm_opt(Isa::Tx64));
    let policy = AdaptiveExecution::default();

    let (result, report) = policy
        .run_background(
            session.engine(),
            &service,
            prepared,
            &cheap,
            &optimized,
            Some(3),
        )
        .expect("background run");
    assert_eq!(report.outcome, AdaptiveOutcome::TieredUp);
    assert_eq!(report.swapped_at_morsel, Some(3));
    assert!(report.background_error.is_none());

    // Results must match a plain single-tier execution.
    let mut baseline_compiled = direct_compile(&session, &stmt, &cheap);
    let baseline = execute(&session, &stmt, &mut baseline_compiled);
    assert_eq!(
        reference::normalize(&result.rows),
        reference::normalize(&baseline.rows)
    );

    // Repeating the run swaps at the same boundary with the same cost.
    let (again, report2) = policy
        .run_background(
            session.engine(),
            &service,
            prepared,
            &cheap,
            &optimized,
            Some(3),
        )
        .expect("second background run");
    assert_eq!(report2.swapped_at_morsel, Some(3));
    assert_eq!(result.exec_stats.cycles, again.exec_stats.cycles);

    // Every pinned boundary lands where it always has, at the same cost.
    let mut measured = Vec::new();
    for optimized in [optimized, Arc::from(backends::clift(Isa::Tx64))] {
        for n in [0, 1, 3, 7] {
            let (result, report) = policy
                .run_background(
                    session.engine(),
                    &service,
                    prepared,
                    &cheap,
                    &optimized,
                    Some(n),
                )
                .expect("pinned background run");
            let stats = result.exec_stats;
            let swapped_at = report.swapped_at_morsel;
            measured.push((optimized.name(), n, swapped_at, stats.cycles, stats.insts));
        }
    }
    assert_eq!(measured, PINNED_SWAPS, "measured table:\n{measured:#?}");
}

/// `(optimizing tier, n, swapped_at_morsel, exec cycles, exec insts)` of
/// `run_background` pinned at boundary `n` over the interpreter, on
/// [`multi_pipeline_query`] with 256-row morsels at scale factor 0.05.
/// Boundary 0 swaps after the first morsel like boundary 1; the query
/// has six morsels, so boundary 7 never comes and the cheap tier ends it.
type PinnedSwap = (&'static str, u64, Option<u64>, u64, u64);
const PINNED_SWAPS: [PinnedSwap; 8] = [
    ("LVM-opt", 0, Some(1), 362_199, 31_012),
    ("LVM-opt", 1, Some(1), 362_199, 31_012),
    ("LVM-opt", 3, Some(3), 391_804, 25_110),
    ("LVM-opt", 7, None, 393_415, 24_552),
    ("Clift", 0, Some(1), 366_644, 32_093),
    ("Clift", 1, Some(1), 366_644, 32_093),
    ("Clift", 3, Some(3), 391_633, 25_042),
    ("Clift", 7, None, 393_415, 24_552),
];

#[test]
fn heuristic_tier_up_decides_on_observed_work() {
    let db = qc_storage::gen_hlike(0.05);
    let cheap: Arc<dyn Backend> = Arc::from(backends::interpreter());
    let optimized: Arc<dyn Backend> = Arc::from(backends::clift(Isa::Tx64));

    // The default policy on a one-morsel query: its work never pays for
    // an optimizing compile, so none is spawned.
    let session = Session::new(&db);
    let small = PlanNode::scan("nation", &["n_nationkey", "n_name"]);
    let stmt = session.statement(&small).expect("prepare");
    let service = CompileService::default();
    let (result, report) = AdaptiveExecution::default()
        .run_background(
            session.engine(),
            &service,
            stmt.query(),
            &cheap,
            &optimized,
            None,
        )
        .expect("default-policy run");
    assert_eq!(report.outcome, AdaptiveOutcome::StayedCheap);
    assert_eq!(report.swapped_at_morsel, None);
    assert!(report.background_error.is_none());
    assert_eq!(
        service.cache_stats().misses,
        stmt.query().ir.modules.len() as u64,
        "only the cheap tier compiled"
    );
    let expected = reference::execute(&small, &db).expect("reference");
    assert_eq!(
        reference::normalize(&result.rows),
        reference::normalize(&expected)
    );

    // A policy that fires on the first morsel, over a first tier whose
    // every morsel sleeps: the optimizing compile finishes while the
    // cheap tier still runs, and takes over.
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 8 },
            ..Default::default()
        },
    );
    let scan = PlanNode::scan("lineitem", &["l_orderkey", "l_quantity"])
        .filter(col("l_orderkey").ge(lit_i64(0)));
    let stmt = session.statement(&scan).expect("prepare");
    let slow_cheap: Arc<dyn Backend> = Arc::new(ChaosExecBackend::always(
        Arc::clone(&cheap),
        ExecFault::Delay(Duration::from_millis(10)),
    ));
    let eager = AdaptiveExecution {
        expected_executions: u64::MAX / 2,
        benefit_threshold: 1,
    };
    let (result, report) = eager
        .run_background(
            session.engine(),
            &CompileService::default(),
            stmt.query(),
            &slow_cheap,
            &optimized,
            None,
        )
        .expect("eager-policy run");
    assert_eq!(report.outcome, AdaptiveOutcome::TieredUp);
    assert!(report.background_error.is_none());
    let expected = reference::execute(&scan, &db).expect("reference");
    assert_eq!(
        reference::normalize(&result.rows),
        reference::normalize(&expected)
    );
}

#[test]
fn background_tier_failure_keeps_the_cheap_tier_result() {
    // Injected panics unwind through catch_unwind inside the service;
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

    let db = qc_storage::gen_hlike(0.05);
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 256 },
            ..Default::default()
        },
    );
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let service = CompileService::default();
    let cheap: Arc<dyn Backend> = Arc::from(backends::interpreter());
    let policy = AdaptiveExecution::default();

    let mut baseline_compiled = direct_compile(&session, &stmt, &cheap);
    let baseline = execute(&session, &stmt, &mut baseline_compiled);

    for fault in [ChaosFault::Panic, ChaosFault::PermanentError] {
        let optimized: Arc<dyn Backend> = Arc::new(ChaosBackend::always(
            Arc::from(backends::lvm_opt(Isa::Tx64)),
            fault,
        ));
        let (result, report) = policy
            .run_background(
                session.engine(),
                &service,
                prepared,
                &cheap,
                &optimized,
                Some(3),
            )
            .unwrap_or_else(|e| panic!("{fault:?}: background run must survive: {e}"));

        // The failed tier-up must not disturb the cheap-tier execution:
        // same outcome shape, same rows, same stats as a plain run.
        assert_eq!(
            report.outcome,
            AdaptiveOutcome::StayedCheap,
            "{fault:?}: failed background compile must not swap"
        );
        assert_eq!(report.swapped_at_morsel, None);
        let err = report
            .background_error
            .unwrap_or_else(|| panic!("{fault:?}: background failure must be reported"));
        match fault {
            ChaosFault::Panic => assert_eq!(err.kind, BackendErrorKind::Panic),
            _ => assert_eq!(err.kind, BackendErrorKind::Permanent),
        }
        assert_eq!(
            reference::normalize(&result.rows),
            reference::normalize(&baseline.rows),
            "{fault:?}: cheap-tier rows disturbed"
        );
        assert_eq!(result.exec_stats.cycles, baseline.exec_stats.cycles);
        assert_eq!(
            result.compile_stats.functions, baseline.compile_stats.functions,
            "{fault:?}: cheap-tier compile stats disturbed"
        );
        assert_eq!(
            result.compile_stats.code_bytes,
            baseline.compile_stats.code_bytes
        );
    }

    // Panics were isolated, and the pool is still healthy: a genuine
    // tier-up through the same service succeeds afterwards.
    assert!(service.fault_stats().panics_caught > 0);
    let optimized: Arc<dyn Backend> = Arc::from(backends::lvm_opt(Isa::Tx64));
    let (_, report) = policy
        .run_background(
            session.engine(),
            &service,
            prepared,
            &cheap,
            &optimized,
            Some(3),
        )
        .expect("clean background run after faults");
    assert_eq!(report.outcome, AdaptiveOutcome::TieredUp);
    assert!(report.background_error.is_none());
}

#[test]
fn tier_up_merges_compile_stats_across_tiers() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let cheap: Arc<dyn Backend> = Arc::from(backends::interpreter());
    let optimized: Arc<dyn Backend> = Arc::from(backends::clift(Isa::Tx64));
    // Force the tier-up path with a policy whose threshold is trivially
    // exceeded.
    let policy = AdaptiveExecution {
        expected_executions: u64::MAX / 2,
        benefit_threshold: 1,
    };
    let service = CompileService::default();
    let (result, report) = policy
        .run_background(
            session.engine(),
            &service,
            prepared,
            &cheap,
            &optimized,
            Some(1),
        )
        .expect("adaptive run");
    assert_eq!(report.outcome, AdaptiveOutcome::TieredUp);
    let mut cheap_only = direct_compile(&session, &stmt, &cheap);
    let cheap_result = execute(&session, &stmt, &mut cheap_only);
    // Both tiers contribute: the merged stats must strictly exceed the
    // cheap tier's own function count.
    assert!(
        result.compile_stats.functions > cheap_result.compile_stats.functions,
        "tiered stats {} not above cheap-tier stats {}",
        result.compile_stats.functions,
        cheap_result.compile_stats.functions
    );
}

/// A back-end that links executables but returns no code artifact.
struct ExecutablesOnly(Arc<dyn Backend>);

impl Backend for ExecutablesOnly {
    fn name(&self) -> &'static str {
        "ExecutablesOnly"
    }

    fn isa(&self) -> Isa {
        self.0.isa()
    }

    fn compile(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Box<dyn Executable>, BackendError> {
        self.0.compile(module, trace)
    }
}

#[test]
fn a_back_end_without_artifacts_is_rejected_naming_the_tier() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let backend: Arc<dyn Backend> = Arc::new(ExecutablesOnly(Arc::from(backends::direct_emit())));
    let run = || session.run(stmt.clone()).backend(Arc::clone(&backend));

    let trace = TimeTrace::new();
    let outcomes = [
        ("service", run().compile()),
        ("untraced direct", run().direct().compile()),
        ("traced direct", run().direct().trace(&trace).compile()),
    ];
    for (path, outcome) in outcomes {
        match outcome {
            Err(EngineError::Backend(e)) => {
                assert_eq!(e.kind, BackendErrorKind::Permanent, "{path}: {e}");
                assert!(e.message.contains("ExecutablesOnly"), "{path}: {e}");
            }
            other => panic!("{path}: expected a permanent back-end error, got {other:?}"),
        }
    }
}

#[test]
fn background_and_foreground_compiles_produce_the_same_artifacts() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len() as u64;
    let trace = TimeTrace::disabled();
    let content = |compiled: &CompiledQuery| -> Vec<Vec<u8>> {
        compiled
            .artifacts
            .iter()
            .map(|a| a.content_bytes())
            .collect()
    };
    for backend in backends::all_for(Isa::Tx64) {
        let backend: Arc<dyn Backend> = Arc::from(backend);
        let name = backend.name();
        let fresh = CompileService::default()
            .compile(prepared, &backend, &trace)
            .expect("foreground compile on a fresh service");

        let service = CompileService::default();
        let background = service
            .spawn_compile(prepared, &backend)
            .wait()
            .expect("background compile");
        let before = service.cache_stats();
        let foreground = service
            .compile(prepared, &backend, &trace)
            .expect("foreground compile");
        let after = service.cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (n, 0),
            "{name}: the foreground compile after a background one must be all L1 hits"
        );
        assert_eq!(content(&background), content(&fresh), "{name}: background");
        assert_eq!(content(&foreground), content(&fresh), "{name}: foreground");
    }
}

/// A trace observes a compile; it does not pick another one. Traced and
/// untraced direct compiles produce the same code and statistics, and a
/// traced compile keeps its artifacts, so it fans out over morsel
/// workers like any other.
#[test]
fn traced_and_untraced_direct_compiles_are_the_same_compile() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let mut all = backends::all_for(Isa::Tx64);
    all.push(backends::clift(Isa::Ta64));
    for backend in all {
        let backend: Arc<dyn Backend> = Arc::from(backend);
        let name = format!("{}.{}", backend.name(), backend.isa().name());
        let trace = TimeTrace::new();
        let run = || session.run(stmt.clone()).backend(Arc::clone(&backend));
        let traced = run().trace(&trace).direct().compile().expect("traced");
        let untraced = run().direct().compile().expect("untraced");
        let content = |c: &CompiledQuery| -> Vec<Vec<u8>> {
            c.artifacts.iter().map(|a| a.content_bytes()).collect()
        };
        assert_eq!(content(&traced), content(&untraced), "{name}: code");
        let (t, u) = (&traced.compile_stats, &untraced.compile_stats);
        assert_eq!(
            (t.functions, t.code_bytes, &t.counters),
            (u.functions, u.code_bytes, &u.counters),
            "{name}: compile stats"
        );
        assert!(
            trace.report().total(backend.link_phase()).is_some(),
            "{name}"
        );
    }

    // 16-row morsels split the H-like scans across workers.
    let session = Session::with_config(
        &db,
        SessionConfig {
            engine: EngineConfig { morsel_size: 16 },
            ..Default::default()
        },
    );
    let stmt = session
        .statement(&qc_workloads::hlike_suite()[0].plan)
        .expect("prepare");
    let backend: Arc<dyn Backend> = Arc::from(backends::clift(Isa::Tx64));
    let run = || session.run(stmt.clone()).backend(Arc::clone(&backend));
    let serial = run().direct().execute().expect("serial run");
    let trace = TimeTrace::new();
    let parallel = run()
        .trace(&trace)
        .direct()
        .workers(2)
        .execute()
        .expect("traced parallel run");
    assert_eq!(parallel.rows, serial.rows);
    assert!(
        parallel.critical_path_cycles < parallel.exec_stats.cycles,
        "a traced compile must fan out: critical path {} of {} cycles",
        parallel.critical_path_cycles,
        parallel.exec_stats.cycles
    );
}
