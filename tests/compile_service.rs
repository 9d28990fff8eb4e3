//! The compilation service: parallel pipeline compiles must produce
//! bit-identical artifacts to sequential ones, warm cache hits must skip
//! code generation, and a background compile must produce the same
//! artifacts as a foreground one.

use qc_backend::BackendErrorKind;
use qc_backend::{Backend, BackendError, CodeArtifact};
use qc_engine::{
    backends, CompileService, CompileServiceConfig, CompiledQuery, EngineConfig, EngineError,
    PreparedStatement, Session, SessionConfig,
};
use qc_ir::Module;
use qc_plan::reference;
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;

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
            a.compile_stats.code_bytes,
            b.compile_stats.code_bytes,
            "{}: emitted code size differs",
            backend.name()
        );
        assert_eq!(
            a.compile_stats.functions,
            b.compile_stats.functions,
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
        assert_eq!(cold.compile_stats.code_bytes, warm.compile_stats.code_bytes);
        assert_eq!(cold.compile_stats.functions, warm.compile_stats.functions);
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

/// A back-end that returns no code artifact.
struct NoArtifacts;

impl Backend for NoArtifacts {
    fn name(&self) -> &'static str {
        "NoArtifacts"
    }

    fn isa(&self) -> Isa {
        Isa::Tx64
    }

    fn compile_artifact(
        &self,
        _module: &Module,
        _trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        Ok(None)
    }
}

#[test]
fn a_back_end_without_artifacts_is_rejected_naming_the_tier() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let backend: Arc<dyn Backend> = Arc::new(NoArtifacts);
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
                assert!(e.message.contains("NoArtifacts"), "{path}: {e}");
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
