//! The compile service's claim-list fan-out: a foreground request's
//! cache misses sit behind one claim cursor, the calling thread
//! compiles them beside whichever pool workers are free, and nobody but
//! the pool ever runs a background job. Every interleaving below is
//! forced with a gate inside a test back-end, never with a sleep.

use qc_backend::chaos::{ChaosBackend, ChaosFault};
use qc_backend::{Backend, BackendError, BackendErrorKind, CodeArtifact, Executable};
use qc_engine::{
    backends, ArtifactStore, ArtifactStoreConfig, CacheCounters, CompileService,
    CompileServiceConfig, CompiledQuery, FaultCounters, PreparedQuery, PreparedStatement, Session,
};
use qc_ir::Module;
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// How long a test waits for something that must not take a worker.
const PATIENCE: Duration = Duration::from_secs(30);

type Hook = Box<dyn Fn(&Module) + Send + Sync>;

/// A back-end that compiles like `inner` but first logs which thread
/// compiles which module and then runs `hook` — the place a test parks
/// a compile until it says otherwise. `salt` keeps two probes over one
/// inner back-end from sharing cache entries.
struct Probe {
    inner: Arc<dyn Backend>,
    salt: u64,
    hook: Hook,
    /// (module name, compiling thread's name) per compile call.
    log: Mutex<Vec<(String, String)>>,
}

impl Probe {
    fn new(salt: u64, hook: impl Fn(&Module) + Send + Sync + 'static) -> Arc<Probe> {
        Arc::new(Probe {
            inner: Arc::from(backends::direct_emit()),
            salt,
            hook: Box::new(hook),
            log: Mutex::new(Vec::new()),
        })
    }

    fn plain(salt: u64) -> Arc<Probe> {
        Probe::new(salt, |_| {})
    }

    fn log(&self) -> Vec<(String, String)> {
        self.log.lock().expect("probe log").clone()
    }

    fn enter(&self, module: &Module) {
        let thread = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        self.log
            .lock()
            .expect("probe log")
            .push((module.name.clone(), thread));
        (self.hook)(module);
    }
}

impl Backend for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn config_fingerprint(&self) -> u64 {
        self.inner.config_fingerprint() ^ self.salt
    }

    fn compile(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Box<dyn Executable>, BackendError> {
        self.enter(module);
        self.inner.compile(module, trace)
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        self.enter(module);
        self.inner.compile_artifact(module, trace)
    }
}

/// A probe whose first compile call reports on `entered` and then
/// stays inside the back-end until the returned sender fires (or is
/// dropped).
fn held_probe(salt: u64) -> (Arc<Probe>, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let first = AtomicBool::new(true);
    let probe = Probe::new(salt, move |_| {
        if first.swap(false, Ordering::SeqCst) {
            let _ = entered_tx.send(());
            let _ = release_rx.lock().expect("release gate").recv();
        }
    });
    (probe, entered_rx, release_tx)
}

/// Runs a foreground compile on a thread named `foreground-caller`
/// while a [`held_probe`] holds the pool's only worker. Should the
/// compile wait for that worker after all, the gate is opened so that
/// the test fails instead of hanging.
fn compile_while_held(
    service: &CompileService,
    prepared: &PreparedQuery,
    backend: &Arc<dyn Backend>,
    release: &mpsc::Sender<()>,
) -> CompiledQuery {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("foreground-caller".into())
            .spawn_scoped(s, || {
                let _ = done_tx.send(service.compile(prepared, backend, &TimeTrace::disabled()));
            })
            .expect("spawn caller");
        let finished = done_rx.recv_timeout(PATIENCE);
        if finished.is_err() {
            let _ = release.send(());
        }
        finished
            .expect("the foreground compile waited for the held worker")
            .expect("foreground compile")
    })
}

/// A query of the H-like suite with several pipelines, so that a
/// request has misses to share.
fn multi_pipeline_query(session: &Session<'_>) -> PreparedStatement {
    qc_workloads::hlike_suite()
        .iter()
        .filter_map(|q| session.statement(&q.plan).ok())
        .find(|stmt| stmt.query().ir.modules.len() >= 3)
        .expect("a query with at least three pipelines")
}

fn new_service(workers: usize, cache_capacity: usize) -> CompileService {
    CompileService::new(CompileServiceConfig {
        workers,
        cache_capacity,
    })
}

/// Injected panics unwind through the service's `supervise`; keep their
/// default-hook output out of the test log while real panics print.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
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

/// (a) + (b): with the pool's only worker held inside a background
/// job, a foreground request still finishes — compiled entirely by its
/// caller — and the background job's modules are compiled by pool
/// threads only, before and after the foreground request ran.
#[test]
fn foreground_compiles_while_the_only_worker_is_held_in_a_background_job() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len();
    let service = new_service(1, 64);

    let (bg, entered, release) = held_probe(0xb9);
    let bg_backend: Arc<dyn Backend> = bg.clone();
    let pending = service.spawn_compile(prepared, &bg_backend);
    entered
        .recv_timeout(PATIENCE)
        .expect("the worker never started the background job");

    let fg = Probe::plain(0xf9);
    let fg_backend: Arc<dyn Backend> = fg.clone();
    let compiled = compile_while_held(&service, prepared, &fg_backend, &release);
    assert_eq!(compiled.executables.len(), n);
    release.send(()).expect("release the worker");
    pending.wait().expect("background compile");

    for (module, thread) in fg.log() {
        assert_eq!(
            thread, "foreground-caller",
            "{module}: the worker was held, so only the caller could compile"
        );
    }
    assert_eq!(fg.log().len(), n);
    let bg_log = bg.log();
    assert_eq!(bg_log.len(), n);
    for (module, thread) in bg_log {
        assert!(
            thread.starts_with("qc-compile-"),
            "{module}: background module compiled on `{thread}`"
        );
    }
    assert_eq!(service.fault_stats(), FaultCounters::default());
}

/// Two background jobs on a two-worker pool run at the same time: a
/// worker holds the shared job queue only while it takes a job, never
/// while it runs one, so a held job does not keep the other worker
/// idle.
#[test]
fn two_workers_run_two_background_jobs_at_once() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let service = new_service(2, 64);

    let (a, a_entered, a_release) = held_probe(0xa2);
    let (b, b_entered, b_release) = held_probe(0xb2);
    let (a_backend, b_backend): (Arc<dyn Backend>, Arc<dyn Backend>) = (a.clone(), b.clone());
    let a_pending = service.spawn_compile(prepared, &a_backend);
    let b_pending = service.spawn_compile(prepared, &b_backend);
    let both_inside = a_entered
        .recv_timeout(PATIENCE)
        .and_then(|()| b_entered.recv_timeout(PATIENCE));
    // Open both gates before judging, so that a failure cannot hang.
    let _ = (a_release.send(()), b_release.send(()));
    both_inside.expect("one job waited for the other: the pool ran one job at a time");
    a_pending.wait().expect("first background compile");
    b_pending.wait().expect("second background compile");

    let first_thread = |probe: &Probe| probe.log()[0].1.clone();
    let (a_thread, b_thread) = (first_thread(&a), first_thread(&b));
    assert!(a_thread.starts_with("qc-compile-"), "{a_thread}");
    assert!(b_thread.starts_with("qc-compile-"), "{b_thread}");
    assert_ne!(a_thread, b_thread);
    assert_eq!(service.fault_stats(), FaultCounters::default());
}

/// (c): the worker count decides who compiles a module, never what
/// comes out: artifacts, merged phase rows and cache counters equal a
/// sequential compile on this thread for every pool size.
#[test]
fn worker_count_changes_neither_artifacts_nor_trace_nor_counters() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let modules = &prepared.ir.modules;

    type Fingerprint = (Vec<Vec<u8>>, Vec<(String, u64)>);
    fn phases(trace: &TimeTrace) -> Vec<(String, u64)> {
        let rows = trace.report().rows();
        rows.into_iter().map(|r| (r.path, r.count)).collect()
    }

    for backend in backends::all_for(Isa::Tx64) {
        let backend: Arc<dyn Backend> = Arc::from(backend);
        let sequential: Fingerprint = {
            let merged = TimeTrace::new();
            let bytes = modules
                .iter()
                .map(|m| {
                    let local = TimeTrace::new();
                    let artifact = backend
                        .compile_artifact(m, &local)
                        .expect("compile")
                        .expect("artifact support");
                    // Linked under the back-end's link phase, as the
                    // service links every module it returns.
                    {
                        let _t = local.scope(backend.link_phase());
                        artifact.instantiate().expect("link");
                    }
                    merged.merge(&local.report());
                    artifact.content_bytes()
                })
                .collect();
            (bytes, phases(&merged))
        };
        let mut counters: Option<CacheCounters> = None;
        for workers in [1, 2, 4] {
            let service = new_service(workers, 64);
            let trace = TimeTrace::new();
            let compiled = service
                .compile(prepared, &backend, &trace)
                .expect("service compile");
            let bytes = compiled
                .artifacts
                .iter()
                .map(|a| a.content_bytes())
                .collect();
            assert_eq!(
                (bytes, phases(&trace)),
                sequential,
                "{} with {workers} workers",
                backend.name()
            );
            let stats = service.cache_stats();
            assert_eq!(stats.misses, modules.len() as u64);
            assert_eq!(stats.entries, modules.len());
            assert_eq!(*counters.get_or_insert(stats), stats);
            assert_eq!(service.fault_stats(), FaultCounters::default());
        }
    }
}

/// (d): the fault envelope is the one every claimed module always ran
/// under — whoever claims it. Each module gets one attempt, whatever
/// its fault: the returned error, the fault counters, the back-end's
/// call count and what reaches the cache do not depend on the pool
/// size, and a live pool never counts an inline fallback.
#[test]
fn chaos_outcomes_do_not_depend_on_who_claims() {
    quiet_chaos_panics();
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len() as u64;
    let inner = || -> Arc<dyn Backend> { Arc::from(backends::direct_emit()) };
    let trace = TimeTrace::disabled();

    for workers in [1, 4] {
        // One module panics: the request fails with that panic, every
        // other module still reaches the cache, and a second request —
        // the schedule has fired — hits them and compiles the one left.
        let service = new_service(workers, 64);
        let chaos: Arc<dyn Backend> = Arc::new(ChaosBackend::on_nth(inner(), 1, ChaosFault::Panic));
        let err = service
            .compile(prepared, &chaos, &trace)
            .map(|_| ())
            .expect_err("a panicking module fails its request");
        assert!(
            matches!(&err, qc_engine::EngineError::Backend(e) if e.kind == BackendErrorKind::Panic),
            "{err}"
        );
        assert_eq!(
            service.fault_stats(),
            FaultCounters {
                panics_caught: 1,
                ..FaultCounters::default()
            }
        );
        assert_eq!(service.cache_stats().entries as u64, n - 1);
        service
            .compile(prepared, &chaos, &trace)
            .expect("second attempt");
        let stats = service.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries as u64),
            (n - 1, n + 1, n)
        );

        // One error, no second attempt: the request fails with it,
        // every other module still reaches the cache, and the back-end
        // saw each module once.
        let service = new_service(workers, 64);
        let chaos = Arc::new(ChaosBackend::on_nth(inner(), 0, ChaosFault::PermanentError));
        let backend: Arc<dyn Backend> = chaos.clone();
        let err = service
            .compile(prepared, &backend, &trace)
            .map(|_| ())
            .expect_err("a failing module fails its request");
        assert!(
            matches!(&err, qc_engine::EngineError::Backend(e) if e.kind == BackendErrorKind::Permanent),
            "{err}"
        );
        assert_eq!(chaos.calls(), n);
        assert_eq!(service.fault_stats(), FaultCounters::default());
        assert_eq!(service.cache_stats().entries as u64, n - 1);

        // Every module fails, by error and then by panic: nothing is
        // cached, every module costs exactly one call, and the error
        // reported is the one of the lowest-numbered pipeline.
        let service = new_service(workers, 64);
        let first = &prepared.ir.modules[0].name;
        for fault in [ChaosFault::PermanentError, ChaosFault::Panic] {
            let chaos = Arc::new(ChaosBackend::always(inner(), fault));
            let backend: Arc<dyn Backend> = chaos.clone();
            let err = service
                .compile(prepared, &backend, &trace)
                .map(|_| ())
                .expect_err("always-failing back-end");
            // Only a panic's message names its module.
            if fault == ChaosFault::Panic {
                assert!(
                    err.to_string().contains(&format!("`{first}`")),
                    "expected the first pipeline's error, got: {err}"
                );
            }
            assert_eq!(chaos.calls(), n, "{fault:?} with {workers} workers");
            assert_eq!(service.cache_stats().entries, 0);
        }
        let faults = service.fault_stats();
        assert_eq!(faults.panics_caught, n);
        assert_eq!(faults.inline_fallbacks, 0);
        assert_eq!(faults.workers_respawned, 0);
    }
}

/// (e): a helper ticket still queued when its request has finished
/// claims nothing, compiles nothing and, once a worker has picked it
/// up, holds nothing.
#[test]
fn stale_helper_ticket_is_a_no_op_and_leaks_nothing() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len();
    let service = new_service(1, 64);

    let (bg, entered, release) = held_probe(0xb9);
    let bg_backend: Arc<dyn Backend> = bg;
    let pending = service.spawn_compile(prepared, &bg_backend);
    entered
        .recv_timeout(PATIENCE)
        .expect("the worker never started the background job");

    // The request's one helper ticket queues up behind the held worker
    // and is still there when the caller has compiled everything. The
    // ticket's hold on the claim list shows as a hold on the back-end.
    let fg = Probe::plain(0xf9);
    let fg_backend: Arc<dyn Backend> = fg.clone();
    let backend_refs = Arc::strong_count(&fg_backend);
    drop(compile_while_held(
        &service,
        prepared,
        &fg_backend,
        &release,
    ));
    assert_eq!(fg.log().len(), n);
    assert!(
        Arc::strong_count(&fg_backend) > backend_refs,
        "no ticket is queued: the scenario did not happen"
    );

    // The worker runs its queue in order: the background job, the
    // stale ticket, then a second background job whose reply therefore
    // proves that the ticket has been run and dropped.
    release.send(()).expect("release the worker");
    pending.wait().expect("background compile");
    service
        .spawn_compile(prepared, &bg_backend)
        .wait()
        .expect("second background compile");
    assert_eq!(fg.log().len(), n, "the stale ticket compiled something");
    assert_eq!(Arc::strong_count(&fg_backend), backend_refs);
    // One miss per module for the request and for the first background
    // job, one hit per module for the second: the ticket probed nothing.
    let cache = service.cache_stats();
    assert_eq!(
        (cache.misses, cache.hits, cache.entries),
        (2 * n as u64, n as u64, 2 * n)
    );
    assert_eq!(service.fault_stats(), FaultCounters::default());
}

/// Two requests that compile the same module at the same time both
/// reach `CodeCache::insert`; only the first writer goes on to the
/// artifact store. With L1 disabled there is no race to lose and both
/// write through.
#[test]
fn losing_the_l1_race_skips_the_store_write() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let stmt = multi_pipeline_query(&session);
    let prepared = stmt.query();
    let n = prepared.ir.modules.len() as u64;
    let raced = prepared.ir.modules[0].name.clone();

    for (cache_capacity, writes) in [(64, n), (0, 2 * n)] {
        let dir = std::env::temp_dir().join(format!(
            "qc-fanout-race-{cache_capacity}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(ArtifactStoreConfig::at(dir.clone())));
        assert!(store.is_enabled(), "{:?}", store.disabled_reason());
        // Two workers, so that the barrier can be met even where every
        // compile needs a pool thread.
        let service = CompileService::with_store(
            CompileServiceConfig {
                workers: 2,
                cache_capacity,
            },
            Some(store),
        );
        // Both compiles of the raced module meet inside the back-end:
        // both requests have probed (and missed) both cache levels by
        // then, and neither can insert before the other is compiling.
        let both_compiling = Barrier::new(2);
        let name = raced.clone();
        let backend: Arc<dyn Backend> = Probe::new(0x7ace, move |m| {
            if m.name == name {
                both_compiling.wait();
            }
        });
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    service
                        .compile(prepared, &backend, &TimeTrace::disabled())
                        .expect("racing compile");
                });
            }
        });
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 2 * n, "both requests must miss every module");
        assert_eq!(stats.disk_writes, writes, "cache_capacity {cache_capacity}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
