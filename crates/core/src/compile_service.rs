//! Threaded compilation service: parallel pipeline compiles, an
//! IR-keyed code cache, background compilation for the scheduler's tier-up,
//! and a fault-tolerance layer that keeps a failing back-end from
//! killing a query.
//!
//! A query decomposes into independent pipelines, one IR module each;
//! nothing in a back-end compilation reads another pipeline's state.
//! One routine walks a query's modules for every compile the service
//! runs: it probes the cache, puts the misses behind one claim cursor,
//! compiles them, inserts the fresh artifacts in pipeline order and
//! reassembles the executables. A foreground compile runs it on the
//! calling thread with the persistent pool at hand, so the caller
//! compiles beside whichever workers are free. A background job
//! ([`CompileService::spawn_compile`]) runs the same routine on a pool
//! worker without the pool, so it compiles its misses one after another
//! and never queues helper work. Every compile uses a thread-local
//! [`TimeTrace`] (the trace type is deliberately not `Send`) and hands
//! back an immutable [`Report`] snapshot for merging, so phase
//! attribution survives the fan-out.
//!
//! The cache stores *unlinked* [`CodeArtifact`]s keyed by the module's
//! structural IR hash plus the back-end identity. The hash travels with
//! the prepared statement ([`PreparedQuery::module_hashes`], read from a
//! statement record or computed the first time a compile needs it), so
//! a request never walks the IR to build its keys, and touches a
//! module's IR only when the module misses both cache tiers: a
//! statement prepared from a record generates its IR then and only
//! then. A warm hit skips code generation entirely and pays
//! only the link/unwind-registration step (see `DESIGN.md`,
//! "Compilation service"), which a traced compile records under the
//! back-end's link phase, hit or miss. Parameterized
//! re-runs of a prepared query therefore compile in roughly link time.
//! Every module compiles to an artifact: a back-end that returns none is
//! rejected.
//!
//! # Failure domains
//!
//! Every compile job is one failure domain (see `DESIGN.md`, "Failure
//! domains & fallback chain"):
//!
//! * each module gets **one attempt** per tier: a compile error of any
//!   kind is the job's reply, never retried on the same back-end, and
//!   never enters the cache. A compile that has run has paid its cost,
//!   so a slow one is kept, not thrown away;
//! * a **panic** inside a back-end is caught by `crate::supervise`,
//!   converted into a `Panic`-kind [`BackendError`], and never reaches
//!   the cache or stalls the in-order reply merge — the job always
//!   sends exactly one reply;
//! * a **dead worker thread** (a panic escaping the per-job guard) is
//!   detected and respawned on the next submission. If no worker can be
//!   spawned at all, a foreground request compiles all of its misses
//!   itself, and a background job fails with a `Transient` error at
//!   once: background jobs never compile on the caller's thread, which
//!   may be holding a scheduler lock.
//!
//! [`FaultCounters`] exposes what the layer absorbed. A compile that
//! still fails returns [`EngineError::Backend`]; in serving, the
//! scheduler's [`crate::BreakerPolicy`] then walks its fallback chain.

use crate::artifact_store::{ArtifactKey, ArtifactStore};
use crate::engine::{CompiledQuery, EngineError, PreparedQuery};
use crate::lru::Lru;
use crate::supervise::{lock_recover, supervise};
use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats};
use qc_ir::Module;
use qc_timing::{Report, TimeTrace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`CompileService`].
#[derive(Debug, Clone, Copy)]
pub struct CompileServiceConfig {
    /// Worker threads in the pool (at least 1): the helpers beside the
    /// calling thread of a foreground request, which compiles too, and
    /// the only threads that run background jobs.
    pub workers: usize,
    /// Maximum number of cached artifacts; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for CompileServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(1)
            .clamp(1, 8);
        CompileServiceConfig {
            workers,
            cache_capacity: 128,
        }
    }
}

/// Cache counters snapshot, taken with [`CompileService::cache_stats`].
/// The `hits`/`misses`/`evictions` fields describe the in-memory LRU
/// (L1); the `disk_*` fields describe the persistent
/// [`ArtifactStore`] (L2) when one is attached, and stay zero
/// otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a usable artifact.
    pub hits: u64,
    /// Lookups that missed (including when caching is disabled).
    pub misses: u64,
    /// Entries displaced to respect the capacity bound.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: usize,
    /// Approximate bytes retained by resident artifacts.
    pub resident_bytes: usize,
    /// L1 misses served by the persistent store (pays a record read +
    /// link instead of a compile).
    pub disk_hits: u64,
    /// Probes of the persistent store that found nothing usable.
    pub disk_misses: u64,
    /// Artifacts persisted to the store.
    pub disk_writes: u64,
    /// Store records rejected by checksum/header verification or cut
    /// short by their segment's end (each one forced a recompile).
    pub disk_corrupt_rejected: u64,
    /// Store records evicted, with their segments, to respect the
    /// on-disk size budget.
    pub disk_evictions: u64,
}

/// Fault-tolerance counters snapshot, taken with
/// [`CompileService::fault_stats`]: what the service absorbed instead
/// of letting a query die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Back-end panics caught and converted into `Panic` errors.
    pub panics_caught: u64,
    /// Dead worker threads replaced.
    pub workers_respawned: u64,
    /// Foreground cache misses compiled on the caller thread because
    /// the pool had no live worker (a foreground caller claiming beside
    /// live workers is the normal path, not a fallback, and a
    /// background job the pool refuses fails instead).
    pub inline_fallbacks: u64,
}

/// Internal atomic counters behind [`FaultCounters`], shared with
/// worker jobs.
#[derive(Debug, Default)]
struct Faults {
    panics_caught: AtomicU64,
    workers_respawned: AtomicU64,
    inline_fallbacks: AtomicU64,
}

impl Faults {
    fn snapshot(&self) -> FaultCounters {
        FaultCounters {
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            inline_fallbacks: self.inline_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// Cache key: what must match for cached code to be reusable. The
/// module name is deliberately absent — structurally identical
/// pipelines of differently named queries share code (string literals
/// resolve through the context block at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    module_hash: u64,
    backend: &'static str,
    isa: &'static str,
    config: u64,
}

impl CacheKey {
    /// `module_hash` is the statement's stored structural hash of the
    /// module ([`PreparedQuery::module_hashes`]).
    fn new(module_hash: u64, backend: &dyn Backend) -> Self {
        CacheKey {
            module_hash,
            backend: backend.name(),
            isa: backend.isa().name(),
            config: backend.config_fingerprint(),
        }
    }

    /// The same identity in the persistent store's key type.
    fn artifact_key(&self) -> ArtifactKey {
        ArtifactKey {
            module_hash: self.module_hash,
            backend: self.backend,
            isa: self.isa,
            config: self.config,
        }
    }
}

/// Compiled artifacts in an in-memory LRU (L1), shared between the
/// caller thread and the workers, optionally backed by a persistent
/// [`ArtifactStore`] (L2). An L1 miss probes the store; a disk hit is
/// promoted into L1 and pays only deserialize + link. Fresh artifacts
/// are written through to the store. Either tier degrades to
/// pass-through independently: `capacity == 0` disables L1 but the
/// store still serves warm restarts, and a missing/disabled store
/// leaves the LRU behaving exactly as before.
struct CodeCache {
    l1: Lru<CacheKey, Arc<dyn CodeArtifact>>,
    store: Option<Arc<ArtifactStore>>,
}

impl CodeCache {
    fn new(capacity: usize, store: Option<Arc<ArtifactStore>>) -> Self {
        CodeCache {
            l1: Lru::new(capacity),
            store,
        }
    }

    fn lookup(&self, key: &CacheKey) -> Option<Arc<dyn CodeArtifact>> {
        if let Some(artifact) = self.l1.get(key) {
            return Some(artifact);
        }
        // L2: a verified disk artifact is promoted into L1 (not written
        // back to disk — it just came from there).
        let artifact = self.store.as_ref()?.load(&key.artifact_key())?;
        self.l1.insert(*key, Arc::clone(&artifact));
        Some(artifact)
    }

    /// Inserts a freshly compiled artifact: L1, written through to the
    /// persistent store when one is attached. The loser of an L1 race
    /// skips the write-through: the winner persists the same bytes.
    fn insert(&self, key: CacheKey, artifact: Arc<dyn CodeArtifact>) {
        if !self.l1.insert(key, Arc::clone(&artifact)) {
            return;
        }
        if let Some(store) = &self.store {
            store.store(&key.artifact_key(), artifact.as_ref());
        }
    }

    fn counters(&self) -> CacheCounters {
        let disk = self
            .store
            .as_deref()
            .map(ArtifactStore::counters)
            .unwrap_or_default();
        let l1 = self.l1.stats();
        CacheCounters {
            hits: l1.hits,
            misses: l1.misses,
            evictions: l1.evictions,
            entries: l1.entries,
            resident_bytes: self.l1.total(|artifact| artifact.size_bytes()),
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_writes: disk.writes,
            disk_corrupt_rejected: disk.corrupt_rejected,
            disk_evictions: disk.evictions,
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Persistent worker threads taking compile jobs from one shared
/// channel receiver. Dropping the pool closes the channel and joins the
/// workers.
///
/// Compile jobs isolate back-end panics themselves, so a worker thread
/// normally lives forever; should a panic nevertheless escape a job
/// (a bug in the service layer, not a back-end), only that thread dies,
/// and the next [`WorkerPool::live_workers`] count (every submission
/// takes one) reaps and respawns it.
struct WorkerPool {
    job_tx: Option<Sender<Job>>,
    /// Every worker's end of the queue, respawned ones' too.
    job_rx: Arc<Mutex<Receiver<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    spawn_counter: AtomicU64,
    faults: Arc<Faults>,
}

impl WorkerPool {
    fn new(workers: usize, faults: Arc<Faults>) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let spawn_counter = AtomicU64::new(0);
        let mut handles = Vec::new();
        for _ in 0..workers.max(1) {
            let idx = spawn_counter.fetch_add(1, Ordering::Relaxed);
            // A thread the OS refuses to spawn just shrinks the pool;
            // with zero live workers foreground requests compile inline.
            if let Ok(h) = Self::spawn_worker(Arc::clone(&job_rx), idx) {
                handles.push(h);
            }
        }
        WorkerPool {
            job_tx: Some(job_tx),
            job_rx,
            handles: Mutex::new(handles),
            spawn_counter,
            faults,
        }
    }

    fn spawn_worker(rx: Arc<Mutex<Receiver<Job>>>, idx: u64) -> std::io::Result<JoinHandle<()>> {
        std::thread::Builder::new()
            .name(format!("qc-compile-{idx}"))
            .spawn(move || loop {
                // The guard drops with this statement, before the job
                // runs: held across `job()`, it would serialise the pool.
                let next = lock_recover(&rx).recv();
                let Ok(job) = next else { return };
                job();
            })
    }

    /// Replaces worker threads that have died and returns how many are
    /// live, under one acquisition of the `handles` lock: respawn cost
    /// is one `is_finished` check per worker in the happy path.
    fn live_workers(&self) -> usize {
        let mut handles = lock_recover(&self.handles);
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let dead = handles.swap_remove(i);
                let _ = dead.join();
                let idx = self.spawn_counter.fetch_add(1, Ordering::Relaxed);
                if let Ok(h) = Self::spawn_worker(Arc::clone(&self.job_rx), idx) {
                    handles.push(h);
                }
                self.faults
                    .workers_respawned
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                i += 1;
            }
        }
        handles.len()
    }

    fn worker_count(&self) -> usize {
        lock_recover(&self.handles).len()
    }

    /// Hands `job` to the pool, or hands it back when no worker can run
    /// it (pool shut down, channel closed, or every spawn failed).
    fn submit(&self, job: Job) -> Result<(), Job> {
        match &self.job_tx {
            Some(tx) if self.live_workers() > 0 => tx.send(job).map_err(|e| e.0),
            _ => Err(job),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        for h in lock_recover(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// What one compiled miss reports back: pipeline index, cache key, the
/// outcome and, for a clean traced success, its per-phase timings.
type Reply = (
    usize,
    CacheKey,
    Result<Arc<dyn CodeArtifact>, BackendError>,
    Option<Report>,
);

/// One request's cache misses behind a claim cursor: a vector and one
/// atomic index into it, each claim taking the next unclaimed miss. The
/// thread that built the list and the helper tickets it offers to the
/// pool run the same [`ClaimList::drain`]; nobody else holds the list,
/// so a caller only ever compiles modules of its own request.
struct ClaimList {
    misses: Vec<(usize, CacheKey, Arc<Module>)>,
    /// Next unclaimed entry of `misses`. `Relaxed`: the cursor hands
    /// out indices and publishes no data — the list is complete before
    /// it is shared, and replies travel by channel.
    next: AtomicUsize,
    backend: Arc<dyn Backend>,
    record: bool,
    faults: Arc<Faults>,
}

impl ClaimList {
    /// Claims and compiles misses until none is left, one attempt per
    /// module, passing exactly one reply per claimed module to `reply`
    /// (the back-end runs under `supervise`, so a panic is a reply too:
    /// a `Panic`-kind error, counted in `panics_caught`). A ticket that
    /// arrives after the list is drained claims nothing and returns.
    fn drain(&self, mut reply: impl FnMut(Reply)) {
        let backend = self.backend.as_ref();
        while let Some((i, key, module)) =
            self.misses.get(self.next.fetch_add(1, Ordering::Relaxed))
        {
            let local = if self.record {
                TimeTrace::new()
            } else {
                TimeTrace::disabled()
            };
            let out = supervise(|| compile_one(backend, module, &local)).unwrap_or_else(|panic| {
                self.faults.panics_caught.fetch_add(1, Ordering::Relaxed);
                Err(BackendError::panicked(format!(
                    "compile of `{}` panicked: {panic}",
                    module.name
                )))
            });
            // Timings of failed jobs are not meaningful per phase;
            // report only clean successes.
            let report = (out.is_ok() && self.record).then(|| local.report());
            reply((*i, *key, out, report));
        }
    }

    /// Compiles every miss (the list holds at least one) and returns the
    /// replies sorted by pipeline index. With a `pool`, up to one helper ticket per live worker
    /// (never more than the misses this thread cannot take itself) is
    /// offered to it, and this thread then claims and compiles beside
    /// whichever helpers are free instead of parking until the pool
    /// gets round to it; it blocks only for modules a helper claimed
    /// and has not finished. Without one, this thread compiles every
    /// miss in order. Every claimed module replies exactly once even
    /// when the back-end panics; a disconnect (worker died outside the
    /// job guard) just leaves replies missing, which `assemble`
    /// reports.
    fn compile(self, pool: Option<&WorkerPool>) -> Vec<Reply> {
        let n_misses = self.misses.len();
        let live = pool.map_or(0, WorkerPool::live_workers);
        if pool.is_some() && live == 0 {
            // No live worker: every miss compiles on this thread.
            self.faults
                .inline_fallbacks
                .fetch_add(n_misses as u64, Ordering::Relaxed);
        }
        let list = Arc::new(self);
        let helpers = (n_misses - 1).min(live);
        let helper_rx = pool.filter(|_| helpers > 0).map(|pool| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..helpers {
                let (list, tx) = (Arc::clone(&list), tx.clone());
                // A ticket the pool hands back is dropped: this thread
                // claims whatever no helper does.
                let _ = pool.submit(Box::new(move || list.drain(|r| drop(tx.send(r)))));
            }
            rx
        });

        let mut replies = Vec::with_capacity(n_misses);
        list.drain(|r| replies.push(r));
        if let Some(rx) = helper_rx {
            let claimed_by_helpers = n_misses - replies.len();
            replies.extend(std::iter::from_fn(|| rx.recv().ok()).take(claimed_by_helpers));
        }
        replies.sort_by_key(|r| r.0);
        replies
    }
}

/// The ticket of a background compilation started with
/// [`CompileService::spawn_compile`], resolved by a pool worker while
/// the caller keeps executing.
pub struct PendingCompile(pub(crate) Receiver<Result<CompiledQuery, BackendError>>);

fn worker_disconnected() -> BackendError {
    BackendError::transient("compile worker disconnected")
}

impl PendingCompile {
    /// Returns the finished compilation if it is ready, without
    /// blocking; `None` while the worker is still compiling. The result
    /// is delivered once: after it is taken the worker's end is gone, so
    /// every later poll reads "compile worker disconnected". The caller
    /// drops the handle on the first `Some`, as `adopt_ready` does.
    pub(crate) fn try_take(&mut self) -> Option<Result<CompiledQuery, BackendError>> {
        match self.0.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(worker_disconnected())),
        }
    }

    /// Blocks until the compilation finishes.
    ///
    /// # Errors
    /// Propagates the compilation's [`BackendError`].
    pub fn wait(self) -> Result<CompiledQuery, BackendError> {
        self.0.recv().unwrap_or_else(|_| Err(worker_disconnected()))
    }
}

/// The compilation service. One instance per engine (or process) owns
/// the worker pool and the code cache; it is backend-agnostic — the
/// cache key carries the back-end identity.
pub struct CompileService {
    pool: WorkerPool,
    cache: Arc<CodeCache>,
    faults: Arc<Faults>,
}

impl std::fmt::Debug for CompileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompileService({} workers, {:?}, {:?})",
            self.pool.worker_count(),
            self.cache.counters(),
            self.faults.snapshot()
        )
    }
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new(CompileServiceConfig::default())
    }
}

impl CompileService {
    /// Creates the service, spawning its worker threads. The code cache
    /// is in-memory only; use [`CompileService::with_store`] to attach
    /// a persistent artifact store under it.
    pub fn new(config: CompileServiceConfig) -> Self {
        Self::with_store(config, None)
    }

    /// Creates the service with a persistent [`ArtifactStore`] as the
    /// second cache tier: L1 misses probe the store, fresh artifacts
    /// are written through to it, and a warm restart (new process, same
    /// store directory) skips codegen for every previously compiled
    /// module. `None` behaves exactly like [`CompileService::new`].
    pub fn with_store(config: CompileServiceConfig, store: Option<Arc<ArtifactStore>>) -> Self {
        let faults = Arc::new(Faults::default());
        CompileService {
            pool: WorkerPool::new(config.workers, Arc::clone(&faults)),
            cache: Arc::new(CodeCache::new(config.cache_capacity, store)),
            faults,
        }
    }

    /// The attached persistent store, when one was configured.
    pub fn artifact_store(&self) -> Option<&Arc<ArtifactStore>> {
        self.cache.store.as_ref()
    }

    /// Snapshot of the cache counters (both tiers).
    pub fn cache_stats(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Snapshot of the fault-tolerance counters. Corrupt store records
    /// the service replaced by a recompile are counted once, in
    /// [`CacheCounters::disk_corrupt_rejected`].
    pub fn fault_stats(&self) -> FaultCounters {
        self.faults.snapshot()
    }

    /// Live worker threads (after any respawns).
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// Compiles every pipeline of `prepared` with `backend`, the calling
    /// thread and free pool workers sharing the cache misses, and
    /// reassembles the executables in pipeline order. Per-phase timings
    /// are merged into `trace` in pipeline order, so the merged trace is
    /// deterministic regardless of who compiled what.
    ///
    /// Each module compile is one isolated attempt: a panic is caught
    /// and becomes an error, and an error of any kind is final for this
    /// back-end. A failed job never poisons the cache (only successful
    /// artifacts are inserted) and never stalls the reply merge (every
    /// job replies exactly once).
    ///
    /// The cache is keyed from [`PreparedQuery::module_hashes`] alone;
    /// only a module that misses both tiers reads `prepared.ir`. The
    /// first successful compile of a statement that found no statement
    /// record writes one to the attached store.
    ///
    /// # Errors
    /// Returns [`EngineError::Backend`] when any module is rejected;
    /// the error of the lowest-numbered failing pipeline wins.
    pub fn compile(
        &self,
        prepared: &PreparedQuery,
        backend: &Arc<dyn Backend>,
        trace: &TimeTrace,
    ) -> Result<CompiledQuery, EngineError> {
        let module = |i: usize| Arc::clone(&prepared.ir.modules[i]);
        let compiled = compile_query(
            (prepared.module_hashes(), module),
            backend,
            trace,
            &self.cache,
            &self.faults,
            Some(&self.pool),
        )?;
        if let Some(store) = &self.cache.store {
            prepared.write_record(store);
        }
        Ok(compiled)
    }

    /// Starts compiling every pipeline of `prepared` on a pool worker
    /// and returns immediately; the
    /// caller keeps executing and adopts the finished tier between two
    /// morsels, or blocks on [`PendingCompile::wait`]. The job compiles
    /// the query's misses one after another on that worker (tier-up runs
    /// beside a live query; monopolizing the pool would starve
    /// foreground compiles) through the shared code cache, and records no
    /// per-phase trace. A panicking or failing optimizing tier
    /// surfaces as an `Err` through the handle instead of wedging the
    /// pool, and so does a pool with no live worker: the job is then
    /// refused, never compiled on this thread. The caller simply keeps
    /// executing its current tier. The job shares the statement, so a
    /// statement prepared from a statement record generates its IR on
    /// the pool worker, and only when a module misses both cache tiers,
    /// as a foreground compile does.
    pub fn spawn_compile(
        &self,
        prepared: &Arc<PreparedQuery>,
        backend: &Arc<dyn Backend>,
    ) -> PendingCompile {
        let prepared = Arc::clone(prepared);
        let backend = Arc::clone(backend);
        let (cache, faults) = (Arc::clone(&self.cache), Arc::clone(&self.faults));
        let (tx, rx) = mpsc::channel();
        let reply = tx.clone();
        let job: Job = Box::new(move || {
            let trace = TimeTrace::disabled();
            let module = |i: usize| Arc::clone(&prepared.ir.modules[i]);
            let modules = (prepared.module_hashes(), module);
            let out = compile_query(modules, &backend, &trace, &cache, &faults, None);
            let _ = reply.send(out);
        });
        if self.pool.submit(job).is_err() {
            let _ = tx.send(Err(BackendError::transient("no live compile worker")));
        }
        PendingCompile(rx)
    }
}

/// The one routine that walks a query's modules, for every compile the
/// service runs: probes the cache on this thread, compiles the misses
/// behind one claim list — beside helper tickets offered to `pool`,
/// when there is one — acts on the replies in pipeline order whatever
/// order they finished in (trace merging and cache insertion are
/// deterministic, and the lowest-numbered failure wins), and
/// reassembles the executables. The query's modules come as the
/// structural hashes the statement keeps ([`PreparedQuery::module_hashes`]),
/// one per pipeline, so a request never walks the IR to key the cache,
/// and `module(i)`, called on this thread only for a pipeline that
/// misses both tiers.
fn compile_query(
    (hashes, module): (&[u64], impl Fn(usize) -> Arc<Module>),
    backend: &Arc<dyn Backend>,
    trace: &TimeTrace,
    cache: &CodeCache,
    faults: &Arc<Faults>,
    pool: Option<&WorkerPool>,
) -> Result<CompiledQuery, BackendError> {
    let start = Instant::now();
    let mut slots = Vec::with_capacity(hashes.len());
    let mut misses = Vec::new();
    for (i, &hash) in hashes.iter().enumerate() {
        let key = CacheKey::new(hash, backend.as_ref());
        let hit = cache.lookup(&key);
        if hit.is_none() {
            misses.push((i, key, module(i)));
        }
        slots.push(hit);
    }
    if misses.is_empty() {
        return assemble(slots, start, backend.as_ref(), trace);
    }

    let list = ClaimList {
        misses,
        next: AtomicUsize::new(0),
        backend: Arc::clone(backend),
        record: trace.is_enabled(),
        faults: Arc::clone(faults),
    };
    let mut first_err: Option<BackendError> = None;
    for (i, key, out, report) in list.compile(pool) {
        if let Some(r) = &report {
            trace.merge(r);
        }
        match out {
            Ok(artifact) => {
                cache.insert(key, Arc::clone(&artifact));
                slots[i] = Some(artifact);
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e.in_backend(backend.name()));
    }
    assemble(slots, start, backend.as_ref(), trace)
}

/// Compiles one module to its artifact. A back-end that returns none
/// is rejected with a permanent error naming it: every compile the
/// engine keeps is relinkable. The service runs it under `supervise`
/// (`ClaimList::drain`); the direct measurement path runs it bare.
pub(crate) fn compile_one(
    backend: &dyn Backend,
    module: &Module,
    trace: &TimeTrace,
) -> Result<Arc<dyn CodeArtifact>, BackendError> {
    match backend.compile_artifact(module, trace)? {
        Some(artifact) => Ok(Arc::from(artifact)),
        None => Err(
            BackendError::new(format!("no code artifact for `{}`", module.name))
                .in_backend(backend.name()),
        ),
    }
}

/// Links every slot's artifact in pipeline order into a
/// [`CompiledQuery`], each link timed under the back-end's
/// [`Backend::link_phase`]; cached and disk artifacts pay only this
/// link/unwind-registration step. The query's statistics sum the
/// artifacts' and the linked code sizes. An empty slot is a module
/// whose reply never came (its worker died outside the job guard).
pub(crate) fn assemble(
    slots: Vec<Option<Arc<dyn CodeArtifact>>>,
    start: Instant,
    backend: &dyn Backend,
    trace: &TimeTrace,
) -> Result<CompiledQuery, BackendError> {
    let mut executables = Vec::with_capacity(slots.len());
    let mut artifacts = Vec::with_capacity(slots.len());
    let mut stats = CompileStats::default();
    for slot in slots {
        let artifact =
            slot.ok_or_else(|| BackendError::transient("compile worker died before replying"))?;
        let exe = {
            let _t = trace.scope(backend.link_phase());
            artifact.instantiate()?
        };
        stats.merge(artifact.compile_stats());
        stats.code_bytes += exe.code_bytes();
        executables.push(exe);
        artifacts.push(artifact);
    }
    Ok(CompiledQuery {
        executables,
        artifacts,
        compile_time: start.elapsed(),
        compile_stats: stats,
        backend_name: backend.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A service whose pool has no worker and can spawn none.
    fn dead_pool_service() -> CompileService {
        let faults = Arc::new(Faults::default());
        let (_, job_rx) = mpsc::channel::<Job>();
        CompileService {
            pool: WorkerPool {
                job_tx: None,
                job_rx: Arc::new(Mutex::new(job_rx)),
                handles: Mutex::new(Vec::new()),
                spawn_counter: AtomicU64::new(0),
                faults: Arc::clone(&faults),
            },
            cache: Arc::new(CodeCache::new(16, None)),
            faults,
        }
    }

    /// A job that panics past the per-job guard kills its worker; the
    /// pool must notice and replace the thread on the next submit.
    #[test]
    fn dead_workers_are_respawned() {
        let faults = Arc::new(Faults::default());
        let pool = WorkerPool::new(2, Arc::clone(&faults));
        assert_eq!(pool.worker_count(), 2);
        // Raw jobs bypass the compile-level supervision, so this
        // panic unwinds through the worker loop and kills the thread.
        for _ in 0..2 {
            pool.submit(Box::new(|| panic!("worker-fatal bug")))
                .map_err(|_| ())
                .expect("submit");
        }
        // Wait for both panicking jobs to take their workers down.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let finished = lock_recover(&pool.handles)
                .iter()
                .filter(|h| h.is_finished())
                .count();
            if finished == 2 || Instant::now() > deadline {
                break;
            }
            std::thread::yield_now();
        }
        // The next submission reaps the corpses and restores capacity.
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || {
            let _ = tx.send(42u64);
        }))
        .map_err(|_| ())
        .expect("submit after respawn");
        assert_eq!(rx.recv(), Ok(42));
        assert_eq!(pool.worker_count(), 2);
        assert_eq!(faults.snapshot().workers_respawned, 2);
    }

    /// With no live worker a request offers no ticket and compiles
    /// every miss on its own thread; each one counts as an inline
    /// fallback. A pool that cannot spawn is not reachable through the
    /// public configuration, hence here and not in
    /// `tests/compile_fanout.rs`.
    #[test]
    fn dead_pool_compiles_every_miss_inline() {
        let db = qc_storage::gen_hlike(0.01);
        let engine = crate::Engine::new(&db);
        let prepared = qc_workloads::hlike_suite()
            .iter()
            .filter_map(|q| engine.prepare(&q.plan, &q.name).ok())
            .find(|p| p.ir.modules.len() >= 2)
            .expect("a multi-pipeline query");
        let service = dead_pool_service();
        let backend: Arc<dyn Backend> = Arc::from(crate::backends::direct_emit());
        let misses = prepared.ir.modules.len();
        let compiled = service
            .compile(&prepared, &backend, &TimeTrace::disabled())
            .expect("inline compile");
        assert_eq!(compiled.executables.len(), misses);
        assert_eq!(service.fault_stats().inline_fallbacks, misses as u64);
        assert_eq!(service.cache_stats().entries, misses);
        // All hits: nothing left to fall back for.
        service
            .compile(&prepared, &backend, &TimeTrace::disabled())
            .expect("warm compile");
        assert_eq!(service.fault_stats().inline_fallbacks, misses as u64);
    }

    /// A background job the pool cannot run is refused, not compiled on
    /// the calling thread (which may hold the scheduler's lock): its
    /// ticket is resolved at once to a transient error, and the cache
    /// never sees a probe.
    #[test]
    fn dead_pool_refuses_background_jobs() {
        let db = qc_storage::gen_hlike(0.01);
        let engine = crate::Engine::new(&db);
        let query = &qc_workloads::hlike_suite()[0];
        let prepared = Arc::new(engine.prepare(&query.plan, &query.name).expect("prepare"));
        let service = dead_pool_service();
        let backend: Arc<dyn Backend> = Arc::from(crate::backends::direct_emit());
        let mut pending = service.spawn_compile(&prepared, &backend);
        let err = pending
            .try_take()
            .expect("a refused job is resolved at once")
            .map(|_| ())
            .expect_err("a refused job compiles nothing");
        assert_eq!(err.kind, qc_backend::BackendErrorKind::Transient);
        assert!(err.message.contains("no live compile worker"), "{err}");
        assert_eq!(service.cache_stats(), CacheCounters::default());
        assert_eq!(service.fault_stats(), FaultCounters::default());
    }

    /// A ticket whose sending side dies in a panic resolves to the
    /// transient "worker disconnected" error, both when polled after the
    /// death and when the death happens while the caller waits.
    #[test]
    fn a_ticket_whose_sender_dies_in_a_panic_reads_disconnected() {
        fn die_holding(tx: Sender<Result<CompiledQuery, BackendError>>) {
            let _tx = tx;
            std::panic::resume_unwind(Box::new("sender died"));
        }
        fn is_disconnected(r: Result<CompiledQuery, BackendError>) -> bool {
            r.is_err_and(|e| {
                e.kind == qc_backend::BackendErrorKind::Transient
                    && e.message.contains("compile worker disconnected")
            })
        }

        let (tx, rx) = mpsc::channel();
        let mut polled = PendingCompile(rx);
        assert!(std::thread::spawn(move || die_holding(tx)).join().is_err());
        assert!(polled.try_take().is_some_and(is_disconnected));

        // The sender dies once the caller is about to block in `wait`,
        // so the disconnect must wake it. Bounded, so that a lost
        // wake-up fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let (waiting_tx, waiting_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = waiting_tx.send(());
            let _ = done_tx.send(is_disconnected(PendingCompile(rx).wait()));
        });
        let dying = std::thread::spawn(move || {
            let _ = waiting_rx.recv();
            die_holding(tx);
        });
        let waited = done_rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(waited, Ok(true), "wait did not read the disconnect");
        assert!(dying.join().is_err());
        waiter.join().expect("waiter");
    }

    /// A finished background tier is adopted exactly once: the handle
    /// is cleared with it, so a second poll has nothing to report.
    #[test]
    fn adopt_ready_adopts_a_finished_tier_once() {
        let db = qc_storage::gen_hlike(0.01);
        let engine = crate::Engine::new(&db);
        let query = &qc_workloads::hlike_suite()[0];
        let prepared = Arc::new(engine.prepare(&query.plan, &query.name).expect("prepare"));
        let service = CompileService::default();
        let trace = TimeTrace::disabled();
        let interp: Arc<dyn Backend> = Arc::from(crate::backends::interpreter());
        let clift: Arc<dyn Backend> = Arc::from(crate::backends::clift(qc_target::Isa::Tx64));
        let mut compiled = service.compile(&prepared, &interp, &trace).expect("cheap");
        let mut pending = Some(service.spawn_compile(&prepared, &clift));
        let adopted = loop {
            if let Some(adopted) = compiled.adopt_ready(&mut pending) {
                break adopted;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(adopted.is_ok(), "{adopted:?}");
        assert!(pending.is_none());
        assert_eq!(compiled.backend_name, "Clift");
        assert!(compiled.adopt_ready(&mut pending).is_none());
        assert_eq!(compiled.backend_name, "Clift");
    }
}
