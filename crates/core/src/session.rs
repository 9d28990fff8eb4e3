//! The prepared-statement session: one façade over preparation,
//! compilation, caching, and execution.
//!
//! A [`Session`] owns the pieces a serving process keeps alive between
//! queries — the [`CompileService`] with its two-tier artifact cache,
//! a prepared-statement cache keyed by canonical plan text, and a
//! default back-end — and exposes one builder-style entry point:
//!
//! ```
//! use qc_engine::Session;
//! use qc_plan::{col, lit_i64, PlanNode};
//!
//! let db = qc_storage::gen_hlike(0.02);
//! let session = Session::new(&db);
//! let plan = PlanNode::scan("orders", &["o_orderkey", "o_custkey"])
//!     .filter(col("o_custkey").lt(lit_i64(5)));
//! let result = session.prepare(&plan).unwrap().workers(1).execute().unwrap();
//! assert!(!result.rows.is_empty());
//! ```
//!
//! Statements are keyed by [`PlanNode::canonical_text`] — the engine's
//! stand-in for SQL text — so re-preparing the same plan skips
//! planning and IR generation entirely. A [`PreparedStatement`] is a
//! cheap clonable handle (two `Arc`s: a clone allocates nothing) with
//! no borrow of the session or database: it survives across [`Engine`]
//! instances, and [`Session::reopen`] carries the whole statement
//! cache, compile service, and persistent artifact store over to a new
//! database snapshot, so a reopened session re-runs its statements in
//! roughly link time.
//!
//! With a persistent artifact store, a statement-cache miss also looks
//! for the statement's record in the store: a restarted process that
//! finds one plans the statement but generates no IR for it unless a
//! module must actually be compiled (see [`crate::ArtifactStore`]).

use crate::artifact_store::ArtifactStoreConfig;
use crate::compile_service::{CompileService, CompileServiceConfig};
use crate::engine::{
    CompiledQuery, Engine, EngineConfig, EngineError, ExecutionResult, PreparedQuery, QueryBudget,
};
use crate::lru::Lru;
use crate::morsel_exec;
use crate::ArtifactStore;
use qc_backend::Backend;
use qc_plan::PlanNode;
use qc_storage::Database;
use qc_timing::TimeTrace;
use std::sync::Arc;

/// Module name used for all session-prepared statements. The code
/// cache keys on the *structural* IR hash, which excludes module names
/// (and generated function names are fixed per pipeline role), so a
/// constant name costs nothing and keeps cache keys stable across
/// sessions and processes.
const STATEMENT_NAME: &str = "q";

/// Counters of the prepared-statement cache, taken with
/// [`Session::statement_cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatementCacheStats {
    /// Lookups answered from the cache (planning + codegen skipped).
    pub hits: u64,
    /// Lookups that had to plan and generate IR (counted at the lookup,
    /// so a plan that fails to prepare counts too).
    pub misses: u64,
    /// Statements displaced to respect the capacity bound.
    pub evictions: u64,
    /// Statements currently resident.
    pub entries: usize,
}

/// Bounded LRU of prepared statements keyed by canonical plan text.
/// The text is kept once: the key and every handle the entry hands out
/// share one `Arc<str>`. Shared (behind `Arc`) between a session, its
/// reopened descendants, and any scheduler serving on top of it.
pub(crate) struct StatementCache(Lru<Arc<str>, PreparedStatement>);

impl StatementCache {
    pub(crate) fn new(capacity: usize) -> Self {
        StatementCache(Lru::new(capacity))
    }

    /// Returns the cached statement for `plan`, preparing and caching
    /// it on a miss. `capacity == 0` degrades to pass-through: every
    /// call prepares, nothing is retained, the miss is still counted.
    /// A miss with an enabled `store` looks for the statement's record
    /// there first.
    pub(crate) fn get_or_prepare(
        &self,
        engine: &Engine<'_>,
        store: Option<&Arc<ArtifactStore>>,
        plan: &PlanNode,
    ) -> Result<PreparedStatement, EngineError> {
        let text = plan.canonical_text();
        if let Some(statement) = self.0.get(text.as_str()) {
            return Ok(statement);
        }
        // Prepared outside the lock: planning + codegen can be slow, and
        // a concurrent duplicate prepare is harmless (first insert wins).
        let text: Arc<str> = Arc::from(text);
        let prepared = match store.filter(|store| store.is_enabled()) {
            Some(store) => engine.prepare_recorded(plan, STATEMENT_NAME, &text, store)?,
            None => engine.prepare(plan, STATEMENT_NAME)?,
        };
        let statement = PreparedStatement {
            text,
            prepared: Arc::new(prepared),
        };
        self.0
            .insert(Arc::clone(&statement.text), statement.clone());
        Ok(statement)
    }

    pub(crate) fn stats(&self) -> StatementCacheStats {
        let s = self.0.stats();
        StatementCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries,
        }
    }
}

/// A prepared statement: canonical plan text plus the planned query and
/// its IR (see [`PreparedQuery::ir`]). Cheap to clone (two `Arc` bumps,
/// no allocation: the text is the statement cache's), `'static`, and
/// independent of any [`Engine`] borrow — a statement prepared in
/// one session can be executed by a [`Session::reopen`]ed one over a
/// fresh [`Database`] snapshot.
#[derive(Clone)]
pub struct PreparedStatement {
    text: Arc<str>,
    pub(crate) prepared: Arc<PreparedQuery>,
}

impl PreparedStatement {
    /// The canonical plan text this statement was cached under.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The planned pipelines and their IR, shared with the session's
    /// statement cache.
    pub fn query(&self) -> &Arc<PreparedQuery> {
        &self.prepared
    }
}

impl std::fmt::Debug for PreparedStatement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedStatement({} pipelines, {:?})",
            self.prepared.plan().pipelines.len(),
            self.text
        )
    }
}

/// Configuration of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Execution-side knobs (morsel size).
    pub engine: EngineConfig,
    /// Compilation-service knobs (workers, in-memory cache capacity).
    pub compile: CompileServiceConfig,
    /// Persistent artifact store (L2) under the in-memory code cache.
    /// `None` keeps compilation purely in-memory; `Some` makes compiled
    /// code survive process restarts. An unusable directory degrades to
    /// pass-through rather than failing the session.
    pub artifact_store: Option<ArtifactStoreConfig>,
    /// Prepared statements retained; 0 disables statement caching.
    pub statement_cache_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            engine: EngineConfig::default(),
            compile: CompileServiceConfig::default(),
            artifact_store: None,
            statement_cache_capacity: 64,
        }
    }
}

impl SessionConfig {
    /// Default configuration plus a persistent artifact store.
    pub fn with_artifact_store(store: ArtifactStoreConfig) -> Self {
        SessionConfig {
            artifact_store: Some(store),
            ..Default::default()
        }
    }
}

/// A query session over one database: the prepared-statement API.
///
/// Construction order of the run builder:
/// `session.prepare(&plan)?.backend(b).workers(4).execute()`.
/// See the module docs for the full picture.
pub struct Session<'db> {
    engine: Engine<'db>,
    service: Arc<CompileService>,
    statements: Arc<StatementCache>,
    default_backend: Arc<dyn Backend>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Session({:?}, default {}, {:?})",
            self.engine,
            self.default_backend.name(),
            self.statements.stats()
        )
    }
}

impl<'db> Session<'db> {
    /// Creates a session over `db` with default configuration: no
    /// persistent store, interpreter as the default back-end.
    pub fn new(db: &'db Database) -> Self {
        Session::with_config(db, SessionConfig::default())
    }

    /// Creates a session over `db` with explicit configuration. Opening
    /// never fails: an unusable artifact-store directory degrades the
    /// store to pass-through (visible via
    /// [`ArtifactStore::disabled_reason`]).
    pub fn with_config(db: &'db Database, config: SessionConfig) -> Self {
        let store = config
            .artifact_store
            .map(|c| Arc::new(ArtifactStore::open(c)));
        let service = Arc::new(CompileService::with_store(config.compile, store));
        Session {
            engine: Engine::with_config(db, config.engine),
            service,
            statements: Arc::new(StatementCache::new(config.statement_cache_capacity)),
            default_backend: Arc::from(crate::backends::interpreter()),
        }
    }

    /// Reopens the session over another database snapshot, carrying the
    /// compile service (and its persistent store), the statement cache,
    /// and the default back-end over — prepared statements and compiled
    /// code survive; only the execution engine is rebound.
    pub fn reopen<'b>(&self, db: &'b Database) -> Session<'b> {
        Session {
            engine: Engine::with_config(
                db,
                EngineConfig {
                    morsel_size: self.engine.morsel_size(),
                },
            ),
            service: Arc::clone(&self.service),
            statements: Arc::clone(&self.statements),
            default_backend: Arc::clone(&self.default_backend),
        }
    }

    /// The execution engine bound to this session's database.
    pub fn engine(&self) -> &Engine<'db> {
        &self.engine
    }

    /// The compilation service (worker pool, code cache, fault layer).
    pub fn compile_service(&self) -> &Arc<CompileService> {
        &self.service
    }

    /// Counters of the prepared-statement cache.
    pub fn statement_cache_stats(&self) -> StatementCacheStats {
        self.statements.stats()
    }

    /// The shared statement cache, for schedulers serving on top of
    /// this session.
    pub(crate) fn statements(&self) -> &Arc<StatementCache> {
        &self.statements
    }

    /// Plans `plan` (or returns the cached statement for it) without
    /// building a run.
    ///
    /// # Errors
    /// Returns [`EngineError::Plan`] for schema/type errors.
    pub fn statement(&self, plan: &PlanNode) -> Result<PreparedStatement, EngineError> {
        let store = self.service.artifact_store();
        self.statements.get_or_prepare(&self.engine, store, plan)
    }

    /// Builds a run of an already prepared statement — including one
    /// prepared by an earlier session incarnation (see
    /// [`Session::reopen`]).
    pub fn run(&self, statement: PreparedStatement) -> QueryRun<'_, 'db> {
        QueryRun {
            session: self,
            statement,
            backend: None,
            trace: None,
            workers: 1,
            query_budget: None,
            direct: false,
        }
    }

    /// Plans `plan` (consulting the statement cache) and builds a run:
    /// `session.prepare(&plan)?.backend(b).workers(4).execute()`.
    ///
    /// # Errors
    /// Returns [`EngineError::Plan`] for schema/type errors.
    pub fn prepare(&self, plan: &PlanNode) -> Result<QueryRun<'_, 'db>, EngineError> {
        Ok(self.run(self.statement(plan)?))
    }
}

/// A builder-style query run over a [`Session`], created by
/// [`Session::prepare`] or [`Session::run`]. Defaults: the session's
/// default back-end, no trace, single-threaded execution and no
/// execution budget. A compile through the compile service gets one
/// attempt per module on the chosen back-end.
pub struct QueryRun<'s, 'db> {
    session: &'s Session<'db>,
    statement: PreparedStatement,
    backend: Option<Arc<dyn Backend>>,
    trace: Option<&'s TimeTrace>,
    workers: usize,
    query_budget: Option<QueryBudget>,
    direct: bool,
}

impl<'s, 'db> QueryRun<'s, 'db> {
    /// Compiles with `backend` instead of the session default.
    #[must_use]
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Collects the per-phase compile-time breakdown into `trace`,
    /// each module's link included (under the back-end's link phase).
    #[must_use]
    pub fn trace(mut self, trace: &'s TimeTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Executes morsel-parallel on `n = workers` workers (`0` and `1`
    /// both mean the exact serial path, on the calling thread with no
    /// fork or thread). Otherwise each pipeline with at least two
    /// morsels, a mergeable sink and a code artifact fans its morsels
    /// out and merges them at its barrier: worker `w` runs morsels
    /// `w, w + n, w + 2n, …` in ascending order, the calling thread is
    /// worker 0, and `n − 1` threads are spawned for the others. What
    /// a worker runs depends only on `w` and `n`, so rows, model cycles
    /// and `critical_path_cycles` are reproducible at every `n`.
    ///
    /// Worker panics are isolated: a panicking morsel worker stops, and
    /// every morsel it did not finish — its lost one and its unclaimed
    /// ones alike; none is requeued onto surviving workers — is replayed
    /// once, in ascending order, by a retry pass after the others
    /// finish, so the deterministic barrier merge stays
    /// byte-identical. A second fault fails the query cleanly with
    /// [`EngineError::WorkerPanic`] instead of the process. Panics on
    /// the driver's own thread — canonical setup/finish, pipelines that
    /// do not fan out, single-worker runs — have no surviving worker to
    /// replay onto, so they are contained to the same typed error
    /// without a retry: the query fails, the process never does. A
    /// trap under fan-out is the one from the lowest trapping morsel
    /// observed — best-effort identity with the serial trap (exact at
    /// one worker).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds *execution* with a [`QueryBudget`]: wall-clock deadline,
    /// model-cycle cap, result-row cap, and/or a cancellation token,
    /// each checked at every morsel claim — serial or parallel — so a
    /// tripped budget stops the query within one morsel and surfaces
    /// the typed budget error with partial [`qc_target::ExecStats`]
    /// accounting.
    #[must_use]
    pub fn query_budget(mut self, budget: QueryBudget) -> Self {
        self.query_budget = Some(budget);
        self
    }

    /// Compiles directly on the calling thread, bypassing the compile
    /// service — no worker fan-out, no code cache, no persistent store,
    /// no fault envelope. This is the measurement path: benchmarks use
    /// it so every iteration pays the full, uncached compile and link.
    #[must_use]
    pub fn direct(mut self) -> Self {
        self.direct = true;
        self
    }

    /// The statement this run executes.
    pub fn statement(&self) -> &PreparedStatement {
        &self.statement
    }

    /// Compiles the statement without executing it.
    ///
    /// # Errors
    /// Returns [`EngineError::Backend`] when a module is rejected.
    pub fn compile(&self) -> Result<CompiledQuery, EngineError> {
        let backend = self
            .backend
            .clone()
            .unwrap_or_else(|| Arc::clone(&self.session.default_backend));
        let disabled = TimeTrace::disabled();
        let trace = self.trace.unwrap_or(&disabled);
        let (query, service) = (self.statement.query(), &self.session.service);
        if self.direct {
            self.session.engine.compile(query, backend.as_ref(), trace)
        } else {
            service.compile(query, &backend, trace)
        }
    }

    /// Compiles and executes the statement.
    ///
    /// # Errors
    /// Propagates compilation and execution errors.
    pub fn execute(&self) -> Result<ExecutionResult, EngineError> {
        let mut compiled = self.compile()?;
        self.execute_compiled(&mut compiled)
    }

    /// Executes an already compiled query (e.g. one compiled by an
    /// earlier run of the same statement) in the tier it holds: the one
    /// way to run a single query.
    ///
    /// # Errors
    /// Propagates traps, storage errors, budget overruns and
    /// unrecovered worker panics.
    pub fn execute_compiled(
        &self,
        compiled: &mut CompiledQuery,
    ) -> Result<ExecutionResult, EngineError> {
        let budget = self.query_budget.clone().unwrap_or_default();
        let (engine, query) = (&self.session.engine, self.statement.query());
        morsel_exec::execute(engine, query, compiled, self.workers, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_plan::{col, lit_i64};

    fn plan_a() -> PlanNode {
        PlanNode::scan("orders", &["o_orderkey", "o_custkey"])
            .filter(col("o_custkey").lt(lit_i64(100)))
    }

    #[test]
    fn statement_cache_hits_on_identical_plans() {
        let db = qc_storage::gen_hlike(0.02);
        let session = Session::new(&db);
        let s1 = session.statement(&plan_a()).expect("prepare");
        let s2 = session.statement(&plan_a()).expect("prepare");
        assert!(Arc::ptr_eq(&s1.prepared, &s2.prepared));
        let stats = session.statement_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_plans_get_distinct_statements() {
        let db = qc_storage::gen_hlike(0.02);
        let session = Session::new(&db);
        let s1 = session.statement(&plan_a()).expect("prepare");
        let other = PlanNode::scan("orders", &["o_orderkey", "o_custkey"])
            .filter(col("o_custkey").lt(lit_i64(101)));
        let s2 = session.statement(&other).expect("prepare");
        assert_ne!(s1.text(), s2.text());
        assert!(!Arc::ptr_eq(&s1.prepared, &s2.prepared));
    }

    #[test]
    fn zero_capacity_statement_cache_is_passthrough() {
        let db = qc_storage::gen_hlike(0.02);
        let session = Session::with_config(
            &db,
            SessionConfig {
                statement_cache_capacity: 0,
                ..Default::default()
            },
        );
        let _ = session.statement(&plan_a()).expect("prepare");
        let _ = session.statement(&plan_a()).expect("prepare");
        let stats = session.statement_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
        // And the run path still executes fine.
        let got = session.prepare(&plan_a()).expect("prepare").execute();
        assert!(got.is_ok());
    }

    #[test]
    fn statement_cache_evicts_least_recently_used() {
        let db = qc_storage::gen_hlike(0.02);
        let session = Session::with_config(
            &db,
            SessionConfig {
                statement_cache_capacity: 2,
                ..Default::default()
            },
        );
        let plans: Vec<PlanNode> = (0..3)
            .map(|i| {
                PlanNode::scan("orders", &["o_orderkey", "o_custkey"])
                    .filter(col("o_custkey").lt(lit_i64(i)))
            })
            .collect();
        for p in &plans {
            session.statement(p).expect("prepare");
        }
        let stats = session.statement_cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // plans[0] was evicted: preparing it again is a miss.
        session.statement(&plans[0]).expect("prepare");
        assert_eq!(session.statement_cache_stats().misses, 4);
    }

    #[test]
    fn reopen_carries_statements_and_compiled_code() {
        let db = qc_storage::gen_hlike(0.02);
        let session = Session::new(&db);
        let stmt = session.statement(&plan_a()).expect("prepare");
        let backend: Arc<dyn Backend> = Arc::from(crate::backends::clift(qc_target::Isa::Tx64));
        let r1 = session
            .run(stmt.clone())
            .backend(Arc::clone(&backend))
            .execute()
            .expect("run 1");

        // A fresh database snapshot, a rebound engine — same statement
        // handle, and the compile is now a pure cache hit.
        let db2 = qc_storage::gen_hlike(0.02);
        let session2 = session.reopen(&db2);
        let before = session2.compile_service().cache_stats();
        let r2 = session2
            .run(stmt)
            .backend(backend)
            .execute()
            .expect("run 2");
        let after = session2.compile_service().cache_stats();
        assert_eq!(
            qc_plan::reference::normalize(&r1.rows),
            qc_plan::reference::normalize(&r2.rows)
        );
        assert!(after.hits > before.hits, "reopen lost the code cache");
        assert_eq!(session2.statement_cache_stats().misses, 1);
    }
}
