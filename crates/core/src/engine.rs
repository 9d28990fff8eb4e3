//! Query preparation, compilation, and morsel-wise execution.
//!
//! A [`PreparedQuery`] is what a statement cache keeps: the physical
//! plan, its IR, and the modules' structural hashes
//! ([`PreparedQuery::module_hashes`]), the code cache's key. Every
//! service request reads the stored hashes instead of walking the IR;
//! the direct, uncached compile path ([`crate::QueryRun::direct`])
//! never hashes at all.
//!
//! A statement prepared in a session with an artifact store looks for
//! a statement record first (see [`crate::ArtifactStore`]). With one,
//! its hashes come from the record and its IR is generated only when a
//! compile finds a module in neither cache tier; without one, it is
//! prepared as in a store-less session and writes its record after its
//! first successful service compile.

use crate::artifact_store::{ArtifactStore, StatementKey};
use crate::compile_service::{assemble, compile_one, PendingCompile};
use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, Executable};
use qc_codegen::{generate, GeneratedQuery};
use qc_plan::{PhysicalPlan, PlanError, PlanNode, RowLayout};
use qc_runtime::{RtString, RuntimeState, SqlValue};
use qc_storage::{ColumnType, Database};
use qc_target::{ExecStats, Trap};
use qc_timing::TimeTrace;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Version stamp of the front end (planner and IR generator) that
/// statement records are written and looked up under: the FNV-1a fold
/// of the two IR digests `tests/frontend_alloc.rs` pins, DS-like then
/// H-like, so a change to the generated IR fails that test until the
/// digests and this stamp are re-pinned together, and records written
/// by the older front end are then ignored.
pub const FRONTEND_STAMP: u64 = 0x7a3d_27b8_0109_5b1e;

/// Error produced by engine operations.
#[derive(Debug)]
pub enum EngineError {
    /// Planning/decomposition failed.
    Plan(PlanError),
    /// A back-end rejected a module.
    Backend(BackendError),
    /// Execution trapped.
    Trap(Trap),
    /// A storage-layer invariant broke between planning and execution
    /// (e.g. a planned table is gone from the database).
    Storage(String),
    /// The wall-clock deadline of a [`QueryBudget`] passed. Carries the
    /// partial work accounted up to the morsel boundary where execution
    /// stopped.
    DeadlineExceeded {
        /// Wall-clock time spent before the budget check tripped.
        elapsed: Duration,
        /// The configured deadline.
        limit: Duration,
        /// Cycles/instructions charged before execution stopped.
        partial: ExecStats,
    },
    /// A deterministic [`QueryBudget`] bound ran out (model cycles or
    /// result rows). Execution stops at the next morsel boundary.
    BudgetExhausted {
        /// Which bound tripped (`"model cycles"` / `"result rows"`).
        what: &'static str,
        /// Amount consumed when the check tripped.
        used: u64,
        /// The configured bound.
        limit: u64,
        /// Cycles/instructions charged before execution stopped.
        partial: ExecStats,
    },
    /// The query was cancelled through its [`CancelToken`].
    Cancelled {
        /// Cycles/instructions charged before execution stopped.
        partial: ExecStats,
    },
    /// A morsel worker panicked and the single retry pass could not
    /// recover the query (or panicked again). The process survives; the
    /// query fails with this typed error.
    WorkerPanic(String),
    /// A configuration was rejected (see
    /// [`crate::SchedulerConfig::validate`]).
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "{e}"),
            EngineError::Backend(e) => write!(f, "{e}"),
            EngineError::Trap(t) => write!(f, "execution trapped: {t}"),
            EngineError::Storage(msg) => write!(f, "storage error: {msg}"),
            EngineError::DeadlineExceeded {
                elapsed,
                limit,
                partial,
            } => write!(
                f,
                "deadline exceeded: {elapsed:?} elapsed of {limit:?} budget \
                 ({} cycles charged)",
                partial.cycles
            ),
            EngineError::BudgetExhausted {
                what,
                used,
                limit,
                partial,
            } => write!(
                f,
                "budget exhausted: {used} {what} of {limit} allowed \
                 ({} cycles charged)",
                partial.cycles
            ),
            EngineError::Cancelled { partial } => {
                write!(f, "query cancelled ({} cycles charged)", partial.cycles)
            }
            EngineError::WorkerPanic(msg) => write!(f, "morsel worker panicked: {msg}"),
            EngineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

/// A shared cooperative cancellation flag. Clone the token, hand one
/// copy to [`QueryBudget::cancelled_by`], and call
/// [`CancelToken::cancel`] from any thread: every executing worker
/// observes the flag at its next morsel claim and the query fails with
/// [`EngineError::Cancelled`] within one morsel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Execution-side resource bounds for one query, checked at every
/// morsel claim (serial stepper and parallel workers alike), so a
/// tripped budget stops the query within one morsel. The default is
/// unlimited.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline from execution start (serving SLA guard).
    pub deadline: Option<Duration>,
    /// Deterministic model-cycle cap across all workers.
    pub max_model_cycles: Option<u64>,
    /// Cap on materialized result rows.
    pub max_result_rows: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
}

impl QueryBudget {
    /// No bounds at all (the `Default`).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the model-cycle cap.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_model_cycles = Some(cycles);
        self
    }

    /// Sets the result-row cap.
    #[must_use]
    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_result_rows = Some(rows);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn cancelled_by(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether every bound is absent (the fast path skips checks).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_model_cycles.is_none()
            && self.max_result_rows.is_none()
            && self.cancel.is_none()
    }

    /// One budget check at a morsel boundary: `started` is the
    /// execution start, `tally` the work charged so far, `rows` the
    /// result rows materialized so far.
    pub(crate) fn check(
        &self,
        started: Instant,
        tally: ExecStats,
        rows: u64,
    ) -> Result<(), EngineError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled { partial: tally });
            }
        }
        if let Some(limit) = self.deadline {
            let elapsed = started.elapsed();
            if elapsed >= limit {
                return Err(EngineError::DeadlineExceeded {
                    elapsed,
                    limit,
                    partial: tally,
                });
            }
        }
        if let Some(limit) = self.max_model_cycles {
            if tally.cycles >= limit {
                return Err(EngineError::BudgetExhausted {
                    what: "model cycles",
                    used: tally.cycles,
                    limit,
                    partial: tally,
                });
            }
        }
        if let Some(limit) = self.max_result_rows {
            if rows > limit {
                return Err(EngineError::BudgetExhausted {
                    what: "result rows",
                    used: rows,
                    limit,
                    partial: tally,
                });
            }
        }
        Ok(())
    }
}

impl Error for EngineError {}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}
impl From<BackendError> for EngineError {
    fn from(e: BackendError) -> Self {
        EngineError::Backend(e)
    }
}
impl From<Trap> for EngineError {
    fn from(t: Trap) -> Self {
        EngineError::Trap(t)
    }
}

/// A prepared query's IR, one module per pipeline. Dereferences to the
/// [`GeneratedQuery`]: generated at prepare time for a statement
/// prepared without a statement record, and on first use for one whose
/// module hashes came from a record.
pub struct LazyIr {
    ir: OnceLock<GeneratedQuery>,
    /// The pipeline decomposition the IR is generated from, kept once
    /// for the statement ([`PreparedQuery::plan`]).
    plan: PhysicalPlan,
    /// The query name the IR is generated from on first use; `None` when
    /// it was generated at prepare time.
    name: Option<String>,
}

impl Deref for LazyIr {
    type Target = GeneratedQuery;

    fn deref(&self) -> &GeneratedQuery {
        self.ir.get_or_init(|| {
            let name = self
                .name
                .as_ref()
                .expect("IR without a name is generated at prepare time");
            generate(&self.plan, name)
        })
    }
}

impl fmt::Debug for LazyIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ir.get() {
            Some(ir) => ir.fmt(f),
            None => f.write_str("LazyIr(not generated)"),
        }
    }
}

/// The statement record a prepared query writes after its first
/// successful service compile.
#[derive(Debug)]
struct PendingRecord {
    text: Arc<str>,
    schemas: u64,
    written: AtomicBool,
}

/// A planned query: physical pipelines, their IR, and the modules'
/// structural hashes.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Query name (used in module names).
    pub name: String,
    /// IR, one module per pipeline, generated on first use when the
    /// module hashes came from a statement record.
    pub ir: LazyIr,
    module_hashes: OnceLock<Vec<u64>>,
    record: Option<PendingRecord>,
}

impl PreparedQuery {
    fn generated(plan: PhysicalPlan, name: &str) -> Self {
        let ir = generate(&plan, name);
        PreparedQuery {
            name: name.to_string(),
            ir: LazyIr {
                ir: OnceLock::from(ir),
                plan,
                name: None,
            },
            module_hashes: OnceLock::new(),
            record: None,
        }
    }

    /// The pipeline decomposition.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.ir.plan
    }

    /// Whether the IR has been generated: at prepare time, or — for a
    /// statement prepared from a statement record — by a compile that
    /// found a module in neither cache tier, by the direct path, or by
    /// a caller reading [`PreparedQuery::ir`].
    pub fn has_ir(&self) -> bool {
        self.ir.ir.get().is_some()
    }

    /// `qc_ir::module_structural_hash` of every module, in pipeline
    /// order: the compile service's cache key. Read from the statement
    /// record when there was one, otherwise computed by the first
    /// request that needs it, and kept with the statement, so a cache
    /// hit never walks the IR again and the direct (uncached) path
    /// never hashes.
    pub fn module_hashes(&self) -> &[u64] {
        self.module_hashes.get_or_init(|| {
            self.ir
                .modules
                .iter()
                .map(|m| qc_ir::module_structural_hash(m))
                .collect()
        })
    }

    /// Writes this statement's record to `store` once, when it was
    /// prepared in a session with a store and found no record there.
    pub(crate) fn write_record(&self, store: &ArtifactStore) {
        let Some(record) = &self.record else { return };
        if record.written.swap(true, Ordering::Relaxed) {
            return;
        }
        let key = StatementKey {
            text: &record.text,
            schemas: record.schemas,
            stamp: FRONTEND_STAMP,
        };
        store.store_statement(&key, self.module_hashes());
    }

    /// Total IR instruction count across all pipelines. Reads the IR,
    /// so a statement prepared from a statement record generates it.
    pub fn ir_size(&self) -> usize {
        self.ir
            .modules
            .iter()
            .flat_map(|m| m.functions())
            .map(qc_ir::Function::num_insts)
            .sum()
    }
}

/// A compiled query: one executable per pipeline.
pub struct CompiledQuery {
    /// Executables in pipeline order.
    pub executables: Vec<Box<dyn Executable>>,
    /// Reusable code artifacts in pipeline order. The morsel-parallel
    /// executor instantiates one executable per worker from these, so
    /// every worker runs the same machine code.
    pub artifacts: Vec<Arc<dyn CodeArtifact>>,
    /// Wall-clock compile time (sum over pipelines).
    pub compile_time: Duration,
    /// Merged compile statistics.
    pub compile_stats: CompileStats,
    /// Name of the back-end used.
    pub backend_name: &'static str,
}

impl CompiledQuery {
    /// Adopts `pending`'s tier once its compile has finished, between
    /// two driver steps: polls without blocking, and clears `pending`
    /// once the compile has resolved either way. A finished tier
    /// replaces this one in place, with the replaced tier's compile time
    /// and statistics merged in so the totals cover both tiers
    /// (execution cycles are charged per call, so they accumulate across
    /// the swap). Pipeline state lives in the runtime context block, not
    /// in module code, so the swap is safe and `setup` is not re-run.
    /// `None` while the compile still runs (or nothing is pending).
    pub(crate) fn adopt_ready(
        &mut self,
        pending: &mut Option<PendingCompile>,
    ) -> Option<Result<(), BackendError>> {
        let result = pending.as_mut()?.try_take()?;
        *pending = None;
        Some(result.map(|mut replacement| {
            replacement.compile_time += self.compile_time;
            replacement.compile_stats.merge(&self.compile_stats);
            *self = replacement;
        }))
    }
}

impl fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompiledQuery({} pipelines, {:?}, {})",
            self.executables.len(),
            self.compile_time,
            self.backend_name
        )
    }
}

/// Result of executing a query.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Output rows.
    pub rows: Vec<Vec<SqlValue>>,
    /// Deterministic execution cost (cycles/instructions). Under
    /// morsel-parallel execution this is the total work across all
    /// workers, not elapsed model time.
    pub exec_stats: ExecStats,
    /// Model-time critical path: serial sections plus, per parallel
    /// pipeline, the busiest worker's cycles. Equals
    /// `exec_stats.cycles` on the single-threaded path; the ratio of
    /// the two is the model-time speedup parallel execution would see
    /// on real cores.
    pub critical_path_cycles: u64,
}

/// Execution-side tuning knobs for [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Rows per morsel for base-table scans. Smaller morsels mean more
    /// tier-up/swap opportunities and finer parallel work units at the
    /// cost of more per-morsel call overhead.
    pub morsel_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { morsel_size: 2048 }
    }
}

/// The execution engine over one database.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'db> {
    db: &'db Database,
    config: EngineConfig,
}

impl<'db> Engine<'db> {
    /// Creates an engine over `db` with default configuration.
    pub fn new(db: &'db Database) -> Self {
        Engine::with_config(db, EngineConfig::default())
    }

    /// Creates an engine over `db` with explicit configuration.
    pub fn with_config(db: &'db Database, config: EngineConfig) -> Self {
        assert!(config.morsel_size > 0, "morsel size must be positive");
        Engine { db, config }
    }

    /// The underlying database.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// Rows per morsel for base-table scans.
    pub fn morsel_size(&self) -> usize {
        self.config.morsel_size
    }

    /// Plans a query and generates its IR. Reached through a session's
    /// statement cache ([`crate::Session::statement`] and the
    /// scheduler's admission).
    ///
    /// # Errors
    /// Returns [`EngineError::Plan`] for schema/type errors.
    pub(crate) fn prepare(
        &self,
        plan: &PlanNode,
        name: &str,
    ) -> Result<PreparedQuery, EngineError> {
        let catalog = |t: &str| self.db.table(t).map(|t| Arc::clone(t.schema.columns()));
        let phys = PhysicalPlan::decompose(plan, &catalog)?;
        Ok(PreparedQuery::generated(phys, name))
    }

    /// Plans a query whose canonical text is `text` and looks for its
    /// statement record in `store`. With a verified record the module
    /// hashes come from it and the IR is left to its first use; without
    /// one the IR is generated as by [`Engine::prepare`], and the record
    /// is written after the first successful service compile.
    ///
    /// # Errors
    /// Returns [`EngineError::Plan`] for schema/type errors.
    pub(crate) fn prepare_recorded(
        &self,
        plan: &PlanNode,
        name: &str,
        text: &Arc<str>,
        store: &ArtifactStore,
    ) -> Result<PreparedQuery, EngineError> {
        // The schema of every table the plan reads, in the order the
        // planner asks for them.
        let schemas = Cell::new(FNV_OFFSET);
        let catalog = |t: &str| {
            let columns = Arc::clone(self.db.table(t)?.schema.columns());
            let mut h = fnv(schemas.get(), t.as_bytes());
            for (name, ty) in columns.iter() {
                h = fnv(fnv(h, name.as_bytes()), &type_tag(*ty));
            }
            schemas.set(h);
            Some(columns)
        };
        let phys = PhysicalPlan::decompose(plan, &catalog)?;
        let schemas = schemas.get();
        let key = StatementKey {
            text: text.as_ref(),
            schemas,
            stamp: FRONTEND_STAMP,
        };
        let recorded = store
            .load_statement(&key)
            .filter(|hashes| hashes.len() == phys.pipelines.len());
        if let Some(hashes) = recorded {
            return Ok(PreparedQuery {
                name: name.to_string(),
                ir: LazyIr {
                    ir: OnceLock::new(),
                    plan: phys,
                    name: Some(name.to_string()),
                },
                module_hashes: OnceLock::from(hashes),
                record: None,
            });
        }
        let mut prepared = PreparedQuery::generated(phys, name);
        prepared.record = Some(PendingRecord {
            text: Arc::clone(text),
            schemas,
            written: AtomicBool::new(false),
        });
        Ok(prepared)
    }

    /// Compiles a prepared query with `backend` on the calling thread,
    /// measuring wall-clock time: the uncached, unsupervised
    /// measurement path behind [`crate::QueryRun::direct`]. The same
    /// compile and link as the service's, traced or not.
    ///
    /// # Errors
    /// Returns [`EngineError::Backend`] when a module is rejected.
    pub(crate) fn compile(
        &self,
        prepared: &PreparedQuery,
        backend: &dyn Backend,
        trace: &TimeTrace,
    ) -> Result<CompiledQuery, EngineError> {
        let start = Instant::now();
        let artifacts = prepared
            .ir
            .modules
            .iter()
            .map(|m| compile_one(backend, m, trace).map(Some))
            .collect::<Result<_, _>>()?;
        Ok(assemble(artifacts, start, backend, trace)?)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A column type's bytes in a schema fingerprint: a variant tag, then
/// the decimal scale.
fn type_tag(ty: ColumnType) -> [u8; 2] {
    match ty {
        ColumnType::I32 => [0, 0],
        ColumnType::I64 => [1, 0],
        ColumnType::Decimal(scale) => [2, scale],
        ColumnType::F64 => [3, 0],
        ColumnType::Date => [4, 0],
        ColumnType::Str => [5, 0],
        ColumnType::Bool => [6, 0],
    }
}

pub(crate) fn decode_rows(
    state: &RuntimeState,
    buf: u64,
    layout: &RowLayout,
) -> Vec<Vec<SqlValue>> {
    let buffer = state.buffer(buf);
    let mut rows = Vec::with_capacity(buffer.len());
    for i in 0..buffer.len() {
        let bytes = buffer.row_bytes(i);
        let mut row = Vec::with_capacity(layout.fields.len());
        for f in &layout.fields {
            let off = f.offset as usize;
            let v = match f.ty {
                ColumnType::I32 | ColumnType::Date => {
                    let raw = i64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
                    SqlValue::I32(raw as i32)
                }
                ColumnType::I64 => SqlValue::I64(i64::from_le_bytes(
                    bytes[off..off + 8].try_into().expect("8 bytes"),
                )),
                ColumnType::Decimal(s) => {
                    let raw =
                        i128::from_le_bytes(bytes[off..off + 16].try_into().expect("16 bytes"));
                    SqlValue::Decimal(raw, s)
                }
                ColumnType::F64 => SqlValue::F64(f64::from_le_bytes(
                    bytes[off..off + 8].try_into().expect("8 bytes"),
                )),
                ColumnType::Bool => {
                    let raw = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
                    SqlValue::Bool(raw != 0)
                }
                ColumnType::Str => {
                    let s =
                        RtString::from_bytes(bytes[off..off + 16].try_into().expect("16 bytes"));
                    SqlValue::Str(String::from_utf8_lossy(s.as_slice()).into_owned())
                }
            };
            row.push(v);
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends;
    use qc_plan::reference;
    use qc_plan::{col, lit_dec, lit_i64, lit_str, AggFunc};

    fn check_against_reference(plan: &PlanNode, db: &Database) {
        let session = crate::Session::new(db);
        let expected = reference::execute(plan, db).expect("reference execution");
        let all: Vec<Box<dyn qc_backend::Backend>> = vec![
            backends::interpreter(),
            backends::direct_emit(),
            backends::clift(qc_target::Isa::Tx64),
            backends::clift(qc_target::Isa::Ta64),
            backends::lvm_cheap(qc_target::Isa::Tx64),
            backends::lvm_opt(qc_target::Isa::Tx64),
            backends::lvm_cheap(qc_target::Isa::Ta64),
            backends::lvm_opt(qc_target::Isa::Ta64),
            backends::cgen(qc_target::Isa::Tx64),
            backends::cgen(qc_target::Isa::Ta64),
        ];
        for backend in all {
            let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
            let got = session
                .prepare(plan)
                .expect("prepare")
                .backend(Arc::clone(&backend))
                .execute()
                .expect("engine execution");
            assert_eq!(
                reference::normalize(&got.rows),
                reference::normalize(&expected),
                "{} disagrees with reference",
                backend.name()
            );
            assert!(got.exec_stats.cycles > 0);
        }
    }

    #[test]
    fn scan_filter_matches_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("lineitem", &["l_orderkey", "l_extendedprice"])
            .filter(col("l_extendedprice").gt(lit_dec(5_000_000, 2)));
        check_against_reference(&plan, &db);
    }

    #[test]
    fn map_arithmetic_matches_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("lineitem", &["l_extendedprice", "l_discount"]).map(vec![(
            "revenue",
            col("l_extendedprice").mul(lit_dec(100, 2).sub(col("l_discount"))),
        )]);
        check_against_reference(&plan, &db);
    }

    #[test]
    fn join_matches_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("orders", &["o_orderkey", "o_custkey"]).hash_join(
            PlanNode::scan("customer", &["c_custkey", "c_mktsegment"]),
            &["o_custkey"],
            &["c_custkey"],
            &["c_mktsegment"],
        );
        check_against_reference(&plan, &db);
    }

    #[test]
    fn group_by_matches_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("lineitem", &["l_returnflag", "l_quantity", "l_orderkey"])
            .group_by(
                &["l_returnflag"],
                vec![
                    ("n", AggFunc::CountStar),
                    ("qty", AggFunc::Sum(col("l_quantity"))),
                    ("maxk", AggFunc::Max(col("l_orderkey"))),
                    ("avg_qty", AggFunc::Avg(col("l_quantity"))),
                ],
            );
        check_against_reference(&plan, &db);
    }

    #[test]
    fn sort_limit_matches_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("orders", &["o_orderkey", "o_totalprice"])
            .sort(&[("o_totalprice", false), ("o_orderkey", true)], Some(7));
        let session = crate::Session::new(&db);
        let expected = reference::execute(&plan, &db).unwrap();
        let got = session.prepare(&plan).unwrap().execute().unwrap();
        // Order matters here (sorted output with a unique tiebreaker).
        assert_eq!(got.rows.len(), expected.len());
        for (g, e) in got.rows.iter().zip(&expected) {
            assert_eq!(
                g.iter().map(ToString::to_string).collect::<Vec<_>>(),
                e.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn string_predicates_match_reference() {
        let db = qc_storage::gen_hlike(0.02);
        let plan = PlanNode::scan("customer", &["c_custkey", "c_mktsegment", "c_name"])
            .filter(col("c_mktsegment").eq(lit_str("BUILDING")))
            .filter(col("c_name").starts_with(lit_str("Customer#")));
        check_against_reference(&plan, &db);
    }

    #[test]
    fn multi_join_agg_sort_pipeline_matches_reference() {
        let db = qc_storage::gen_hlike(0.03);
        let plan = PlanNode::scan(
            "lineitem",
            &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        )
        .hash_join(
            PlanNode::scan("supplier", &["s_suppkey", "s_nationkey"]),
            &["l_suppkey"],
            &["s_suppkey"],
            &["s_nationkey"],
        )
        .hash_join(
            PlanNode::scan("nation", &["n_nationkey", "n_name"]),
            &["s_nationkey"],
            &["n_nationkey"],
            &["n_name"],
        )
        .map(vec![(
            "rev",
            col("l_extendedprice").mul(lit_dec(100, 2).sub(col("l_discount"))),
        )])
        .group_by(&["n_name"], vec![("revenue", AggFunc::Sum(col("rev")))])
        .sort(&[("revenue", false), ("n_name", true)], None);
        check_against_reference(&plan, &db);
    }

    #[test]
    fn empty_result_is_ok() {
        let db = qc_storage::gen_hlike(0.02);
        let plan =
            PlanNode::scan("orders", &["o_orderkey"]).filter(col("o_orderkey").lt(lit_i64(-1)));
        let session = crate::Session::new(&db);
        let got = session.prepare(&plan).unwrap().execute().unwrap();
        assert!(got.rows.is_empty());
    }
}
