//! Morsel-wise execution (paper Sec. II: morsel-driven parallelism).
//!
//! Three layers live here:
//!
//! 1. [`ExecTally`] — swap-safe cycle accounting. Every generated-code
//!    call is charged by its own before/after [`qc_backend::Executable::exec_stats`]
//!    delta, so totals do not depend on *which* executable instance
//!    (tier, worker clone) performed which call.
//! 2. [`QueryExecution`] — the pipeline driver, the only code in the
//!    crate that walks a query's pipelines: per pipeline a budget
//!    check, the canonical `setup`, the morsels, a barrier check and
//!    the canonical `finish`. It advances in steps of a few morsels so
//!    the serving scheduler can interleave many executions;
//!    [`MorselExecutor`] steps one to completion. With one worker, or
//!    for a pipeline that cannot fan out, it runs the morsels itself.
//! 3. `ParallelPipeline` — one pipeline's fan-out: a pool of workers,
//!    each owning a forked [`RuntimeState`] and its own executable
//!    instantiated from the pipeline's [`CodeArtifact`], pulling morsels
//!    from per-pipeline claimers (work-stealing deques or a shared
//!    ordered counter), and the deterministic merge of their results at
//!    the pipeline barrier.
//!
//! # Determinism argument
//!
//! Workers never mutate shared containers: forked hash tables and tuple
//! buffers are read-only views of canonical state (build sides, scan
//! buffers), and each worker's generated `setup` creates private sink
//! containers in its own arena. At the pipeline barrier the coordinator
//! replays worker sink effects into the canonical state **in ascending
//! morsel order** — the exact order the single-threaded loop would have
//! produced them:
//!
//! * `Output` / `SortMaterialize` rows append in morsel order (the sort
//!   in `finish` is stable, so equal keys keep serial order).
//! * `JoinBuild` inserts replay from each worker's
//!   [`qc_runtime::HashTable::insert_log`] in morsel order, reproducing
//!   the serial insert sequence and therefore identical LIFO bucket
//!   chains and identical downstream probe order.
//! * `AggBuild` group *creation events* (rows of the worker's
//!   group-registration buffer) replay in `(morsel, in-morsel seq)`
//!   order. Provided each worker claims its morsels in ascending order,
//!   the first creation event for a group across all workers lands
//!   exactly at the group's serial first-occurrence position, so
//!   canonical groups are created in serial order; later events fold
//!   that worker's fully-accumulated partial state in with one combine.
//!   (This is why aggregation pipelines use the ordered claimer instead
//!   of stealing deques: a steal takes the victim's *largest* pending
//!   morsel, which would break per-worker ascending claim order.)
//!
//! Rows are therefore byte-identical to single-threaded execution for
//! every worker count and schedule. Cycle totals are exactly serial at
//! `workers == 1`; with more workers they additionally include each
//! worker's `setup` and duplicated group-creation work (real work in a
//! parallel model), and are reproducible run-to-run under
//! [`MorselSchedule::Static`] (under `Stealing` the claim interleaving —
//! and hence the total — varies with thread timing; rows still do not).
//!
//! Floating-point aggregation states (`F64` group keys or aggregates)
//! cannot merge bit-identically (FP addition is non-associative, and
//! `±0.0`/`NaN` break bytewise key equality), so such pipelines fall
//! back to the serial path — see [`sink_merge_supported`].

use crate::engine::{
    decode_rows, CompiledQuery, Engine, EngineError, ExecutionResult, MorselEvent, PreparedQuery,
    QueryBudget,
};
use crate::supervise::{panic_text, supervise};
use parking_lot::Mutex;
use qc_backend::{CodeArtifact, Executable};
use qc_plan::{AggFunc, CtxEntry, PhysicalPlan, Pipeline, RowLayout, Sink, Source};
use qc_runtime::{
    entry_hash, HashTable, RtString, RuntimeState, SqlValue, ENTRY_HASH_OFFSET, ENTRY_NEXT_OFFSET,
    ENTRY_PAYLOAD_OFFSET,
};
use qc_storage::{ColumnType, Morsel};
use qc_target::{ExecStats, Trap};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Swap-safe cycle accounting
// ---------------------------------------------------------------------

/// Accumulated deterministic execution cost, charged per generated-code
/// call rather than against a per-tier baseline. Budget errors
/// ([`EngineError::BudgetExhausted`] and friends) carry one of these as
/// the partial accounting of the work done before the budget tripped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecTally {
    /// Deterministic cycles.
    pub cycles: u64,
    /// Emulated instructions.
    pub insts: u64,
}

impl ExecTally {
    /// Calls `name` in `exe` and charges the executable's cycle and
    /// instruction deltas to this tally. Because the delta brackets one
    /// call, accounting stays correct across mid-query executable swaps
    /// and when many workers report independently.
    fn charge(
        &mut self,
        exe: &mut dyn Executable,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let before = exe.exec_stats();
        let out = exe.call(state, name, args);
        let after = exe.exec_stats();
        self.cycles += after.cycles - before.cycles;
        self.insts += after.insts - before.insts;
        out
    }
}

impl std::ops::Add for ExecTally {
    type Output = ExecTally;
    fn add(self, other: ExecTally) -> ExecTally {
        ExecTally {
            cycles: self.cycles + other.cycles,
            insts: self.insts + other.insts,
        }
    }
}

impl std::ops::Sub for ExecTally {
    type Output = ExecTally;
    fn sub(self, earlier: ExecTally) -> ExecTally {
        ExecTally {
            cycles: self.cycles - earlier.cycles,
            insts: self.insts - earlier.insts,
        }
    }
}

// ---------------------------------------------------------------------
// Context construction
// ---------------------------------------------------------------------

/// Builds and fills the query context block: column base addresses and
/// interned string literals. Handle slots are written later by the
/// generated `setup` functions.
fn build_ctx(
    engine: &Engine<'_>,
    prepared: &PreparedQuery,
    state: &mut RuntimeState,
) -> Result<Vec<u8>, EngineError> {
    let plan = &prepared.plan;
    let db = engine.database();
    let mut ctx = vec![0u8; plan.ctx_size().max(8)];
    for entry in &plan.ctx {
        let off = plan.ctx_offset(entry) as usize;
        match entry {
            CtxEntry::ColumnBase { table, column } => {
                let t = db.table(table).ok_or_else(|| {
                    EngineError::Storage(format!(
                        "table `{table}` vanished between planning and execution"
                    ))
                })?;
                let base = t
                    .try_column_by_name(column)
                    .ok_or_else(|| {
                        EngineError::Storage(format!(
                            "column `{column}` vanished from table `{table}`"
                        ))
                    })?
                    .base_addr();
                ctx[off..off + 8].copy_from_slice(&base.to_le_bytes());
            }
            CtxEntry::StrConst(i) => {
                let s = state.intern_string(&plan.str_literals[*i]);
                ctx[off..off + 8].copy_from_slice(&s.lo.to_le_bytes());
                ctx[off + 8..off + 16].copy_from_slice(&s.hi.to_le_bytes());
            }
            _ => {} // handles are written by generated setup functions
        }
    }
    Ok(ctx)
}

fn ctx_handle(ctx: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&ctx[off..off + 8]);
    u64::from_le_bytes(bytes)
}

// ---------------------------------------------------------------------
// The pipeline driver
// ---------------------------------------------------------------------

/// Progress of one [`QueryExecution::step`] call.
pub(crate) enum StepProgress {
    /// At least one morsel ran.
    Ran,
    /// The query has finished all pipelines.
    Done,
}

/// The tier-up hook consulted after every morsel: a returned
/// replacement is adopted at that morsel boundary.
pub(crate) type MorselHook<'a> = dyn FnMut(&MorselEvent) -> Option<CompiledQuery> + 'a;

/// The pipeline driver: the one place a query's pipelines are walked
/// (paper Sec. II/III — per pipeline `setup`, morsels, `finish`).
///
/// `step` runs up to `max_morsels` morsels and returns, so a caller can
/// switch to another query in between (the serving scheduler's slices);
/// [`MorselExecutor`] simply steps to completion. Pipeline `finish` runs
/// on the step *after* the pipeline's last morsel and the hook is
/// consulted right after each morsel, so the hook observes every morsel
/// before its pipeline is sealed.
///
/// A pipeline's morsels run here, on the calling thread and the
/// canonical state, when `workers <= 1` or the pipeline is not eligible
/// for fan-out; otherwise the morsel list goes to [`ParallelPipeline`],
/// which returns once every morsel has run and merged. Either way the
/// canonical `setup`/`finish`, the budget checks around them and the
/// accounting are this loop's.
pub(crate) struct QueryExecution {
    config: MorselExecConfig,
    budget: QueryBudget,
    started: Instant,
    state: RuntimeState,
    /// The query context block; empty until the first step fills it.
    ctx: Vec<u8>,
    pipe_idx: usize,
    setup_done: bool,
    /// Morsels of the current pipeline, and the next one to run.
    morsels: Vec<Morsel>,
    next: usize,
    morsels_done: u64,
    tally: ExecTally,
    /// Worker cycles off the critical path: per parallel pipeline, what
    /// the workers charged beyond the busiest one of them.
    overlapped_cycles: u64,
    /// Whether the output pipeline's `setup` has created the buffer.
    out_ready: bool,
    /// Result rows, decoded when the last pipeline is sealed.
    rows: Vec<Vec<SqlValue>>,
}

impl QueryExecution {
    /// Creates the execution. Nothing that can fail or panic happens
    /// here — runtime state and context block are set up by the first
    /// `step`, inside its supervision — but the budget's deadline clock
    /// starts now. An unbudgeted run passes [`QueryBudget::unlimited`].
    pub(crate) fn new(config: MorselExecConfig, budget: QueryBudget) -> QueryExecution {
        QueryExecution {
            config,
            budget,
            started: Instant::now(),
            state: RuntimeState::new(),
            ctx: Vec::new(),
            pipe_idx: 0,
            setup_done: false,
            morsels: Vec::new(),
            next: 0,
            morsels_done: 0,
            tally: ExecTally::default(),
            overlapped_cycles: 0,
            out_ready: false,
            rows: Vec::new(),
        }
    }

    /// Work charged so far (partial accounting for killed queries).
    pub(crate) fn tally(&self) -> ExecTally {
        self.tally
    }

    /// Result rows materialized so far (0 until the output pipeline's
    /// setup has created the buffer — handle numbering makes 0 a valid
    /// handle, so an explicit readiness flag gates the read).
    fn result_rows(&self, plan: &PhysicalPlan) -> u64 {
        if !self.out_ready {
            return 0;
        }
        let out_off = plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
        self.state.buffer(ctx_handle(&self.ctx, out_off)).len() as u64
    }

    /// One budget check at a morsel or pipeline boundary: a tripped
    /// bound stops the query before the next piece of work runs.
    fn check_budget(&self, plan: &PhysicalPlan) -> Result<(), EngineError> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        self.budget
            .check(self.started, self.tally, self.result_rows(plan))
    }

    /// Calls `name` in the current pipeline's canonical executable and
    /// charges it.
    fn call(
        &mut self,
        compiled: &mut CompiledQuery,
        name: &str,
        args: &[u64],
    ) -> Result<(), EngineError> {
        let exe = compiled.executables[self.pipe_idx].as_mut();
        self.tally.charge(exe, &mut self.state, name, args)?;
        Ok(())
    }

    /// Morsel decomposition of `pipe`'s source. `Table::morsels` yields
    /// no morsels for an empty table and an empty buffer yields none
    /// either, so `main` never runs over zero rows; a buffer scan is
    /// one morsel.
    fn decompose(
        &self,
        engine: &Engine<'_>,
        plan: &PhysicalPlan,
        pipe: &Pipeline,
    ) -> Result<Vec<Morsel>, EngineError> {
        match &pipe.source {
            Source::Table { name, .. } => {
                let table = engine.database().table(name).ok_or_else(|| {
                    EngineError::Storage(format!(
                        "scan table `{name}` vanished between planning and execution"
                    ))
                })?;
                Ok(table.morsels(engine.morsel_size()))
            }
            Source::Buffer { buffer, limit, .. } => {
                let off = plan.ctx_offset(buffer) as usize;
                let len = self.state.buffer(ctx_handle(&self.ctx, off)).len() as u64;
                let count = limit.map_or(len, |l| len.min(l as u64));
                Ok(match count {
                    0 => Vec::new(),
                    count => vec![Morsel { start: 0, count }],
                })
            }
        }
    }

    /// One executable per worker when the current pipeline goes
    /// parallel: more than one worker is configured, splitting can pay
    /// off, the sink merges deterministically, and every worker's
    /// executable instantiates from the pipeline's code artifact.
    /// `None` keeps the morsels on this thread.
    fn worker_executables(
        &self,
        pipe: &Pipeline,
        compiled: &CompiledQuery,
    ) -> Option<Vec<Box<dyn Executable>>> {
        let workers = self.config.workers;
        if workers <= 1 || self.morsels.len() < 2 || !sink_merge_supported(&pipe.sink) {
            return None;
        }
        let artifact = compiled.artifacts.get(self.pipe_idx)?.as_ref()?;
        (0..workers).map(|_| artifact.instantiate().ok()).collect()
    }

    /// Runs up to `max_morsels` morsels (crossing pipeline boundaries,
    /// running `finish`/`setup` as needed) and reports progress. A
    /// parallel pipeline runs all of its morsels in one step.
    ///
    /// This is the execution-side supervision site: a panic anywhere
    /// below — generated code, a runtime helper, the hook, the barrier
    /// merge — fails this query with [`EngineError::WorkerPanic`] and
    /// never reaches the caller. The execution must not be stepped
    /// again after an error.
    ///
    /// # Errors
    /// Propagates traps, storage errors, budget overruns and panics.
    pub(crate) fn step(
        &mut self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        max_morsels: u64,
        hook: &mut MorselHook<'_>,
    ) -> Result<StepProgress, EngineError> {
        supervise(|| self.advance(engine, prepared, compiled, max_morsels, hook))
            .unwrap_or_else(|panic| Err(EngineError::WorkerPanic(panic)))
    }

    fn advance(
        &mut self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        max_morsels: u64,
        hook: &mut MorselHook<'_>,
    ) -> Result<StepProgress, EngineError> {
        let plan = &prepared.plan;
        if self.ctx.is_empty() {
            self.ctx = build_ctx(engine, prepared, &mut self.state)?;
        }
        let ctx_addr = self.ctx.as_ptr() as u64;
        let mut ran = 0u64;
        while self.pipe_idx < plan.pipelines.len() {
            let pipe = &plan.pipelines[self.pipe_idx];
            if !self.setup_done {
                self.check_budget(plan)?;
                // Canonical setup creates the canonical sink containers
                // (the ones a parallel pipeline's barrier merge writes
                // into).
                self.call(compiled, "setup", &[ctx_addr])?;
                if matches!(pipe.sink, Sink::Output { .. }) {
                    self.out_ready = true;
                }
                self.morsels = self.decompose(engine, plan, pipe)?;
                self.next = 0;
                self.setup_done = true;
                if let Some(worker_exes) = self.worker_executables(pipe, compiled) {
                    // Fan-out: the whole morsel list runs on workers
                    // and merges before this returns.
                    let run = ParallelPipeline {
                        plan,
                        pipe,
                        pipe_idx: self.pipe_idx,
                        morsels: &self.morsels,
                        schedule: self.config.schedule,
                        budget: &self.budget,
                        started: self.started,
                        rows_before: self.result_rows(plan),
                    };
                    self.overlapped_cycles += run.execute(
                        &mut self.state,
                        &self.ctx,
                        compiled,
                        &mut self.tally,
                        &mut self.morsels_done,
                        worker_exes,
                        hook,
                    )?;
                    self.next = self.morsels.len();
                    ran += self.morsels.len() as u64;
                }
            }
            while self.next < self.morsels.len() {
                self.check_budget(plan)?;
                let m = self.morsels[self.next];
                self.call(compiled, "main", &[ctx_addr, m.start, m.count])?;
                self.next += 1;
                self.morsels_done += 1;
                ran += 1;
                let event = MorselEvent {
                    pipeline: self.pipe_idx,
                    morsels_done: self.morsels_done,
                    cycles_so_far: self.tally.cycles,
                };
                if let Some(replacement) = hook(&event) {
                    compiled.adopt_replacement(replacement);
                }
                if ran >= max_morsels {
                    return Ok(StepProgress::Ran);
                }
            }
            // Barrier check before `finish`: the pipeline's last morsel
            // (or the merged parallel rows) may overflow the row cap.
            self.check_budget(plan)?;
            // Canonical finish (hash-table build / sort) runs on the
            // canonical — for a parallel pipeline, merged — containers,
            // so its cost envelope matches serial.
            self.call(compiled, "finish", &[ctx_addr])?;
            self.pipe_idx += 1;
            self.setup_done = false;
            if self.pipe_idx == plan.pipelines.len() {
                let out_off = plan.ctx_offset(&CtxEntry::OutputBuf) as usize;
                let out = ctx_handle(&self.ctx, out_off);
                self.rows = decode_rows(&self.state, out, &plan.output);
            }
        }
        Ok(if ran > 0 {
            StepProgress::Ran
        } else {
            StepProgress::Done
        })
    }

    /// Estimated morsels left to run (exact for the current pipeline,
    /// table-row estimates for pipelines not yet set up). Drives the
    /// scheduler's tier-up priority.
    pub(crate) fn remaining_morsels(&self, engine: &Engine<'_>, prepared: &PreparedQuery) -> u64 {
        let plan = &prepared.plan;
        let mut rem = 0u64;
        for (i, pipe) in plan.pipelines.iter().enumerate().skip(self.pipe_idx) {
            if i == self.pipe_idx && self.setup_done {
                rem += (self.morsels.len() - self.next) as u64;
            } else {
                rem += match &pipe.source {
                    Source::Table { name, .. } => engine
                        .database()
                        .table(name)
                        .map_or(0, |t| t.row_count() as u64)
                        .div_ceil(engine.morsel_size() as u64),
                    Source::Buffer { .. } => 1,
                };
            }
        }
        rem
    }

    /// The final result of an execution stepped to
    /// [`StepProgress::Done`]. The critical path is the serial sections
    /// (canonical setup/finish, morsels run by the driver itself) in
    /// full plus, per parallel pipeline, only its busiest worker.
    pub(crate) fn into_result(self, compiled: &CompiledQuery) -> ExecutionResult {
        ExecutionResult {
            rows: self.rows,
            exec_stats: ExecStats {
                cycles: self.tally.cycles,
                insts: self.tally.insts,
            },
            critical_path_cycles: self.tally.cycles - self.overlapped_cycles,
            compile_time: compiled.compile_time,
            compile_stats: compiled.compile_stats.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Executor façade
// ---------------------------------------------------------------------

/// How workers claim morsels within a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorselSchedule {
    /// Striped static assignment: worker `w` of `W` owns morsels
    /// `w, w + W, w + 2W, …`. Fully deterministic (cycle totals are a
    /// pure function of the worker count), no load balancing.
    Static,
    /// Work stealing: per-worker deques seeded striped; a worker pops
    /// its own deque from the front and steals from others' backs.
    /// Aggregation pipelines use a shared ordered counter instead (see
    /// the module docs for why steals would break group ordering).
    Stealing,
}

/// Configuration of a [`MorselExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct MorselExecConfig {
    /// Worker threads. `0` and `1` both mean single-threaded execution
    /// on the calling thread (the exact serial path).
    pub workers: usize,
    /// Claim discipline for parallel pipelines.
    pub schedule: MorselSchedule,
}

impl Default for MorselExecConfig {
    fn default() -> Self {
        MorselExecConfig {
            workers: 1,
            schedule: MorselSchedule::Stealing,
        }
    }
}

/// Whether a pipeline's sink effects can be merged deterministically
/// from per-worker partitions. Floating-point aggregation state cannot
/// (non-associative addition, `±0.0`/`NaN` key equality), so those
/// pipelines run serially on the canonical state.
fn sink_merge_supported(sink: &Sink) -> bool {
    match sink {
        Sink::Output { .. } | Sink::JoinBuild { .. } | Sink::SortMaterialize { .. } => true,
        Sink::AggBuild { layout, .. } => layout.fields.iter().all(|f| f.ty != ColumnType::F64),
    }
}

/// Morsel-parallel query executor: steps a `QueryExecution` driver to
/// completion.
///
/// With `workers <= 1` every morsel runs on the calling thread — no
/// fork, no thread, no channel; otherwise each pipeline with at least
/// two morsels, a mergeable sink and a code artifact fans its morsels
/// out to workers and merges at the pipeline barrier. The
/// morsel-boundary tier-up hook works the same either way: a
/// replacement tier published by the hook is observed by every worker
/// at its next morsel claim (instantiated from the replacement's
/// [`CodeArtifact`]).
#[derive(Debug, Clone, Copy)]
pub struct MorselExecutor {
    config: MorselExecConfig,
}

impl MorselExecutor {
    /// Creates an executor with `config`.
    pub fn new(config: MorselExecConfig) -> Self {
        MorselExecutor { config }
    }

    /// Executes a compiled query (no tier-up hook).
    ///
    /// # Errors
    /// Propagates traps from generated code and storage errors.
    pub fn execute(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
    ) -> Result<ExecutionResult, EngineError> {
        self.execute_with_hook(engine, prepared, compiled, &mut |_| None)
    }

    /// Executes a compiled query, consulting `hook` after every morsel.
    ///
    /// When the hook returns a replacement [`CompiledQuery`] (e.g. the
    /// optimizing tier finished compiling in the background), the swap
    /// happens at that morsel boundary: the *next* morsel — and every
    /// later pipeline — runs the replacement executables. Pipeline
    /// state lives in the runtime context block, not in module code, so
    /// a mid-pipeline swap is safe; `setup` is not re-run. Compile time
    /// and statistics of the replaced query are merged into the
    /// replacement so the returned totals cover both tiers, and
    /// execution cycles are accumulated across the swap.
    ///
    /// # Errors
    /// Propagates traps from generated code and storage errors. Under
    /// parallel execution the reported trap is the one from the lowest
    /// trapping morsel observed — best-effort identity with the serial
    /// trap (exact when `workers <= 1`).
    pub fn execute_with_hook(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        hook: &mut dyn FnMut(&MorselEvent) -> Option<CompiledQuery>,
    ) -> Result<ExecutionResult, EngineError> {
        self.execute_budgeted(engine, prepared, compiled, &QueryBudget::unlimited(), hook)
    }

    /// Executes a compiled query under a [`QueryBudget`], consulting
    /// `hook` after every morsel. Budget bounds are checked at every
    /// morsel claim — serial or parallel — so a tripped budget stops
    /// the query within one morsel and surfaces the typed budget error
    /// with partial [`ExecTally`] accounting.
    ///
    /// Worker panics are isolated: a panicking morsel worker poisons
    /// only itself; its unclaimed morsels are requeued onto surviving
    /// workers and its claimed-but-unmerged morsels are replayed once
    /// by a retry pass so the deterministic barrier merge stays
    /// byte-identical. A second fault fails the query cleanly with
    /// [`EngineError::WorkerPanic`] instead of the process. Panics on
    /// the driver's own thread — canonical setup/finish, pipelines that
    /// do not fan out, single-worker runs — have no surviving worker to
    /// replay onto, so they are contained to the same typed error
    /// without a retry: the query fails, the process never does.
    ///
    /// # Errors
    /// Propagates traps, storage errors, budget overruns, and
    /// unrecovered worker panics.
    pub fn execute_budgeted(
        &self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        budget: &QueryBudget,
        hook: &mut dyn FnMut(&MorselEvent) -> Option<CompiledQuery>,
    ) -> Result<ExecutionResult, EngineError> {
        let mut exec = QueryExecution::new(self.config, budget.clone());
        while let StepProgress::Ran = exec.step(engine, prepared, compiled, u64::MAX, hook)? {}
        Ok(exec.into_result(compiled))
    }
}

// ---------------------------------------------------------------------
// Morsel claimers
// ---------------------------------------------------------------------

/// Per-pipeline morsel claim discipline.
enum Claimer {
    /// Shared ascending counter: perfect load balance and ascending
    /// claim order for every worker (required by aggregation merges).
    Ordered(AtomicUsize),
    /// Per-worker deques seeded striped; `steal` allows taking from the
    /// back of other workers' deques.
    Striped {
        deques: Vec<Mutex<VecDeque<usize>>>,
        steal: bool,
        /// Whether a panicked worker's stranded morsels may be
        /// re-claimed by survivors. Off for aggregation pipelines: a
        /// late out-of-order claim would break the ascending-claim
        /// invariant the merge depends on, so their stranded morsels
        /// go to the serial retry pass instead.
        poison_steal: bool,
        /// Workers that panicked; their deques become stealable.
        poisoned: Vec<AtomicBool>,
    },
}

impl Claimer {
    fn new(n_morsels: usize, workers: usize, schedule: MorselSchedule, ordered: bool) -> Claimer {
        match (schedule, ordered) {
            (MorselSchedule::Stealing, true) => Claimer::Ordered(AtomicUsize::new(0)),
            (schedule, ordered) => {
                let mut deques: Vec<VecDeque<usize>> =
                    (0..workers).map(|_| VecDeque::new()).collect();
                for m in 0..n_morsels {
                    deques[m % workers].push_back(m);
                }
                Claimer::Striped {
                    deques: deques.into_iter().map(Mutex::new).collect(),
                    steal: schedule == MorselSchedule::Stealing,
                    poison_steal: !ordered,
                    poisoned: (0..workers).map(|_| AtomicBool::new(false)).collect(),
                }
            }
        }
    }

    /// A single worker's fixed claim list, handed out front to back
    /// (the retry pass: ascending, no one to steal from).
    fn fixed(list: Vec<usize>) -> Claimer {
        Claimer::Striped {
            deques: vec![Mutex::new(list.into())],
            steal: false,
            poison_steal: false,
            poisoned: vec![AtomicBool::new(false)],
        }
    }

    /// Marks a panicked worker: its remaining morsels become claimable
    /// by surviving workers (the panic-requeue path). The ordered
    /// claimer never assigns morsels ahead of time, so it has nothing
    /// to requeue.
    fn poison(&self, worker: usize) {
        if let Claimer::Striped { poisoned, .. } = self {
            poisoned[worker].store(true, Ordering::Release);
        }
    }

    fn claim(&self, worker: usize, n_morsels: usize) -> Option<usize> {
        match self {
            Claimer::Ordered(next) => {
                let m = next.fetch_add(1, Ordering::Relaxed);
                (m < n_morsels).then_some(m)
            }
            Claimer::Striped {
                deques,
                steal,
                poison_steal,
                poisoned,
            } => {
                if let Some(m) = deques[worker].lock().pop_front() {
                    return Some(m);
                }
                let w = deques.len();
                for v in (worker + 1..w).chain(0..worker) {
                    let may_take = *steal || (*poison_steal && poisoned[v].load(Ordering::Acquire));
                    if !may_take {
                        continue;
                    }
                    if let Some(m) = deques[v].lock().pop_back() {
                        return Some(m);
                    }
                }
                None
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tier-up swap cell
// ---------------------------------------------------------------------

/// Atomic publication point for a background-compiled replacement tier.
/// Workers poll the generation at each morsel claim and re-instantiate
/// their executable from the newest artifact.
struct SwapCell {
    generation: AtomicU64,
    artifact: Mutex<Option<Arc<dyn CodeArtifact>>>,
}

impl SwapCell {
    fn new() -> SwapCell {
        SwapCell {
            generation: AtomicU64::new(0),
            artifact: Mutex::new(None),
        }
    }

    fn publish(&self, artifact: Arc<dyn CodeArtifact>) {
        *self.artifact.lock() = Some(artifact);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Returns the newest artifact when the generation moved past
    /// `seen` (updating `seen`), `None` otherwise.
    fn refresh(&self, seen: &mut u64) -> Option<Arc<dyn CodeArtifact>> {
        let g = self.generation.load(Ordering::Acquire);
        if g == *seen {
            return None;
        }
        *seen = g;
        self.artifact.lock().clone()
    }
}

// ---------------------------------------------------------------------
// Parallel pipeline run
// ---------------------------------------------------------------------

/// Sink description shared with workers: the ctx offset of the
/// container whose growth delimits each morsel's effects.
#[derive(Clone, Copy)]
struct SinkInfo {
    progress_off: usize,
    /// A join build's progress is its hash table's insert-log length;
    /// every other sink's is a buffer length (output and sort rows, an
    /// aggregation's group-registration rows).
    is_join: bool,
}

/// One claimed morsel's sink-effect range in a worker's containers.
struct MorselRecord {
    morsel: usize,
    sink_start: usize,
    sink_end: usize,
}

/// Everything a finished worker hands back for the barrier merge.
struct WorkerOutput {
    ctx: Vec<u8>,
    state: RuntimeState,
    records: Vec<MorselRecord>,
    /// This worker's total charged cycles (critical-path reporting).
    tally: ExecTally,
    /// `(morsel index, error)`; `usize::MAX` marks a setup failure.
    error: Option<(usize, EngineError)>,
}

/// A pool worker's message to the coordinator: one morsel completed
/// (fires the tier-up hook).
struct MorselDone {
    /// What the worker charged since its previous message.
    spent: ExecTally,
    /// Result rows this morsel produced (output-sink pipelines only) —
    /// drives the coordinator's in-flight row-cap check.
    rows: u64,
}

/// What the workers of one pipeline run share.
struct WorkerShared<'a> {
    morsels: &'a [Morsel],
    claimer: &'a Claimer,
    swap: &'a SwapCell,
    /// Raised by the coordinator when the query budget trips.
    stop: &'a AtomicBool,
    sink: SinkInfo,
}

/// One pipeline's fan-out: its morsel list, how workers claim from it,
/// and the query budget the run is checked against.
struct ParallelPipeline<'a> {
    plan: &'a PhysicalPlan,
    pipe: &'a Pipeline,
    pipe_idx: usize,
    morsels: &'a [Morsel],
    schedule: MorselSchedule,
    budget: &'a QueryBudget,
    /// Execution start (the budget's deadline clock).
    started: Instant,
    /// Result rows materialized before this pipeline started.
    rows_before: u64,
}

impl ParallelPipeline<'_> {
    /// Whether this pipeline's sink is the output buffer (its morsels
    /// add result rows).
    fn counts_rows(&self) -> bool {
        matches!(self.pipe.sink, Sink::Output { .. })
    }

    /// One budget check while this pipeline's output is still
    /// distributed across workers: `rows_delta` is what its completed
    /// morsels added so far.
    fn check_budget(&self, tally: ExecTally, rows_delta: u64) -> Result<(), EngineError> {
        self.budget
            .check(self.started, tally, self.rows_before + rows_delta)
    }

    fn sink_info(&self) -> SinkInfo {
        let entry = match &self.pipe.sink {
            Sink::Output { .. } => CtxEntry::OutputBuf,
            Sink::SortMaterialize { sort_id, .. } => CtxEntry::SortBuf(*sort_id),
            Sink::JoinBuild { join_id, .. } => CtxEntry::JoinHt(*join_id),
            Sink::AggBuild { agg_id, .. } => CtxEntry::AggGroups(*agg_id),
        };
        SinkInfo {
            progress_off: self.plan.ctx_offset(&entry) as usize,
            is_join: matches!(self.pipe.sink, Sink::JoinBuild { .. }),
        }
    }

    /// Runs every morsel of the pipeline on forked workers and merges
    /// their sink effects into the canonical `state`. Returns the
    /// worker cycles that overlap the busiest worker (everything the
    /// workers charged minus the busiest one's share): the part of
    /// `tally` that is off the critical path.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        compiled: &mut CompiledQuery,
        tally: &mut ExecTally,
        morsels_done: &mut u64,
        worker_exes: Vec<Box<dyn Executable>>,
        hook: &mut MorselHook<'_>,
    ) -> Result<u64, EngineError> {
        let workers = worker_exes.len();
        let ordered = matches!(self.pipe.sink, Sink::AggBuild { .. });
        let claimer = Claimer::new(self.morsels.len(), workers, self.schedule, ordered);
        let swap = SwapCell::new();
        let stop = AtomicBool::new(false);
        let shared = WorkerShared {
            morsels: self.morsels,
            claimer: &claimer,
            swap: &swap,
            stop: &stop,
            sink: self.sink_info(),
        };
        let has_budget = !self.budget.is_unlimited();
        let counts_rows = self.counts_rows();
        let (tx, rx) = crossbeam::channel::unbounded();

        // Fork worker states before entering the scope: the forks hold
        // read-only views into the canonical state, which must stay
        // unmutated until every worker has finished.
        let forks: Vec<(RuntimeState, Vec<u8>)> = (0..workers)
            .map(|_| (state.fork_worker(), ctx.to_vec()))
            .collect();

        let mut budget_err: Option<EngineError> = None;
        let mut streamed = ExecTally::default();
        let scope_out = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = forks
                .into_iter()
                .zip(worker_exes)
                .enumerate()
                .map(|(w, ((wstate, wctx), exe))| {
                    let tx = tx.clone();
                    let shared = &shared;
                    s.spawn(move || {
                        // A pool worker's completion callback is a
                        // channel send: the coordinator does the
                        // accounting, the budget check and the hook.
                        let mut reported = ExecTally::default();
                        worker_run(w, shared, wstate, wctx, exe, &mut |tally, grown| {
                            let _ = tx.send(MorselDone {
                                spent: tally - reported,
                                rows: if counts_rows { grown } else { 0 },
                            });
                            reported = tally;
                            Ok(())
                        })
                    })
                })
                .collect();
            drop(tx);

            // Coordinator: forward morsel events to the tier-up hook;
            // publish any replacement so workers observe it at their
            // next claim; check the budget on every completed morsel.
            // The channel disconnects when the last worker is done.
            let mut rows_delta = 0u64;
            while let Ok(MorselDone { spent, rows }) = rx.recv() {
                *tally = *tally + spent;
                streamed = streamed + spent;
                rows_delta += rows;
                *morsels_done += 1;
                if has_budget && budget_err.is_none() {
                    if let Err(e) = self.check_budget(*tally, rows_delta) {
                        // Cooperative cancellation: workers see the
                        // flag at their next claim, so the query stops
                        // within one morsel per worker of the budget
                        // tripping.
                        budget_err = Some(e);
                        stop.store(true, Ordering::Release);
                    }
                }
                let event = MorselEvent {
                    pipeline: self.pipe_idx,
                    morsels_done: *morsels_done,
                    cycles_so_far: tally.cycles,
                };
                if let Some(replacement) = hook(&event) {
                    if let Some(Some(artifact)) = replacement.artifacts.get(self.pipe_idx) {
                        swap.publish(Arc::clone(artifact));
                    }
                    compiled.adopt_replacement(replacement);
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    // Panics are caught inside `worker_run`; a join
                    // error means one escaped the harness — synthesize
                    // a panicked output so the retry pass covers its
                    // morsels instead of aborting the process.
                    h.join().unwrap_or_else(|payload| WorkerOutput {
                        ctx: ctx.to_vec(),
                        state: RuntimeState::new(),
                        records: Vec::new(),
                        tally: ExecTally::default(),
                        error: Some((
                            usize::MAX,
                            EngineError::WorkerPanic(panic_text(payload.as_ref())),
                        )),
                    })
                })
                .collect::<Vec<WorkerOutput>>()
        });
        let mut outputs =
            scope_out.map_err(|payload| EngineError::WorkerPanic(panic_text(payload.as_ref())))?;

        // What a worker charged outside a completed morsel (an idle
        // worker's setup, a trapped morsel's partial cost) was not
        // streamed: account the remainder now.
        let charged = outputs
            .iter()
            .fold(ExecTally::default(), |sum, o| sum + o.tally);
        *tally = *tally + (charged - streamed);

        if let Some(e) = budget_err {
            // The budget tripped: partial parallel work is discarded —
            // never merged into canonical state — and the typed error
            // carries the tally snapshot at trip time.
            return Err(e);
        }

        // Surface the lowest-morsel trap (best-effort serial identity).
        // Worker panics are handled below instead: they are
        // recoverable via the retry pass.
        let panicked = |o: &WorkerOutput| matches!(o.error, Some((_, EngineError::WorkerPanic(_))));
        if let Some((_, err)) = outputs
            .iter_mut()
            .filter(|o| !panicked(o))
            .filter_map(|o| o.error.take())
            .min_by_key(|(m, _)| *m)
        {
            return Err(err);
        }

        // Parallel-section cost envelope, computed before any retry
        // pass: the retry runs serially after the barrier, so its
        // cycles extend the critical path in full (they land in
        // `tally` only, never in the overlap).
        let busiest = outputs.iter().map(|o| o.tally.cycles).max().unwrap_or(0);
        let overlapped = charged.cycles - busiest;

        if outputs.iter().any(panicked) {
            // A panicked worker's accumulated aggregation states may
            // include the partially-executed morsel's contributions, so
            // for agg sinks all of its records are discarded and
            // replayed. Buffer/join records delimit append-only ranges
            // that stay intact past a later panic, so they are kept and
            // only the lost morsels replay.
            if ordered {
                for o in outputs.iter_mut().filter(|o| panicked(o)) {
                    o.records.clear();
                }
            }
            let done: HashSet<usize> = outputs
                .iter()
                .flat_map(|o| o.records.iter().map(|r| r.morsel))
                .collect();
            let missing: Vec<usize> = (0..self.morsels.len())
                .filter(|m| !done.contains(m))
                .collect();
            *morsels_done += missing.len() as u64;
            let retried = self.retry_pass(state, ctx, compiled, missing, *tally)?;
            *tally = *tally + retried.tally;
            outputs.push(retried);
        }

        self.merge(state, ctx, &outputs)?;
        // Worker cycles are all in `tally` by now (retry cycles folded in
        // above); only runtime call counts remain to fold in.
        for o in &outputs {
            state.merge_counts_from(&o.state);
        }
        Ok(overlapped)
    }

    /// The single retry after a worker panic: replays the missing
    /// morsels on this thread through the same worker body, on a fresh
    /// fork, over a fixed ascending claim list (so the aggregation
    /// ascending-claim invariant holds for the replayed records). Its
    /// completion callback is the budget check the coordinator would
    /// have made, against `spent_before` plus the replay's own cost. A
    /// second fault — panic, trap, or budget trip — fails the query
    /// cleanly.
    fn retry_pass(
        &self,
        state: &RuntimeState,
        ctx: &[u8],
        compiled: &CompiledQuery,
        missing: Vec<usize>,
        spent_before: ExecTally,
    ) -> Result<WorkerOutput, EngineError> {
        let artifact = compiled
            .artifacts
            .get(self.pipe_idx)
            .and_then(|a| a.as_ref())
            .ok_or_else(|| {
                EngineError::WorkerPanic("no artifact to replay panicked morsels".to_string())
            })?;
        let exe = artifact
            .instantiate()
            .map_err(|e| EngineError::WorkerPanic(format!("replay instantiation failed: {e}")))?;
        let shared = WorkerShared {
            morsels: self.morsels,
            claimer: &Claimer::fixed(missing),
            swap: &SwapCell::new(),
            stop: &AtomicBool::new(false),
            sink: self.sink_info(),
        };
        let mut rows = 0u64;
        let mut out = worker_run(
            0,
            &shared,
            state.fork_worker(),
            ctx.to_vec(),
            exe,
            &mut |tally, grown| {
                if self.counts_rows() {
                    rows += grown;
                }
                self.check_budget(spent_before + tally, rows)
            },
        );
        match out.error.take() {
            None => Ok(out),
            Some((_, EngineError::WorkerPanic(msg))) => Err(EngineError::WorkerPanic(format!(
                "panicked again during replay: {msg}"
            ))),
            Some((_, e)) => Err(e),
        }
    }

    /// Replays worker sink effects into the canonical state in
    /// ascending morsel order (see the module docs for why this
    /// reproduces the serial effect sequence exactly).
    fn merge(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        outputs: &[WorkerOutput],
    ) -> Result<(), EngineError> {
        let sink = self.sink_info();
        let canonical = ctx_handle(ctx, sink.progress_off);
        // Global replay order: ascending morsel index.
        let mut order: Vec<(usize, &MorselRecord)> = outputs
            .iter()
            .enumerate()
            .flat_map(|(w, o)| o.records.iter().map(move |r| (w, r)))
            .collect();
        order.sort_by_key(|(_, r)| r.morsel);

        match &self.pipe.sink {
            Sink::Output { .. } | Sink::SortMaterialize { .. } => {
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    let wbuf = o.state.buffer(whandle);
                    for i in r.sink_start..r.sink_end {
                        state.buf_append_from(canonical, wbuf.row(i));
                    }
                }
            }
            Sink::JoinBuild { layout, .. } => {
                let size = layout.size as usize;
                for (w, r) in order {
                    let o = &outputs[w];
                    let whandle = ctx_handle(&o.ctx, sink.progress_off);
                    // progress_off points at the JoinHt slot for joins.
                    let log = o.state.table(whandle).insert_log();
                    for &payload in &log[r.sink_start..r.sink_end] {
                        state.ht_insert_from(canonical, entry_hash(payload), payload, size);
                    }
                }
            }
            Sink::AggBuild {
                agg_id,
                keys,
                aggs,
                layout,
                ..
            } => {
                let ht_off = self.plan.ctx_offset(&CtxEntry::AggHt(*agg_id)) as usize;
                let can_ht = ctx_handle(ctx, ht_off);
                let key_fields = key_fields(keys, layout)?;
                let combines = agg_combines(aggs, layout)?;
                for (w, r) in order {
                    let o = &outputs[w];
                    let wgroups = ctx_handle(&o.ctx, sink.progress_off);
                    let groups = o.state.buffer(wgroups);
                    for i in r.sink_start..r.sink_end {
                        // Each groups-buffer row holds the worker-local
                        // payload pointer of one created group.
                        let wp = read_u64_at(groups.row(i));
                        let hash = entry_hash(wp);
                        match find_group(state.table(can_ht), hash, wp, &key_fields) {
                            Some(q) => {
                                // Fold the worker's fully-accumulated
                                // partial state in with one combine.
                                for c in &combines {
                                    c.apply(q, wp)?;
                                }
                            }
                            None => {
                                let q =
                                    state.ht_insert_from(can_ht, hash, wp, layout.size as usize);
                                let cell = q.to_le_bytes();
                                state.buf_append_from(canonical, cell.as_ptr() as u64);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Calls `name` in a worker's own executable and charges it to the
/// worker's tally. This is the worker-side supervision site: a panic in
/// the callee costs one claim and becomes a typed
/// [`EngineError::WorkerPanic`] the retry pass can recover from,
/// instead of unwinding through the scope.
fn call_supervised(
    tally: &mut ExecTally,
    exe: &mut dyn Executable,
    wstate: &mut RuntimeState,
    name: &str,
    args: &[u64],
) -> Result<(), EngineError> {
    supervise(|| tally.charge(exe, wstate, name, args)).map_err(EngineError::WorkerPanic)??;
    Ok(())
}

/// The worker body: fork-local setup, claim/execute loop, effect
/// recording. Returns everything the barrier merge needs. `completed`
/// is told the worker's tally so far and the sink growth of each
/// finished morsel; an error from it stops the worker like a trap in
/// the morsel would. A worker that panics poisons itself (handing its
/// unclaimed morsels to survivors) and reports the panic as its error.
fn worker_run(
    worker: usize,
    shared: &WorkerShared<'_>,
    mut wstate: RuntimeState,
    wctx: Vec<u8>,
    mut exe: Box<dyn Executable>,
    completed: &mut dyn FnMut(ExecTally, u64) -> Result<(), EngineError>,
) -> WorkerOutput {
    let ctx_addr = wctx.as_ptr() as u64;
    let mut tally = ExecTally::default();
    let mut records = Vec::new();
    let mut seen_gen = 0u64;

    // Worker-local setup: creates this pipeline's sink containers in
    // the worker's own arena, overwriting the sink slots in the worker
    // ctx copy. Source and probe slots keep the canonical handles,
    // which resolve into the forked read-only containers.
    let mut error = call_supervised(&mut tally, exe.as_mut(), &mut wstate, "setup", &[ctx_addr])
        .err()
        .map(|e| (usize::MAX, e));

    while error.is_none() {
        // Cooperative cancellation: the coordinator raises `stop` when
        // the query budget trips; observing it at the claim boundary
        // bounds overrun to one in-flight morsel per worker.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Some(m) = shared.claimer.claim(worker, shared.morsels.len()) else {
            break;
        };
        // Tier swap observed at the claim boundary: instantiate from
        // the newest artifact; on link failure keep the current tier.
        if let Some(artifact) = shared.swap.refresh(&mut seen_gen) {
            if let Ok(new_exe) = artifact.instantiate() {
                exe = new_exe;
            }
        }
        let before = sink_progress(&wstate, &wctx, shared.sink);
        let morsel = shared.morsels[m];
        let args = [ctx_addr, morsel.start, morsel.count];
        error = call_supervised(&mut tally, exe.as_mut(), &mut wstate, "main", &args)
            .and_then(|()| {
                let after = sink_progress(&wstate, &wctx, shared.sink);
                records.push(MorselRecord {
                    morsel: m,
                    sink_start: before,
                    sink_end: after,
                });
                completed(tally, (after - before) as u64)
            })
            .err()
            .map(|e| (m, e));
    }
    if matches!(error, Some((_, EngineError::WorkerPanic(_)))) {
        shared.claimer.poison(worker);
    }
    WorkerOutput {
        ctx: wctx,
        state: wstate,
        records,
        tally,
        error,
    }
}

fn sink_progress(state: &RuntimeState, ctx: &[u8], sink: SinkInfo) -> usize {
    let handle = ctx_handle(ctx, sink.progress_off);
    if sink.is_join {
        state.table(handle).insert_log().len()
    } else {
        state.buffer(handle).len()
    }
}

// ---------------------------------------------------------------------
// Aggregation merge helpers
// ---------------------------------------------------------------------

fn read_u64_at(addr: u64) -> u64 {
    // SAFETY: addresses come from live arena rows/payloads the caller
    // keeps alive for the duration of the merge.
    unsafe { std::ptr::read_unaligned(addr as *const u64) }
}

fn read_i64_at(addr: u64) -> i64 {
    read_u64_at(addr) as i64
}

fn read_i128_at(addr: u64) -> i128 {
    // SAFETY: see `read_u64_at`.
    unsafe { std::ptr::read_unaligned(addr as *const i128) }
}

fn write_i64_at(addr: u64, v: i64) {
    // SAFETY: see `read_u64_at`; the caller writes into canonical
    // payloads it owns.
    unsafe { std::ptr::write_unaligned(addr as *mut i64, v) }
}

fn write_i128_at(addr: u64, v: i128) {
    // SAFETY: see `write_i64_at`.
    unsafe { std::ptr::write_unaligned(addr as *mut i128, v) }
}

fn read_str_at(addr: u64) -> RtString {
    let mut bytes = [0u8; 16];
    // SAFETY: see `read_u64_at`; string state fields are 16 bytes.
    unsafe { std::ptr::copy_nonoverlapping(addr as *const u8, bytes.as_mut_ptr(), 16) };
    RtString::from_bytes(bytes)
}

fn copy_bytes(src: u64, dst: u64, n: usize) {
    // SAFETY: both addresses reference live rows/payloads of at least
    // `n` bytes (field sizes come from the shared layout).
    unsafe { std::ptr::copy_nonoverlapping(src as *const u8, dst as *mut u8, n) }
}

/// One group-key field for replay-time group lookup.
struct KeyField {
    off: usize,
    size: usize,
    is_str: bool,
}

impl KeyField {
    /// Key equality between a canonical payload `q` and a worker
    /// payload `p`, with the same semantics generated code uses
    /// (`rt_str_eq` content equality for strings, bytewise otherwise).
    fn eq_at(&self, q: u64, p: u64) -> bool {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        if self.is_str {
            return read_str_at(a).eq_content(&read_str_at(b));
        }
        match self.size {
            8 => read_u64_at(a) == read_u64_at(b),
            _ => read_i128_at(a) == read_i128_at(b),
        }
    }
}

fn key_fields(keys: &[String], layout: &RowLayout) -> Result<Vec<KeyField>, EngineError> {
    keys.iter()
        .map(|k| {
            let f = layout.field(k).ok_or_else(|| {
                EngineError::Storage(format!("group key `{k}` missing from agg layout"))
            })?;
            Ok(KeyField {
                off: f.offset as usize,
                size: qc_plan::field_size(f.ty) as usize,
                is_str: f.ty == ColumnType::Str,
            })
        })
        .collect()
}

/// Walks the canonical bucket chain for `hash` and returns the payload
/// of the entry whose keys equal worker payload `wp`, exactly like the
/// generated create-or-update probe.
fn find_group(ht: &HashTable, hash: u64, wp: u64, keys: &[KeyField]) -> Option<u64> {
    let mut e = ht.probe(hash);
    while e != 0 {
        if read_u64_at(e + ENTRY_HASH_OFFSET as u64) == hash {
            let q = e + ENTRY_PAYLOAD_OFFSET as u64;
            if keys.iter().all(|k| k.eq_at(q, wp)) {
                return Some(q);
            }
        }
        e = read_u64_at(e + ENTRY_NEXT_OFFSET as u64);
    }
    None
}

/// How one aggregate state field folds a worker partial into the
/// canonical state.
#[derive(Clone, Copy)]
enum Fold {
    Add,
    Min,
    Max,
}

impl Fold {
    /// `x` folded with `y`.
    ///
    /// # Errors
    /// Overflowing sums trap exactly like the generated overflow-checked
    /// adds would.
    fn of<T: Ord>(self, x: T, y: T, add: fn(T, T) -> Option<T>) -> Result<T, EngineError> {
        match self {
            Fold::Add => add(x, y).ok_or(EngineError::Trap(Trap::Overflow)),
            Fold::Min => Ok(x.min(y)),
            Fold::Max => Ok(x.max(y)),
        }
    }
}

struct StateField {
    off: usize,
    ty: ColumnType,
    fold: Fold,
}

impl StateField {
    /// Folds worker payload `p`'s field into canonical payload `q`:
    /// decimals are 128-bit, strings 16-byte descriptors ordered by
    /// content, every other state is an `i64` slot.
    fn apply(&self, q: u64, p: u64) -> Result<(), EngineError> {
        let (a, b) = (q + self.off as u64, p + self.off as u64);
        match self.ty {
            ColumnType::Str => {
                let wins = match self.fold {
                    Fold::Min => CmpOrdering::Less,
                    Fold::Max => CmpOrdering::Greater,
                    Fold::Add => {
                        return Err(EngineError::Storage(
                            "string aggregation state cannot be summed".to_string(),
                        ))
                    }
                };
                if read_str_at(b).cmp_content(&read_str_at(a)) == wins {
                    copy_bytes(b, a, 16);
                }
            }
            ColumnType::Decimal(_) => {
                let v = self
                    .fold
                    .of(read_i128_at(a), read_i128_at(b), i128::checked_add)?;
                write_i128_at(a, v);
            }
            _ => {
                let v = self
                    .fold
                    .of(read_i64_at(a), read_i64_at(b), i64::checked_add)?;
                write_i64_at(a, v);
            }
        }
        Ok(())
    }
}

/// The state fields of `aggs` in `layout`: one per aggregate (`#name`),
/// plus the row count an average carries (`#name_cnt`).
fn agg_combines(
    aggs: &[(String, AggFunc)],
    layout: &RowLayout,
) -> Result<Vec<StateField>, EngineError> {
    let field = |state: String, fold: Fold| -> Result<StateField, EngineError> {
        let f = layout.field(&state).ok_or_else(|| {
            EngineError::Storage(format!("agg state field `{state}` missing from layout"))
        })?;
        Ok(StateField {
            off: f.offset as usize,
            ty: f.ty,
            fold,
        })
    };
    let mut out = Vec::new();
    for (name, agg) in aggs {
        let fold = match agg {
            AggFunc::CountStar | AggFunc::Sum(_) | AggFunc::Avg(_) => Fold::Add,
            AggFunc::Min(_) => Fold::Min,
            AggFunc::Max(_) => Fold::Max,
        };
        out.push(field(format!("#{name}"), fold)?);
        if matches!(agg, AggFunc::Avg(_)) {
            out.push(field(format!("#{name}_cnt"), Fold::Add)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_claimer_is_exhaustive_and_ascending() {
        let c = Claimer::new(10, 3, MorselSchedule::Stealing, true);
        let mut seen = Vec::new();
        while let Some(m) = c.claim(0, 10) {
            seen.push(m);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(c.claim(1, 10), None);
    }

    #[test]
    fn striped_claimer_static_partitions_without_stealing() {
        let c = Claimer::new(7, 2, MorselSchedule::Static, false);
        let mut w0 = Vec::new();
        while let Some(m) = c.claim(0, 7) {
            w0.push(m);
        }
        assert_eq!(w0, vec![0, 2, 4, 6]);
        // Worker 1 keeps its own morsels even though worker 0 is idle.
        let mut w1 = Vec::new();
        while let Some(m) = c.claim(1, 7) {
            w1.push(m);
        }
        assert_eq!(w1, vec![1, 3, 5]);
    }

    #[test]
    fn striped_claimer_steals_from_the_back() {
        let c = Claimer::new(6, 2, MorselSchedule::Stealing, false);
        // Worker 0 drains its own deque (front order), then steals the
        // back of worker 1's deque.
        assert_eq!(c.claim(0, 6), Some(0));
        assert_eq!(c.claim(0, 6), Some(2));
        assert_eq!(c.claim(0, 6), Some(4));
        assert_eq!(c.claim(0, 6), Some(5));
        assert_eq!(c.claim(1, 6), Some(1));
        assert_eq!(c.claim(1, 6), Some(3));
        assert_eq!(c.claim(1, 6), None);
    }

    #[test]
    fn swap_cell_generations() {
        let cell = SwapCell::new();
        let mut seen = 0u64;
        assert!(cell.refresh(&mut seen).is_none());
    }
}
