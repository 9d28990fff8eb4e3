//! Morsel-wise execution (paper Sec. II: morsel-driven parallelism).
//!
//! Three layers live here and in the two files below this one:
//!
//! 1. `charge` — swap-safe cycle accounting into an [`ExecStats`].
//!    Every generated-code call is charged by its own before/after
//!    [`qc_backend::Executable::exec_stats`] delta, so totals do not
//!    depend on *which* executable instance (tier, worker clone)
//!    performed which call.
//! 2. [`QueryExecution`] — the pipeline driver, the only code in the
//!    crate that walks a query's pipelines: per pipeline a budget
//!    check, the canonical `setup`, the morsels, a barrier check and
//!    the canonical `finish`. It advances in steps of a few morsels so
//!    the serving scheduler can interleave many executions and a
//!    caller can swap tiers between two steps; [`execute`] steps one
//!    to completion. With one worker, or for a pipeline that cannot fan
//!    out, it runs the morsels itself.
//! 3. `ParallelPipeline` (`parallel.rs`, with the barrier merge and its
//!    raw-address helpers in `parallel/merge.rs`) — one pipeline's
//!    fan-out: `W` workers, each owning a forked [`RuntimeState`] and
//!    its own executable instantiated from the pipeline's
//!    [`qc_backend::CodeArtifact`], and the deterministic merge of their
//!    results at the pipeline barrier. There is one claim rule: worker
//!    `w` runs morsels `w, w + W, w + 2W, …` in ascending order. The
//!    calling thread is worker 0 and the other `W − 1` run on scoped
//!    threads.
//!
//! # Determinism argument
//!
//! Workers never mutate shared containers: forked hash tables and tuple
//! buffers are read-only views of canonical state (build sides, scan
//! buffers), and each worker's generated `setup` creates private sink
//! containers in its own arena. At the pipeline barrier the calling
//! thread replays worker sink effects into the canonical state **in
//! ascending morsel order** — the exact order the single-threaded loop
//! would have produced them:
//!
//! * `Output` / `SortMaterialize` rows append in morsel order (the sort
//!   in `finish` is stable, so equal keys keep serial order).
//! * `JoinBuild` inserts replay from each worker's
//!   [`qc_runtime::HashTable::insert_log`] in morsel order, reproducing
//!   the serial insert sequence and therefore identical LIFO bucket
//!   chains and identical downstream probe order.
//! * `AggBuild` group *creation events* (rows of the worker's
//!   group-registration buffer) replay in `(morsel, in-morsel seq)`
//!   order. Every worker runs its morsels in ascending order (and so
//!   does the retry pass), so the first creation event for a group
//!   across all workers lands exactly at the group's serial
//!   first-occurrence position, and canonical groups are created in
//!   serial order; later events fold that worker's fully-accumulated
//!   partial state in with one combine.
//!
//! Rows are therefore byte-identical to single-threaded execution for
//! every worker count. Cycle totals are exactly serial at
//! `workers == 1`; with more workers they additionally include each
//! worker's `setup` and duplicated group-creation work (real work in a
//! parallel model). Which morsels a worker runs depends only on its
//! index and the worker count, never on thread timing, so cycle totals
//! and critical paths are reproducible run-to-run at every worker
//! count.
//!
//! Floating-point aggregation states (`F64` group keys or aggregates)
//! cannot merge bit-identically (FP addition is non-associative, and
//! `±0.0`/`NaN` break bytewise key equality), so such pipelines fall
//! back to the serial path — see [`sink_merge_supported`].

use crate::engine::{
    decode_rows, CompiledQuery, Engine, EngineError, ExecutionResult, PreparedQuery, QueryBudget,
};
use crate::supervise::supervise;
use parallel::ParallelPipeline;
use qc_backend::Executable;
use qc_plan::{CtxEntry, PhysicalPlan, Pipeline, PlanNode, Sink, Source};
use qc_runtime::{RuntimeState, SqlValue};
use qc_storage::{ColumnType, Morsel};
use qc_target::{ExecStats, Trap};
use std::time::Instant;

mod parallel;

// ---------------------------------------------------------------------
// Swap-safe cycle accounting
// ---------------------------------------------------------------------

/// Calls `name` in `exe` and charges the executable's cycle and
/// instruction deltas to `tally`, the accumulated deterministic cost
/// that budget errors ([`EngineError::BudgetExhausted`] and friends)
/// carry as their partial accounting. Because the delta brackets one
/// call, accounting stays correct across mid-query executable swaps and
/// when many workers report independently.
fn charge(
    tally: &mut ExecStats,
    exe: &mut dyn Executable,
    state: &mut RuntimeState,
    name: &str,
    args: &[u64],
) -> Result<[u64; 2], Trap> {
    let before = exe.exec_stats();
    let out = exe.call(state, name, args);
    *tally = *tally + (exe.exec_stats() - before);
    out
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
    let plan = prepared.plan();
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

/// The pipeline driver: the one place a query's pipelines are walked
/// (paper Sec. II/III — per pipeline `setup`, morsels, `finish`).
///
/// `step` runs up to `max_morsels` morsels and returns, so a caller can
/// switch to another query in between (the serving scheduler's slices);
/// [`execute`] simply steps to completion. The driver executes whatever
/// tier `compiled` holds and never changes it: a caller that swaps tiers
/// does so between two steps, a morsel boundary. Pipeline `finish` runs
/// on the step *after* the pipeline's last morsel, so a tier swapped in
/// after that morsel also seals its pipeline.
///
/// A pipeline's morsels run here, on the calling thread and the
/// canonical state, when `workers <= 1` or the pipeline is not eligible
/// for fan-out; otherwise the morsel list goes to [`ParallelPipeline`],
/// which returns once every morsel has run and merged. Either way the
/// canonical `setup`/`finish`, the budget checks around them and the
/// accounting are this loop's.
pub(crate) struct QueryExecution {
    /// Fan-out width; `0` and `1` both mean the exact serial path.
    workers: usize,
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
    tally: ExecStats,
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
    pub(crate) fn new(workers: usize, budget: QueryBudget) -> QueryExecution {
        QueryExecution {
            workers,
            budget,
            started: Instant::now(),
            state: RuntimeState::new(),
            ctx: Vec::new(),
            pipe_idx: 0,
            setup_done: false,
            morsels: Vec::new(),
            next: 0,
            tally: ExecStats::default(),
            overlapped_cycles: 0,
            out_ready: false,
            rows: Vec::new(),
        }
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
        charge(&mut self.tally, exe, &mut self.state, name, args)?;
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
        let workers = self.workers;
        if workers <= 1 || self.morsels.len() < 2 || !sink_merge_supported(&pipe.sink) {
            return None;
        }
        let artifact = compiled.artifacts.get(self.pipe_idx)?;
        (0..workers).map(|_| artifact.instantiate().ok()).collect()
    }

    /// Runs up to `max_morsels` morsels (crossing pipeline boundaries,
    /// running `finish`/`setup` as needed) and reports progress. A
    /// parallel pipeline runs all of its morsels in one step, which
    /// then ends at its barrier once `max_morsels` have run.
    ///
    /// This is the execution-side supervision site: a panic anywhere
    /// below — generated code, a runtime helper, fan-out coordination,
    /// the barrier merge — fails this query with
    /// [`EngineError::WorkerPanic`] and never reaches the caller. The
    /// execution must not be stepped again after an error.
    ///
    /// # Errors
    /// Propagates traps, storage errors, budget overruns and panics.
    pub(crate) fn step(
        &mut self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        max_morsels: u64,
    ) -> Result<StepProgress, EngineError> {
        supervise(|| self.advance(engine, prepared, compiled, max_morsels))
            .unwrap_or_else(|panic| Err(EngineError::WorkerPanic(panic)))
    }

    fn advance(
        &mut self,
        engine: &Engine<'_>,
        prepared: &PreparedQuery,
        compiled: &mut CompiledQuery,
        max_morsels: u64,
    ) -> Result<StepProgress, EngineError> {
        let plan = prepared.plan();
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
                        budget: &self.budget,
                        started: self.started,
                        rows_before: self.result_rows(plan),
                    };
                    self.overlapped_cycles += run.execute(
                        &mut self.state,
                        &self.ctx,
                        compiled,
                        &mut self.tally,
                        worker_exes,
                    )?;
                    self.next = self.morsels.len();
                    ran += self.morsels.len() as u64;
                    if ran >= max_morsels {
                        return Ok(StepProgress::Ran);
                    }
                }
            }
            while self.next < self.morsels.len() {
                self.check_budget(plan)?;
                let m = self.morsels[self.next];
                self.call(compiled, "main", &[ctx_addr, m.start, m.count])?;
                self.next += 1;
                ran += 1;
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
    /// [`source_morsels`] for pipelines not yet set up). Drives the
    /// scheduler's pick and its tier-up priority.
    pub(crate) fn remaining_morsels(&self, engine: &Engine<'_>, prepared: &PreparedQuery) -> u64 {
        let plan = prepared.plan();
        let mut rem = 0u64;
        for (i, pipe) in plan.pipelines.iter().enumerate().skip(self.pipe_idx) {
            if i == self.pipe_idx && self.setup_done {
                rem += (self.morsels.len() - self.next) as u64;
            } else {
                rem += source_morsels(
                    engine,
                    match &pipe.source {
                        Source::Table { name, .. } => Some(&**name),
                        Source::Buffer { .. } => None,
                    },
                );
            }
        }
        rem
    }

    /// The final result of an execution stepped to
    /// [`StepProgress::Done`]. The critical path is the serial sections
    /// (canonical setup/finish, morsels run by the driver itself) in
    /// full plus, per parallel pipeline, only its busiest worker.
    pub(crate) fn into_result(self) -> ExecutionResult {
        ExecutionResult {
            rows: self.rows,
            exec_stats: self.tally,
            critical_path_cycles: self.tally.cycles - self.overlapped_cycles,
        }
    }
}

/// Morsels one pipeline source is estimated to take before it runs: a
/// table source (`scanned_table`) counts ⌈rows / morsel size⌉, a buffer
/// source (`None`) counts one. The one rule behind
/// [`QueryExecution::remaining_morsels`] and [`plan_morsels`].
fn source_morsels(engine: &Engine<'_>, scanned_table: Option<&str>) -> u64 {
    scanned_table.map_or(1, |name| {
        engine
            .database()
            .table(name)
            .map_or(0, |t| t.row_count() as u64)
            .div_ceil(engine.morsel_size() as u64)
    })
}

/// Morsels a logical plan is estimated to take, without planning it:
/// every scan is a table-source pipeline and every `GroupBy` or `Sort`
/// adds a buffer-source one, so this equals
/// [`QueryExecution::remaining_morsels`] of a fresh execution of the
/// prepared plan. The scheduler's estimate for a request not yet
/// admitted.
pub(crate) fn plan_morsels(engine: &Engine<'_>, plan: &PlanNode) -> u64 {
    match plan {
        PlanNode::Scan { table, .. } => source_morsels(engine, Some(&**table)),
        PlanNode::Filter { input, .. } | PlanNode::Map { input, .. } => plan_morsels(engine, input),
        PlanNode::HashJoin { build, probe, .. } => {
            plan_morsels(engine, build) + plan_morsels(engine, probe)
        }
        PlanNode::GroupBy { input, .. } | PlanNode::Sort { input, .. } => {
            source_morsels(engine, None) + plan_morsels(engine, input)
        }
    }
}

// ---------------------------------------------------------------------
// The single-query entry
// ---------------------------------------------------------------------

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

/// Executes a compiled query to completion in the tier it holds:
/// builds the driver, steps it until done and takes the result. The
/// one single-query entry, behind [`crate::QueryRun::execute_compiled`].
///
/// # Errors
/// Propagates traps, storage errors, budget overruns and panics.
pub(crate) fn execute(
    engine: &Engine<'_>,
    prepared: &PreparedQuery,
    compiled: &mut CompiledQuery,
    workers: usize,
    budget: QueryBudget,
) -> Result<ExecutionResult, EngineError> {
    let mut exec = QueryExecution::new(workers, budget);
    while let StepProgress::Ran = exec.step(engine, prepared, compiled, u64::MAX)? {}
    Ok(exec.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{backends, EngineConfig, Session, SessionConfig};
    use qc_backend::Backend;
    use std::sync::Arc;
    use std::time::Duration;

    /// The scheduler's estimate for a request it has not planned yet is
    /// what the driver reports for the prepared query before its first
    /// step, so pending and admitted queries compare in one unit.
    #[test]
    fn the_plan_estimate_is_a_fresh_executions_remaining_morsels() {
        let suites = [
            (qc_storage::gen_dslike(0.05), qc_workloads::dslike_suite()),
            (qc_storage::gen_hlike(0.05), qc_workloads::hlike_suite()),
        ];
        for (db, suite) in &suites {
            for morsel_size in [64, 2048] {
                let engine = Engine::with_config(db, EngineConfig { morsel_size });
                for q in suite {
                    let prepared = engine.prepare(&q.plan, &q.name).expect("prepare");
                    let exec = QueryExecution::new(1, QueryBudget::unlimited());
                    assert_eq!(
                        plan_morsels(&engine, &q.plan),
                        exec.remaining_morsels(&engine, &prepared),
                        "{} at morsel size {morsel_size}",
                        q.name
                    );
                }
            }
        }
    }

    /// A tier adopted between two steps of a fanned-out execution runs
    /// the rest of the query: the next pipeline's workers instantiate
    /// from its artifacts, and the rows stay the serial ones.
    #[test]
    fn four_workers_run_a_tier_adopted_between_steps() {
        let db = qc_storage::gen_hlike(0.05);
        let session = Session::with_config(
            &db,
            SessionConfig {
                engine: EngineConfig { morsel_size: 128 },
                ..Default::default()
            },
        );
        let interp: Arc<dyn Backend> = Arc::from(backends::interpreter());
        let clift: Arc<dyn Backend> = Arc::from(backends::clift(qc_target::Isa::Tx64));
        for q in &qc_workloads::hlike_suite()[..4] {
            let stmt = session.statement(&q.plan).expect("prepare");
            let cheap = session.run(stmt.clone()).backend(Arc::clone(&interp));
            let serial = cheap.execute().expect("serial run");
            let mut compiled = cheap.compile().expect("cheap tier");
            let (engine, query) = (session.engine(), stmt.query());
            let mut pending = Some(session.compile_service().spawn_compile(query, &clift));
            let mut exec = QueryExecution::new(4, QueryBudget::unlimited());
            let mut progress = exec.step(engine, query, &mut compiled, 1).expect("step");
            // Adopt after the first step, waiting for the compile.
            while compiled.adopt_ready(&mut pending).is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            while let StepProgress::Ran = progress {
                progress = exec.step(engine, query, &mut compiled, 1).expect("step");
            }
            assert_eq!(compiled.backend_name, "Clift", "{}: not adopted", q.name);
            let rows = exec.into_result().rows;
            assert_eq!(rows, serial.rows, "{} rows diverged", q.name);
        }
    }

    /// The scheduler's tier-up, one morsel per step: the cheap tier
    /// compiles in the foreground, the optimizing tier's compile starts
    /// before the first step, and the caller waits at boundary `n` until
    /// `adopt_ready` takes it. Every boundary lands where it always has,
    /// at the same cost, with the cheap tier's rows.
    #[test]
    fn a_tier_adopted_at_a_pinned_boundary_costs_the_pinned_cycles() {
        let db = qc_storage::gen_hlike(0.05);
        let session = Session::with_config(
            &db,
            SessionConfig {
                engine: EngineConfig { morsel_size: 256 },
                ..Default::default()
            },
        );
        let engine = session.engine();
        // The first H-like query with several pipelines.
        let stmt = qc_workloads::hlike_suite()
            .iter()
            .map(|q| session.statement(&q.plan).expect("prepare"))
            .find(|stmt| stmt.query().ir.modules.len() >= 2)
            .expect("a multi-pipeline query");
        let query = stmt.query();
        let cheap = session
            .run(stmt.clone())
            .backend(Arc::from(backends::interpreter()));
        let serial = cheap.execute().expect("cheap-tier run");
        let service = session.compile_service();
        let tiers: [Arc<dyn Backend>; 2] = [
            Arc::from(backends::lvm_opt(qc_target::Isa::Tx64)),
            Arc::from(backends::clift(qc_target::Isa::Tx64)),
        ];
        let mut measured = Vec::new();
        for optimized in tiers {
            for n in [1, 3, 7] {
                let mut compiled = cheap.compile().expect("cheap tier");
                let mut pending = Some(service.spawn_compile(query, &optimized));
                let mut exec = QueryExecution::new(1, QueryBudget::unlimited());
                let (mut morsels, mut swapped_at) = (0, None);
                while let StepProgress::Ran =
                    exec.step(engine, query, &mut compiled, 1).expect("step")
                {
                    morsels += 1;
                    if morsels != n {
                        continue;
                    }
                    let adopted = loop {
                        match compiled.adopt_ready(&mut pending) {
                            Some(adopted) => break adopted,
                            None => std::thread::sleep(Duration::from_millis(1)),
                        }
                    };
                    adopted.expect("optimizing tier");
                    swapped_at = Some(morsels);
                }
                let result = exec.into_result();
                assert_eq!(result.rows, serial.rows, "{} at {n}", optimized.name());
                let stats = result.exec_stats;
                measured.push((optimized.name(), n, swapped_at, stats.cycles, stats.insts));
            }
        }
        assert_eq!(measured, PINNED_SWAPS, "measured table:\n{measured:#?}");
    }

    /// An adopted tier's compile statistics cover both tiers: the
    /// replaced tier's functions are added to the replacement's, and the
    /// run still returns the cheap tier's rows.
    #[test]
    fn an_adopted_tier_merges_compile_stats_across_tiers() {
        let db = qc_storage::gen_hlike(0.05);
        let session = Session::new(&db);
        let stmt = session
            .statement(&qc_workloads::hlike_suite()[0].plan)
            .expect("prepare");
        let (engine, query) = (session.engine(), stmt.query());
        let cheap = session
            .run(stmt.clone())
            .backend(Arc::from(backends::interpreter()));
        let serial = cheap.execute().expect("cheap-tier run");
        let clift: Arc<dyn Backend> = Arc::from(backends::clift(qc_target::Isa::Tx64));
        let optimized = session.run(stmt.clone()).backend(Arc::clone(&clift));
        let optimized_functions = optimized.compile().expect("clift").compile_stats.functions;
        let mut compiled = cheap.compile().expect("cheap tier");
        let cheap_functions = compiled.compile_stats.functions;
        let mut pending = Some(session.compile_service().spawn_compile(query, &clift));
        let mut exec = QueryExecution::new(1, QueryBudget::unlimited());
        let mut progress = exec.step(engine, query, &mut compiled, 1).expect("step");
        while compiled.adopt_ready(&mut pending).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        while let StepProgress::Ran = progress {
            progress = exec.step(engine, query, &mut compiled, 1).expect("step");
        }
        assert_eq!(compiled.backend_name, "Clift", "not adopted");
        let result = exec.into_result();
        assert_eq!(result.rows, serial.rows);
        assert_eq!(
            compiled.compile_stats.functions,
            cheap_functions + optimized_functions,
            "merged stats do not cover both tiers"
        );
    }

    /// `(optimizing tier, n, boundary adopted at, exec cycles, exec
    /// insts)` of the pinned-boundary tier-up above, over the
    /// interpreter on its query with 256-row morsels at scale factor
    /// 0.05. The query has six morsels, so boundary 7 never comes and
    /// the cheap tier ends it.
    type PinnedSwap = (&'static str, u64, Option<u64>, u64, u64);
    const PINNED_SWAPS: [PinnedSwap; 6] = [
        ("LVM-opt", 1, Some(1), 359_849, 29_784),
        ("LVM-opt", 3, Some(3), 391_626, 25_031),
        ("LVM-opt", 7, None, 393_415, 24_552),
        ("Clift", 1, Some(1), 366_565, 32_014),
        ("Clift", 3, Some(3), 391_620, 25_029),
        ("Clift", 7, None, 393_415, 24_552),
    ];
}
