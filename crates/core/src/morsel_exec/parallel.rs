//! One pipeline's fan-out: the worker body and the run that spreads a
//! morsel list over a pool of workers, recovers from worker panics and
//! hands the workers' outputs to the barrier merge (see the parent
//! module's docs for the determinism argument).
//!
//! There is one claim rule: worker `w` of `W` runs morsels
//! `w, w + W, w + 2W, …` in ascending order, so what a worker does
//! depends only on `(w, W)`. The calling thread is worker 0; the other
//! `W − 1` run on scoped threads. Every worker runs the tier the
//! pipeline started in: a tier swapped in between two driver steps
//! reaches the next pipeline's workers.

use super::{charge, ctx_handle};
use crate::engine::{CompiledQuery, EngineError, QueryBudget};
use crate::supervise::{lock_recover, panic_text, supervise};
use qc_backend::Executable;
use qc_plan::{CtxEntry, PhysicalPlan, Pipeline, Sink};
use qc_runtime::RuntimeState;
use qc_storage::Morsel;
use qc_target::ExecStats;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod merge;

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
    tally: ExecStats,
    /// `(morsel index, error)`; `usize::MAX` marks a setup failure.
    error: Option<(usize, EngineError)>,
}

/// What the workers' completion callbacks share under one lock: the
/// running accounting the query budget is checked against, and the
/// error of the check that tripped it first.
struct Progress {
    /// The query's tally with every completed morsel of this pipeline.
    tally: ExecStats,
    /// Result rows the completed morsels added (output sinks only).
    rows: u64,
    budget_err: Option<EngineError>,
}

/// A worker's forked runtime state, its ctx copy and its executable.
type WorkerJob = (RuntimeState, Vec<u8>, Box<dyn Executable>);

/// The output of a worker whose panic escaped `worker_run`: no records,
/// so the retry pass replays all of its morsels.
fn lost_worker(ctx: &[u8], msg: String) -> WorkerOutput {
    WorkerOutput {
        ctx: ctx.to_vec(),
        state: RuntimeState::new(),
        records: Vec::new(),
        tally: ExecStats::default(),
        error: Some((usize::MAX, EngineError::WorkerPanic(msg))),
    }
}

/// What the workers of one pipeline run share.
struct WorkerShared<'a> {
    morsels: &'a [Morsel],
    /// Raised by the completion callback that trips the query budget.
    stop: &'a AtomicBool,
    sink: SinkInfo,
}

/// One pipeline's fan-out: its morsel list and the query budget the
/// run is checked against.
pub(super) struct ParallelPipeline<'a> {
    pub(super) plan: &'a PhysicalPlan,
    pub(super) pipe: &'a Pipeline,
    pub(super) pipe_idx: usize,
    pub(super) morsels: &'a [Morsel],
    pub(super) budget: &'a QueryBudget,
    /// Execution start (the budget's deadline clock).
    pub(super) started: Instant,
    /// Result rows materialized before this pipeline started.
    pub(super) rows_before: u64,
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
    fn check_budget(&self, tally: ExecStats, rows_delta: u64) -> Result<(), EngineError> {
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
    pub(super) fn execute(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        compiled: &CompiledQuery,
        tally: &mut ExecStats,
        worker_exes: Vec<Box<dyn Executable>>,
    ) -> Result<u64, EngineError> {
        let workers = worker_exes.len();
        let stop = AtomicBool::new(false);
        let shared = WorkerShared {
            morsels: self.morsels,
            stop: &stop,
            sink: self.sink_info(),
        };
        let has_budget = !self.budget.is_unlimited();
        let counts_rows = self.counts_rows();
        let progress = Mutex::new(Progress {
            tally: *tally,
            rows: 0,
            budget_err: None,
        });
        // Worker `w`'s body: its stride of the morsel list, reporting
        // each completed morsel to the shared progress, where the
        // budget is checked. A tripped budget raises `stop`, which
        // every worker sees at its next claim, so the query stops
        // within one morsel per worker of the budget tripping.
        let run = |w: usize, (wstate, wctx, exe): WorkerJob| {
            let claims = (w..self.morsels.len()).step_by(workers);
            let mut reported = ExecStats::default();
            worker_run(&shared, claims, wstate, wctx, exe, &mut |spent, grown| {
                if !has_budget {
                    return Ok(());
                }
                let mut p = lock_recover(&progress);
                p.tally = p.tally + (spent - reported);
                reported = spent;
                p.rows += if counts_rows { grown } else { 0 };
                if p.budget_err.is_none() {
                    if let Err(e) = self.check_budget(p.tally, p.rows) {
                        p.budget_err = Some(e);
                        stop.store(true, Ordering::Release);
                    }
                }
                Ok(())
            })
        };

        // Fork worker states before entering the scope: the forks hold
        // read-only views into the canonical state, which must stay
        // unmutated until every worker has finished.
        let jobs: Vec<WorkerJob> = worker_exes
            .into_iter()
            .map(|exe| (state.fork_worker(), ctx.to_vec(), exe))
            .collect();
        let mut outputs = std::thread::scope(|s| {
            let run = &run;
            let mut jobs = jobs.into_iter().enumerate();
            let caller = jobs.next();
            let handles: Vec<_> = jobs.map(|(w, job)| s.spawn(move || run(w, job))).collect();
            // Panics are caught inside `worker_run`; one that escapes
            // it becomes a panicked output, so the retry pass covers
            // that worker's morsels instead of failing the query.
            let first = caller.map(|(w, job)| supervise(|| run(w, job)));
            first
                .into_iter()
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().map_err(|payload| panic_text(payload.as_ref()))),
                )
                .map(|out| out.unwrap_or_else(|msg| lost_worker(ctx, msg)))
                .collect::<Vec<WorkerOutput>>()
        });

        // Everything the workers charged, completed morsels or not (an
        // idle worker's setup, a trapped morsel's partial cost).
        let charged = outputs
            .iter()
            .fold(ExecStats::default(), |sum, o| sum + o.tally);
        *tally = *tally + charged;

        if let Some(e) = lock_recover(&progress).budget_err.take() {
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
            // A panicked worker's unclaimed morsels have no records,
            // so they replay with its lost ones, in ascending order.
            // Its accumulated aggregation states may
            // include the partially-executed morsel's contributions, so
            // for agg sinks all of its records are discarded and
            // replayed. Buffer/join records delimit append-only ranges
            // that stay intact past a later panic, so they are kept and
            // only the lost morsels replay.
            if matches!(self.pipe.sink, Sink::AggBuild { .. }) {
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
    /// fork, in ascending order (so the aggregation ascending-claim
    /// invariant holds for the replayed records). Its completion
    /// callback is the fan-out's budget check, against `spent_before`
    /// plus the replay's own cost. A
    /// second fault — panic, trap, or budget trip — fails the query
    /// cleanly.
    fn retry_pass(
        &self,
        state: &RuntimeState,
        ctx: &[u8],
        compiled: &CompiledQuery,
        missing: Vec<usize>,
        spent_before: ExecStats,
    ) -> Result<WorkerOutput, EngineError> {
        let exe = compiled.artifacts[self.pipe_idx]
            .instantiate()
            .map_err(|e| EngineError::WorkerPanic(format!("replay instantiation failed: {e}")))?;
        let shared = WorkerShared {
            morsels: self.morsels,
            stop: &AtomicBool::new(false),
            sink: self.sink_info(),
        };
        let mut rows = 0u64;
        let mut out = worker_run(
            &shared,
            missing.into_iter(),
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
}

/// Calls `name` in a worker's own executable and charges it to the
/// worker's tally. This is the worker-side supervision site: a panic in
/// the callee costs one claim and becomes a typed
/// [`EngineError::WorkerPanic`] the retry pass can recover from,
/// instead of unwinding through the scope.
fn call_supervised(
    tally: &mut ExecStats,
    exe: &mut dyn Executable,
    wstate: &mut RuntimeState,
    name: &str,
    args: &[u64],
) -> Result<(), EngineError> {
    supervise(|| charge(tally, exe, wstate, name, args)).map_err(EngineError::WorkerPanic)??;
    Ok(())
}

/// The worker body: fork-local setup, then the morsels of `claims` in
/// order, recording each one's sink effects. Returns everything the
/// barrier merge needs. `completed` is told the worker's tally so far
/// and the sink growth of each finished morsel; an error from it stops
/// the worker like a trap in the morsel would. A worker that panics
/// stops and reports the panic as its error; the morsels it did not
/// record are left to the retry pass.
fn worker_run(
    shared: &WorkerShared<'_>,
    claims: impl Iterator<Item = usize>,
    mut wstate: RuntimeState,
    wctx: Vec<u8>,
    mut exe: Box<dyn Executable>,
    completed: &mut dyn FnMut(ExecStats, u64) -> Result<(), EngineError>,
) -> WorkerOutput {
    let ctx_addr = wctx.as_ptr() as u64;
    let mut tally = ExecStats::default();
    let mut records = Vec::new();

    // Worker-local setup: creates this pipeline's sink containers in
    // the worker's own arena, overwriting the sink slots in the worker
    // ctx copy. Source and probe slots keep the canonical handles,
    // which resolve into the forked read-only containers.
    let mut error = call_supervised(&mut tally, exe.as_mut(), &mut wstate, "setup", &[ctx_addr])
        .err()
        .map(|e| (usize::MAX, e));

    for m in claims {
        // Cooperative cancellation: a tripped budget raises `stop`;
        // observing it at the claim boundary bounds overrun to one
        // in-flight morsel per worker.
        if error.is_some() || shared.stop.load(Ordering::Acquire) {
            break;
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
