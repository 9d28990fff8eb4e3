//! One pipeline's fan-out: morsel claimers, the worker body and the
//! coordinator that runs a pool of workers over a morsel list, recovers
//! from worker panics and hands the workers' outputs to the barrier
//! merge (see the parent module's docs for the determinism argument).
//! Every worker runs the tier the pipeline started in: a tier swapped
//! in between two driver steps reaches the next pipeline's workers.

use super::{ctx_handle, ExecTally, MorselSchedule};
use crate::engine::{CompiledQuery, EngineError, QueryBudget};
use crate::supervise::{panic_text, supervise};
use parking_lot::Mutex;
use qc_backend::Executable;
use qc_plan::{CtxEntry, PhysicalPlan, Pipeline, Sink};
use qc_runtime::RuntimeState;
use qc_storage::Morsel;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

mod merge;

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

/// A pool worker's message to the coordinator: one morsel completed.
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
    /// Raised by the coordinator when the query budget trips.
    stop: &'a AtomicBool,
    sink: SinkInfo,
}

/// One pipeline's fan-out: its morsel list, how workers claim from it,
/// and the query budget the run is checked against.
pub(super) struct ParallelPipeline<'a> {
    pub(super) plan: &'a PhysicalPlan,
    pub(super) pipe: &'a Pipeline,
    pub(super) pipe_idx: usize,
    pub(super) morsels: &'a [Morsel],
    pub(super) schedule: MorselSchedule,
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
    pub(super) fn execute(
        &self,
        state: &mut RuntimeState,
        ctx: &[u8],
        compiled: &CompiledQuery,
        tally: &mut ExecTally,
        worker_exes: Vec<Box<dyn Executable>>,
    ) -> Result<u64, EngineError> {
        let workers = worker_exes.len();
        let ordered = matches!(self.pipe.sink, Sink::AggBuild { .. });
        let claimer = Claimer::new(self.morsels.len(), workers, self.schedule, ordered);
        let stop = AtomicBool::new(false);
        let shared = WorkerShared {
            morsels: self.morsels,
            claimer: &claimer,
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
                        // accounting and the budget check.
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

            // Coordinator: account and check the budget on every
            // completed morsel. The channel disconnects when the last
            // worker is done.
            let mut rows_delta = 0u64;
            while let Ok(MorselDone { spent, rows }) = rx.recv() {
                *tally = *tally + spent;
                streamed = streamed + spent;
                rows_delta += rows;
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
        let exe = compiled.artifacts[self.pipe_idx]
            .instantiate()
            .map_err(|e| EngineError::WorkerPanic(format!("replay instantiation failed: {e}")))?;
        let shared = WorkerShared {
            morsels: self.morsels,
            claimer: &Claimer::fixed(missing),
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
}
