//! Multi-query serving scheduler.
//!
//! [`QueryScheduler::serve_session`] drives many concurrent query
//! sessions over one [`Session`]: its engine, statement cache and
//! [`CompileService`] (and therefore one shared code cache — repeated
//! query shapes plan and compile once and hit the caches afterwards).
//! The scheduler provides the *inter*-query parallelism
//! axis of the serving story; [`crate::QueryRun::workers`] provides the
//! *intra*-query axis. A serving deployment picks one per tier of the
//! workload: many small queries → scheduler, one huge query → a
//! `QueryRun` with several workers.
//!
//! Mechanics:
//!
//! * **Bounded admission.** At most [`SchedulerConfig::admission_limit`]
//!   queries are admitted (prepared + compiled) at a time; the rest
//!   wait as pending requests. This bounds memory (each admitted query
//!   holds executables and runtime state) and keeps the cache warm-up
//!   serial enough to be effective.
//! * **The batch as given.** A serve takes the caller's whole batch as
//!   its arrival queue and admits every request in it: the caller bounds
//!   the queue by what it submits. Each request carries its own
//!   execution budget ([`SessionRequest::with_budget`]); one without
//!   runs unlimited.
//! * **Shortest remaining first.** A free worker makes one pick under
//!   the state lock: of the admitted queries waiting for a worker and —
//!   while an admission slot is free — the pending requests, it takes
//!   the one with the fewest estimated morsels left (an admitted query
//!   wins a tie, then submission order). Picking a pending request
//!   admits it; picking an admitted query runs one slice of
//!   [`SchedulerConfig::morsel_credits`] morsels through the
//!   incremental [`QueryExecution`] stepper. A request's estimate is
//!   computed once from its plan before the workers start, in the unit
//!   of the driver's own remaining-morsel count, so short queries finish
//!   first instead of every query of a batch finishing near its end.
//!   There is no age bound: a serve is a finite batch, so a long query
//!   waits at most for the shorter work of its own batch.
//! * **Tier-up priority.** When a background tier is configured, a
//!   small number of in-flight background compiles
//!   ([`SchedulerConfig::tier_up_inflight`]) is granted to the admitted
//!   queries with the **most remaining morsels** — the queries with the
//!   most execution left to amortize an expensive compile, mirroring
//!   the paper's adaptive-execution argument. Each query is granted at
//!   most one background compile; a completed tier is adopted between
//!   two slices — a morsel boundary — through
//!   `CompiledQuery::adopt_ready`, and a failed one leaves the query on
//!   its first tier for good. This is the engine's one tier-up path
//!   and its only tier change: a single query tiers up as a
//!   one-request serve, and no query ever moves to a cheaper tier.
//!   A long query, though, is admitted last and then runs without
//!   sharing its worker, so it often finishes before its background
//!   compile does: few queries of a batch tier up.
//! * **Fault containment + circuit breaker.** Admission runs under
//!   `supervise` and every execution slice is a supervised driver step,
//!   so a panicking query fails its own session, never the serve loop.
//!   With a [`BreakerPolicy`], K consecutive faults on one back-end
//!   tier — execution faults and compile faults alike — trip that
//!   tier's breaker: subsequent admissions route down the policy's
//!   [`FallbackChain`] until the cooldown passes. The chain is the
//!   engine's one degradation ladder: an admission whose compile fails
//!   goes back to the head of the queue on the next tier of the chain,
//!   so a request tries each tier at most once and fails only when the
//!   chain's last tier fails too.
//!
//! Policy and driver. Every decision above is a method of the private
//! `SchedState`, the state the workers share, and each method past `new`
//! takes the [`SchedulerConfig`] and a `now` from its caller:
//!
//! * `SchedState::new` only orders the batch;
//! * `pick` is the order, and routes a picked admission past open
//!   breakers;
//! * `admitted` files an admission's result: the query waits for a
//!   worker and competes for a tier-up slot, a compile fault counts
//!   toward its tier's breaker and re-queues the request on the next
//!   chain tier, or it fails;
//! * `after_slice` takes one slice's result: a resolved tier-up gives
//!   its slot back, the breaker counts a fault or forgives the streak,
//!   and free tier-up slots are granted;
//! * `retire` is the only way out, and stamps the latency at `now`.
//!
//! The core is clock-free: it reads no clock, takes no lock and
//! compiles nothing. It asks for a background compile through a spawner
//! its caller passes in. The serving worker is only the driver: lock →
//! `pick` → unlock → admit, or adopt a finished tier and run one
//! [`QueryExecution`] step → lock → one call into the core → notify. A
//! second driver (a replay on a virtual clock, say) runs the same
//! policy by supplying its own times and spawner.

use crate::compile_service::PendingCompile;
use crate::engine::{CompiledQuery, EngineError, ExecutionResult, PreparedQuery, QueryBudget};
use crate::morsel_exec::{plan_morsels, QueryExecution, StepProgress};
use crate::session::Session;
use crate::supervise::{lock_recover, supervise};
use qc_backend::{Backend, BackendError};
use qc_plan::PlanNode;
use qc_runtime::SqlValue;
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// An ordered list of back-end tiers, most desirable first: the
/// degradation ladder of a [`BreakerPolicy`].
#[derive(Clone)]
pub struct FallbackChain {
    tiers: Vec<Arc<dyn Backend>>,
}

impl std::fmt::Debug for FallbackChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.tiers.iter().map(|t| t.name()).collect();
        write!(f, "FallbackChain({})", names.join(" → "))
    }
}

impl FallbackChain {
    /// Builds a chain from explicit tiers, most desirable first.
    ///
    /// # Panics
    /// Panics if `tiers` is empty (an empty chain can compile nothing).
    pub fn new(tiers: Vec<Arc<dyn Backend>>) -> Self {
        assert!(!tiers.is_empty(), "fallback chain needs at least one tier");
        FallbackChain { tiers }
    }

    /// The standard degradation ladder for `isa`:
    /// LVM-opt → LVM-cheap → DirectEmit (TX64 only) → interpreter. The
    /// interpreter accepts every verified module, so it floors the
    /// chain.
    pub fn standard(isa: Isa) -> Self {
        let mut tiers: Vec<Arc<dyn Backend>> = vec![
            Arc::from(crate::backends::lvm_opt(isa)),
            Arc::from(crate::backends::lvm_cheap(isa)),
        ];
        if isa == Isa::Tx64 {
            tiers.push(Arc::from(crate::backends::direct_emit()));
        }
        tiers.push(Arc::from(crate::backends::interpreter()));
        FallbackChain { tiers }
    }

    /// The tiers, most desirable first.
    pub fn tiers(&self) -> &[Arc<dyn Backend>] {
        &self.tiers
    }

    /// The tiers after the one named `tier`: the whole chain for a tier
    /// not in it.
    fn below(&self, tier: &str) -> &[Arc<dyn Backend>] {
        match self.tiers.iter().position(|t| t.name() == tier) {
            Some(i) => &self.tiers[i + 1..],
            None => &self.tiers,
        }
    }
}

/// Per-back-end-tier circuit breaker: after `trip_after` consecutive
/// faults on one tier, execution or compile, admissions route down
/// `chain` until `cooldown` passes. An admission whose compile fails
/// walks `chain` too, breaker open or not.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive faults that trip the breaker.
    pub trip_after: u32,
    /// How long a tripped breaker stays open.
    pub cooldown: Duration,
    /// Where an admission to an open tier goes instead, and where one
    /// whose compile failed goes next: the first tier below it (the
    /// whole chain, for a tier not in it) whose breaker is closed.
    pub chain: FallbackChain,
}

/// Configuration of a [`QueryScheduler`].
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Serving worker threads (each runs one query slice at a time).
    pub workers: usize,
    /// Maximum concurrently admitted (prepared + compiled) queries.
    pub admission_limit: usize,
    /// Morsels a query runs per slice before its worker picks again:
    /// how often a worker can switch to a shorter query.
    pub morsel_credits: u64,
    /// Optional background tier: queries tier up to this back-end while
    /// executing their first tier.
    pub tier_up_backend: Option<Arc<dyn Backend>>,
    /// Maximum concurrent background tier-up compiles.
    pub tier_up_inflight: usize,
    /// Per-tier circuit breaker on execution and compile faults, with
    /// its fallback chain. `None` fails a request on its first fault.
    pub breaker: Option<BreakerPolicy>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            admission_limit: 16,
            morsel_credits: 8,
            tier_up_backend: None,
            tier_up_inflight: 2,
            breaker: None,
        }
    }
}

impl SchedulerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] when `workers`,
    /// `admission_limit` or `morsel_credits` is zero, when the breaker
    /// trips after zero faults, or when a `tier_up_backend` is set with
    /// no tier-up slot (`tier_up_inflight == 0`).
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::Config(
                "scheduler needs at least one worker".to_string(),
            ));
        }
        if self.admission_limit == 0 {
            return Err(EngineError::Config(
                "admission limit must be > 0".to_string(),
            ));
        }
        if self.morsel_credits == 0 {
            return Err(EngineError::Config(
                "morsel credits must be > 0".to_string(),
            ));
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err(EngineError::Config(
                    "breaker trip_after must be > 0".to_string(),
                ));
            }
        }
        if self.tier_up_backend.is_some() && self.tier_up_inflight == 0 {
            return Err(EngineError::Config(
                "tier_up_inflight must be > 0 when a tier_up_backend is set".to_string(),
            ));
        }
        Ok(())
    }
}

/// One query session submitted to the scheduler.
pub struct SessionRequest {
    /// Session name (used in module names and the outcome).
    pub name: String,
    /// The logical plan to serve.
    pub plan: PlanNode,
    /// Per-request execution budget; `None` runs unlimited.
    pub budget: Option<QueryBudget>,
}

impl SessionRequest {
    /// A request with no execution budget.
    pub fn new(name: impl Into<String>, plan: PlanNode) -> Self {
        SessionRequest {
            name: name.into(),
            plan,
            budget: None,
        }
    }

    /// Attaches a per-request execution budget.
    #[must_use]
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// How one served session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// Completed with rows.
    Ok,
    /// Failed with an execution or compilation error.
    Failed,
    /// Stopped by its [`QueryBudget`] (deadline, cycle/row cap,
    /// cancellation).
    Killed,
}

/// Result of one served session.
pub struct QueryOutcome {
    /// Session name.
    pub name: String,
    /// Result rows (empty unless `status` is [`OutcomeStatus::Ok`]).
    pub rows: Vec<Vec<SqlValue>>,
    /// Time from submission to admission (prepare/compile start; for a
    /// request whose compile failed over, its last admission). A long
    /// query waits here, unadmitted, while shorter ones run.
    pub queue_wait: Duration,
    /// Time from submission to completion.
    pub latency: Duration,
    /// Deterministic execution cycles (partial for killed queries).
    pub cycles: u64,
    /// Name of the back-end tier the request was admitted on: the
    /// serve's back-end, or a tier of the breaker's chain. A request
    /// that failed every tier names the last one it tried.
    pub tier: &'static str,
    /// Whether the optimizing tier ([`SchedulerConfig::tier_up_backend`])
    /// was adopted mid-query and then ran a slice that left the query
    /// unfinished.
    pub tiered_up: bool,
    /// How the session ended.
    pub status: OutcomeStatus,
    /// Failure description, if the session did not complete.
    pub error: Option<String>,
}

/// Aggregate result of one [`QueryScheduler::serve_session`] call.
pub struct ServeReport {
    /// Per-session outcomes in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Wall-clock time of the whole serve.
    pub wall: Duration,
    /// Total worker busy time (admission + execution slices). An
    /// admission is timed as a whole, so the end of a compile a worker
    /// spends parked on a module a compile-pool helper claimed and has
    /// not finished still counts as busy.
    pub busy: Duration,
    /// Per-worker busy time. On a host with fewer cores than workers,
    /// wall clock under-reports the scheduling parallelism; the spread
    /// of this vector shows the work distribution directly.
    pub worker_busy: Vec<Duration>,
    /// Worker count used.
    pub workers: usize,
    /// Circuit-breaker trips across all tiers.
    pub breaker_trips: u64,
}

impl ServeReport {
    /// Completed queries per wall-clock second: failed and killed
    /// sessions do not count.
    pub fn throughput_qps(&self) -> f64 {
        self.count(OutcomeStatus::Ok) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fraction of worker time spent busy, in `0.0..=1.0` — an upper
    /// bound on the time spent computing, see [`ServeReport::busy`].
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        (self.busy.as_secs_f64() / capacity.max(1e-9)).min(1.0)
    }

    fn count(&self, status: OutcomeStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Sessions that failed with an error.
    pub fn failed(&self) -> usize {
        self.count(OutcomeStatus::Failed)
    }

    /// Sessions killed by their budget.
    pub fn killed(&self) -> usize {
        self.count(OutcomeStatus::Killed)
    }

    /// Sessions that did not complete: failed + killed.
    pub fn failures(&self) -> usize {
        self.failed() + self.killed()
    }

    /// Work-distribution speedup: total busy time over the busiest
    /// worker's busy time. This is the model-time speedup the serve
    /// would achieve on one core per worker — `workers`-ideal when the
    /// workers' picks balance perfectly, 1.0 when one worker did
    /// everything. Unlike wall-clock throughput it is meaningful even
    /// when the host has fewer cores than serving workers.
    pub fn parallel_speedup(&self) -> f64 {
        let max = self
            .worker_busy
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        self.busy.as_secs_f64() / max.max(1e-9)
    }
}

/// One admitted query session. The prepared query is shared (`Arc`)
/// with the session's prepared-statement cache that admission answered
/// it from.
struct Active {
    ticket: Ticket,
    prepared: Arc<PreparedQuery>,
    compiled: CompiledQuery,
    exec: QueryExecution,
    /// Estimated morsels left (the key of [`SchedState::pick`] and of
    /// the tier-up priority).
    remaining: u64,
    tier_up: TierUp,
}

/// Where an admitted query is in its one tier-up: a query is granted at
/// most one background compile, and its outcome is final.
enum TierUp {
    /// No background compile granted yet.
    NotStarted,
    /// The background compile runs and holds a tier-up slot.
    Compiling(PendingCompile),
    /// The compile finished: its tier was adopted, or it failed.
    Resolved,
}

impl TierUp {
    /// [`CompiledQuery::adopt_ready`] for the driver: a compile that
    /// finished, adopted or failed, resolves the tier-up.
    fn adopt_ready(&mut self, compiled: &mut CompiledQuery) -> Option<Result<(), BackendError>> {
        let mut pending = match std::mem::replace(self, TierUp::Resolved) {
            TierUp::Compiling(pending) => Some(pending),
            other => {
                *self = other;
                return None;
            }
        };
        let adopted = compiled.adopt_ready(&mut pending);
        if let Some(pending) = pending {
            *self = TierUp::Compiling(pending);
        }
        adopted
    }
}

#[derive(Default)]
struct BreakerState {
    consecutive: u32,
    open_until: Option<Instant>,
}

/// A submitted request not admitted yet.
struct Pending {
    ticket: Ticket,
    req: SessionRequest,
    /// Estimated morsels ([`plan_morsels`]), in [`Active::remaining`]'s
    /// unit; computed once, before the workers start.
    morsels: u64,
    /// The chain tier its next admission routes from, once a compile
    /// fault re-queued it; `None` routes from the serve's back-end.
    tier: Option<Arc<dyn Backend>>,
}

/// How the policy core asks for a background compile of a query to a
/// tier. The serving driver passes its compile service's.
type Spawn<'a> = &'a dyn Fn(&Arc<PreparedQuery>, &Arc<dyn Backend>) -> PendingCompile;

/// Scheduler state shared by the serving workers, and the one
/// scheduling policy as its methods. Each method takes the
/// configuration and the `now` its caller read; none reads a clock,
/// takes a lock or compiles (a background compile goes through the
/// [`Spawn`] it is handed), so any driver that supplies the times runs
/// the same decisions.
#[derive(Default)]
struct SchedState {
    /// Requests waiting for admission, in ascending `(morsels, index)`
    /// order.
    pending: VecDeque<Pending>,
    /// Admitted queries waiting for a worker.
    ready: Vec<Active>,
    outcomes: Vec<Option<QueryOutcome>>,
    active: usize,
    done: usize,
    tier_inflight: usize,
    breakers: HashMap<&'static str, BreakerState>,
    breaker_trips: u64,
}

impl SchedState {
    /// The state of one serve of the `pending` batch, which this serve
    /// model takes whole as the arrival queue, ordered for
    /// [`SchedState::pick`].
    fn new(mut pending: VecDeque<Pending>) -> SchedState {
        pending
            .make_contiguous()
            .sort_by_key(|p| (p.morsels, p.ticket.index));
        SchedState {
            outcomes: (0..pending.len()).map(|_| None).collect(),
            pending,
            ..SchedState::default()
        }
    }

    /// The one scheduling decision: of the admitted queries waiting for
    /// a worker and — while an admission slot is free — the pending
    /// requests, the one with the fewest estimated morsels left. An
    /// admitted query wins a tie, then submission order decides. `None`
    /// when nothing can start now. A picked request takes an admission
    /// slot, ends its queue wait at `now` and is routed to a back-end:
    /// from the serve's `backend`, or from the chain tier a compile
    /// fault re-queued it on.
    fn pick(
        &mut self,
        config: &SchedulerConfig,
        backend: &Arc<dyn Backend>,
        now: Instant,
    ) -> Option<Pick> {
        let run = self
            .ready
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| (a.remaining, a.ticket.index))
            .map(|(i, a)| (a.remaining, i));
        let admit = self
            .pending
            .front()
            .filter(|_| self.active < config.admission_limit)
            .map(|p| p.morsels);
        match (run, admit) {
            (Some((remaining, i)), admit) if admit.is_none_or(|morsels| remaining <= morsels) => {
                Some(Pick::Run(self.ready.swap_remove(i)))
            }
            (_, Some(_)) => {
                let mut pending = self.pending.pop_front()?;
                self.active += 1;
                pending.ticket.queue_wait = now.saturating_duration_since(pending.ticket.submitted);
                let tier = self.route(config, pending.tier.as_ref().unwrap_or(backend), now);
                pending.ticket.tier = tier.name();
                Some(Pick::Admit(pending, tier))
            }
            _ => None,
        }
    }

    /// The back-end for one admission starting at `backend`: `backend`
    /// unless its circuit breaker is open, then the first tier down the
    /// breaker's fallback chain whose breaker is closed (fail-open to
    /// `backend` when every breaker is open or no breaker is
    /// configured).
    fn route(
        &mut self,
        config: &SchedulerConfig,
        backend: &Arc<dyn Backend>,
        now: Instant,
    ) -> Arc<dyn Backend> {
        let Some(breaker) = &config.breaker else {
            return Arc::clone(backend);
        };
        let closed = std::iter::once(backend)
            .chain(breaker.chain.below(backend.name()))
            .find(|t| !self.breaker_open(t.name(), now));
        Arc::clone(closed.unwrap_or(backend))
    }

    /// Whether `tier`'s breaker is open at `now`; an expired cooldown
    /// closes the breaker (and forgives its fault streak) on the way.
    fn breaker_open(&mut self, tier: &str, now: Instant) -> bool {
        let Some(b) = self.breakers.get_mut(tier) else {
            return false;
        };
        if b.open_until.is_some_and(|until| now >= until) {
            *b = BreakerState::default();
        }
        b.open_until.is_some()
    }

    /// What follows the admission of `request`: an admitted query
    /// waits for a worker (and competes for a tier-up slot). With a
    /// breaker, a compile fault ([`EngineError::Backend`]) counts toward
    /// the tier's breaker and puts the request back at the head of the
    /// queue on the next tier of the chain, whose admission
    /// [`SchedState::pick`] routes; at the chain's end, and on any
    /// other error, the request leaves with its error.
    fn admitted(
        &mut self,
        config: &SchedulerConfig,
        mut request: Pending,
        result: Result<Active, EngineError>,
        spawn: Spawn<'_>,
        now: Instant,
    ) {
        let err = match result {
            Ok(active) => {
                self.ready.push(active);
                self.grant_tier_ups(config, spawn);
                return;
            }
            Err(err) => err,
        };
        if let (Some(policy), EngineError::Backend(_)) = (&config.breaker, &err) {
            let tier = request.ticket.tier;
            self.count_fault(policy, tier, now);
            if let Some(next) = policy.chain.below(tier).first() {
                request.tier = Some(Arc::clone(next));
                self.active -= 1;
                self.pending.push_front(request);
                return;
            }
        }
        self.retire(request.ticket, false, now, Ending::Errored(err));
    }

    /// Counts one fault of `tier` toward its breaker: `trip_after`
    /// consecutive ones open it until `now` plus the cooldown, and a
    /// fault while it is open trips nothing.
    fn count_fault(&mut self, policy: &BreakerPolicy, tier: &'static str, now: Instant) {
        let b = self.breakers.entry(tier).or_default();
        b.consecutive += 1;
        if b.open_until.is_none() && b.consecutive >= policy.trip_after {
            b.open_until = Some(now + policy.cooldown);
            self.breaker_trips += 1;
        }
    }

    /// Everything that follows one execution slice of `a`: a tier-up
    /// resolved before the slice (`tier`) gives its slot back and counts
    /// when it was adopted and the slice left the query running on it; a
    /// finished query forgives its tier's fault streak, an execution
    /// fault counts towards its tier's breaker, and a query that goes on
    /// waits for a worker again beside the tier-up grant.
    fn after_slice(
        &mut self,
        config: &SchedulerConfig,
        mut a: Active,
        tier: Option<Result<(), BackendError>>,
        step: Result<StepProgress, EngineError>,
        spawn: Spawn<'_>,
        now: Instant,
    ) {
        if let Some(adopted) = tier {
            self.tier_inflight -= 1;
            a.ticket.tiered_up = adopted.is_ok() && matches!(step, Ok(StepProgress::Ran));
        }
        let ending = match step {
            Ok(StepProgress::Ran) => {
                self.ready.push(a);
                self.grant_tier_ups(config, spawn);
                return;
            }
            Ok(StepProgress::Done) => {
                let tier = self.breakers.get_mut(a.compiled.backend_name);
                if let Some(b) = tier.filter(|b| b.open_until.is_none()) {
                    b.consecutive = 0;
                }
                Ending::Finished(a.exec.into_result())
            }
            Err(err) => {
                let fault = matches!(err, EngineError::Trap(_) | EngineError::WorkerPanic(_));
                if let Some(policy) = config.breaker.as_ref().filter(|_| fault) {
                    self.count_fault(policy, a.compiled.backend_name, now);
                }
                Ending::Errored(err)
            }
        };
        let compiling = matches!(a.tier_up, TierUp::Compiling(_));
        self.retire(a.ticket, compiling, now, ending);
    }

    /// Grants free tier-up slots to the ready queries with the most
    /// remaining morsels (the queries with the most execution left to
    /// amortize the expensive compile) that have not had their one
    /// background compile yet.
    fn grant_tier_ups(&mut self, config: &SchedulerConfig, spawn: Spawn<'_>) {
        let Some(opt_backend) = &config.tier_up_backend else {
            return;
        };
        while self.tier_inflight < config.tier_up_inflight {
            let candidate = self
                .ready
                .iter_mut()
                .filter(|a| matches!(a.tier_up, TierUp::NotStarted) && a.remaining > 0)
                .max_by_key(|a| a.remaining);
            let Some(a) = candidate else {
                return;
            };
            a.tier_up = TierUp::Compiling(spawn(&a.prepared, opt_backend));
            self.tier_inflight += 1;
        }
    }

    /// The one way out of the scheduler: gives back what the session
    /// holds (its admission slot and, when `tier_pending` says a
    /// background compile is still in flight for it, its tier-up slot)
    /// and records the [`QueryOutcome`] with its latency at `now`.
    fn retire(&mut self, who: Ticket, tier_pending: bool, now: Instant, ending: Ending) {
        // A lost session was never admitted.
        let admitted = !matches!(ending, Ending::Lost);
        let latency = now.saturating_duration_since(who.submitted);
        let (status, rows, cycles, error) = match ending {
            Ending::Finished(result) => (
                OutcomeStatus::Ok,
                result.rows,
                result.exec_stats.cycles,
                None,
            ),
            Ending::Errored(err) => {
                let (status, cycles) = match &err {
                    EngineError::DeadlineExceeded { partial, .. }
                    | EngineError::BudgetExhausted { partial, .. }
                    | EngineError::Cancelled { partial } => (OutcomeStatus::Killed, partial.cycles),
                    _ => (OutcomeStatus::Failed, 0),
                };
                (status, Vec::new(), cycles, Some(err.to_string()))
            }
            Ending::Lost => (
                OutcomeStatus::Failed,
                Vec::new(),
                0,
                Some("scheduler lost this session's outcome".to_string()),
            ),
        };
        if tier_pending {
            self.tier_inflight -= 1; // abandoned in-flight compile
        }
        self.outcomes[who.index] = Some(QueryOutcome {
            name: who.name,
            rows,
            queue_wait: who.queue_wait,
            latency,
            cycles,
            tier: who.tier,
            tiered_up: who.tiered_up,
            status,
            error,
        });
        if admitted {
            self.active -= 1;
        }
        self.done += 1;
    }
}

struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// The serving scheduler. See the module docs.
pub struct QueryScheduler {
    config: SchedulerConfig,
}

impl QueryScheduler {
    /// Creates a scheduler after validating `config`.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] when
    /// [`SchedulerConfig::validate`] rejects the configuration.
    pub fn try_new(config: SchedulerConfig) -> Result<Self, EngineError> {
        config.validate()?;
        Ok(QueryScheduler { config })
    }

    /// Serves `requests` on top of a [`Session`] to completion and
    /// reports per-session outcomes plus aggregate
    /// throughput/utilization. Admission consults the session's
    /// prepared-statement cache (repeated plan shapes skip planning and
    /// IR generation, not just back-end compilation) and its compile
    /// service with any attached persistent artifact store.
    pub fn serve_session(
        &self,
        session: &Session<'_>,
        backend: &Arc<dyn Backend>,
        requests: Vec<SessionRequest>,
    ) -> ServeReport {
        let start = Instant::now();
        let pending = requests
            .into_iter()
            .enumerate()
            .map(|(index, mut req)| Pending {
                ticket: Ticket::new(index, std::mem::take(&mut req.name), start),
                morsels: plan_morsels(session.engine(), &req.plan),
                req,
                tier: None,
            });
        let shared = Shared {
            state: Mutex::new(SchedState::new(pending.collect())),
            cv: Condvar::new(),
        };
        let worker_busy: Vec<Duration> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.config.workers)
                .map(|_| {
                    let shared = &shared;
                    let config = &self.config;
                    s.spawn(move || serve_worker(session, backend, config, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Duration::ZERO))
                .collect()
        });

        let mut state = shared
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Defensive: every path records an outcome; a lost one reports
        // as a failure rather than panicking the serve.
        for index in 0..state.outcomes.len() {
            if state.outcomes[index].is_none() {
                let ticket = Ticket::new(index, format!("session-{index}"), start);
                state.retire(ticket, false, Instant::now(), Ending::Lost);
            }
        }
        ServeReport {
            outcomes: state.outcomes.into_iter().flatten().collect(),
            wall: start.elapsed(),
            busy: worker_busy.iter().sum(),
            worker_busy,
            workers: self.config.workers,
            breaker_trips: state.breaker_trips,
        }
    }
}

/// What a free worker does next ([`SchedState::pick`]). Moved out of
/// the state at once, like the `Active` it carries; boxing that would
/// allocate on every slice.
#[allow(clippy::large_enum_variant)]
enum Pick {
    /// Admit (plan and compile) this request on the routed back-end;
    /// it holds an admission slot until it is filed back.
    Admit(Pending, Arc<dyn Backend>),
    /// Run one slice of this admitted query.
    Run(Active),
}

/// One serving worker: the driver of the policy in [`SchedState`]. It
/// locks, picks and unlocks; admits or runs one slice; then locks
/// again, hands the result and the time to the policy, and notifies
/// the other workers, until every session is done. Returns this
/// worker's busy time.
fn serve_worker(
    session: &Session<'_>,
    backend: &Arc<dyn Backend>,
    config: &SchedulerConfig,
    shared: &Shared,
) -> Duration {
    let (engine, service) = (session.engine(), session.compile_service());
    let spawn =
        |query: &Arc<PreparedQuery>, tier: &Arc<dyn Backend>| service.spawn_compile(query, tier);
    let mut busy = Duration::ZERO;
    loop {
        let mut g = lock_recover(&shared.state);
        let next = loop {
            if g.done == g.outcomes.len() {
                shared.cv.notify_all();
                return busy;
            }
            if let Some(next) = g.pick(config, backend, Instant::now()) {
                break next;
            }
            g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        };
        drop(g);
        let t0 = Instant::now();
        match next {
            Pick::Admit(request, backend) => {
                // Admission fault containment: a panicking planner or
                // compiler fails this session, not the serve loop. The
                // request stays out here, so a failed compile can go
                // back to the queue on another tier.
                let admitted = supervise(|| admit(session, &backend, &request))
                    .unwrap_or_else(|panic| Err(EngineError::WorkerPanic(panic)));
                busy += t0.elapsed();
                let mut g = lock_recover(&shared.state);
                g.admitted(config, request, admitted, &spawn, Instant::now());
            }
            Pick::Run(mut a) => {
                // Adopt a completed background tier between two slices
                // (a morsel boundary), the one place a tier lands.
                // Execution fault containment is the driver's: generated
                // code panicking inside a slice comes back as a typed
                // error that fails this session.
                let tier = a.tier_up.adopt_ready(&mut a.compiled);
                let step = a
                    .exec
                    .step(engine, &a.prepared, &mut a.compiled, config.morsel_credits);
                if let Ok(StepProgress::Ran) = step {
                    a.remaining = a.exec.remaining_morsels(engine, &a.prepared);
                }
                busy += t0.elapsed();
                let mut g = lock_recover(&shared.state);
                g.after_slice(config, a, tier, step, &spawn, Instant::now());
            }
        }
        shared.cv.notify_all();
    }
}

/// Prepares and compiles one session through the session's statement
/// cache and shared compile service (and therefore the shared code
/// cache): repeated plan shapes skip planning and IR generation too, and
/// with an artifact store a statement record spares a restarted process
/// the IR generation.
/// The prepared query is shared under the statement cache's canonical
/// module name, which is free because the code cache keys on
/// structural hashes that exclude names.
fn admit(
    session: &Session<'_>,
    backend: &Arc<dyn Backend>,
    Pending { ticket, req, .. }: &Pending,
) -> Result<Active, EngineError> {
    let engine = session.engine();
    let store = session.compile_service().artifact_store();
    let prepared = session
        .statements()
        .get_or_prepare(engine, store, &req.plan)?
        .prepared;
    let compiled = session
        .compile_service()
        .compile(&prepared, backend, &TimeTrace::disabled())?;
    let budget = req.budget.clone().unwrap_or_default();
    // Sessions run single-threaded: the scheduler is the inter-query
    // parallelism axis (see the module docs).
    let exec = QueryExecution::new(1, budget);
    let remaining = exec.remaining_morsels(engine, &prepared);
    Ok(Active {
        ticket: ticket.clone(),
        prepared,
        compiled,
        exec,
        remaining,
        tier_up: TierUp::NotStarted,
    })
}

/// What identifies a session from submission to outcome.
#[derive(Clone)]
struct Ticket {
    index: usize,
    name: String,
    /// When the session was submitted: the zero of its queue wait and
    /// latency.
    submitted: Instant,
    /// Time from submission to admission.
    queue_wait: Duration,
    /// The tier it was last admitted on; empty before admission.
    tier: &'static str,
    /// Whether the optimizing tier was adopted mid-query.
    tiered_up: bool,
}

impl Ticket {
    fn new(index: usize, name: String, submitted: Instant) -> Ticket {
        Ticket {
            index,
            name,
            submitted,
            queue_wait: Duration::ZERO,
            tier: "",
            tiered_up: false,
        }
    }
}

/// Why a session leaves the scheduler.
enum Ending {
    /// Ran to completion.
    Finished(ExecutionResult),
    /// Admission or an execution slice failed; a tripped
    /// [`QueryBudget`] counts as a kill, everything else as a failure.
    Errored(EngineError),
    /// No worker recorded an outcome (every worker died).
    Lost,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_target::{Isa, Trap};
    use std::cell::Cell;

    fn state(sessions: usize, tier_inflight: usize) -> SchedState {
        SchedState {
            outcomes: (0..sessions).map(|_| None).collect(),
            active: sessions,
            tier_inflight,
            ..SchedState::default()
        }
    }

    fn prepared() -> Arc<PreparedQuery> {
        let db = qc_storage::gen_hlike(0.01);
        let query = &qc_workloads::hlike_suite()[0];
        let prepared = crate::Engine::new(&db).prepare(&query.plan, &query.name);
        Arc::new(prepared.expect("prepare"))
    }

    /// Admitted session `index` on `tier` with `remaining` morsels left;
    /// its compiled query is empty, since the policy never executes.
    fn active(
        index: usize,
        prepared: &Arc<PreparedQuery>,
        tier: &'static str,
        remaining: u64,
    ) -> Active {
        Active {
            ticket: Ticket::new(index, format!("s{index}"), Instant::now()),
            prepared: Arc::clone(prepared),
            compiled: CompiledQuery {
                executables: Vec::new(),
                artifacts: Vec::new(),
                compile_time: Duration::ZERO,
                compile_stats: qc_backend::CompileStats::default(),
                backend_name: tier,
            },
            exec: QueryExecution::new(1, QueryBudget::default()),
            remaining,
            tier_up: TierUp::NotStarted,
        }
    }

    /// A background compile handle; these tests never poll it.
    fn unresolved(_: &Arc<PreparedQuery>, _: &Arc<dyn Backend>) -> PendingCompile {
        PendingCompile(std::sync::mpsc::channel().1)
    }

    fn finished() -> Ending {
        Ending::Finished(ExecutionResult {
            rows: Vec::new(),
            exec_stats: qc_target::ExecStats::default(),
            critical_path_cycles: 0,
        })
    }

    /// Every admitted ending gives the tier-up slot of a still-pending
    /// background compile back — `Done` used to keep it.
    #[test]
    fn retire_releases_a_pending_tier_slot_on_every_ending() {
        let partial = qc_target::ExecStats {
            cycles: 9,
            insts: 3,
        };
        let endings = [
            finished(),
            Ending::Errored(EngineError::Trap(Trap::Overflow)),
            Ending::Errored(EngineError::Cancelled { partial }),
        ];
        let mut g = state(endings.len(), endings.len());
        for (index, ending) in endings.into_iter().enumerate() {
            let ticket = Ticket::new(index, format!("s{index}"), Instant::now());
            g.retire(ticket, true, Instant::now(), ending);
        }
        assert_eq!(g.tier_inflight, 0, "every ending releases its tier slot");
        assert_eq!((g.active, g.done), (0, 3));
        let ended = g.outcomes.iter().flatten().map(|o| (o.status, o.cycles));
        let (ok, failed, killed) = (
            OutcomeStatus::Ok,
            OutcomeStatus::Failed,
            OutcomeStatus::Killed,
        );
        assert_eq!(
            ended.collect::<Vec<_>>(),
            [(ok, 0), (failed, 0), (killed, 9)]
        );
        // A session without a pending compile holds no tier slot.
        let mut g = state(1, 1);
        let ticket = Ticket::new(0, "s0".to_string(), Instant::now());
        g.retire(ticket, false, Instant::now(), finished());
        assert_eq!(g.tier_inflight, 1);
    }

    /// A failed or killed session that had already swapped tiers says
    /// so — the failure path used to report `tiered_up: false`.
    #[test]
    fn retire_keeps_the_tiered_up_flag_on_failure() {
        let mut g = state(2, 0);
        for (index, tiered_up) in [true, false].into_iter().enumerate() {
            let mut ticket = Ticket::new(index, format!("s{index}"), Instant::now());
            ticket.tiered_up = tiered_up;
            let ending = Ending::Errored(EngineError::Trap(Trap::Overflow));
            g.retire(ticket, false, Instant::now(), ending);
        }
        let flags: Vec<_> = g.outcomes.iter().flatten().map(|o| o.tiered_up).collect();
        assert_eq!(flags, [true, false]);
        assert!(g
            .outcomes
            .iter()
            .flatten()
            .all(|o| o.status == OutcomeStatus::Failed));
    }

    fn breaker_config() -> (SchedulerConfig, Arc<dyn Backend>) {
        let clift: Arc<dyn Backend> = Arc::from(crate::backends::clift(Isa::Tx64));
        let interp: Arc<dyn Backend> = Arc::from(crate::backends::interpreter());
        let config = SchedulerConfig {
            breaker: Some(BreakerPolicy {
                trip_after: 2,
                cooldown: Duration::from_millis(100),
                chain: FallbackChain::new(vec![Arc::clone(&clift), interp]),
            }),
            ..SchedulerConfig::default()
        };
        (config, clift)
    }

    /// `a`'s slice traps at `now`: an execution fault on its tier.
    fn trap(g: &mut SchedState, config: &SchedulerConfig, a: Active, now: Instant) {
        let step = Err(EngineError::Trap(Trap::Overflow));
        g.after_slice(config, a, None, step, &unresolved, now);
    }

    /// `trip_after` consecutive faults trip a tier's breaker and route
    /// admissions down the chain; faults while it is open add no trip.
    #[test]
    fn the_breaker_trips_once_after_trip_after_faults() {
        let (config, clift) = breaker_config();
        let prepared = prepared();
        let mut g = state(4, 0);
        let t0 = Instant::now();
        trap(&mut g, &config, active(0, &prepared, "Clift", 1), t0);
        assert_eq!(g.breaker_trips, 0);
        assert_eq!(g.route(&config, &clift, t0).name(), "Clift");
        trap(&mut g, &config, active(1, &prepared, "Clift", 1), t0);
        assert_eq!(g.breaker_trips, 1);
        assert_eq!(g.route(&config, &clift, t0).name(), "Interpreter");
        for index in 2..4 {
            trap(&mut g, &config, active(index, &prepared, "Clift", 1), t0);
        }
        assert_eq!(g.breaker_trips, 1, "an open breaker trips no second time");
        assert_eq!((g.done, g.active), (4, 0));
    }

    /// An open breaker closes at exactly its trip time plus the cooldown
    /// and forgives the streak: one more fault does not trip it again.
    #[test]
    fn the_breaker_closes_at_the_cooldown_and_forgives_the_streak() {
        let (config, clift) = breaker_config();
        let prepared = prepared();
        let mut g = state(3, 0);
        let tripped = Instant::now() + Duration::from_secs(1);
        for index in 0..2 {
            trap(
                &mut g,
                &config,
                active(index, &prepared, "Clift", 1),
                tripped,
            );
        }
        let reopen = tripped + Duration::from_millis(100);
        let just_before = reopen - Duration::from_nanos(1);
        assert_eq!(g.route(&config, &clift, just_before).name(), "Interpreter");
        assert_eq!(g.route(&config, &clift, reopen).name(), "Clift");
        assert_eq!(g.breakers["Clift"].consecutive, 0);
        trap(&mut g, &config, active(2, &prepared, "Clift", 1), reopen);
        assert!(!g.breaker_open("Clift", reopen));
        assert_eq!(g.breaker_trips, 1);
    }

    /// Request `index`, admitted at `now` through `pick` on `config`'s
    /// routing from `backend`; the policy never plans, so its plan is
    /// any scan.
    fn admit_request(
        g: &mut SchedState,
        config: &SchedulerConfig,
        backend: &Arc<dyn Backend>,
        index: usize,
        now: Instant,
    ) -> Pending {
        let plan = qc_plan::PlanNode::scan("orders", &["o_orderkey"]);
        g.pending.push_back(Pending {
            ticket: Ticket::new(index, format!("s{index}"), now),
            req: SessionRequest::new("", plan),
            morsels: 1,
            tier: None,
        });
        match g.pick(config, backend, now) {
            Some(Pick::Admit(request, _)) => request,
            _ => panic!("request {index} was not admitted"),
        }
    }

    /// `request`'s admission compile fails with `err` at `now`.
    fn compile_fault(
        g: &mut SchedState,
        config: &SchedulerConfig,
        request: Pending,
        err: EngineError,
        now: Instant,
    ) {
        g.admitted(config, request, Err(err), &unresolved, now);
    }

    fn backend_error() -> EngineError {
        EngineError::Backend(BackendError::new("compile fault"))
    }

    /// With a breaker, a compile fault counts toward the tier's streak
    /// and re-queues the request, first in line, on the next chain tier;
    /// the tier trips at exactly `trip_after` faults, and `route` then
    /// skips it.
    #[test]
    fn a_compile_fault_requeues_on_the_next_tier_and_counts_toward_the_breaker() {
        let (config, clift) = breaker_config();
        let mut g = SchedState {
            active: 0,
            ..state(2, 0)
        };
        let t0 = Instant::now();
        for index in 0..2 {
            let request = admit_request(&mut g, &config, &clift, index, t0);
            assert_eq!((request.ticket.tier, g.active), ("Clift", 1));
            compile_fault(&mut g, &config, request, backend_error(), t0);
            assert_eq!(g.breakers["Clift"].consecutive, index as u32 + 1);
            assert_eq!(g.breaker_trips, index as u64, "trips at exactly 2");
            assert_eq!((g.active, g.done, g.pending.len()), (0, 0, 1));
            let requeued = g.pending.front().expect("re-queued");
            assert_eq!(requeued.ticket.index, index);
            let next = requeued.tier.as_ref().map(|t| t.name());
            assert_eq!(next, Some("Interpreter"));
            let Some(Pick::Admit(request, tier)) = g.pick(&config, &clift, t0) else {
                panic!("the re-queued request is picked first");
            };
            assert_eq!(
                (tier.name(), request.ticket.tier),
                ("Interpreter", "Interpreter")
            );
            g.active -= 1; // the interpreter admission is not filed
        }
        assert_eq!(g.route(&config, &clift, t0).name(), "Interpreter");
    }

    /// Without a breaker a compile fault fails the request at once.
    #[test]
    fn without_a_breaker_a_compile_fault_fails_at_once() {
        let config = SchedulerConfig::default();
        let clift: Arc<dyn Backend> = Arc::from(crate::backends::clift(Isa::Tx64));
        let mut g = SchedState {
            active: 0,
            ..state(1, 0)
        };
        let t0 = Instant::now();
        let request = admit_request(&mut g, &config, &clift, 0, t0);
        compile_fault(&mut g, &config, request, backend_error(), t0);
        assert!(g.pending.is_empty() && g.breakers.is_empty());
        assert_eq!((g.active, g.done), (0, 1));
        let outcome = g.outcomes[0].as_ref().expect("retired");
        assert_eq!(
            (outcome.status, outcome.tier),
            (OutcomeStatus::Failed, "Clift")
        );
    }

    /// A plan error or a panic that escaped admission fails the request
    /// at once even with a breaker: a cheaper tier cannot fix either,
    /// and neither counts toward the breaker.
    #[test]
    fn plan_errors_and_admission_panics_fail_at_once_with_a_breaker() {
        let (config, clift) = breaker_config();
        let errors = [
            EngineError::Plan(qc_plan::PlanError {
                message: "no such table".to_string(),
            }),
            EngineError::WorkerPanic("planner panicked".to_string()),
        ];
        let mut g = SchedState {
            active: 0,
            ..state(errors.len(), 0)
        };
        let t0 = Instant::now();
        for (index, err) in errors.into_iter().enumerate() {
            let request = admit_request(&mut g, &config, &clift, index, t0);
            compile_fault(&mut g, &config, request, err, t0);
        }
        assert!(g.pending.is_empty() && g.breakers.is_empty());
        assert_eq!((g.active, g.done), (0, 2));
        let failed = g.outcomes.iter().flatten();
        assert!(failed.map(|o| o.status).all(|s| s == OutcomeStatus::Failed));
    }

    /// A compile fault on the chain's last tier ends the walk: the
    /// request retires `Failed` with that tier's error and gives back
    /// everything it held.
    #[test]
    fn a_compile_fault_on_the_last_tier_fails_the_request() {
        let (config, clift) = breaker_config();
        let mut g = SchedState {
            active: 0,
            ..state(1, 0)
        };
        let t0 = Instant::now();
        let request = admit_request(&mut g, &config, &clift, 0, t0);
        compile_fault(&mut g, &config, request, backend_error(), t0);
        let Some(Pick::Admit(request, _)) = g.pick(&config, &clift, t0) else {
            panic!("the re-queued request is picked");
        };
        let last = EngineError::Backend(BackendError::new("interpreter fault"));
        compile_fault(&mut g, &config, request, last, t0);
        assert!(g.pending.is_empty());
        assert_eq!((g.active, g.tier_inflight, g.done), (0, 0, 1));
        assert_eq!(g.done, g.outcomes.len());
        let outcome = g.outcomes[0].as_ref().expect("retired");
        assert_eq!(
            (outcome.status, outcome.tier),
            (OutcomeStatus::Failed, "Interpreter")
        );
        let error = outcome.error.as_deref().unwrap_or_default();
        assert!(error.contains("interpreter fault"), "{error}");
    }

    #[test]
    fn standard_chain_shape() {
        let tx = FallbackChain::standard(Isa::Tx64);
        let names: Vec<_> = tx.tiers().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec!["LVM-opt", "LVM-cheap", "DirectEmit", "Interpreter"]
        );
        let ta = FallbackChain::standard(Isa::Ta64);
        let names: Vec<_> = ta.tiers().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["LVM-opt", "LVM-cheap", "Interpreter"]);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_chain_is_rejected() {
        let _ = FallbackChain::new(Vec::new());
    }

    fn tier_up_config() -> SchedulerConfig {
        SchedulerConfig {
            tier_up_backend: Some(Arc::from(crate::backends::clift(Isa::Tx64))),
            tier_up_inflight: 2,
            ..SchedulerConfig::default()
        }
    }

    /// Ready queries holding a granted background compile.
    fn compiling(g: &SchedState) -> Vec<usize> {
        let pending = g
            .ready
            .iter()
            .filter(|a| matches!(a.tier_up, TierUp::Compiling(_)));
        pending.map(|a| a.ticket.index).collect()
    }

    /// Tier-up slots go to the ready queries with the most morsels left,
    /// never to one with nothing left or one already compiling, and only
    /// up to `tier_up_inflight` at a time.
    #[test]
    fn tier_up_goes_to_the_longest_ready_queries_up_to_the_limit() {
        let prepared = prepared();
        let config = tier_up_config();
        let asked = Cell::new(0);
        let spawn = |p: &Arc<PreparedQuery>, tier: &Arc<dyn Backend>| {
            assert_eq!(tier.name(), "Clift");
            asked.set(asked.get() + 1);
            unresolved(p, tier)
        };
        let mut g = state(4, 0);
        g.ready = vec![
            active(0, &prepared, "Interpreter", 5),
            active(1, &prepared, "Interpreter", 30),
            active(2, &prepared, "Interpreter", 40),
            active(3, &prepared, "Interpreter", 0),
        ];
        g.grant_tier_ups(&config, &spawn);
        assert_eq!(compiling(&g), [1, 2]);
        assert_eq!((g.tier_inflight, asked.get()), (2, 2));
        g.grant_tier_ups(&config, &spawn);
        assert_eq!(asked.get(), 2, "no free slot, no grant");
        g.tier_inflight = 0;
        g.grant_tier_ups(&config, &spawn);
        assert_eq!(compiling(&g), [0, 1, 2]);
        assert_eq!((g.tier_inflight, asked.get()), (1, 3));
    }

    /// A tier adopted before the slice that finishes the query is no
    /// tier-up: the query never ran on into the adopted tier.
    #[test]
    fn a_tier_adopted_at_the_finishing_step_is_not_a_tier_up() {
        let prepared = prepared();
        let mut g = state(1, 1);
        let mut a = active(0, &prepared, "Interpreter", 1);
        a.tier_up = TierUp::Resolved;
        let step = Ok(StepProgress::Done);
        g.after_slice(
            &tier_up_config(),
            a,
            Some(Ok(())),
            step,
            &unresolved,
            Instant::now(),
        );
        assert_eq!((g.tier_inflight, g.done), (0, 1));
        let outcome = g.outcomes[0].as_ref().expect("retired");
        assert_eq!(outcome.status, OutcomeStatus::Ok);
        assert!(!outcome.tiered_up, "adopted at the finishing step");
    }

    /// A query whose one background compile failed stays on its first
    /// tier: a free slot is not granted to it again. One adopted before
    /// a slice that leaves the query running is a tier-up.
    #[test]
    fn a_resolved_tier_up_is_never_granted_again() {
        let prepared = prepared();
        let config = tier_up_config();
        let mut g = state(2, 2);
        let t0 = Instant::now();
        let failed = Err(BackendError::new("background tier failed"));
        for (index, adopted) in [(0, failed), (1, Ok(()))] {
            let mut a = active(index, &prepared, "Interpreter", 10);
            a.tier_up = TierUp::Resolved;
            let step = Ok(StepProgress::Ran);
            g.after_slice(&config, a, Some(adopted), step, &unresolved, t0);
        }
        assert_eq!(g.tier_inflight, 0, "both slots free");
        assert!(compiling(&g).is_empty(), "a resolved tier-up is final");
        let tiered_up: Vec<_> = g.ready.iter().map(|a| a.ticket.tiered_up).collect();
        assert_eq!(tiered_up, [false, true]);
    }

    /// Throughput counts completed queries only: 2 ok, 2 killed and 1
    /// failed session over one second is 2 queries per second, not 5.
    #[test]
    fn throughput_counts_completed_queries_only() {
        use OutcomeStatus::{Failed, Killed};
        let ok = OutcomeStatus::Ok;
        let outcome = |status| QueryOutcome {
            name: String::new(),
            rows: Vec::new(),
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            cycles: 0,
            tier: "",
            tiered_up: false,
            status,
            error: None,
        };
        let report = ServeReport {
            outcomes: [ok, ok, Killed, Killed, Failed].map(outcome).into(),
            wall: Duration::from_secs(1),
            busy: Duration::ZERO,
            worker_busy: Vec::new(),
            workers: 1,
            breaker_trips: 0,
        };
        assert!((report.throughput_qps() - 2.0).abs() < 1e-9);
    }
}
