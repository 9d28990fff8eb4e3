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
//! * **Overload shedding.** With [`SchedulerConfig::max_queue_depth`]
//!   set, submissions beyond the depth are shed up front per
//!   [`ShedPolicy`] — rejected with an [`OutcomeStatus::Shed`] outcome
//!   instead of queueing unboundedly.
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
//!   the paper's adaptive-execution argument. A completed tier is
//!   adopted between two slices — a morsel boundary — by the same
//!   helper the single-query adaptive path calls between its steps.
//!   A long query, though, is admitted last and then runs without
//!   sharing its worker, so it often finishes before its background
//!   compile does: few queries of a batch tier up.
//! * **Runaway governor.** With a [`RunawayPolicy`], the scheduler
//!   learns an EWMA of cycles-per-morsel over completed queries and
//!   applies the *inverse* of tier-up to queries blowing past their
//!   prediction: downgrade to the next [`FallbackChain`] tier (same
//!   morsel-boundary adoption machinery), or kill outright past the
//!   kill factor ([`OutcomeStatus::Killed`]).
//! * **Fault containment + circuit breaker.** Admission runs under
//!   `supervise` and every execution slice is a supervised driver step,
//!   so a panicking query fails its own session, never the serve loop.
//!   With a [`BreakerPolicy`], K
//!   consecutive execution faults on one back-end tier trip that
//!   tier's breaker: subsequent admissions route down the fallback
//!   chain until the cooldown passes.

use crate::compile_service::{CompileService, PendingCompile};
use crate::engine::{CompiledQuery, EngineError, ExecutionResult, PreparedQuery, QueryBudget};
use crate::fallback::FallbackChain;
use crate::morsel_exec::{plan_morsels, MorselExecConfig, QueryExecution, StepProgress};
use crate::session::Session;
use crate::supervise::{lock_recover, supervise};
use qc_backend::Backend;
use qc_plan::PlanNode;
use qc_runtime::SqlValue;
use qc_timing::TimeTrace;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What happens to submissions beyond
/// [`SchedulerConfig::max_queue_depth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Shed the newest submissions (tail of the queue); the oldest
    /// waiters keep their place. The default.
    #[default]
    RejectNew,
    /// Shed the oldest submissions; the freshest requests are served
    /// (a recency-biased policy for workloads where stale queries have
    /// lost their value).
    DropOldest,
}

/// Runaway-query governor: queries that blow past the scheduler's
/// cycles-per-morsel prediction are downgraded a tier, or killed.
#[derive(Debug, Clone, Copy)]
pub struct RunawayPolicy {
    /// Downgrade when used cycles exceed `factor` × predicted.
    pub factor: f64,
    /// Kill when used cycles exceed `kill_factor` × predicted.
    pub kill_factor: f64,
    /// Completed queries needed before predictions are trusted.
    pub min_samples: u64,
}

impl Default for RunawayPolicy {
    fn default() -> Self {
        RunawayPolicy {
            factor: 4.0,
            kill_factor: 16.0,
            min_samples: 3,
        }
    }
}

/// Per-back-end-tier circuit breaker: after `trip_after` consecutive
/// execution faults on one tier, admissions route down the fallback
/// chain until `cooldown` passes.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive execution faults that trip the breaker.
    pub trip_after: u32,
    /// How long a tripped breaker stays open.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            trip_after: 3,
            cooldown: Duration::from_millis(100),
        }
    }
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
    /// Bound on accepted submissions per serve; beyond it, requests are
    /// shed per [`SchedulerConfig::shed_policy`]. `None` accepts all.
    pub max_queue_depth: Option<usize>,
    /// Which submissions to shed when over `max_queue_depth`.
    pub shed_policy: ShedPolicy,
    /// Default execution budget applied to every request that does not
    /// carry its own ([`SessionRequest::with_budget`] overrides).
    pub query_budget: Option<QueryBudget>,
    /// Runaway-query governor (downgrade/kill past prediction).
    pub runaway: Option<RunawayPolicy>,
    /// Per-tier circuit breaker on execution faults.
    pub breaker: Option<BreakerPolicy>,
    /// Degradation route shared by the runaway governor (downgrade
    /// target = tier below the current one) and the circuit breaker
    /// (admission reroute for open tiers).
    pub fallback_chain: Option<FallbackChain>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            admission_limit: 16,
            morsel_credits: 8,
            tier_up_backend: None,
            tier_up_inflight: 2,
            max_queue_depth: None,
            shed_policy: ShedPolicy::RejectNew,
            query_budget: None,
            runaway: None,
            breaker: None,
            fallback_chain: None,
        }
    }
}

impl SchedulerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] when `workers`,
    /// `admission_limit` or `morsel_credits` is zero, when a set
    /// `max_queue_depth` is zero, when the runaway factors are
    /// nonsensical (`factor < 1` or `kill_factor < factor`), or when
    /// the breaker trips after zero faults.
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
        if self.max_queue_depth == Some(0) {
            return Err(EngineError::Config(
                "max_queue_depth must be > 0 when set".to_string(),
            ));
        }
        if let Some(r) = &self.runaway {
            if r.factor < 1.0 || r.kill_factor < r.factor {
                return Err(EngineError::Config(format!(
                    "runaway policy needs 1.0 <= factor <= kill_factor \
                     (got factor {} kill_factor {})",
                    r.factor, r.kill_factor
                )));
            }
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err(EngineError::Config(
                    "breaker trip_after must be > 0".to_string(),
                ));
            }
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
    /// Per-request execution budget; `None` falls back to
    /// [`SchedulerConfig::query_budget`].
    pub budget: Option<QueryBudget>,
}

impl SessionRequest {
    /// A request with the scheduler's default budget.
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
    /// Rejected up front by overload shedding — never admitted.
    Shed,
    /// Stopped by the runaway governor or its [`QueryBudget`]
    /// (deadline, cycle/row cap, cancellation).
    Killed,
}

/// Result of one served session.
pub struct QueryOutcome {
    /// Session name.
    pub name: String,
    /// Result rows (empty unless `status` is [`OutcomeStatus::Ok`]).
    pub rows: Vec<Vec<SqlValue>>,
    /// Time from submission to admission (prepare/compile start). A
    /// long query waits here, unadmitted, while shorter ones run.
    pub queue_wait: Duration,
    /// Time from submission to completion.
    pub latency: Duration,
    /// Deterministic execution cycles (partial for killed queries).
    pub cycles: u64,
    /// Whether a background tier was adopted mid-query.
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
    /// Runaway-governor downgrades granted.
    pub runaway_downgrades: u64,
    /// Queries killed (runaway kill or budget trip).
    pub queries_killed: u64,
    /// Circuit-breaker trips across all tiers.
    pub breaker_trips: u64,
}

impl ServeReport {
    /// Completed queries per wall-clock second: shed, failed and killed
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

    /// Sessions shed by overload protection (never admitted).
    pub fn shed(&self) -> usize {
        self.count(OutcomeStatus::Shed)
    }

    /// Sessions killed by the runaway governor or their budget.
    pub fn killed(&self) -> usize {
        self.count(OutcomeStatus::Killed)
    }

    /// Sessions that did not complete: failed + killed. Shed sessions
    /// are counted separately ([`ServeReport::shed`]) — they were
    /// rejected by policy, not broken by a fault.
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
    /// Estimated morsels left (the key of [`pick`] and of the tier-up
    /// priority).
    remaining: u64,
    /// Morsel estimate at admission (runaway prediction base).
    initial_morsels: u64,
    pending_tier: Option<PendingCompile>,
    /// Whether the runaway governor already downgraded this query.
    downgraded: bool,
}

#[derive(Default)]
struct BreakerState {
    consecutive: u32,
    open_until: Option<Instant>,
}

/// A submitted request not admitted yet.
struct Pending {
    index: usize,
    req: SessionRequest,
    /// Estimated morsels ([`plan_morsels`]), in [`Active::remaining`]'s
    /// unit; computed once, before the workers start.
    morsels: u64,
}

/// Scheduler state shared by the serving workers.
#[derive(Default)]
struct SchedState {
    /// Requests waiting for admission, in ascending `(morsels, index)`
    /// order once the workers start.
    pending: VecDeque<Pending>,
    /// Admitted queries waiting for a worker.
    ready: Vec<Active>,
    outcomes: Vec<Option<QueryOutcome>>,
    active: usize,
    done: usize,
    tier_inflight: usize,
    /// EWMA of cycles-per-morsel over completed queries (runaway
    /// prediction).
    cpm_ewma: f64,
    cpm_samples: u64,
    breakers: HashMap<&'static str, BreakerState>,
    runaway_downgrades: u64,
    queries_killed: u64,
    breaker_trips: u64,
}

impl SchedState {
    /// Whether `tier`'s breaker is open right now; an expired cooldown
    /// closes the breaker (and forgives its fault streak) on the way.
    fn breaker_open(&mut self, tier: &str, now: Instant) -> bool {
        if let Some(b) = self.breakers.get_mut(tier) {
            if let Some(until) = b.open_until {
                if now < until {
                    return true;
                }
                b.open_until = None;
                b.consecutive = 0;
            }
        }
        false
    }

    fn record_exec_fault(&mut self, tier: &'static str, policy: &BreakerPolicy, now: Instant) {
        let b = self.breakers.entry(tier).or_default();
        b.consecutive += 1;
        let trip = b.open_until.is_none() && b.consecutive >= policy.trip_after;
        if trip {
            b.open_until = Some(now + policy.cooldown);
            self.breaker_trips += 1;
        }
    }

    fn record_exec_ok(&mut self, tier: &str) {
        if let Some(b) = self.breakers.get_mut(tier) {
            if b.open_until.is_none() {
                b.consecutive = 0;
            }
        }
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
        let total = requests.len();
        let start = Instant::now();
        let pending = requests
            .into_iter()
            .enumerate()
            .map(|(index, req)| Pending {
                index,
                morsels: plan_morsels(session.engine(), &req.plan),
                req,
            });
        let mut state = SchedState {
            pending: pending.collect(),
            outcomes: (0..total).map(|_| None).collect(),
            ..SchedState::default()
        };

        // Overload shedding happens up front: this serve model takes
        // the whole batch as the arrival queue, so everything past the
        // depth bound is rejected per policy before any work starts.
        if let Some(depth) = self.config.max_queue_depth {
            while state.pending.len() > depth {
                let shed = match self.config.shed_policy {
                    ShedPolicy::RejectNew => state.pending.pop_back(),
                    ShedPolicy::DropOldest => state.pending.pop_front(),
                };
                let Some(Pending { index, req, .. }) = shed else {
                    break;
                };
                let ticket = Ticket::new(index, req.name, Duration::ZERO);
                retire(
                    &mut state,
                    ticket,
                    false,
                    start,
                    Ending::Shed { depth, total },
                );
            }
        }
        state
            .pending
            .make_contiguous()
            .sort_by_key(|p| (p.morsels, p.index));

        let shared = Shared {
            state: Mutex::new(state),
            cv: Condvar::new(),
        };
        let worker_busy: Vec<Duration> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..self.config.workers)
                .map(|_| {
                    let shared = &shared;
                    let config = &self.config;
                    s.spawn(move || serve_worker(session, backend, config, shared, total, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Duration::ZERO))
                .collect()
        })
        .unwrap_or_default();

        let mut state = shared
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Defensive: every path records an outcome; a lost one reports
        // as a failure rather than panicking the serve.
        for index in 0..total {
            if state.outcomes[index].is_none() {
                let ticket = Ticket::new(index, format!("session-{index}"), Duration::ZERO);
                retire(&mut state, ticket, false, start, Ending::Lost);
            }
        }
        ServeReport {
            outcomes: state.outcomes.into_iter().flatten().collect(),
            wall: start.elapsed(),
            busy: worker_busy.iter().sum(),
            worker_busy,
            workers: self.config.workers,
            runaway_downgrades: state.runaway_downgrades,
            queries_killed: state.queries_killed,
            breaker_trips: state.breaker_trips,
        }
    }
}

/// Picks the back-end for one admission: the requested tier unless its
/// circuit breaker is open, in which case the first closed tier down
/// the fallback chain (fail-open to the requested tier when every
/// breaker is open or no chain is configured).
fn route_backend(
    config: &SchedulerConfig,
    backend: &Arc<dyn Backend>,
    g: &mut SchedState,
) -> Arc<dyn Backend> {
    if config.breaker.is_none() {
        return Arc::clone(backend);
    }
    let now = Instant::now();
    if !g.breaker_open(backend.name(), now) {
        return Arc::clone(backend);
    }
    if let Some(chain) = &config.fallback_chain {
        let tiers = chain.tiers();
        let from = tiers
            .iter()
            .position(|t| t.name() == backend.name())
            .map_or(0, |i| i + 1);
        for tier in &tiers[from.min(tiers.len())..] {
            if !g.breaker_open(tier.name(), now) {
                return Arc::clone(tier);
            }
        }
    }
    Arc::clone(backend)
}

/// What the runaway governor decided for one query after a slice.
enum RunawayAction {
    None,
    Downgrade,
    Kill { used: u64, predicted: u64 },
}

fn runaway_check(config: &SchedulerConfig, g: &SchedState, a: &Active) -> RunawayAction {
    let Some(policy) = &config.runaway else {
        return RunawayAction::None;
    };
    if g.cpm_samples < policy.min_samples || a.initial_morsels == 0 {
        return RunawayAction::None;
    }
    let predicted = g.cpm_ewma * a.initial_morsels as f64;
    let used = a.exec.tally().cycles;
    if used as f64 > predicted * policy.kill_factor {
        return RunawayAction::Kill {
            used,
            predicted: predicted as u64,
        };
    }
    if used as f64 > predicted * policy.factor && !a.downgraded && a.pending_tier.is_none() {
        return RunawayAction::Downgrade;
    }
    RunawayAction::None
}

/// What a free worker does next. Moved out of the state at once, like
/// the `Active` it carries; boxing that would allocate on every slice.
#[allow(clippy::large_enum_variant)]
enum Pick {
    /// Admit (plan and compile) this request; it holds an admission
    /// slot from now on.
    Admit(Pending),
    /// Run one slice of this admitted query.
    Run(Active),
}

/// The one scheduling decision, made under the state lock: of the
/// admitted queries waiting for a worker and — while an admission slot
/// is free — the pending requests, the one with the fewest estimated
/// morsels left. An admitted query wins a tie, then submission order
/// decides. `None` when nothing can start now.
fn pick(g: &mut SchedState, admission_limit: usize) -> Option<Pick> {
    let run = g
        .ready
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| (a.remaining, a.ticket.index))
        .map(|(i, a)| (a.remaining, i));
    let admit = g
        .pending
        .front()
        .filter(|_| g.active < admission_limit)
        .map(|p| p.morsels);
    match (run, admit) {
        (Some((remaining, i)), admit) if admit.is_none_or(|morsels| remaining <= morsels) => {
            Some(Pick::Run(g.ready.swap_remove(i)))
        }
        (_, Some(_)) => {
            let pending = g.pending.pop_front()?;
            g.active += 1;
            Some(Pick::Admit(pending))
        }
        _ => None,
    }
}

/// One serving worker: takes what [`pick`] chooses — an admission or a
/// credit slice — until every session is done. Returns this worker's
/// busy time.
fn serve_worker(
    session: &Session<'_>,
    backend: &Arc<dyn Backend>,
    config: &SchedulerConfig,
    shared: &Shared,
    total: usize,
    start: Instant,
) -> Duration {
    let (engine, service) = (session.engine(), session.compile_service());
    let mut busy = Duration::ZERO;
    loop {
        let mut g = lock_recover(&shared.state);
        let next = loop {
            if g.done == total {
                shared.cv.notify_all();
                return busy;
            }
            if let Some(next) = pick(&mut g, config.admission_limit) {
                break next;
            }
            g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        };

        let mut a = match next {
            Pick::Run(a) => a,
            Pick::Admit(Pending { index, mut req, .. }) => {
                let routed = route_backend(config, backend, &mut g);
                drop(g);
                let t0 = Instant::now();
                // One copy of the ticket stays out here in case admission
                // fails (or panics) and takes the other with it.
                let name = std::mem::take(&mut req.name);
                let ticket = Ticket::new(index, name, start.elapsed());
                // Admission fault containment: a panicking planner/compiler
                // fails this session, not the serve loop.
                let admitted = supervise(|| admit(session, &routed, config, req, ticket.clone()))
                    .unwrap_or_else(|panic| Err(EngineError::WorkerPanic(panic)));
                busy += t0.elapsed();
                let mut g = lock_recover(&shared.state);
                match admitted {
                    Ok(active) => {
                        g.ready.push(active);
                        tier_up_governor(service, config, &mut g);
                    }
                    Err(err) => retire(&mut g, ticket, false, start, Ending::Errored(err)),
                }
                shared.cv.notify_all();
                continue;
            }
        };
        drop(g);
        let t0 = Instant::now();

        // Adopt a completed background tier between two slices (a
        // morsel boundary), as the single-query adaptive path does
        // between its steps. Tier-ups and runaway downgrades share
        // this machinery.
        let tier = a.compiled.adopt_ready(&mut a.pending_tier);
        let tier_done = tier.is_some();
        a.ticket.tiered_up |= matches!(tier, Some(Ok(())));

        // Execution fault containment is the driver's: generated code
        // panicking inside a slice comes back as a typed error that
        // fails this session, not the serve loop.
        let credits = config.morsel_credits;
        let step = a.exec.step(engine, &a.prepared, &mut a.compiled, credits);
        busy += t0.elapsed();

        let mut g = lock_recover(&shared.state);
        if tier_done {
            g.tier_inflight -= 1;
        }
        match step {
            Ok(StepProgress::Ran) => {
                a.remaining = a.exec.remaining_morsels(engine, &a.prepared);
                match runaway_check(config, &g, &a) {
                    RunawayAction::Kill { used, predicted } => {
                        let ending = Ending::Runaway { used, predicted };
                        retire(&mut g, a.ticket, a.pending_tier.is_some(), start, ending);
                    }
                    RunawayAction::Downgrade => {
                        if let Some(tier) = config
                            .fallback_chain
                            .as_ref()
                            .and_then(|c| c.tier_below(a.compiled.backend_name))
                        {
                            a.pending_tier = Some(service.spawn_compile(&a.prepared, tier));
                            a.downgraded = true;
                            g.tier_inflight += 1;
                            g.runaway_downgrades += 1;
                        }
                        g.ready.push(a);
                    }
                    RunawayAction::None => {
                        g.ready.push(a);
                        tier_up_governor(service, config, &mut g);
                    }
                }
            }
            Ok(StepProgress::Done) => {
                // Feed the runaway predictor and forgive the tier's
                // fault streak.
                let cpm = a.exec.tally().cycles as f64 / a.initial_morsels.max(1) as f64;
                g.cpm_ewma = if g.cpm_samples == 0 {
                    cpm
                } else {
                    0.8 * g.cpm_ewma + 0.2 * cpm
                };
                g.cpm_samples += 1;
                g.record_exec_ok(a.compiled.backend_name);
                let ending = Ending::Finished(a.exec.into_result(&a.compiled));
                retire(&mut g, a.ticket, a.pending_tier.is_some(), start, ending);
            }
            Err(err) => {
                let is_exec_fault =
                    matches!(err, EngineError::Trap(_) | EngineError::WorkerPanic(_));
                if is_exec_fault {
                    if let Some(policy) = &config.breaker {
                        g.record_exec_fault(a.compiled.backend_name, policy, Instant::now());
                    }
                }
                let ending = Ending::Errored(err);
                retire(&mut g, a.ticket, a.pending_tier.is_some(), start, ending);
            }
        }
        shared.cv.notify_all();
    }
}

/// Prepares and compiles one session through the session's statement
/// cache and shared compile service (and therefore the shared code
/// cache): repeated plan shapes skip planning and IR generation too.
/// The prepared query is shared under the statement cache's canonical
/// module name, which is free because the code cache keys on
/// structural hashes that exclude names.
fn admit(
    session: &Session<'_>,
    backend: &Arc<dyn Backend>,
    config: &SchedulerConfig,
    req: SessionRequest,
    ticket: Ticket,
) -> Result<Active, EngineError> {
    let engine = session.engine();
    let prepared = session
        .statements()
        .get_or_prepare(engine, &req.plan)?
        .prepared;
    let compiled = session
        .compile_service()
        .compile(&prepared, backend, &TimeTrace::disabled())?;
    let budget = req
        .budget
        .or_else(|| config.query_budget.clone())
        .unwrap_or_default();
    // Sessions run single-threaded: the scheduler is the inter-query
    // parallelism axis (see the module docs).
    let exec = QueryExecution::new(MorselExecConfig::default(), budget);
    let remaining = exec.remaining_morsels(engine, &prepared);
    Ok(Active {
        ticket,
        prepared,
        compiled,
        exec,
        remaining,
        initial_morsels: remaining,
        pending_tier: None,
        downgraded: false,
    })
}

/// Grants free tier-up slots to the ready queries with the most
/// remaining morsels (the queries with the most execution left to
/// amortize the expensive compile). Queries the runaway governor
/// downgraded are excluded — tiering them back up would fight it.
/// Runs under the state lock, which is fine because `spawn_compile`
/// only queues a job: it never compiles on this thread.
fn tier_up_governor(service: &CompileService, config: &SchedulerConfig, g: &mut SchedState) {
    let Some(opt_backend) = config.tier_up_backend.as_ref() else {
        return;
    };
    while g.tier_inflight < config.tier_up_inflight {
        let candidate = g
            .ready
            .iter_mut()
            .filter(|a| a.pending_tier.is_none() && !a.ticket.tiered_up && !a.downgraded)
            .max_by_key(|a| a.remaining);
        let Some(a) = candidate else { return };
        if a.remaining == 0 {
            return;
        }
        a.pending_tier = Some(service.spawn_compile(&a.prepared, opt_backend));
        g.tier_inflight += 1;
    }
}

/// What identifies a session from submission to outcome.
#[derive(Clone)]
struct Ticket {
    index: usize,
    name: String,
    queue_wait: Duration,
    /// Whether a background tier was adopted mid-query.
    tiered_up: bool,
}

impl Ticket {
    fn new(index: usize, name: String, queue_wait: Duration) -> Ticket {
        Ticket {
            index,
            name,
            queue_wait,
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
    /// Killed by the runaway governor after `used` cycles.
    Runaway { used: u64, predicted: u64 },
    /// Rejected up front by overload shedding.
    Shed { depth: usize, total: usize },
    /// No worker recorded an outcome (every worker died).
    Lost,
}

/// The one way out of the scheduler: gives back what the session holds
/// (its admission slot and, when `tier_pending` says a background
/// compile is still in flight for it, its tier-up slot), counts a
/// kill, and records the [`QueryOutcome`].
fn retire(g: &mut SchedState, who: Ticket, tier_pending: bool, start: Instant, ending: Ending) {
    // Shed and lost sessions were never admitted; a shed one never ran.
    let admitted = !matches!(ending, Ending::Shed { .. } | Ending::Lost);
    let latency = match ending {
        Ending::Shed { .. } => Duration::ZERO,
        _ => start.elapsed(),
    };
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
        Ending::Runaway { used, predicted } => (
            OutcomeStatus::Killed,
            Vec::new(),
            used,
            Some(format!(
                "killed: runaway query used {used} cycles against a predicted {predicted}"
            )),
        ),
        Ending::Shed { depth, total } => (
            OutcomeStatus::Shed,
            Vec::new(),
            0,
            Some(format!(
                "shed: queue depth {depth} exceeded ({total} submitted)"
            )),
        ),
        Ending::Lost => (
            OutcomeStatus::Failed,
            Vec::new(),
            0,
            Some("scheduler lost this session's outcome".to_string()),
        ),
    };
    if tier_pending {
        g.tier_inflight -= 1; // abandoned in-flight compile
    }
    if status == OutcomeStatus::Killed {
        g.queries_killed += 1;
    }
    g.outcomes[who.index] = Some(QueryOutcome {
        name: who.name,
        rows,
        queue_wait: who.queue_wait,
        latency,
        cycles,
        tiered_up: who.tiered_up,
        status,
        error,
    });
    if admitted {
        g.active -= 1;
    }
    g.done += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_target::Trap;

    fn state(sessions: usize, tier_inflight: usize) -> SchedState {
        SchedState {
            outcomes: (0..sessions).map(|_| None).collect(),
            active: sessions,
            tier_inflight,
            ..SchedState::default()
        }
    }

    fn finished() -> Ending {
        Ending::Finished(ExecutionResult {
            rows: Vec::new(),
            exec_stats: qc_target::ExecStats::default(),
            critical_path_cycles: 0,
            compile_time: Duration::ZERO,
            compile_stats: qc_backend::CompileStats::default(),
        })
    }

    /// Every admitted ending gives the tier-up slot of a still-pending
    /// background compile back — `Done` used to keep it.
    #[test]
    fn retire_releases_a_pending_tier_slot_on_every_ending() {
        let endings = [
            finished(),
            Ending::Errored(EngineError::Trap(Trap::Overflow)),
            Ending::Runaway {
                used: 9,
                predicted: 1,
            },
        ];
        let mut g = state(endings.len(), endings.len());
        for (index, ending) in endings.into_iter().enumerate() {
            let ticket = Ticket::new(index, format!("s{index}"), Duration::ZERO);
            retire(&mut g, ticket, true, Instant::now(), ending);
        }
        assert_eq!(g.tier_inflight, 0, "every ending releases its tier slot");
        assert_eq!((g.active, g.done), (0, 3));
        assert_eq!(g.queries_killed, 1, "only the runaway ending is a kill");
        // A session without a pending compile holds no tier slot.
        let mut g = state(1, 1);
        let ticket = Ticket::new(0, "s0".to_string(), Duration::ZERO);
        retire(&mut g, ticket, false, Instant::now(), finished());
        assert_eq!(g.tier_inflight, 1);
    }

    /// A failed or killed session that had already swapped tiers says
    /// so — the failure path used to report `tiered_up: false`.
    #[test]
    fn retire_keeps_the_tiered_up_flag_on_failure() {
        let mut g = state(2, 0);
        for (index, tiered_up) in [true, false].into_iter().enumerate() {
            let mut ticket = Ticket::new(index, format!("s{index}"), Duration::ZERO);
            ticket.tiered_up = tiered_up;
            let ending = Ending::Errored(EngineError::Trap(Trap::Overflow));
            retire(&mut g, ticket, false, Instant::now(), ending);
        }
        let flags: Vec<_> = g.outcomes.iter().flatten().map(|o| o.tiered_up).collect();
        assert_eq!(flags, [true, false]);
        assert!(g
            .outcomes
            .iter()
            .flatten()
            .all(|o| o.status == OutcomeStatus::Failed));
    }

    /// Shed sessions were never admitted: retiring one must not take an
    /// admission slot from a running session.
    #[test]
    fn retire_of_a_shed_session_holds_no_admission_slot() {
        let mut g = state(2, 0);
        g.active = 1;
        let ticket = Ticket::new(1, "late".to_string(), Duration::ZERO);
        let ending = Ending::Shed { depth: 1, total: 2 };
        retire(&mut g, ticket, false, Instant::now(), ending);
        assert_eq!((g.active, g.done), (1, 1));
        let shed = g.outcomes[1].as_ref().expect("recorded");
        assert_eq!(shed.status, OutcomeStatus::Shed);
        assert_eq!(shed.latency, Duration::ZERO);
    }

    /// Throughput counts completed queries only: 2 ok, 2 shed and 1
    /// failed session over one second is 2 queries per second, not 5.
    #[test]
    fn throughput_counts_completed_queries_only() {
        use OutcomeStatus::{Failed, Shed};
        let ok = OutcomeStatus::Ok;
        let outcome = |status| QueryOutcome {
            name: String::new(),
            rows: Vec::new(),
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            cycles: 0,
            tiered_up: false,
            status,
            error: None,
        };
        let report = ServeReport {
            outcomes: [ok, ok, Shed, Shed, Failed].map(outcome).into(),
            wall: Duration::from_secs(1),
            busy: Duration::ZERO,
            worker_busy: Vec::new(),
            workers: 1,
            runaway_downgrades: 0,
            queries_killed: 0,
            breaker_trips: 0,
        };
        assert!((report.throughput_qps() - 2.0).abs() < 1e-9);
    }
}
