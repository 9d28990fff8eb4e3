//! The four workloads. Each is N identical rounds after one untimed
//! warm-up/verification round; what a round contains is the workload.

use crate::cells::Cell;
use crate::env::Env;
use crate::workload::{
    issue, shuffled_pairs, Counters, Ctx, Exec, Inputs, Request, Round, Spec, Statement, Workload,
};
use qc_engine::{
    ArtifactStoreConfig, CompileServiceConfig, OutcomeStatus, PreparedStatement, QueryScheduler,
    SchedulerConfig, Session, SessionConfig, SessionRequest,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One compile-service worker everywhere, so that the harness thread
/// (or the scheduler's workers) plus the service never exceed the two
/// cores the benchmark is sized for, whatever the host's default is.
pub fn compile_config(cache_capacity: usize) -> CompileServiceConfig {
    CompileServiceConfig {
        workers: 1,
        cache_capacity,
        ..CompileServiceConfig::default()
    }
}

fn cells_of(spec: &Spec) -> Vec<Cell> {
    spec.cells.iter().map(|name| Cell::new(name)).collect()
}

/// `cold_compile`: plan + IR generation + full compile + link for
/// every cell × query, no service, no cache. Execution happens only in
/// the warm-up round, to check the code.
pub struct ColdCompile<'a> {
    inputs: &'a Inputs,
    session: Session<'a>,
    cells: Vec<Cell>,
}

impl<'a> ColdCompile<'a> {
    pub fn open(spec: &Spec, inputs: &'a Inputs) -> Self {
        let config = SessionConfig {
            statement_cache_capacity: 0,
            compile: compile_config(0),
            ..SessionConfig::default()
        };
        ColdCompile {
            inputs,
            session: Session::with_config(&inputs.db, config),
            cells: cells_of(spec),
        }
    }
}

impl Workload for ColdCompile<'_> {
    fn round(&mut self, ctx: &mut Ctx, warm_up: bool) -> Round {
        let mut round = Round::default();
        let exec = if warm_up { Exec::CheckOnly } else { Exec::No };
        for (c, q) in shuffled_pairs(&mut ctx.rng, self.cells.len(), self.inputs.suite.len()) {
            let cell = &self.cells[c];
            let issued = issue(
                ctx,
                self.inputs,
                &self.session,
                Request {
                    cell,
                    query: q,
                    statement: Statement::Prepare,
                    direct: true,
                    exec,
                    parent: None,
                },
            );
            round.push(issued.latency);
        }
        round
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.session)
    }
}

/// `hot_exec`: prepared statements, warm L1, every request executes.
pub struct HotExec<'a> {
    inputs: &'a Inputs,
    session: Session<'a>,
    cells: Vec<Cell>,
    statements: Vec<PreparedStatement>,
}

impl<'a> HotExec<'a> {
    /// # Panics
    /// Panics when a suite query does not plan: the suites are fixed.
    pub fn open(spec: &Spec, inputs: &'a Inputs) -> Self {
        let config = SessionConfig {
            compile: compile_config(4096),
            ..SessionConfig::default()
        };
        let session = Session::with_config(&inputs.db, config);
        let statements = inputs
            .suite
            .iter()
            .map(|q| {
                session
                    .statement(&q.plan)
                    .unwrap_or_else(|e| panic!("preparing {}: {e}", q.name))
            })
            .collect();
        HotExec {
            inputs,
            session,
            cells: cells_of(spec),
            statements,
        }
    }
}

impl Workload for HotExec<'_> {
    fn round(&mut self, ctx: &mut Ctx, _warm_up: bool) -> Round {
        let mut round = Round::default();
        for (c, q) in shuffled_pairs(&mut ctx.rng, self.cells.len(), self.inputs.suite.len()) {
            let issued = issue(
                ctx,
                self.inputs,
                &self.session,
                Request {
                    cell: &self.cells[c],
                    query: q,
                    statement: Statement::Prepared(&self.statements[q]),
                    direct: false,
                    exec: Exec::Timed,
                    parent: None,
                },
            );
            round.push(issued.latency);
        }
        round
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.session)
    }
}

/// Passes of a `cache_reuse` round after the cold one. Twelve of each
/// keep the cold pass — whose store writes cost what the sandbox's
/// disk happens to charge, ±20 % from run to run — near a fifth of the
/// round's time and under 5 % of its requests, so that the 95th
/// percentile is a warm request.
const L1_PASSES: usize = 12;
const RESTART_PASSES: usize = 12;

/// `cache_reuse`: compile through the service with an artifact store
/// in a fresh directory per round — one cold pass (compile + store
/// writes), L1-hit passes on the same session, then restart passes,
/// each on a new session over the same directory (statement cache and
/// L1 empty; store reads, deserialisation and link).
pub struct CacheReuse<'a> {
    inputs: &'a Inputs,
    cells: Vec<Cell>,
    scratch: PathBuf,
    rounds: usize,
    counters: Counters,
}

impl<'a> CacheReuse<'a> {
    pub fn open(spec: &Spec, inputs: &'a Inputs, env: &Env) -> Self {
        CacheReuse {
            inputs,
            cells: cells_of(spec),
            scratch: env.tmp_dir.clone(),
            rounds: 0,
            counters: Counters::default(),
        }
    }

    fn session(&self, dir: &std::path::Path) -> Session<'a> {
        let config = SessionConfig {
            // Both fit: 103 plans, under a thousand modules.
            statement_cache_capacity: 128,
            compile: compile_config(4096),
            artifact_store: Some(ArtifactStoreConfig::at(dir)),
            ..SessionConfig::default()
        };
        Session::with_config(&self.inputs.db, config)
    }

    fn pass(
        &self,
        ctx: &mut Ctx,
        session: &Session<'_>,
        name: &'static str,
        warm_up: bool,
        round: &mut Round,
    ) {
        let start = Instant::now();
        let parent = ctx.trace_on.then(|| ctx.tracer.open(name, None, start));
        let exec = if warm_up { Exec::CheckOnly } else { Exec::No };
        for (c, q) in shuffled_pairs(&mut ctx.rng, self.cells.len(), self.inputs.suite.len()) {
            let issued = issue(
                ctx,
                self.inputs,
                session,
                Request {
                    cell: &self.cells[c],
                    query: q,
                    statement: Statement::Prepare,
                    direct: false,
                    exec,
                    parent,
                },
            );
            round.push(issued.latency);
        }
        if let Some(parent) = parent {
            ctx.tracer.close(parent, Instant::now());
        }
    }
}

impl Workload for CacheReuse<'_> {
    fn round(&mut self, ctx: &mut Ctx, warm_up: bool) -> Round {
        let dir = self.scratch.join(format!("store-{}", self.rounds));
        self.rounds += 1;
        let mut round = Round::default();

        // The warm-up round checks one pass of each kind; more of the
        // same would only lengthen set-up.
        let (l1_passes, restart_passes) = if warm_up {
            (1, 1)
        } else {
            (L1_PASSES, RESTART_PASSES)
        };
        let first = self.session(&dir);
        self.pass(ctx, &first, "pass.cold", warm_up, &mut round);
        for _ in 0..l1_passes {
            self.pass(ctx, &first, "pass.l1", warm_up, &mut round);
        }
        let cold = Counters::of(&first);
        // A restart: the first session and its service are gone before
        // the next one opens the directory.
        drop(first);
        let mut restarts = Counters::default();
        for _ in 0..restart_passes {
            let session = self.session(&dir);
            self.pass(ctx, &session, "pass.restart", warm_up, &mut round);
            restarts.add(&Counters::of(&session));
        }
        let repeats = ctx.ledger.agrees("store_writes", 0, 0, cold.disk_writes)
            && (warm_up || ctx.ledger.agrees("disk_hits", 0, 0, restarts.disk_hits));
        if !repeats {
            ctx.fail(format!(
                "round {}: store writes or disk hits changed between rounds",
                self.rounds
            ));
        }
        self.counters.add(&cold);
        self.counters.add(&restarts);
        let _ = std::fs::remove_dir_all(&dir);
        round
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}

/// Closed-loop clients of `serve_mixed`; equals the scheduler's
/// admission limit, so a wave is admitted whole.
const CLIENTS: usize = 16;
const WAVES_PER_ROUND: usize = 16;

/// `serve_mixed`: waves of [`CLIENTS`] requests drawn from the suite,
/// served by the scheduler on a default-configured session.
pub struct ServeMixed<'a> {
    inputs: &'a Inputs,
    session: Session<'a>,
    cell: Cell,
    scheduler: QueryScheduler,
}

impl<'a> ServeMixed<'a> {
    /// # Panics
    /// Panics if the fixed scheduler configuration is rejected.
    pub fn open(spec: &Spec, inputs: &'a Inputs, env: &Env) -> Self {
        // `Session::new` defaults (statement cache 64 < 103 plans, L1
        // 128 < ~480 modules) except for the pinned service worker.
        let config = SessionConfig {
            compile: compile_config(CompileServiceConfig::default().cache_capacity),
            ..SessionConfig::default()
        };
        let cell = Cell::new(spec.cells[0]);
        let scheduler = QueryScheduler::try_new(SchedulerConfig {
            workers: env.nproc.min(2),
            admission_limit: CLIENTS,
            ..SchedulerConfig::default()
        })
        .expect("fixed scheduler configuration is valid");
        ServeMixed {
            inputs,
            session: Session::with_config(&inputs.db, config),
            cell,
            scheduler,
        }
    }

    fn wave(&self, ctx: &mut Ctx, picks: &[usize], round: &mut Round) {
        let requests = picks
            .iter()
            .map(|&q| {
                let query = &self.inputs.suite[q];
                SessionRequest::new(query.name.clone(), query.plan.clone())
            })
            .collect();
        ctx.attempted += picks.len() as u64;
        let start = Instant::now();
        let report = self
            .scheduler
            .serve_session(&self.session, &self.cell.backend, requests);
        let end = Instant::now();
        round.busy += end - start;

        let wave = ctx
            .trace_on
            .then(|| ctx.tracer.record("serve.wave", None, start, end));
        for (lane, (outcome, &q)) in report.outcomes.iter().zip(picks).enumerate() {
            round.latencies_ns.push(outcome.latency.as_nanos() as f64);
            ctx.sched
                .queue_wait_ns
                .push(outcome.queue_wait.as_nanos() as f64);
            if let Some(wave) = wave {
                // The scheduler stamps every request of a batch as
                // submitted when the serve call starts.
                let admitted = start + outcome.queue_wait;
                let done = start + outcome.latency;
                let lane = lane as u32 + 1;
                let root = ctx
                    .tracer
                    .record_on(lane, "request", Some(wave), start, done);
                ctx.tracer
                    .record_on(lane, "scheduler.queue", Some(root), start, admitted);
                ctx.tracer
                    .record_on(lane, "scheduler.service", Some(root), admitted, done);
            }
            if outcome.status == OutcomeStatus::Ok {
                ctx.check_result(self.inputs, &self.cell, q, &outcome.rows, outcome.cycles);
            } else {
                ctx.fail(format!(
                    "{}: {:?}: {}",
                    outcome.name,
                    outcome.status,
                    outcome.error.as_deref().unwrap_or("no message")
                ));
            }
        }
        let tally = &mut ctx.sched;
        tally.queries += picks.len() as u64;
        tally.wall += report.wall;
        tally.busy += report.busy;
        tally.worker_busy.resize(report.workers, Duration::ZERO);
        for (total, busy) in tally.worker_busy.iter_mut().zip(&report.worker_busy) {
            *total += *busy;
        }
    }
}

impl Workload for ServeMixed<'_> {
    fn round(&mut self, ctx: &mut Ctx, warm_up: bool) -> Round {
        let mut round = Round::default();
        let queries = self.inputs.suite.len();
        if warm_up {
            // The draws below need not reach every query, so first run
            // each once through the session: it checks every cell ×
            // query and pins its cycles and code size in the ledger.
            for q in 0..queries {
                issue(
                    ctx,
                    self.inputs,
                    &self.session,
                    Request {
                        cell: &self.cell,
                        query: q,
                        statement: Statement::Prepare,
                        direct: false,
                        exec: Exec::Timed,
                        parent: None,
                    },
                );
            }
        }
        for _ in 0..WAVES_PER_ROUND {
            let picks: Vec<usize> = (0..CLIENTS).map(|_| ctx.rng.below(queries)).collect();
            self.wave(ctx, &picks, &mut round);
        }
        round
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.session)
    }
}
