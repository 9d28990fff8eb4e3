//! What the four workloads share: generated inputs with reference
//! results, the per-run context (seeded order, exact-value ledger,
//! failure counts, spans), and the one function every serial request
//! goes through.

use crate::cells::Cell;
use crate::env::{Env, Rng};
use crate::spans::{SpanId, Tracer};
use qc_engine::{PreparedStatement, Session};
use qc_plan::reference;
use qc_storage::Database;
use qc_workloads::BenchQuery;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// 103 generated TPC-DS-shaped queries.
    DsLike,
    /// 22 TPC-H-shaped queries.
    HLike,
}

/// Name, inputs and cells of a workload. The `why` is the one-line
/// reason `BENCHMARK.json` carries.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub suite: Suite,
    pub sf: f64,
    pub cells: &'static [&'static str],
}

pub const COLD_COMPILE: Spec = Spec {
    name: "cold_compile",
    why: "the paper's configuration: every back-end compiles every query uncached, so back-ends, IR generation and planning do all the work and emulator, caches and scheduler none",
    suite: Suite::DsLike,
    sf: 0.01,
    cells: &[
        "interp.tx64",
        "direct.tx64",
        "clift.tx64",
        "lvm_cheap.tx64",
        "lvm_opt.tx64",
        "cgen.tx64",
        "interp.ta64",
        "clift.ta64",
        "lvm_cheap.ta64",
        "lvm_opt.ta64",
        "cgen.ta64",
    ],
};

pub const HOT_EXEC: Spec = Spec {
    name: "hot_exec",
    why: "prepared statements over a warm code cache on larger data: the emulator, interpreter, runtime helpers and morsel executor take over 98 % of a request and compiling is a relink",
    suite: Suite::HLike,
    sf: 2.0,
    cells: &[
        "interp.tx64",
        "direct.tx64",
        "lvm_opt.tx64",
        "clift.ta64",
        "clift.ta64.w2",
    ],
};

pub const CACHE_REUSE: Spec = Spec {
    name: "cache_reuse",
    why: "working sets that fit the caches, writes beside reads: one cold pass fills the statement cache, L1 and the artifact store, then L1-hit passes and restarts served from disk reuse them",
    suite: Suite::DsLike,
    sf: 0.01,
    cells: &["clift.tx64", "lvm_opt.ta64"],
};

pub const SERVE_MIXED: Spec = Spec {
    name: "serve_mixed",
    why: "default-configuration serving under contention: 16 closed-loop clients draw queries whose plans and modules exceed both caches, so queueing, cache churn and the scheduler decide the result",
    suite: Suite::DsLike,
    sf: 0.1,
    cells: &["clift.tx64"],
};

pub const SPECS: [Spec; 4] = [COLD_COMPILE, HOT_EXEC, CACHE_REUSE, SERVE_MIXED];

/// Generated data, the query suite, and what each query must return.
pub struct Inputs {
    pub db: Database,
    pub suite: Vec<BenchQuery>,
    /// `reference::checksum` of each query's rows as the reference
    /// evaluator computes them — independent of every back-end.
    pub expected: Vec<u64>,
}

impl Inputs {
    /// Generates the database and suite and evaluates every query with
    /// `qc_plan::reference`.
    ///
    /// # Panics
    /// Panics when the reference evaluator rejects a suite query: the
    /// suites are fixed, so that is a bug, not an input condition.
    pub fn generate(suite: Suite, sf: f64) -> Inputs {
        let (db, suite) = match suite {
            Suite::DsLike => (qc_storage::gen_dslike(sf), qc_workloads::dslike_suite()),
            Suite::HLike => (qc_storage::gen_hlike(sf), qc_workloads::hlike_suite()),
        };
        let expected = suite
            .iter()
            .map(|q| {
                let rows = reference::execute(&q.plan, &db)
                    .unwrap_or_else(|e| panic!("reference evaluation of {}: {e}", q.name));
                reference::checksum(&rows)
            })
            .collect();
        Inputs {
            db,
            suite,
            expected,
        }
    }
}

/// Values that must repeat exactly: the first sighting of a key is
/// recorded, every later one must equal it.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<(&'static str, usize, usize), u64>,
}

impl Ledger {
    /// Returns whether `value` agrees with what was seen before under
    /// (`what`, `cell`, `query`).
    pub fn agrees(&mut self, what: &'static str, cell: usize, query: usize, value: u64) -> bool {
        *self.values.entry((what, cell, query)).or_insert(value) == value
    }

    /// The value recorded under the key, 0 when none was.
    pub fn get(&self, what: &'static str, cell: usize, query: usize) -> u64 {
        self.values.get(&(what, cell, query)).copied().unwrap_or(0)
    }

    /// Mean of everything recorded under `what`, optionally for one
    /// cell only; 0 when nothing was.
    pub fn mean(&self, what: &str, cell: Option<usize>) -> f64 {
        let picked: Vec<u64> = self
            .values
            .iter()
            .filter(|((w, c, _), _)| *w == what && cell.is_none_or(|id| id == *c))
            .map(|(_, v)| *v)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<u64>() as f64 / picked.len() as f64
        }
    }
}

/// Cache-layer counters of a session, cumulative since it was opened.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub statement_hits: u64,
    pub statement_misses: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l1_evictions: u64,
    /// Gauge, not a counter: the latest reading wins.
    pub l1_resident_bytes: u64,
    pub disk_hits: u64,
    pub disk_writes: u64,
}

impl Counters {
    pub fn of(session: &Session<'_>) -> Counters {
        let s = session.statement_cache_stats();
        let c = session.compile_service().cache_stats();
        Counters {
            statement_hits: s.hits,
            statement_misses: s.misses,
            l1_hits: c.hits,
            l1_misses: c.misses,
            l1_evictions: c.evictions,
            l1_resident_bytes: c.resident_bytes as u64,
            disk_hits: c.disk_hits,
            disk_writes: c.disk_writes,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.statement_hits += other.statement_hits;
        self.statement_misses += other.statement_misses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l1_evictions += other.l1_evictions;
        self.l1_resident_bytes = other.l1_resident_bytes;
        self.disk_hits += other.disk_hits;
        self.disk_writes += other.disk_writes;
    }

    /// Counts since `earlier` (the gauge keeps its latest reading).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            statement_hits: self.statement_hits - earlier.statement_hits,
            statement_misses: self.statement_misses - earlier.statement_misses,
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_misses: self.l1_misses - earlier.l1_misses,
            l1_evictions: self.l1_evictions - earlier.l1_evictions,
            l1_resident_bytes: self.l1_resident_bytes,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_writes: self.disk_writes - earlier.disk_writes,
        }
    }
}

/// What the scheduler reported over the waves served so far.
#[derive(Debug, Default)]
pub struct SchedTally {
    pub queries: u64,
    pub queue_wait_ns: Vec<f64>,
    pub wall: Duration,
    pub busy: Duration,
    /// Busy time per worker index, summed over waves.
    pub worker_busy: Vec<Duration>,
}

/// State of one run shared by warm-up, rounds and probes.
pub struct Ctx {
    pub rng: Rng,
    pub ledger: Ledger,
    pub tracer: Tracer,
    /// Whether requests record spans right now (traced rounds only).
    pub trace_on: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    pub sched: SchedTally,
}

impl Ctx {
    pub fn new(seed: u64) -> Ctx {
        Ctx {
            rng: Rng::new(seed),
            ledger: Ledger::default(),
            tracer: Tracer::new(),
            trace_on: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sched: SchedTally::default(),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Checks one executed request: rows against the reference
    /// checksum, and (serial cells) model cycles against the ledger.
    /// A request fails at most once.
    pub fn check_result(
        &mut self,
        inputs: &Inputs,
        cell: &Cell,
        query: usize,
        rows: &[Vec<qc_runtime::SqlValue>],
        cycles: u64,
    ) {
        let name = &inputs.suite[query].name;
        if reference::checksum(rows) != inputs.expected[query] {
            self.fail(format!(
                "{name} on {}: rows differ from the reference",
                cell.name
            ));
        } else if cell.is_serial() && !self.ledger.agrees("cycles", cell.id, query, cycles) {
            self.fail(format!(
                "{name} on {}: model cycles changed between runs",
                cell.name
            ));
        }
    }
}

/// The timed samples of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Latency of every request, in issue order.
    pub latencies_ns: Vec<f64>,
    /// Time the system was busy with them: the sum of latencies for a
    /// single closed-loop client, the waves' wall time when serving.
    /// Harness work between requests (shuffling, checking) is outside.
    pub busy: Duration,
}

impl Round {
    pub fn push(&mut self, latency: Duration) {
        self.latencies_ns.push(latency.as_nanos() as f64);
        self.busy += latency;
    }
}

/// One of the four workloads, opened over generated [`Inputs`].
pub trait Workload {
    /// One round. With `warm_up` it is the untimed verification round:
    /// it covers every cell × query of the workload at least once,
    /// executes what a measured round only compiles, and checks it.
    fn round(&mut self, ctx: &mut Ctx, warm_up: bool) -> Round;

    /// Cache counters accumulated over every session used so far.
    fn counters(&self) -> Counters;
}

/// Opens the workload `spec` names.
pub fn open<'a>(spec: &Spec, inputs: &'a Inputs, env: &'a Env) -> Box<dyn Workload + 'a> {
    match spec.name {
        "cold_compile" => Box::new(crate::workloads::ColdCompile::open(spec, inputs)),
        "hot_exec" => Box::new(crate::workloads::HotExec::open(spec, inputs)),
        "cache_reuse" => Box::new(crate::workloads::CacheReuse::open(spec, inputs, env)),
        _ => Box::new(crate::workloads::ServeMixed::open(spec, inputs, env)),
    }
}

/// How [`issue`] obtains the statement.
pub enum Statement<'a> {
    /// `Session::statement(plan)` inside the request (cache lookup,
    /// planning and IR generation on a miss).
    Prepare,
    /// Already in hand.
    Prepared(&'a PreparedStatement),
}

/// Whether [`issue`] executes the compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The request ends at the linked executable.
    No,
    /// Execution is part of the request and its latency.
    Timed,
    /// Executed after the clock stopped, only to check the code.
    CheckOnly,
}

/// One request for [`issue`].
pub struct Request<'a> {
    pub cell: &'a Cell,
    /// Index into the suite.
    pub query: usize,
    pub statement: Statement<'a>,
    /// Compile on the calling thread, bypassing the compile service.
    pub direct: bool,
    pub exec: Exec,
    /// Span the request's spans hang under when tracing.
    pub parent: Option<SpanId>,
}

/// What one request took and produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct Issued {
    pub latency: Duration,
    pub compile: Duration,
    pub execute: Duration,
    pub insts: u64,
    pub cycles: u64,
    pub critical_path_cycles: u64,
}

/// Issues one request on `cell` through the public session API:
/// statement, `QueryRun::compile` (`direct` bypasses the compile
/// service), optionally `execute_compiled`. Counts it, checks whatever
/// it produced, and records its spans under `parent` when tracing.
/// Errors count as failures and yield a zero [`Issued`].
pub fn issue(
    ctx: &mut Ctx,
    inputs: &Inputs,
    session: &Session<'_>,
    request: Request<'_>,
) -> Issued {
    let Request {
        cell,
        query,
        statement,
        direct,
        exec,
        parent,
    } = request;
    ctx.attempted += 1;
    let t0 = Instant::now();
    let statement = match statement {
        Statement::Prepared(s) => Ok(s.clone()),
        Statement::Prepare => session.statement(&inputs.suite[query].plan),
    };
    let t1 = Instant::now();
    let outcome = statement.and_then(|statement| {
        let mut run = session
            .run(statement)
            .backend(cell.backend.clone())
            .workers(cell.workers);
        if direct {
            run = run.direct();
        }
        let mut compiled = run.compile()?;
        let t2 = Instant::now();
        let result = match exec {
            Exec::No => None,
            Exec::Timed | Exec::CheckOnly => Some(run.execute_compiled(&mut compiled)?),
        };
        Ok((
            compiled.compile_stats.code_bytes,
            t2,
            result,
            Instant::now(),
        ))
    });
    let (code_bytes, t2, result, t3) = match outcome {
        Ok(parts) => parts,
        Err(e) => {
            ctx.fail(format!(
                "{} on {}: {e}",
                inputs.suite[query].name, cell.name
            ));
            return Issued::default();
        }
    };
    let end = if exec == Exec::Timed { t3 } else { t2 };
    if ctx.trace_on {
        let root = ctx.tracer.record("request", parent, t0, end);
        ctx.tracer.record("session.statement", Some(root), t0, t1);
        ctx.tracer.record("run.compile", Some(root), t1, t2);
        if exec == Exec::Timed {
            ctx.tracer.record("run.execute", Some(root), t2, t3);
        }
    }
    let mut issued = Issued {
        latency: end - t0,
        compile: t2 - t1,
        execute: t3 - t2,
        ..Issued::default()
    };
    if cell.is_serial()
        && !ctx
            .ledger
            .agrees("code_bytes", cell.id, query, code_bytes as u64)
    {
        ctx.fail(format!(
            "{} on {}: code size changed between runs",
            inputs.suite[query].name, cell.name
        ));
    }
    if let Some(result) = result {
        issued.insts = result.exec_stats.insts;
        issued.cycles = result.exec_stats.cycles;
        issued.critical_path_cycles = result.critical_path_cycles;
        ctx.check_result(inputs, cell, query, &result.rows, issued.cycles);
        if cell.is_serial() && !ctx.ledger.agrees("insts", cell.id, query, issued.insts) {
            ctx.fail(format!(
                "{} on {}: instruction count changed between runs",
                inputs.suite[query].name, cell.name
            ));
        }
    }
    issued
}

/// Every (cell index, query index) pair, in an order `rng` fixes.
pub fn shuffled_pairs(rng: &mut Rng, cells: usize, queries: usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..cells)
        .flat_map(|c| (0..queries).map(move |q| (c, q)))
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_pins_the_first_value() {
        let mut l = Ledger::default();
        assert!(l.agrees("cycles", 2, 7, 100));
        assert!(l.agrees("cycles", 2, 7, 100));
        assert!(!l.agrees("cycles", 2, 7, 101));
        assert!(l.agrees("cycles", 3, 7, 300));
        assert!(l.agrees("code_bytes", 2, 7, 64));
        assert_eq!(l.mean("cycles", None), 200.0);
        assert_eq!(l.mean("cycles", Some(3)), 300.0);
        assert_eq!(l.mean("insts", None), 0.0);
    }

    #[test]
    fn pairs_cover_the_grid_in_seeded_order() {
        let a = shuffled_pairs(&mut Rng::new(3), 3, 5);
        let b = shuffled_pairs(&mut Rng::new(3), 3, 5);
        let c = shuffled_pairs(&mut Rng::new(4), 3, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted.len(), 15);
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    /// The correctness gate: a reference checksum that does not match
    /// what the back-ends return must surface as failed requests.
    #[test]
    fn a_wrong_reference_checksum_fails_the_request() {
        let mut inputs = Inputs::generate(Suite::HLike, 0.01);
        let cell = Cell::new("clift.tx64");
        let session = Session::new(&inputs.db);
        let mut ctx = Ctx::new(1);
        issue(
            &mut ctx,
            &inputs,
            &session,
            Request {
                cell: &cell,
                query: 0,
                statement: Statement::Prepare,
                direct: true,
                exec: Exec::Timed,
                parent: None,
            },
        );
        assert_eq!((ctx.attempted, ctx.failed), (1, 0));
        inputs.expected[0] ^= 1;
        issue(
            &mut ctx,
            &inputs,
            &session,
            Request {
                cell: &cell,
                query: 0,
                statement: Statement::Prepare,
                direct: true,
                exec: Exec::Timed,
                parent: None,
            },
        );
        assert_eq!((ctx.attempted, ctx.failed), (2, 1));
        assert!(ctx.failures[0].contains("rows differ from the reference"));
    }
}
