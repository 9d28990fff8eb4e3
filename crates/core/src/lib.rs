//! The query-compilation engine: plan → IR → back-end → execution.
//!
//! This is the reproduction's equivalent of Umbra's execution layer
//! (paper Sec. III): queries are decomposed into pipelines, each pipeline
//! compiled as its own module by a pluggable [`qc_backend::Backend`], and executed
//! morsel-wise. Wall-clock compile time is measured around back-end
//! compilation (the paper's primary metric); execution is accounted in
//! deterministic cycles.
//!
//! # Example
//!
//! ```
//! use qc_engine::Session;
//! use qc_plan::{col, lit_i64, PlanNode};
//!
//! let db = qc_storage::gen_hlike(0.02);
//! let session = Session::new(&db);
//! let plan = PlanNode::scan("orders", &["o_orderkey", "o_custkey"])
//!     .filter(col("o_custkey").lt(lit_i64(5)));
//! let result = session.prepare(&plan).unwrap().execute().unwrap();
//! assert!(!result.rows.is_empty());
//! ```

// The engine sits above panicky layers and owns the fault-tolerance
// story (the `supervise` envelope, budgets, the breaker's fallback
// chain); a stray `.unwrap()` here would undo it, so the lint is a hard
// error outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod artifact_store;
mod compile_service;
mod engine;
mod lru;
// The serving path proper additionally bans non-test `.expect()`: these
// two modules sit inside the execution fault envelope, where a stray
// expect would turn a contained per-query fault into a process abort.
#[cfg_attr(not(test), deny(clippy::expect_used))]
mod morsel_exec;
#[cfg_attr(not(test), deny(clippy::expect_used))]
mod scheduler;
mod session;
mod supervise;

pub use artifact_store::{
    ArtifactKey, ArtifactStore, ArtifactStoreConfig, ArtifactStoreCounters, FsckReport,
    StatementKey,
};
pub use compile_service::{
    CacheCounters, CompileService, CompileServiceConfig, FaultCounters, PendingCompile,
};
pub use engine::{
    CancelToken, CompiledQuery, Engine, EngineConfig, EngineError, ExecutionResult, LazyIr,
    PreparedQuery, QueryBudget, FRONTEND_STAMP,
};
pub use scheduler::{
    BreakerPolicy, FallbackChain, OutcomeStatus, QueryOutcome, QueryScheduler, SchedulerConfig,
    ServeReport, SessionRequest,
};
pub use session::{PreparedStatement, QueryRun, Session, SessionConfig, StatementCacheStats};

/// Constructors for all back-ends, used by examples and the bench harness.
pub mod backends {
    use qc_backend::Backend;
    use qc_target::Isa;

    /// The bytecode interpreter.
    pub fn interpreter() -> Box<dyn Backend> {
        Box::new(qc_interp::InterpBackend::new())
    }

    /// DirectEmit: the single-pass compiler (TX64 only).
    pub fn direct_emit() -> Box<dyn Backend> {
        Box::new(qc_direct::DirectBackend::new())
    }

    /// The Cranelift-analog fast compiler.
    pub fn clift(isa: Isa) -> Box<dyn Backend> {
        Box::new(qc_clift::CliftBackend::new(isa))
    }

    /// The Cranelift-analog with configurable extension instructions
    /// (Table II ablation).
    pub fn clift_with(isa: Isa, ext: qc_clift::CliftExtensions) -> Box<dyn Backend> {
        Box::new(qc_clift::CliftBackend::with_extensions(isa, ext))
    }

    /// The LLVM-analog in cheap mode (-O0 + FastISel).
    pub fn lvm_cheap(isa: Isa) -> Box<dyn Backend> {
        Box::new(qc_lvm::LvmBackend::new(isa, qc_lvm::OptMode::Cheap))
    }

    /// The LLVM-analog in optimized mode (-O2 + SelectionDAG).
    pub fn lvm_opt(isa: Isa) -> Box<dyn Backend> {
        Box::new(qc_lvm::LvmBackend::new(isa, qc_lvm::OptMode::Optimized))
    }

    /// The LLVM-analog with full option control (GlobalISel, pair
    /// representation, TargetMachine caching ablations).
    pub fn lvm_with(options: qc_lvm::LvmOptions) -> Box<dyn Backend> {
        Box::new(qc_lvm::LvmBackend::with_options(options))
    }

    /// The GCC/C-analog back-end (C source → minicc → minias → minild).
    pub fn cgen(isa: Isa) -> Box<dyn Backend> {
        Box::new(qc_cgen::CgenBackend::new(isa))
    }

    /// All back-ends available for an ISA, in the paper's Table III order.
    pub fn all_for(isa: Isa) -> Vec<Box<dyn Backend>> {
        let mut v: Vec<Box<dyn Backend>> = vec![interpreter()];
        if isa == Isa::Tx64 {
            v.push(direct_emit());
        }
        v.push(clift(isa));
        v.push(lvm_cheap(isa));
        v.push(lvm_opt(isa));
        v.push(cgen(isa));
        v
    }
}
