//! Graceful degradation: a configurable back-end fallback chain.
//!
//! The paper's trade-off is fast-but-fragile optimizing tiers vs. cheap
//! always-available ones (DirectEmit, the interpreter). A production
//! engine only banks that trade-off if a failing, panicking, or
//! too-slow tier *degrades* a query instead of killing it: when a tier
//! errors out, the service transparently recompiles the affected
//! pipelines on the next tier down the chain and records the downgrade
//! in the compile stats and [`TimeTrace`]. The interpreter accepts
//! every verified module, so a chain ending in it cannot fail for
//! supported queries.

use crate::compile_service::{CompileBudget, CompileService};
use crate::engine::{CompiledQuery, EngineError, PreparedQuery};
use qc_backend::{Backend, BackendError};
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An ordered list of back-end tiers, most desirable first. Compilation
/// walks the chain until a tier compiles the whole query within budget.
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
    /// LVM-opt → LVM-cheap → DirectEmit (TX64 only) → interpreter.
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
}

/// One tier's failure while walking a [`FallbackChain`].
#[derive(Debug, Clone)]
pub struct TierFailure {
    /// Name of the tier that failed.
    pub backend: &'static str,
    /// Why it failed (error, caught panic, or deadline overrun).
    pub error: BackendError,
    /// Wall-clock time burned in the failed tier.
    pub spent: Duration,
}

/// What [`CompileService::compile_with_fallback`] did: which tier
/// served the query and which tiers were skipped over.
#[derive(Debug, Clone, Default)]
pub struct FallbackReport {
    /// Index into the chain of the tier that succeeded.
    pub tier_used: usize,
    /// Name of the tier that succeeded.
    pub backend_name: &'static str,
    /// Failures of every higher tier, in chain order.
    pub failures: Vec<TierFailure>,
}

impl FallbackReport {
    /// Whether any downgrade happened (the first tier did not serve).
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

impl CompileService {
    /// Compiles `prepared` by walking `chain` tier by tier under
    /// `budget` until one tier compiles every pipeline. Per-tier
    /// failures (including caught panics and deadline overruns — the
    /// per-job fault envelope of
    /// [`compile_budgeted`](CompileService::compile_budgeted) applies
    /// within each tier) are recorded, not fatal:
    ///
    /// * the winning tier's [`CompiledQuery::compile_stats`] counters
    ///   carry `fallback_downgrades` plus one `fallback_from_<tier>`
    ///   entry per skipped tier;
    /// * `trace` records the time burned in each failed tier under
    ///   `fallback/<tier>`;
    /// * the service's [`fault_stats`](CompileService::fault_stats)
    ///   `downgrades` counter is bumped per skipped tier.
    ///
    /// # Errors
    /// Returns the last tier's [`EngineError::Backend`] only when every
    /// tier fails; planning errors propagate immediately.
    pub fn compile_with_fallback(
        &self,
        prepared: &PreparedQuery,
        chain: &FallbackChain,
        budget: CompileBudget,
        trace: &TimeTrace,
    ) -> Result<(CompiledQuery, FallbackReport), EngineError> {
        let mut failures: Vec<TierFailure> = Vec::new();
        for (idx, tier) in chain.tiers().iter().enumerate() {
            let tier_start = Instant::now();
            match self.compile_budgeted(prepared, tier, budget, trace) {
                Ok(mut compiled) => {
                    if !failures.is_empty() {
                        self.faults()
                            .downgrades
                            .fetch_add(failures.len() as u64, Ordering::Relaxed);
                        compiled
                            .compile_stats
                            .bump("fallback_downgrades", failures.len() as u64);
                        for f in &failures {
                            compiled
                                .compile_stats
                                .bump(&format!("fallback_from_{}", f.backend), 1);
                            trace.record(&format!("fallback/{}", f.backend), f.spent);
                            // The query still pays for the failed tier's
                            // compile attempts.
                            compiled.compile_time += f.spent;
                        }
                    }
                    let report = FallbackReport {
                        tier_used: idx,
                        backend_name: tier.name(),
                        failures,
                    };
                    return Ok((compiled, report));
                }
                Err(EngineError::Backend(e)) => {
                    failures.push(TierFailure {
                        backend: tier.name(),
                        error: e,
                        spent: tier_start.elapsed(),
                    });
                }
                // Plan/storage/trap errors are not tier faults; a
                // cheaper tier cannot fix them.
                Err(other) => return Err(other),
            }
        }
        let summary = failures
            .iter()
            .map(|f| format!("{}: {}", f.backend, f.error))
            .collect::<Vec<_>>()
            .join("; ");
        Err(EngineError::Backend(BackendError::new(format!(
            "every fallback tier failed: {summary}"
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
