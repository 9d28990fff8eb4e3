//! Adaptive back-end selection (paper Sec. III-C).
//!
//! Umbra starts every compilation with the low-latency DirectEmit back-end;
//! after a function has executed a few times, a heuristic on code size and
//! observed cost decides whether an optimized (LLVM) compilation pays off.
//! Morsel-driven execution makes switching trivial: the next morsel simply
//! calls the newly compiled function.

use crate::compile_service::CompileService;
use crate::engine::{Engine, EngineError, ExecutionResult, PreparedQuery, QueryBudget};
use crate::morsel_exec::{QueryExecution, StepProgress};
use qc_backend::{Backend, BackendError};
use qc_timing::TimeTrace;
use std::sync::Arc;

/// Outcome of an adaptive execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveOutcome {
    /// The cheap tier was sufficient.
    StayedCheap,
    /// The optimizing tier took over mid-query.
    TieredUp,
}

/// What happened during [`AdaptiveExecution::run_background`].
#[derive(Debug)]
pub struct BackgroundReport {
    /// Whether the optimizing tier took over.
    pub outcome: AdaptiveOutcome,
    /// Morsel count at which the executables were swapped, if they were.
    pub swapped_at_morsel: Option<u64>,
    /// Error from the background compilation, if it failed (execution
    /// then completes in the cheap tier instead of aborting).
    pub background_error: Option<BackendError>,
}

/// Adaptive two-tier execution: a cheap tier compiles immediately; the
/// optimizing tier compiles in the background when the size×work
/// heuristic predicts a win and takes over at a morsel boundary.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveExecution {
    /// Estimated executions of the query (morsels × repetitions).
    pub expected_executions: u64,
    /// Cycles-per-IR-instruction threshold above which optimized
    /// compilation is considered beneficial.
    pub benefit_threshold: u64,
}

impl Default for AdaptiveExecution {
    fn default() -> Self {
        AdaptiveExecution {
            expected_executions: 1,
            benefit_threshold: 20_000,
        }
    }
}

impl AdaptiveExecution {
    /// Creates the policy with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's "simple heuristic on the code size and benefit": decide
    /// whether the optimizing tier should be started for a query of
    /// `ir_size` IR instructions that cost `observed_cycles` in the cheap
    /// tier.
    pub fn should_tier_up(&self, ir_size: usize, observed_cycles: u64) -> bool {
        // Optimized compilation cost grows with code size; benefit grows
        // with executed work. Tier up when remaining work dwarfs it.
        let est_compile_cost = (ir_size as u64) * self.benefit_threshold;
        observed_cycles.saturating_mul(self.expected_executions) > est_compile_cost
    }

    /// Runs a prepared query with *background* tier-up: the cheap tier
    /// compiles and starts executing immediately; the optimizing tier is
    /// compiled on a [`CompileService`] worker and swapped in at the next
    /// morsel boundary once it is ready. The first morsel is never blocked
    /// by the optimizing compile.
    ///
    /// `swap_after_morsels` forces a deterministic schedule for testing:
    /// the background compile starts before the first morsel and the
    /// swap happens at exactly that morsel boundary, blocking for the
    /// worker if needed (`0` swaps after the first morsel, like `1`).
    /// With `None`, the size×work heuristic decides after each morsel
    /// whether to start the background compile, and the swap happens at
    /// the first morsel boundary after it finishes.
    ///
    /// If the background compilation fails, execution completes in the
    /// cheap tier and the error is reported in the [`BackgroundReport`].
    ///
    /// # Errors
    /// Propagates cheap-tier compilation and execution errors.
    pub fn run_background(
        &self,
        engine: &Engine<'_>,
        service: &CompileService,
        prepared: &PreparedQuery,
        cheap: &Arc<dyn Backend>,
        optimized: &Arc<dyn Backend>,
        swap_after_morsels: Option<u64>,
    ) -> Result<(ExecutionResult, BackgroundReport), EngineError> {
        let trace = TimeTrace::disabled();
        let mut compiled = service.compile(prepared, cheap, &trace)?;
        let spawn = || Some(service.spawn_compile(prepared, optimized));
        let mut pending = swap_after_morsels.and_then(|_| spawn());
        let mut swapped_at: Option<u64> = None;
        let mut background_error: Option<BackendError> = None;
        let ir_size = prepared.ir_size();

        // One morsel per step; between two steps is where a tier lands.
        let mut exec = QueryExecution::new(1, QueryBudget::unlimited());
        let mut morsels = 0u64;
        while let StepProgress::Ran = exec.step(engine, prepared, &mut compiled, 1)? {
            morsels += 1;
            if swapped_at.is_some() || background_error.is_some() {
                continue;
            }
            let ready = match swap_after_morsels {
                // Deterministic schedule: block for the worker so the
                // swap lands at exactly boundary `n`.
                Some(n) if morsels >= n => pending
                    .take()
                    .map(|p| p.wait().map(|tier| compiled.adopt_replacement(tier))),
                Some(_) => None,
                // Heuristic schedule: swap as soon as the worker is done.
                None => {
                    if pending.is_none() && self.should_tier_up(ir_size, exec.tally().cycles) {
                        pending = spawn();
                    }
                    compiled.adopt_ready(&mut pending)
                }
            };
            match ready {
                Some(Ok(())) => swapped_at = Some(morsels),
                Some(Err(e)) => background_error = Some(e),
                None => {}
            }
        }
        let result = exec.into_result(&compiled);

        let report = BackgroundReport {
            outcome: if swapped_at.is_some() {
                AdaptiveOutcome::TieredUp
            } else {
                AdaptiveOutcome::StayedCheap
            },
            swapped_at_morsel: swapped_at,
            background_error,
        };
        Ok((result, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_scales_with_work_and_size() {
        let policy = AdaptiveExecution::default();
        // Small query, little work: stay cheap.
        assert!(!policy.should_tier_up(1000, 100_000));
        // Same query, huge work: tier up.
        assert!(policy.should_tier_up(1000, 100_000_000));
        // Many expected repetitions shift the tradeoff.
        let hot = AdaptiveExecution {
            expected_executions: 1000,
            ..Default::default()
        };
        assert!(hot.should_tier_up(1000, 100_000));
    }
}
