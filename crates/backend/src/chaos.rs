//! Deterministic fault injection for back-ends.
//!
//! [`ChaosBackend`] wraps any [`Backend`] and injects a configured
//! fault — an error, a panic, or a delay — according to a deterministic
//! schedule: on the Nth compile job, on every job, or pseudo-randomly
//! from a seed. The compilation service's fault-tolerance layer (panic
//! isolation, one attempt per module per tier, the breaker's fallback
//! chain) is driven end-to-end by tests built on this wrapper; nothing
//! in here is used on the production compile path.
//!
//! [`ChaosExecBackend`] is the execution-phase counterpart: compiles
//! pass through untouched, but every `main` (per-morsel) call of the
//! produced executables can panic, trap, or stall on the same
//! deterministic schedules. It drives the engine's *execution* fault
//! envelope — worker panic isolation, query budgets, and the
//! serving-path circuit breaker.

use crate::{Backend, BackendError, CodeArtifact, CompileStats, Executable};
use qc_ir::Module;
use qc_runtime::RuntimeState;
use qc_target::{ExecStats, Isa, Trap};
use qc_timing::TimeTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What [`ChaosBackend`] injects when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Return a [`BackendError`] of kind `Permanent` (forces a tier
    /// downgrade under a fallback chain).
    PermanentError,
    /// Panic inside the compile call. The service must catch this,
    /// convert it to a `Panic`-kind error, and keep its workers alive.
    Panic,
    /// Sleep for the given duration before compiling normally, holding
    /// a compile in flight.
    Delay(Duration),
}

/// When the fault fires, as a function of the 0-based compile-call
/// index (each module compile is one call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Exactly the Nth call.
    Nth(u64),
    /// Every call.
    Always,
    /// Pseudo-random per call: fault with probability `permille`/1000,
    /// derived from `seed` and the call index only — identical across
    /// runs and thread schedules.
    Seeded { seed: u64, permille: u16 },
}

/// SplitMix64: tiny, high-quality mixing for the seeded schedule (no
/// dependency on the `rand` crate from the backend interface crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault plan both injectors run on: what to inject, when, and how
/// often it has fired so far. One call counter indexes the schedule, so
/// a plan shared (`Arc`) by many executables schedules over all of
/// their calls together.
struct FaultPlan<F> {
    fault: F,
    schedule: Schedule,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<F> FaultPlan<F> {
    /// Advances the call counter; returns the 0-based call index when
    /// the fault fires for this call.
    fn fires(&self) -> Option<u64> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let fire = match self.schedule {
            Schedule::Nth(k) => n == k,
            Schedule::Always => true,
            Schedule::Seeded { seed, permille } => {
                (splitmix64(seed ^ n) % 1000) < u64::from(permille)
            }
        };
        fire.then(|| {
            self.injected.fetch_add(1, Ordering::Relaxed);
            n
        })
    }
}

/// A [`Backend`] wrapper injecting faults of type `F` on a deterministic
/// schedule; used through its two instantiations, [`ChaosBackend`]
/// (compile calls fault) and [`ChaosExecBackend`] (`main` calls of the
/// produced executables fault). "Call" below means whichever of the two
/// the instantiation counts.
///
/// The wrapper reports the inner back-end's `name` and `isa` so that
/// downgrade records and compile stats name the real tier, but mixes
/// the fault plan into `config_fingerprint` so chaos-compiled artifacts
/// never alias clean cache entries.
pub struct Chaos<F> {
    inner: Arc<dyn Backend>,
    plan: Arc<FaultPlan<F>>,
}

/// The compile-phase injector: every compile call consults the fault
/// plan once, in `compile_artifact`, which `Backend::compile` goes
/// through too.
pub type ChaosBackend = Chaos<ChaosFault>;

/// The execution-phase injector: compilation is delegated untouched,
/// but each produced [`Executable`] consults the fault plan on every
/// `main` call (`setup`/`finish` stay clean so pipelines always reach
/// the morsel loop). The plan is shared (`Arc`) across every executable
/// the back-end produces — including re-instantiations of a cached
/// artifact — so the schedule indexes *morsel calls across the whole
/// serving run*, not calls per executable. Deterministic for a serial
/// reference run; under parallel execution the *set* of faulted call
/// indices is fixed even though their thread assignment is not.
pub type ChaosExecBackend = Chaos<ExecFault>;

impl<F> Chaos<F> {
    fn with_schedule(inner: Arc<dyn Backend>, fault: F, schedule: Schedule) -> Self {
        let plan = Arc::new(FaultPlan {
            fault,
            schedule,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        });
        Chaos { inner, plan }
    }

    /// Injects `fault` on the `n`-th (0-based) call only.
    pub fn on_nth(inner: Arc<dyn Backend>, n: u64, fault: F) -> Self {
        Self::with_schedule(inner, fault, Schedule::Nth(n))
    }

    /// Injects `fault` on every call.
    pub fn always(inner: Arc<dyn Backend>, fault: F) -> Self {
        Self::with_schedule(inner, fault, Schedule::Always)
    }

    /// Injects `fault` on each call independently with probability
    /// `permille`/1000, deterministically derived from `seed` and the
    /// call index.
    pub fn seeded(inner: Arc<dyn Backend>, seed: u64, permille: u16, fault: F) -> Self {
        Self::with_schedule(inner, fault, Schedule::Seeded { seed, permille })
    }

    /// Total calls observed so far.
    pub fn calls(&self) -> u64 {
        self.plan.calls.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.plan.injected.load(Ordering::Relaxed)
    }

    /// The wrapper's `config_fingerprint`: the inner back-end's, the
    /// schedule, and the instantiation's own `fault` hash and `salt`.
    fn fingerprint(&self, fault: u64, salt: u64) -> u64 {
        let schedule = match self.plan.schedule {
            Schedule::Nth(k) => splitmix64(k ^ 1),
            Schedule::Always => splitmix64(2),
            Schedule::Seeded { seed, permille } => splitmix64(seed ^ u64::from(permille) ^ 3),
        };
        self.inner.config_fingerprint() ^ schedule ^ fault ^ salt
    }
}

impl<F: std::fmt::Debug> std::fmt::Debug for Chaos<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Chaos({}, {:?}, {:?}, {} injected)",
            self.inner.name(),
            self.plan.fault,
            self.plan.schedule,
            self.injected()
        )
    }
}

impl ChaosBackend {
    /// Decides whether the fault fires for the next call and, when it
    /// is an error or panic fault, raises it. `Delay` faults sleep and
    /// then let the inner back-end compile normally.
    fn maybe_inject(&self) -> Result<(), BackendError> {
        let Some(n) = self.plan.fires() else {
            return Ok(());
        };
        match self.plan.fault {
            ChaosFault::PermanentError => Err(BackendError::new(format!(
                "chaos: injected fault on call {n}"
            ))),
            ChaosFault::Panic => panic!("chaos: injected panic on call {n}"),
            ChaosFault::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }
}

impl Backend for ChaosBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn link_phase(&self) -> &'static str {
        self.inner.link_phase()
    }

    fn config_fingerprint(&self) -> u64 {
        let fault = match self.plan.fault {
            ChaosFault::PermanentError => 2,
            ChaosFault::Panic => 3,
            ChaosFault::Delay(d) => splitmix64(4 ^ d.as_nanos() as u64),
        };
        // Never alias the clean back-end's cache entries.
        self.fingerprint(fault, 0x4348_414f_5321)
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        self.maybe_inject()?;
        self.inner.compile_artifact(module, trace)
    }
}

/// What [`ChaosExecBackend`] injects into a `main` (per-morsel) call
/// when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFault {
    /// Panic inside the morsel call. The morsel executor must contain
    /// this at the worker's claim, replay the lost morsels, and keep
    /// the merged result byte-identical.
    Panic,
    /// Return [`Trap::Runtime`] with the given code, as a miscompiled
    /// or resource-starved kernel would. Drives the serving scheduler's
    /// per-tier circuit breaker.
    Trap(u8),
    /// Sleep for the given duration before executing normally, driving
    /// query-deadline overruns without corrupting results.
    Delay(Duration),
}

impl Backend for ChaosExecBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn link_phase(&self) -> &'static str {
        self.inner.link_phase()
    }

    fn config_fingerprint(&self) -> u64 {
        let fault = match self.plan.fault {
            ExecFault::Panic => 5,
            ExecFault::Trap(code) => splitmix64(6 ^ u64::from(code)),
            ExecFault::Delay(d) => splitmix64(7 ^ d.as_nanos() as u64),
        };
        // Never alias the clean back-end's cache entries ("EXEC" salt,
        // distinct from the compile-phase wrapper's salt).
        self.fingerprint(fault, 0x4558_4543_2121)
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        let Some(inner) = self.inner.compile_artifact(module, trace)? else {
            return Ok(None);
        };
        let plan = Arc::clone(&self.plan);
        Ok(Some(Box::new(ChaosExecArtifact { inner, plan })))
    }
}

/// [`CodeArtifact`] wrapper keeping chaos attached across the engine's
/// compile-result cache: a cached artifact re-instantiated for a later
/// query still consults the shared plan. Never serialized — a fault
/// plan must not escape into the persistent artifact store.
struct ChaosExecArtifact {
    inner: Box<dyn CodeArtifact>,
    plan: Arc<FaultPlan<ExecFault>>,
}

impl CodeArtifact for ChaosExecArtifact {
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
        Ok(ChaosExecutable::wrap(self.inner.instantiate()?, &self.plan))
    }

    fn compile_stats(&self) -> &CompileStats {
        self.inner.compile_stats()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.inner.content_bytes()
    }
}

/// [`Executable`] that injects its plan's fault into `main` calls.
struct ChaosExecutable {
    inner: Box<dyn Executable>,
    plan: Arc<FaultPlan<ExecFault>>,
}

impl ChaosExecutable {
    fn wrap(inner: Box<dyn Executable>, plan: &Arc<FaultPlan<ExecFault>>) -> Box<dyn Executable> {
        let plan = Arc::clone(plan);
        Box::new(ChaosExecutable { inner, plan })
    }
}

impl Executable for ChaosExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        if name == "main" {
            if let Some(n) = self.plan.fires() {
                match self.plan.fault {
                    ExecFault::Panic => panic!("chaos: injected exec panic on call {n}"),
                    ExecFault::Trap(code) => return Err(Trap::Runtime(code)),
                    ExecFault::Delay(d) => std::thread::sleep(d),
                }
            }
        }
        self.inner.call(state, name, args)
    }

    fn exec_stats(&self) -> ExecStats {
        self.inner.exec_stats()
    }

    fn code_bytes(&self) -> usize {
        self.inner.code_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendErrorKind;

    fn module() -> Module {
        Module::new("m")
    }

    #[test]
    fn nth_schedule_fires_once() {
        let chaos = ChaosBackend::on_nth(Arc::new(EchoBackend), 1, ChaosFault::PermanentError);
        let trace = TimeTrace::disabled();
        // Call 0: clean.
        assert!(chaos.compile_artifact(&module(), &trace).is_ok());
        // Call 1: the injected fault.
        let e1 = chaos
            .compile_artifact(&module(), &trace)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e1.kind, BackendErrorKind::Permanent);
        // Call 2: clean again.
        assert!(chaos.compile_artifact(&module(), &trace).is_ok());
        assert_eq!(chaos.injected(), 1);
        assert_eq!(chaos.calls(), 3);
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let mk = || {
            ChaosBackend::seeded(
                Arc::new(EchoBackend),
                0xC4A05,
                250,
                ChaosFault::PermanentError,
            )
        };
        let trace = TimeTrace::disabled();
        let a = mk();
        let b = mk();
        let pattern = |c: &ChaosBackend| {
            (0..64)
                .map(|_| c.compile_artifact(&module(), &trace).is_err())
                .collect::<Vec<_>>()
        };
        let pa = pattern(&a);
        assert_eq!(pa, pattern(&b), "seeded schedule must be deterministic");
        assert!(pa.iter().any(|&f| f), "some calls must fault");
        assert!(pa.iter().any(|&f| !f), "some calls must pass");
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_fault_panics() {
        let chaos = ChaosBackend::always(Arc::new(EchoBackend), ChaosFault::Panic);
        let _ = chaos.compile_artifact(&module(), &TimeTrace::disabled());
    }

    #[test]
    fn fingerprint_differs_from_inner() {
        let inner: Arc<dyn Backend> = Arc::new(EchoBackend);
        let chaos = ChaosBackend::always(Arc::clone(&inner), ChaosFault::PermanentError);
        assert_ne!(chaos.config_fingerprint(), inner.config_fingerprint());
    }

    /// Executable that answers every call and reports fixed stats, so
    /// the exec-chaos wrapper's behavior is observable.
    struct EchoExecutable;
    impl Executable for EchoExecutable {
        fn call(
            &mut self,
            _state: &mut RuntimeState,
            _name: &str,
            _args: &[u64],
        ) -> Result<[u64; 2], Trap> {
            Ok([7, 0])
        }
        fn exec_stats(&self) -> ExecStats {
            ExecStats {
                cycles: 100,
                insts: 10,
            }
        }
        fn code_bytes(&self) -> usize {
            0
        }
    }

    /// Artifact whose every instantiation is a fresh [`EchoExecutable`].
    struct EchoArtifact {
        stats: CompileStats,
    }
    impl CodeArtifact for EchoArtifact {
        fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
            Ok(Box::new(EchoExecutable))
        }
        fn compile_stats(&self) -> &CompileStats {
            &self.stats
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn content_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    /// A back-end whose every compile is a fresh [`EchoArtifact`];
    /// enough to observe injection logic.
    struct EchoBackend;
    impl Backend for EchoBackend {
        fn name(&self) -> &'static str {
            "Echo"
        }
        fn isa(&self) -> Isa {
            Isa::Tx64
        }
        fn compile_artifact(
            &self,
            _module: &Module,
            _trace: &TimeTrace,
        ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
            Ok(Some(Box::new(EchoArtifact {
                stats: CompileStats::default(),
            })))
        }
    }

    #[test]
    fn exec_trap_fires_on_main_only() {
        let chaos = ChaosExecBackend::on_nth(Arc::new(EchoBackend), 0, ExecFault::Trap(9));
        let mut exe = chaos.compile(&module(), &TimeTrace::disabled()).unwrap();
        let mut state = RuntimeState::new();
        // setup/finish never consult the schedule.
        assert!(exe.call(&mut state, "setup", &[]).is_ok());
        assert_eq!(
            exe.call(&mut state, "main", &[]),
            Err(Trap::Runtime(9)),
            "call 0 must trap"
        );
        assert!(exe.call(&mut state, "main", &[]).is_ok(), "call 1 is clean");
        assert!(exe.call(&mut state, "finish", &[]).is_ok());
        assert_eq!(chaos.calls(), 2);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    #[should_panic(expected = "chaos: injected exec panic")]
    fn exec_panic_fault_panics_on_main() {
        let chaos = ChaosExecBackend::always(Arc::new(EchoBackend), ExecFault::Panic);
        let mut exe = chaos.compile(&module(), &TimeTrace::disabled()).unwrap();
        let _ = exe.call(&mut RuntimeState::new(), "main", &[]);
    }

    #[test]
    fn exec_schedule_is_shared_across_executables() {
        // Two executables from the same back-end share one call counter:
        // Nth(1) fires on the second main call overall, regardless of
        // which executable makes it.
        let chaos = ChaosExecBackend::on_nth(Arc::new(EchoBackend), 1, ExecFault::Trap(1));
        let trace = TimeTrace::disabled();
        let mut a = chaos.compile(&module(), &trace).unwrap();
        let mut b = chaos.compile(&module(), &trace).unwrap();
        let mut state = RuntimeState::new();
        assert!(a.call(&mut state, "main", &[]).is_ok());
        assert_eq!(b.call(&mut state, "main", &[]), Err(Trap::Runtime(1)));
    }

    #[test]
    fn exec_fingerprint_differs_from_inner_and_compile_chaos() {
        let inner: Arc<dyn Backend> = Arc::new(EchoBackend);
        let exec = ChaosExecBackend::always(Arc::clone(&inner), ExecFault::Panic);
        let comp = ChaosBackend::always(Arc::clone(&inner), ChaosFault::Panic);
        assert_ne!(exec.config_fingerprint(), inner.config_fingerprint());
        assert_ne!(exec.config_fingerprint(), comp.config_fingerprint());
    }
}
