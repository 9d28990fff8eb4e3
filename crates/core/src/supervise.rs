//! The crate's one supervision envelope.
//!
//! Everything in `qc-engine` that must survive a panic in the code it
//! calls — a back-end compiling a module, the planner during admission,
//! generated code inside a morsel — runs that code through
//! [`supervise`]. It is the only place the crate catches an unwind and
//! the only place a panic payload is turned into text, so each caller
//! decides just one thing: which typed error the text becomes
//! (`BackendError::panicked` for compile jobs,
//! [`crate::EngineError::WorkerPanic`] everywhere else). The table of
//! call sites lives in `DESIGN.md`, "Execution driver and supervision".

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs `f`; a panic inside it comes back as `Err` with the payload's
/// text instead of unwinding into the caller.
///
/// Unwind safety is asserted, not proven: callers must treat whatever
/// `f` was mutating as torn after an `Err` and drop or fail it (the
/// query, the compile job), never keep using it.
pub(crate) fn supervise<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_text(payload.as_ref()))
}

/// Text form of a panic payload: `panic!` with a literal carries a
/// `&str`, with a format string a `String`; anything else has no text.
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a mutex, recovering the data on poisoning: the crate's only
/// way to take a lock. Every engine lock (the scheduler's state, the
/// L1 code and statement caches, the artifact-store index, the compile
/// pool's queue and handles, a fan-out's progress) guards data whose
/// invariants hold at every point a supervised call can panic, so
/// recovery keeps the engine serving instead of cascading the panic.
/// `lru.rs`'s tests check this on a real cache lock.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_pass_through() {
        assert_eq!(supervise(|| 41 + 1), Ok(42));
        // A returned error is a value, not a fault.
        let r: Result<Result<(), &str>, String> = supervise(|| Err("typed"));
        assert_eq!(r, Ok(Err("typed")));
    }

    #[test]
    fn str_string_and_opaque_payloads_become_text() {
        // `resume_unwind` raises the payload types `panic!` produces
        // (`&str` for a literal, `String` for a format string) without
        // running the process-wide panic hook other tests share.
        use std::panic::resume_unwind;
        let literal = supervise(|| -> () { resume_unwind(Box::new("static text")) });
        let formatted = supervise(|| -> () { resume_unwind(Box::new(format!("formatted {}", 7))) });
        let opaque = supervise(|| -> () { resume_unwind(Box::new(7u32)) });
        assert_eq!(literal, Err("static text".to_string()));
        assert_eq!(formatted, Err("formatted 7".to_string()));
        assert_eq!(opaque, Err("non-string panic payload".to_string()));
    }

    #[test]
    fn lock_recover_survives_a_panicking_holder() {
        let m = Mutex::new(5);
        let _ = supervise(|| {
            let _g = m.lock();
            std::panic::resume_unwind(Box::new("holder died"));
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
    }
}
