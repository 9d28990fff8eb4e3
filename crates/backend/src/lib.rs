//! Common back-end interface.
//!
//! Every execution back-end — interpreter, DirectEmit, the Cranelift
//! analog, the LLVM analog in its cheap/optimized modes, and the C
//! back-end — implements [`Backend`] with one compile: an IR module in,
//! an unlinked [`CodeArtifact`] out. Linking is always the artifact's
//! [`CodeArtifact::instantiate`], timed under the back-end's
//! [`Backend::link_phase`]. The engine measures wall-clock compile time
//! around both (the paper's primary metric) and deterministic cycles
//! through [`Executable::exec_stats`].

pub mod chaos;
pub mod intervals;
pub mod memit;
pub mod mir;

use qc_ir::Module;
use qc_runtime::{EmuHost, RuntimeState};
use qc_target::{CodeImage, Emulator, ExecStats, ImageBuilder, Isa, Trap, UnwindRegistry};
use qc_timing::TimeTrace;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Failure class of a [`BackendError`]: why a compile failed. Every
/// class costs the same one attempt per module per tier; the serving
/// scheduler's breaker walks its fallback chain on any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendErrorKind {
    /// The back-end deterministically rejects this input (unsupported
    /// construct, link failure, bad configuration). A different tier
    /// might accept it.
    Permanent,
    /// The compile service could not run or finish the job (no live
    /// worker, worker disconnected); the back-end never rejected it.
    Transient,
    /// The compile job panicked; the panic was caught and isolated by
    /// the compilation service.
    Panic,
}

/// Error produced when a back-end cannot compile a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Problem description.
    pub message: String,
    /// Failure class.
    pub kind: BackendErrorKind,
}

impl BackendError {
    /// Creates a [`BackendErrorKind::Permanent`] error from a message
    /// (the common case for back-ends rejecting an input).
    pub fn new(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Permanent)
    }

    /// Creates an error with an explicit failure class.
    pub fn with_kind(message: impl Into<String>, kind: BackendErrorKind) -> Self {
        BackendError {
            message: message.into(),
            kind,
        }
    }

    /// Creates a [`BackendErrorKind::Transient`] error.
    pub fn transient(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Transient)
    }

    /// Creates a [`BackendErrorKind::Panic`] error from a caught panic
    /// payload description.
    pub fn panicked(message: impl Into<String>) -> Self {
        Self::with_kind(message, BackendErrorKind::Panic)
    }

    /// Prefixes the message with the back-end's name so a failure
    /// surfacing through a fallback chain names the tier that produced
    /// it. No-op if the message already carries the prefix.
    #[must_use]
    pub fn in_backend(mut self, name: &str) -> Self {
        if !self.message.starts_with(name) {
            self.message = format!("{name}: {}", self.message);
        }
        self
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BackendErrorKind::Permanent => write!(f, "backend error: {}", self.message),
            BackendErrorKind::Transient => {
                write!(f, "backend error (transient): {}", self.message)
            }
            BackendErrorKind::Panic => write!(f, "backend panic: {}", self.message),
        }
    }
}

impl Error for BackendError {}

/// Per-compilation statistics a back-end reports alongside its code.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Number of functions compiled.
    pub functions: usize,
    /// Emitted machine-code bytes (0 for the interpreter).
    pub code_bytes: usize,
    /// Back-end-specific counters (e.g. FastISel fallback counts,
    /// paper Sec. V-B3).
    pub counters: BTreeMap<String, u64>,
}

impl CompileStats {
    /// Adds `n` to counter `name`, allocating the name only when the
    /// counter is new.
    pub fn bump(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &CompileStats) {
        self.functions += other.functions;
        self.code_bytes += other.code_bytes;
        for (k, v) in &other.counters {
            self.bump(k, *v);
        }
    }
}

/// Executable form of one compiled module.
///
/// `Send` so the engine's compilation service can build executables on
/// worker threads and hand them back to the query thread.
pub trait Executable: Send {
    /// Calls the function `name` with 64-bit argument slots.
    ///
    /// # Errors
    /// Returns a [`Trap`] raised during execution.
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap>;

    /// Cumulative deterministic execution statistics.
    fn exec_stats(&self) -> ExecStats;

    /// Size of the linked code in bytes, the one compile statistic only
    /// the link knows (the interpreter reports 8 bytes per bytecode op).
    fn code_bytes(&self) -> usize;
}

/// A reusable compilation result: code generation is complete, linking
/// is not. [`CodeArtifact::instantiate`] repeats only the link and
/// unwind-registration step, producing a fresh [`Executable`] — this is
/// what the engine's compile-result cache stores, so parameterized
/// re-runs of a query skip code generation entirely.
pub trait CodeArtifact: Send + Sync {
    /// Links a fresh executable from the cached artifact.
    ///
    /// # Errors
    /// Returns [`BackendError`] when linking fails (e.g. a runtime
    /// symbol disappeared; cannot normally happen for artifacts that
    /// linked once already).
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError>;

    /// Statistics of the original compilation. Its `code_bytes` is 0:
    /// code size is [`Executable::code_bytes`], known once linked.
    fn compile_stats(&self) -> &CompileStats;

    /// Approximate retained bytes, for cache accounting.
    fn size_bytes(&self) -> usize;

    /// Stable, position-independent serialization of the generated
    /// code, used by determinism tests to compare compilations without
    /// the linked image's embedded base address.
    fn content_bytes(&self) -> Vec<u8>;

    /// Serializes the artifact for the engine's persistent store, or
    /// `None` when this artifact kind cannot round-trip through bytes
    /// (e.g. interpreter executables that hold live bytecode tables).
    /// The default is `None`: persistence is strictly opt-in per
    /// artifact kind, and a non-serializable artifact simply stays
    /// memory-only.
    fn serialize(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A query-compilation back-end.
///
/// `Send + Sync` so one back-end instance can compile a query's
/// independent pipeline modules on several worker threads at once (all
/// six frameworks the paper studies support threaded compilation).
pub trait Backend: Send + Sync {
    /// Short name as used in the paper's tables (e.g. `"DirectEmit"`).
    fn name(&self) -> &'static str;

    /// Target ISA of generated code.
    fn isa(&self) -> Isa;

    /// Distinguishes differently configured instances that share a
    /// [`Backend::name`] (e.g. the LVM ablation options) so the
    /// compile-result cache never serves code built under different
    /// options. Instances that always generate identical code may keep
    /// the default of 0.
    fn config_fingerprint(&self) -> u64 {
        0
    }

    /// The back-end's one compile: one module to a cacheable,
    /// relinkable artifact, phase timings into `trace`. The engine keeps
    /// every compile it runs as an artifact (cached, relinked per morsel
    /// worker, persisted), so it rejects `None` with a permanent error
    /// naming the back-end.
    ///
    /// # Errors
    /// Returns [`BackendError`] for unsupported inputs (e.g. DirectEmit on
    /// irreducible control flow or a non-TX64 target).
    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError>;

    /// The phase the link of an artifact is timed under (Clift's
    /// `"finish"`, GCC/C's `"ld"`), whoever links it.
    fn link_phase(&self) -> &'static str {
        "link"
    }

    /// Compiles one module and links it: [`Backend::compile_artifact`]
    /// then [`CodeArtifact::instantiate`] under
    /// [`Backend::link_phase`], exactly as the engine does. A
    /// convenience for callers that want one executable; back-ends do
    /// not override it.
    ///
    /// # Errors
    /// Those of [`Backend::compile_artifact`], a permanent error naming
    /// the back-end when it returns no artifact, and link failures.
    fn compile(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Box<dyn Executable>, BackendError> {
        let artifact = self.compile_artifact(module, trace)?.ok_or_else(|| {
            BackendError::new(format!("no code artifact for `{}`", module.name))
                .in_backend(self.name())
        })?;
        let _t = trace.scope(self.link_phase());
        artifact
            .instantiate()
            .map_err(|e| e.in_backend(self.name()))
    }
}

/// [`CodeArtifact`] for the compiling back-ends: an unlinked
/// [`ImageBuilder`] plus the original compile statistics. Instantiation
/// links the builder (by reference) against the runtime resolver and
/// registers unwind information, and copies no statistics; the emulated
/// stack and decode cache come with the executable's first `call`.
pub struct NativeArtifact {
    builder: ImageBuilder,
    stats: CompileStats,
}

impl NativeArtifact {
    /// Wraps an unlinked image. `stats.code_bytes` stays 0: the linked
    /// image reports its size ([`Executable::code_bytes`]).
    pub fn new(builder: ImageBuilder, stats: CompileStats) -> Self {
        NativeArtifact { builder, stats }
    }

    /// Restores an artifact from [`CodeArtifact::serialize`] output.
    ///
    /// # Errors
    /// Returns a [`BackendError`] for truncated or malformed input; the
    /// persistent store treats that as a corrupt file and recompiles.
    pub fn deserialize(bytes: &[u8]) -> Result<NativeArtifact, BackendError> {
        fn corrupt(what: &str) -> BackendError {
            BackendError::new(format!("corrupt artifact payload: {what}"))
        }
        fn take_slice<'a>(
            bytes: &'a [u8],
            at: &mut usize,
            len: u64,
        ) -> Result<&'a [u8], BackendError> {
            let len = usize::try_from(len).map_err(|_| corrupt("oversized field"))?;
            let end = at
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| corrupt("truncated field"))?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        }
        fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, BackendError> {
            let s = take_slice(bytes, at, 8).map_err(|_| corrupt("truncated length field"))?;
            Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
        }
        let mut at = 0usize;
        let builder_len = take_u64(bytes, &mut at)?;
        let builder_bytes = take_slice(bytes, &mut at, builder_len)?;
        let builder = ImageBuilder::deserialize_bytes(builder_bytes)
            .map_err(|e| BackendError::new(e.to_string()))?;
        let mut stats = CompileStats {
            functions: usize::try_from(take_u64(bytes, &mut at)?)
                .map_err(|_| corrupt("function count"))?,
            code_bytes: usize::try_from(take_u64(bytes, &mut at)?)
                .map_err(|_| corrupt("code byte count"))?,
            counters: BTreeMap::new(),
        };
        let n_counters = take_u64(bytes, &mut at)?;
        for _ in 0..n_counters {
            let name_len = take_u64(bytes, &mut at)?;
            let name = std::str::from_utf8(take_slice(bytes, &mut at, name_len)?)
                .map_err(|_| corrupt("non-UTF-8 counter name"))?
                .to_string();
            let value = take_u64(bytes, &mut at)?;
            stats.counters.insert(name, value);
        }
        if at != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(NativeArtifact { builder, stats })
    }
}

impl fmt::Debug for NativeArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeArtifact(~{} bytes)", self.builder.approx_size())
    }
}

impl CodeArtifact for NativeArtifact {
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
        let linked = self
            .builder
            .link(&|name| qc_runtime::resolve_runtime(name))
            .map_err(|e| BackendError::new(e.to_string()))?;
        Ok(Box::new(NativeExecutable::new(linked)))
    }

    fn compile_stats(&self) -> &CompileStats {
        &self.stats
    }

    fn size_bytes(&self) -> usize {
        self.builder.approx_size()
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.builder.serialize_bytes()
    }

    fn serialize(&self) -> Option<Vec<u8>> {
        let builder_bytes = self.builder.serialize_bytes();
        let mut out = Vec::with_capacity(builder_bytes.len() + 64);
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, builder_bytes.len() as u64);
        out.extend_from_slice(&builder_bytes);
        push_u64(&mut out, self.stats.functions as u64);
        push_u64(&mut out, self.stats.code_bytes as u64);
        push_u64(&mut out, self.stats.counters.len() as u64);
        for (name, value) in &self.stats.counters {
            push_u64(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            push_u64(&mut out, *value);
        }
        Some(out)
    }
}

/// [`Executable`] backed by emulated machine code (all compiling
/// back-ends).
pub struct NativeExecutable {
    emu: Emulator,
}

impl fmt::Debug for NativeExecutable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeExecutable({} bytes)", self.emu.image().len())
    }
}

impl NativeExecutable {
    /// Wraps a linked image, registering its unwind information (the
    /// registration itself is part of what back-ends must produce; see
    /// paper Sec. III-A).
    pub fn new(image: CodeImage) -> Self {
        let mut unwind = UnwindRegistry::new();
        unwind.register_image(&image);
        NativeExecutable {
            emu: Emulator::new(image),
        }
    }

    /// The underlying image.
    pub fn image(&self) -> &CodeImage {
        self.emu.image()
    }
}

impl Executable for NativeExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let mut host = EmuHost { state };
        self.emu.call(&mut host, name, args)
    }

    fn exec_stats(&self) -> ExecStats {
        self.emu.stats()
    }

    fn code_bytes(&self) -> usize {
        self.emu.image().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{FunctionBuilder, Signature, Type};
    use qc_target::{ImageBuilder, Tx64Assembler};

    #[test]
    fn compile_stats_merge_and_bump() {
        let mut a = CompileStats {
            functions: 1,
            code_bytes: 100,
            ..Default::default()
        };
        a.bump("fallbacks", 2);
        let mut b = CompileStats {
            functions: 2,
            code_bytes: 50,
            ..Default::default()
        };
        b.bump("fallbacks", 3);
        b.bump("other", 1);
        a.merge(&b);
        assert_eq!(a.functions, 3);
        assert_eq!(a.code_bytes, 150);
        assert_eq!(a.counters["fallbacks"], 5);
        assert_eq!(a.counters["other"], 1);
    }

    #[test]
    fn native_executable_runs_code() {
        let mut asm = Tx64Assembler::new();
        asm.alu_rr(
            qc_target::AluOp::Add,
            qc_target::Width::W64,
            false,
            qc_target::Reg(0),
            qc_target::Reg(1),
        );
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut ib = ImageBuilder::new(Isa::Tx64);
        ib.add_function("f", code, relocs);
        let image = ib.link(&|_| None).unwrap();
        let mut exe = NativeExecutable::new(image);
        let mut state = RuntimeState::new();
        let r = exe.call(&mut state, "f", &[2, 40]).unwrap();
        assert_eq!(r[0], 42);
        assert!(exe.exec_stats().insts > 0);
    }

    #[test]
    fn native_artifact_serialize_roundtrip() {
        let mut asm = Tx64Assembler::new();
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut ib = ImageBuilder::new(Isa::Tx64);
        ib.add_function("f", code, relocs);
        let mut stats = CompileStats {
            functions: 1,
            code_bytes: 0,
            ..Default::default()
        };
        stats.bump("isel_fallbacks", 3);
        let artifact = NativeArtifact::new(ib, stats);
        let bytes = artifact.serialize().expect("native artifacts serialize");
        let back = NativeArtifact::deserialize(&bytes).expect("roundtrip");
        assert_eq!(artifact.content_bytes(), back.content_bytes());
        assert_eq!(back.compile_stats().functions, 1);
        assert_eq!(back.compile_stats().counters["isel_fallbacks"], 3);
        // The restored artifact must still link and run.
        let mut exe = back.instantiate().expect("instantiate");
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", &[]).expect("call");
        // Corruption must be detected, not misparsed.
        for cut in [0, 7, bytes.len() - 1] {
            assert!(NativeArtifact::deserialize(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn backend_error_display() {
        let e = BackendError::new("irreducible control flow");
        assert!(e.to_string().contains("irreducible"));
    }

    // Referenced so the module type stays exercised even before back-ends
    // land; a trivial function must verify.
    #[test]
    fn ir_module_construction_sanity() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![], Type::Void));
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        let mut m = Module::new("m");
        m.push_function(b.finish());
        qc_ir::verify_module(&m).unwrap();
    }
}
