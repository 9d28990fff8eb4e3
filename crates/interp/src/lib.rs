//! Bytecode interpreter back-end.
//!
//! The paper's baseline (Table III "Interpreter"): Umbra IR is transformed
//! into register-based bytecode — a cheap, single-pass translation — and
//! executed with a dispatch loop. Compilation is an order of magnitude
//! faster than even DirectEmit, execution several times slower than
//! compiled code; the cycle model charges a fixed dispatch surcharge per
//! executed bytecode operation to preserve that relationship.

mod bytecode;
mod compile;
mod exec;

pub use bytecode::{BcFunc, BcOp, Program, BYTECODE_BASE};
pub use compile::compile_module;

use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, Executable};
use qc_ir::Module;
use qc_runtime::RuntimeState;
use qc_target::{ExecStats, Isa, Trap};
use qc_timing::TimeTrace;
use std::cell::RefCell;
use std::sync::Arc;

/// The interpreter back-end.
#[derive(Debug, Default)]
pub struct InterpBackend;

impl InterpBackend {
    /// Creates the back-end.
    pub fn new() -> Self {
        InterpBackend
    }
}

impl Backend for InterpBackend {
    fn name(&self) -> &'static str {
        "Interpreter"
    }

    fn isa(&self) -> Isa {
        // Bytecode is target-independent; report TX64 for uniformity.
        Isa::Tx64
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        let _t = trace.scope("bytecodegen");
        // Errors name the tier so a failure on the breaker's fallback
        // chain is attributable (idem for the other back-ends).
        let program = compile_module(module).map_err(|e| e.in_backend(self.name()))?;
        let mut stats = CompileStats {
            functions: module.len(),
            ..Default::default()
        };
        stats.bump("bytecode_ops", program.op_count() as u64);
        Ok(Some(Box::new(InterpArtifact {
            program: Arc::new(program),
            stats,
        })))
    }
}

/// [`CodeArtifact`] for the interpreter: bytecode is position
/// independent, so instantiation just shares the translated
/// [`Program`] and resets execution statistics.
pub struct InterpArtifact {
    program: Arc<Program>,
    stats: CompileStats,
}

impl CodeArtifact for InterpArtifact {
    fn instantiate(&self) -> Result<Box<dyn Executable>, BackendError> {
        Ok(Box::new(InterpExecutable {
            program: Arc::clone(&self.program),
            exec: RefCell::new(ExecStats::default()),
            spare: exec::Spare::new(),
        }))
    }

    fn compile_stats(&self) -> &CompileStats {
        &self.stats
    }

    fn size_bytes(&self) -> usize {
        self.program.op_count() * 8
    }

    fn content_bytes(&self) -> Vec<u8> {
        self.program.content_bytes()
    }
}

/// Executable bytecode of one module.
pub struct InterpExecutable {
    program: Arc<Program>,
    exec: RefCell<ExecStats>,
    /// Register files and frames kept across calls and re-entries.
    spare: exec::Spare,
}

impl std::fmt::Debug for InterpExecutable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InterpExecutable({} ops)", self.program.op_count())
    }
}

impl Executable for InterpExecutable {
    fn call(
        &mut self,
        state: &mut RuntimeState,
        name: &str,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let fidx = self.program.func_index(name).ok_or(Trap::BadJump(0))?;
        let mut stats = self.exec.borrow_mut();
        exec::run(
            &self.program,
            state,
            fidx,
            args,
            &mut stats,
            &mut self.spare,
        )
    }

    fn exec_stats(&self) -> ExecStats {
        *self.exec.borrow()
    }

    fn code_bytes(&self) -> usize {
        self.program.op_count() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{CmpOp, FunctionBuilder, Opcode, Signature, Type};

    fn run_one(
        build: impl FnOnce(&mut FunctionBuilder),
        sig: Signature,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let mut b = FunctionBuilder::new("f", sig);
        build(&mut b);
        let f = b.finish();
        qc_ir::verify_function(&f).unwrap();
        let mut m = Module::new("m");
        m.push_function(f);
        let backend = InterpBackend::new();
        let mut exe = backend.compile(&m, &TimeTrace::disabled()).unwrap();
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", args)
    }

    #[test]
    fn arithmetic_and_branches() {
        // return a > b ? a - b : b - a
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let entry = b.entry_block();
                let t = b.create_block();
                let e = b.create_block();
                b.switch_to(entry);
                let (x, y) = (b.param(0), b.param(1));
                let c = b.icmp(CmpOp::SGt, Type::I64, x, y);
                b.branch(c, t, e);
                b.switch_to(t);
                let d = b.sub(Type::I64, x, y);
                b.ret(Some(d));
                b.switch_to(e);
                let d = b.sub(Type::I64, y, x);
                b.ret(Some(d));
            },
            sig,
            &[10, 4],
        )
        .unwrap();
        assert_eq!(r[0], 6);
    }

    #[test]
    fn loop_with_phis() {
        // sum 0..n
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let entry = b.entry_block();
                let header = b.create_block();
                let body = b.create_block();
                let exit = b.create_block();
                b.switch_to(entry);
                let zero = b.iconst(Type::I64, 0);
                b.jump(header);
                b.switch_to(header);
                let i = b.phi(Type::I64, vec![(entry, zero)]);
                let s = b.phi(Type::I64, vec![(entry, zero)]);
                let n = b.param(0);
                let c = b.icmp(CmpOp::SLt, Type::I64, i, n);
                b.branch(c, body, exit);
                b.switch_to(body);
                let s2 = b.add(Type::I64, s, i);
                let one = b.iconst(Type::I64, 1);
                let i2 = b.add(Type::I64, i, one);
                b.phi_add_incoming(i, body, i2);
                b.phi_add_incoming(s, body, s2);
                b.jump(header);
                b.switch_to(exit);
                b.ret(Some(s));
            },
            sig,
            &[100],
        )
        .unwrap();
        assert_eq!(r[0], 4950);
    }

    #[test]
    fn i128_arithmetic_and_overflow() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I128);
        let build = |b: &mut FunctionBuilder| {
            let entry = b.entry_block();
            b.switch_to(entry);
            let (x, y) = (b.param(0), b.param(1));
            let wx = b.sext(Type::I128, x);
            let wy = b.sext(Type::I128, y);
            let p = b.binary(Opcode::SMulTrap, Type::I128, wx, wy);
            let p2 = b.binary(Opcode::SMulTrap, Type::I128, p, p);
            b.ret(Some(p2));
        };
        let r = run_one(build, sig.clone(), &[1 << 20, 1 << 20]).unwrap();
        // (2^40)^2 = 2^80: lo = 0, hi = 2^(80-64) = 65536.
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 1 << 16);
    }

    #[test]
    fn overflow_traps() {
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let entry = b.entry_block();
                b.switch_to(entry);
                let x = b.param(0);
                let y = b.binary(Opcode::SAddTrap, Type::I64, x, x);
                b.ret(Some(y));
            },
            sig,
            &[i64::MAX as u64],
        );
        assert_eq!(r.unwrap_err(), Trap::Overflow);
    }

    #[test]
    fn narrow_width_semantics() {
        // i32 wrapping add, then compare signed.
        let sig = Signature::new(vec![Type::I32, Type::I32], Type::Bool);
        let r = run_one(
            |b| {
                let entry = b.entry_block();
                b.switch_to(entry);
                let (x, y) = (b.param(0), b.param(1));
                let s = b.add(Type::I32, x, y); // wraps at 32 bits
                let zero = b.iconst(Type::I32, 0);
                let c = b.icmp(CmpOp::SLt, Type::I32, s, zero);
                b.ret(Some(c));
            },
            sig,
            &[i32::MAX as u64, 1],
        )
        .unwrap();
        assert_eq!(r[0], 1, "i32::MAX + 1 wraps negative");
    }

    #[test]
    fn runtime_calls_and_stack_slots() {
        let sig = Signature::new(vec![], Type::I64);
        let r = run_one(
            |b| {
                let slot = b.stack_slot(16);
                let ext = b.declare_ext_func(qc_ir::ExtFuncDecl {
                    name: "rt_alloc".into(),
                    sig: Signature::new(vec![Type::I64], Type::Ptr),
                });
                let entry = b.entry_block();
                b.switch_to(entry);
                let sz = b.iconst(Type::I64, 64);
                let p = b.call(ext, vec![sz]).unwrap();
                let v = b.iconst(Type::I64, 99);
                b.store(Type::I64, p, v, 8);
                let back = b.load(Type::I64, p, 8);
                // also exercise the stack slot
                let sa = b.stack_addr(slot);
                b.store(Type::I64, sa, back, 0);
                let fin = b.load(Type::I64, sa, 0);
                b.ret(Some(fin));
            },
            sig,
            &[],
        )
        .unwrap();
        assert_eq!(r[0], 99);
    }

    #[test]
    fn strings_pass_by_value() {
        let sig = Signature::new(vec![Type::String, Type::String], Type::Bool);
        let mut state = RuntimeState::new();
        let a = state.intern_string("hello world, long string");
        let b2 = state.intern_string("hello world, long string");
        let mut bld = FunctionBuilder::new("f", sig);
        let ext = bld.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_str_eq".into(),
            sig: Signature::new(vec![Type::String, Type::String], Type::Bool),
        });
        let entry = bld.entry_block();
        bld.switch_to(entry);
        let (x, y) = (bld.param(0), bld.param(1));
        let r = bld.call(ext, vec![x, y]).unwrap();
        bld.ret(Some(r));
        let mut m = Module::new("m");
        m.push_function(bld.finish());
        let mut exe = InterpBackend::new()
            .compile(&m, &TimeTrace::disabled())
            .unwrap();
        let r = exe
            .call(&mut state, "f", &[a.lo, a.hi, b2.lo, b2.hi])
            .unwrap();
        assert_eq!(r[0], 1);
        assert!(exe.exec_stats().cycles > 0);
    }

    #[test]
    fn crc32_matches_target_model() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let entry = b.entry_block();
                b.switch_to(entry);
                let (x, y) = (b.param(0), b.param(1));
                let c = b.crc32(x, y);
                b.ret(Some(c));
            },
            sig,
            &[7, 1234567],
        )
        .unwrap();
        assert_eq!(r[0], qc_target::crc32c_u64(7, 1234567));
    }
}
