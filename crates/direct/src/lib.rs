//! DirectEmit: the single-pass machine-code back-end (paper Sec. VII).
//!
//! Two passes total, exactly as the paper describes:
//!
//! 1. an **analysis pass** computing the dominator tree, natural loops, and
//!    block-granularity liveness (liveness dominates its cost — Fig. 5),
//! 2. a **code generation pass** that walks blocks in reverse post-order
//!    and emits TX64 machine code instruction by instruction, allocating
//!    registers greedily on the fly.
//!
//! Every SSA value has a reserved stack home; values that are live across
//! blocks (or across calls) are stored through to their home when defined,
//! while block-local values stay in registers. Φ-nodes are resolved on
//! edges through a small temporary area. DWARF-CFI-style unwind entries
//! are produced in parallel with the code and cover only call sites
//! ("synchronous unwinding", Sec. VII-A2). The encoder favors fixed-width
//! imm32/disp32 encodings — fewer branches in the encoder at the cost of
//! slightly larger code (Sec. VII-A2).
//!
//! Like Umbra's DirectEmit, the back-end supports only one target (TX64)
//! and rejects irreducible control flow.

pub mod codegen;

use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, NativeArtifact};
use qc_ir::{Cfg, DomTree, Liveness, Loops, Module, ReversePostorder};
use qc_target::{ImageBuilder, Isa};
use qc_timing::TimeTrace;

/// The DirectEmit back-end.
#[derive(Debug, Default)]
pub struct DirectBackend;

impl DirectBackend {
    /// Creates the back-end.
    pub fn new() -> Self {
        DirectBackend
    }
}

impl Backend for DirectBackend {
    fn name(&self) -> &'static str {
        "DirectEmit"
    }

    fn isa(&self) -> Isa {
        Isa::Tx64
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        let (image, stats) = build_parts(module, trace).map_err(|e| e.in_backend(self.name()))?;
        Ok(Some(Box::new(NativeArtifact::new(image, stats))))
    }
}

/// Runs both DirectEmit passes over every function, producing the
/// unlinked image; linking is the artifact's instantiation.
fn build_parts(
    module: &Module,
    trace: &TimeTrace,
) -> Result<(ImageBuilder, CompileStats), BackendError> {
    let mut image = ImageBuilder::new(Isa::Tx64);
    let mut stats = CompileStats::default();
    for func in module.functions() {
        // --- Analysis pass ---
        let analysis = {
            let _t = trace.scope("analysis");
            let cfg = {
                let _t = trace.scope("cfg");
                Cfg::compute(func)
            };
            let rpo = {
                let _t = trace.scope("cfg");
                ReversePostorder::compute(&cfg)
            };
            let (dt, loops) = {
                let _t = trace.scope("domtree_loops");
                let dt = DomTree::compute(&cfg, &rpo);
                let loops = Loops::compute(&cfg, &rpo, &dt);
                (dt, loops)
            };
            if loops.is_irreducible() {
                return Err(BackendError::new(format!(
                    "DirectEmit cannot compile irreducible control flow in @{}",
                    func.name
                )));
            }
            let live = {
                let _t = trace.scope("liveness");
                Liveness::compute(func, &cfg)
            };
            let _ = dt;
            codegen::Analysis { rpo, live }
        };

        // --- Code generation pass ---
        {
            let _t = trace.scope("codegen");
            codegen::emit_function(func, module, &analysis, &mut image, &mut stats)?;
        }
    }
    stats.functions = module.len();
    Ok((image, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{CmpOp, FunctionBuilder, Opcode, Signature, Type};
    use qc_runtime::RuntimeState;
    use qc_target::Trap;

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
        let mut exe = DirectBackend::new()
            .compile(&m, &TimeTrace::disabled())
            .unwrap();
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", args)
    }

    #[test]
    fn straight_line_arithmetic() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let s = b.add(Type::I64, x, y);
                let d = b.mul(Type::I64, s, s);
                let c = b.iconst(Type::I64, 10);
                let q = b.binary(Opcode::SDiv, Type::I64, d, c);
                b.ret(Some(q));
            },
            sig,
            &[30, 12],
        )
        .unwrap();
        assert_eq!(r[0], (42i64 * 42 / 10) as u64);
    }

    #[test]
    fn loop_with_phis_runs() {
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
            &[1000],
        )
        .unwrap();
        assert_eq!(r[0], 499_500);
    }

    #[test]
    fn phi_swap_is_parallel() {
        // Swap two values through phis repeatedly: (a, b) -> (b, a).
        let sig = Signature::new(vec![Type::I64, Type::I64, Type::I64], Type::I64);
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
                let x = b.phi(Type::I64, vec![(entry, b.param(0))]);
                let y = b.phi(Type::I64, vec![(entry, b.param(1))]);
                let n = b.param(2);
                let c = b.icmp(CmpOp::SLt, Type::I64, i, n);
                b.branch(c, body, exit);
                b.switch_to(body);
                let one = b.iconst(Type::I64, 1);
                let i2 = b.add(Type::I64, i, one);
                b.phi_add_incoming(i, body, i2);
                b.phi_add_incoming(x, body, y); // swap!
                b.phi_add_incoming(y, body, x);
                b.jump(header);
                b.switch_to(exit);
                b.ret(Some(x));
            },
            sig,
            &[111, 222, 3],
        )
        .unwrap();
        assert_eq!(r[0], 222, "three swaps leave y in x");
    }

    #[test]
    fn i128_add_and_overflow_trap() {
        let sig = Signature::new(vec![Type::I64], Type::I128);
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let x = b.param(0);
            let w = b.sext(Type::I128, x);
            let s = b.binary(Opcode::SAddTrap, Type::I128, w, w);
            b.ret(Some(s));
        };
        let r = run_one(build, sig.clone(), &[u64::MAX >> 1]).unwrap();
        assert_eq!(r[0], (u64::MAX >> 1) * 2);
        assert_eq!(r[1], 0);
        // i128::MAX via doubling would trap — emulate with i64 max sext.
        let sig2 = Signature::new(vec![Type::I128], Type::I128);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let x = b.param(0);
                let s = b.binary(Opcode::SAddTrap, Type::I128, x, x);
                b.ret(Some(s));
            },
            sig2,
            &[u64::MAX, i64::MAX as u64],
        );
        assert_eq!(r.unwrap_err(), Trap::Overflow);
    }

    #[test]
    fn i128_mul_via_runtime_helper() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I128);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let wx = b.sext(Type::I128, x);
                let wy = b.sext(Type::I128, y);
                let p = b.binary(Opcode::SMulTrap, Type::I128, wx, wy);
                b.ret(Some(p));
            },
            sig,
            &[1 << 40, 1 << 40],
        )
        .unwrap();
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 1 << 16);
    }

    #[test]
    fn crc32_and_lmulfold_match_model() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let c = b.crc32(x, y);
                let m = b.long_mul_fold(c, y);
                b.ret(Some(m));
            },
            sig,
            &[5, 999],
        )
        .unwrap();
        let c = qc_target::crc32c_u64(5, 999);
        assert_eq!(r[0], qc_runtime::long_mul_fold(c, 999));
    }

    #[test]
    fn narrow_widths_and_sext() {
        let sig = Signature::new(vec![Type::I32, Type::I32], Type::I64);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let s = b.add(Type::I32, x, y); // wraps at 32 bits
                let w = b.sext(Type::I64, s);
                b.ret(Some(w));
            },
            sig,
            &[i32::MAX as u64, 1],
        )
        .unwrap();
        assert_eq!(r[0] as i64, i32::MIN as i64);
    }

    #[test]
    fn select_and_bool_handling() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let c = b.icmp(CmpOp::ULt, Type::I64, x, y);
                let m = b.select(Type::I64, c, x, y); // min
                b.ret(Some(m));
            },
            sig,
            &[77, 33],
        )
        .unwrap();
        assert_eq!(r[0], 33);
    }

    #[test]
    fn runtime_calls_and_unwind_registered() {
        let sig = Signature::new(vec![], Type::I64);
        let r = run_one(
            |b| {
                let ext = b.declare_ext_func(qc_ir::ExtFuncDecl {
                    name: "rt_alloc".into(),
                    sig: Signature::new(vec![Type::I64], Type::Ptr),
                });
                let e = b.entry_block();
                b.switch_to(e);
                let sz = b.iconst(Type::I64, 32);
                let p = b.call(ext, vec![sz]).unwrap();
                let v = b.iconst(Type::I64, 4242);
                b.store(Type::I64, p, v, 16);
                let back = b.load(Type::I64, p, 16);
                b.ret(Some(back));
            },
            sig,
            &[],
        )
        .unwrap();
        assert_eq!(r[0], 4242);
    }

    #[test]
    fn rejects_irreducible_cfg() {
        let mut bd = FunctionBuilder::new("irr", Signature::new(vec![Type::Bool], Type::Void));
        let entry = bd.entry_block();
        let a = bd.create_block();
        let b = bd.create_block();
        let exit = bd.create_block();
        bd.switch_to(entry);
        let c = bd.param(0);
        bd.branch(c, a, b);
        bd.switch_to(a);
        bd.branch(c, b, exit);
        bd.switch_to(b);
        bd.branch(c, a, exit);
        bd.switch_to(exit);
        bd.ret(None);
        let mut m = Module::new("m");
        m.push_function(bd.finish());
        let err = match DirectBackend::new().compile(&m, &TimeTrace::disabled()) {
            Err(e) => e,
            Ok(_) => panic!("expected irreducible rejection"),
        };
        assert!(err.message.contains("irreducible"), "{err}");
    }

    #[test]
    fn deep_expression_pressure_spills_correctly() {
        // Chain long enough to exceed the register pool.
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let r = run_one(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let x = b.param(0);
                let mut vals = vec![x];
                for i in 0..30 {
                    let c = b.iconst(Type::I64, i + 1);
                    let v = b.add(Type::I64, vals[vals.len() - 1], c);
                    vals.push(v);
                }
                // Sum all intermediates to keep them live.
                let mut acc = vals[0];
                for &v in &vals[1..] {
                    acc = b.add(Type::I64, acc, v);
                }
                b.ret(Some(acc));
            },
            sig,
            &[0],
        )
        .unwrap();
        // vals[i] = sum(1..=i); total = sum over i of that.
        let expected: i64 = (0..=30).map(|i| (1..=i).sum::<i64>()).sum();
        assert_eq!(r[0] as i64, expected);
    }
}
