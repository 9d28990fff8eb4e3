//! Clift: the Cranelift-analog fast compiler back-end (paper Sec. VI).
//!
//! Compilation pipeline, matching Fig. 4's phase structure:
//!
//! 1. **IRGen** — Umbra-IR → CIR, two passes, hash-map value mapping,
//!    `getelementptr` lowered to integer arithmetic, strings to `i64`
//!    pairs, runtime addresses hard-wired into the IR.
//! 2. **IRPasses** — CFG/dominator analysis over CIR.
//! 3. **ISelPrepare** — three passes: vreg/regclass assignment, side-effect
//!    partitioning, use counts.
//! 4. **ISel** — tree-matching selection into linear VCode.
//! 5. **RegAlloc** — block liveness and live intervals (the shared
//!    `qc_backend::intervals` builder), then linear scan over live-range
//!    bundles with per-register B-trees (the largest phase, as in the
//!    paper).
//! 6. **Emit** — clobber and veneer-estimation pre-passes, then encoding.
//! 7. **Finish** — relocations applied after all functions are compiled.
//!
//! Functions are compiled one at a time (Cranelift can only compile one
//! function at a time). The optional extension instructions of Table II
//! (`crc32`, overflow arithmetic, combined full multiplication) are
//! controlled by [`CliftExtensions`]; without them the translator emits
//! helper calls into the runtime.

mod cir;
mod emit;
mod lower;
mod regalloc;

/// Compiles one IR function to machine code parts (bytes, relocations,
/// frame size). Used by the C back-end, whose middle end shares this
/// code-generation infrastructure before the assembler round trip.
pub fn compile_function_parts(
    func: &qc_ir::Function,
    func_names: &[String],
    isa: Isa,
) -> Result<(Vec<u8>, Vec<qc_target::Reloc>, u32), BackendError> {
    let flags = ExtFlags {
        crc32: true,
        overflow_arith: true,
        mulfull: true,
    };
    let cir = cir::translate(func, flags)?;
    let vcode = lower::lower(&cir, true)?;
    let alloc = regalloc::allocate(&vcode, isa);
    let mut stats = CompileStats::default();
    emit::emit(&vcode, &alloc, isa, func_names, &mut stats)
}

pub use cir::ExtFlags;
pub use regalloc::allocate;

use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, NativeArtifact};
use qc_ir::{Block, Cfg, DomTree, Module, ReversePostorder};
use qc_target::{ImageBuilder, Isa, UnwindEntry};
use qc_timing::TimeTrace;

/// Optional CIR extension instructions (Table II ablation).
#[derive(Debug, Clone, Copy)]
pub struct CliftExtensions {
    /// Native `crc32` instruction instead of a helper call.
    pub crc32: bool,
    /// Native overflow-checked arithmetic instead of helper calls.
    pub overflow_arith: bool,
    /// Combined full-multiplication instruction.
    pub mulfull: bool,
}

impl Default for CliftExtensions {
    fn default() -> Self {
        CliftExtensions {
            crc32: true,
            overflow_arith: true,
            mulfull: true,
        }
    }
}

/// The Cranelift-analog back-end.
#[derive(Debug)]
pub struct CliftBackend {
    isa: Isa,
    ext: CliftExtensions,
}

impl CliftBackend {
    /// Creates the back-end with all extension instructions enabled.
    pub fn new(isa: Isa) -> Self {
        Self::with_extensions(isa, CliftExtensions::default())
    }

    /// Creates the back-end with explicit extension instructions.
    pub fn with_extensions(isa: Isa, ext: CliftExtensions) -> Self {
        CliftBackend { isa, ext }
    }
}

impl Backend for CliftBackend {
    fn name(&self) -> &'static str {
        "Clift"
    }

    fn isa(&self) -> Isa {
        self.isa
    }

    fn config_fingerprint(&self) -> u64 {
        u64::from(self.ext.crc32)
            | u64::from(self.ext.overflow_arith) << 1
            | u64::from(self.ext.mulfull) << 2
    }

    fn compile_artifact(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<Option<Box<dyn CodeArtifact>>, BackendError> {
        let (image, stats) = self
            .build_parts(module, trace)
            .map_err(|e| e.in_backend(self.name()))?;
        Ok(Some(Box::new(NativeArtifact::new(image, stats))))
    }

    /// 7. Finish: relocations applied after all functions are compiled.
    fn link_phase(&self) -> &'static str {
        "finish"
    }
}

impl CliftBackend {
    /// Phases 1–6 of the pipeline (everything but the final link),
    /// producing the unlinked image; phase 7 is the artifact's
    /// instantiation.
    fn build_parts(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<(ImageBuilder, CompileStats), BackendError> {
        let mut image = ImageBuilder::new(self.isa);
        let mut stats = CompileStats::default();
        let func_names: Vec<String> = module.functions().iter().map(|f| f.name.clone()).collect();
        let flags = ExtFlags {
            crc32: self.ext.crc32,
            overflow_arith: self.ext.overflow_arith,
            mulfull: self.ext.mulfull,
        };
        for func in module.functions() {
            // 1. IRGen.
            let cir = {
                let _t = trace.scope("irgen");
                cir::translate(func, flags)?
            };
            // 2. IR analyses (CFG, RPO and dominator tree over CIR).
            {
                let _t = trace.scope("irpasses");
                let n = cir.num_blocks();
                let cfg = Cfg::from_succs(
                    (0..n)
                        .map(|b| {
                            cir.succs(b as u32)
                                .into_iter()
                                .map(|s| Block::new(s as usize))
                                .collect()
                        })
                        .collect(),
                );
                DomTree::compute(&cfg, &ReversePostorder::compute(&cfg));
                stats.bump("cir_blocks", n as u64);
            }
            // 3 + 4. ISel preparation and tree-matching selection.
            let vcode = {
                let _t = trace.scope("iselprep_isel");
                lower::lower(&cir, flags.mulfull)?
            };
            stats.bump("brif_fusions", vcode.fusions.0);
            stats.bump("const_folds", vcode.fusions.1);
            // 5. Register allocation.
            let alloc = {
                let _t = trace.scope("regalloc");
                regalloc::allocate(&vcode, self.isa)
            };
            stats.bump("spilled_bundles", alloc.spills);
            // 6. Emission.
            let (code, relocs, frame) = {
                let _t = trace.scope("emit");
                emit::emit(&vcode, &alloc, self.isa, &func_names, &mut stats)?
            };
            let len = code.len();
            let off = image.add_function(&func.name, code, relocs);
            // Unwind info is generated manually (paper Sec. VI-B: the JIT
            // wrapper does not produce it).
            image.add_unwind(
                off,
                UnwindEntry {
                    start: 0,
                    end: len,
                    frame_size: frame,
                    synchronous_only: false,
                },
            );
        }
        stats.functions = module.len();
        Ok((image, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{CmpOp, FunctionBuilder, Opcode, Signature, Type};
    use qc_runtime::RuntimeState;
    use qc_target::Trap;

    fn run_on(
        isa: Isa,
        ext: CliftExtensions,
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
        let backend = CliftBackend::with_extensions(isa, ext);
        let mut exe = match backend.compile(&m, &TimeTrace::disabled()) {
            Ok(e) => e,
            Err(e) => panic!("{e}"),
        };
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", args)
    }

    fn run_both(
        build: impl Fn(&mut FunctionBuilder) + Copy,
        sig: Signature,
        args: &[u64],
    ) -> [u64; 2] {
        let mut out = None;
        for isa in [Isa::Tx64, Isa::Ta64] {
            let r = run_on(isa, CliftExtensions::default(), build, sig.clone(), args)
                .unwrap_or_else(|t| panic!("{isa}: {t}"));
            if let Some(prev) = out {
                assert_eq!(prev, r, "ISA mismatch");
            }
            out = Some(r);
        }
        out.unwrap()
    }

    #[test]
    fn arithmetic_on_both_isas() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_both(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let s = b.add(Type::I64, x, y);
                let c = b.iconst(Type::I64, 7);
                let m = b.mul(Type::I64, s, c);
                b.ret(Some(m));
            },
            sig,
            &[5, 6],
        );
        assert_eq!(r[0], 77);
    }

    #[test]
    fn loops_with_phis_on_both_isas() {
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let r = run_both(
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
        );
        assert_eq!(r[0], 4950);
    }

    #[test]
    fn crc32_with_and_without_extension() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let (x, y) = (b.param(0), b.param(1));
            let c = b.crc32(x, y);
            b.ret(Some(c));
        };
        let expected = qc_target::crc32c_u64(3, 12345);
        for crc32 in [true, false] {
            let ext = CliftExtensions {
                crc32,
                ..Default::default()
            };
            let r = run_on(Isa::Tx64, ext, build, sig.clone(), &[3, 12345]).unwrap();
            assert_eq!(r[0], expected, "crc32 ext={crc32}");
        }
    }

    #[test]
    fn overflow_arith_with_and_without_extension() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let (x, y) = (b.param(0), b.param(1));
            let s = b.binary(Opcode::SAddTrap, Type::I64, x, y);
            b.ret(Some(s));
        };
        for ovf in [true, false] {
            let ext = CliftExtensions {
                overflow_arith: ovf,
                ..Default::default()
            };
            let ok = run_on(Isa::Tx64, ext, build, sig.clone(), &[40, 2]).unwrap();
            assert_eq!(ok[0], 42);
            let trap = run_on(Isa::Tx64, ext, build, sig.clone(), &[i64::MAX as u64, 1]);
            assert_eq!(trap.unwrap_err(), Trap::Overflow, "ext={ovf}");
        }
    }

    #[test]
    fn lmulfold_with_and_without_mulfull() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let (x, y) = (b.param(0), b.param(1));
            let m = b.long_mul_fold(x, y);
            b.ret(Some(m));
        };
        let expected = qc_runtime::long_mul_fold(0xDEADBEEF, 0x12345678);
        for mf in [true, false] {
            let ext = CliftExtensions {
                mulfull: mf,
                ..Default::default()
            };
            let r = run_on(
                Isa::Tx64,
                ext,
                build,
                sig.clone(),
                &[0xDEADBEEF, 0x12345678],
            )
            .unwrap();
            assert_eq!(r[0], expected, "mulfull={mf}");
        }
    }

    #[test]
    fn i128_arithmetic_and_calls() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I128);
        let r = run_both(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let wx = b.sext(Type::I128, x);
                let wy = b.sext(Type::I128, y);
                let s = b.binary(Opcode::SAddTrap, Type::I128, wx, wy);
                let p = b.binary(Opcode::SMulTrap, Type::I128, s, wy);
                b.ret(Some(p));
            },
            sig,
            &[100, 200],
        );
        assert_eq!(r[0], 60_000);
        assert_eq!(r[1], 0);
    }

    #[test]
    fn string_params_and_runtime_calls() {
        let mut state = RuntimeState::new();
        let a = state.intern_string("clift string beyond inline");
        let b2 = state.intern_string("clift string beyond inline");
        let sig = Signature::new(vec![Type::String, Type::String], Type::Bool);
        let mut bld = FunctionBuilder::new("f", sig);
        let ext = bld.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_str_eq".into(),
            sig: Signature::new(vec![Type::String, Type::String], Type::Bool),
        });
        let e = bld.entry_block();
        bld.switch_to(e);
        let (x, y) = (bld.param(0), bld.param(1));
        let r = bld.call(ext, vec![x, y]).unwrap();
        bld.ret(Some(r));
        let mut m = Module::new("m");
        m.push_function(bld.finish());
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut exe = CliftBackend::new(isa)
                .compile(&m, &TimeTrace::disabled())
                .unwrap();
            let r = exe
                .call(&mut state, "f", &[a.lo, a.hi, b2.lo, b2.hi])
                .unwrap();
            assert_eq!(r[0], 1, "{isa}");
        }
    }

    #[test]
    fn register_pressure_spills() {
        // More live values than registers forces bundle spilling.
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let r = run_both(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let x = b.param(0);
                let mut vals = vec![x];
                for i in 0..40 {
                    let c = b.iconst(Type::I64, i + 1);
                    let last = vals[vals.len() - 1];
                    let v = b.add(Type::I64, last, c);
                    vals.push(v);
                }
                let mut acc = vals[0];
                for &v in &vals[1..] {
                    acc = b.add(Type::I64, acc, v);
                }
                b.ret(Some(acc));
            },
            sig,
            &[0],
        );
        let expected: i64 = (0..=40).map(|i| (1..=i).sum::<i64>()).sum();
        assert_eq!(r[0] as i64, expected);
    }

    #[test]
    fn phase_trace_covers_pipeline() {
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let mut b = FunctionBuilder::new("f", sig);
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let y = b.add(Type::I64, x, x);
        b.ret(Some(y));
        let mut m = Module::new("m");
        m.push_function(b.finish());
        let trace = TimeTrace::new();
        let _ = CliftBackend::new(Isa::Tx64).compile(&m, &trace).unwrap();
        let report = trace.report();
        for phase in [
            "irgen",
            "irpasses",
            "iselprep_isel",
            "regalloc",
            "emit",
            "finish",
        ] {
            assert!(report.total(phase).is_some(), "missing phase {phase}");
        }
    }
}
