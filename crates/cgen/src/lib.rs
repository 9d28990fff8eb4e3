//! The GCC/C back-end (paper Sec. IV).
//!
//! The slowest but structurally distinctive pipeline: the engine
//! **generates C source text**, writes it to a temporary file, and invokes
//! the bundled `minicc` toolchain, which must lex and parse that text back
//! (the paper measures GCC's parsing alone at ~13% of compile time),
//! "gimplify" it into the middle-end IR, run the -O3 scalar optimizations,
//! generate code, emit **textual assembly**, run the assembler (`minias`,
//! which parses the text and encodes machine code), and finally the linker
//! (`minild`, building the loadable image — the `dlopen`/`dlsym` step).
//!
//! Phase scopes (Table I): `cgen` (C generation), `io`, `cc1_parse`,
//! `cc1_gimplify`, `cc1_optimize`, `cc1_codegen`, `as`, `ld`.

mod asmtext;
mod cprint;
mod minicc;

pub use cprint::print_c;

use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, NativeArtifact};
use qc_ir::Module;
use qc_target::{ImageBuilder, Isa, UnwindEntry};
use qc_timing::TimeTrace;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The GCC/C-analog back-end.
#[derive(Debug)]
pub struct CgenBackend {
    isa: Isa,
}

impl CgenBackend {
    /// Creates the back-end.
    pub fn new(isa: Isa) -> Self {
        CgenBackend { isa }
    }
}

impl Backend for CgenBackend {
    fn name(&self) -> &'static str {
        "GCC/C"
    }

    fn isa(&self) -> Isa {
        self.isa
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

    /// The final step of `ld`: relocation + load.
    fn link_phase(&self) -> &'static str {
        "ld"
    }
}

impl CgenBackend {
    /// The whole toolchain pipeline short of the final relocation/load
    /// step: C generation, temp-file IO, cc1, assembler, and the
    /// object-collection half of `ld`; the rest of `ld` is the
    /// artifact's instantiation.
    fn build_parts(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<(ImageBuilder, CompileStats), BackendError> {
        let mut stats = CompileStats::default();

        // --- C code generation (the query engine's side). ---
        let c_src = {
            let _t = trace.scope("cgen");
            cprint::print_c(module)
        };
        stats.bump("c_bytes", c_src.len() as u64);

        // --- Temp-file round trip (external compiler invocation): the
        // `io` phase Table I models for handing the source to cc1. ---
        let c_src = {
            let _t = trace.scope("io");
            let path = std::env::temp_dir().join(format!(
                "qc_cgen_{}_{}.c",
                std::process::id(),
                TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let write_read = || -> std::io::Result<String> {
                let mut f = std::fs::File::create(&path)?;
                f.write_all(c_src.as_bytes())?;
                drop(f);
                let back = std::fs::read_to_string(&path)?;
                std::fs::remove_file(&path).ok();
                Ok(back)
            };
            write_read().map_err(|e| BackendError::new(format!("temp file: {e}")))?
        };

        // --- cc1: lex + parse + gimplify. ---
        let gimple = minicc::compile_c(&c_src, trace)?;

        // --- cc1: -O3 scalar optimizations (shared optimizer). ---
        let optimized = {
            let _t = trace.scope("cc1_optimize");
            optimize(&gimple)
        };

        // --- cc1: code generation to textual assembly. ---
        let func_names: Vec<String> = optimized
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut asm_text = String::new();
        let mut frames: Vec<(String, u32)> = Vec::new();
        {
            let _t = trace.scope("cc1_codegen");
            for func in optimized.functions() {
                let (bytes, relocs, frame) =
                    qc_clift::compile_function_parts(func, &func_names, self.isa)?;
                frames.push((func.name.clone(), frame));
                asm_text.push_str(&asmtext::disassemble(
                    &func.name, &bytes, &relocs, self.isa,
                )?);
            }
        }
        stats.bump("asm_bytes", asm_text.len() as u64);

        // --- Assembler. ---
        let objects = {
            let _t = trace.scope("as");
            asmtext::assemble(&asm_text, self.isa)?
        };

        // --- Linker (shared-library build; relocation happens in the
        // caller so artifacts can defer it). ---
        let image = {
            let _t = trace.scope("ld");
            let mut image = ImageBuilder::new(self.isa);
            for (name, bytes, relocs) in objects {
                let len = bytes.len();
                let frame = frames
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, f)| f)
                    .unwrap_or(0);
                let off = image.add_function(&name, bytes, relocs);
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
            image
        };

        stats.functions = module.len();
        Ok((image, stats))
    }
}

/// cc1's `-O3` pipeline over the gimplified module: the scalar passes
/// LVM-opt shares, then the constant rematerialization GCC's register
/// allocator does.
fn optimize(gimple: &Module) -> Module {
    let mut out = Module::new(&gimple.name);
    for func in gimple.functions() {
        let f = qc_ir::opt::pass_phi_prune(func);
        let f = qc_ir::opt::pass_cse(&f);
        let f = qc_ir::opt::pass_instcombine(&f);
        let f = qc_ir::opt::pass_licm(&f);
        let f = qc_ir::opt::pass_dce(&f);
        // -O3 runs a second combine+cleanup round.
        let f = qc_ir::opt::pass_cse(&f);
        let f = qc_ir::opt::pass_dce(&f);
        out.push_function(qc_ir::opt::pass_const_remat(&f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{
        CastOp, CmpOp, Function, FunctionBuilder, InstData, Opcode, Signature, Type, Value,
        ValueDef,
    };
    use qc_runtime::RuntimeState;
    use qc_target::Trap;

    fn module_of(build: impl FnOnce(&mut FunctionBuilder), sig: Signature) -> Module {
        let mut b = FunctionBuilder::new("f", sig);
        build(&mut b);
        let f = b.finish();
        qc_ir::verify_function(&f).unwrap();
        let mut m = Module::new("m");
        m.push_function(f);
        m
    }

    fn run_on(
        isa: Isa,
        build: impl FnOnce(&mut FunctionBuilder),
        sig: Signature,
        args: &[u64],
    ) -> Result<[u64; 2], Trap> {
        let m = module_of(build, sig);
        let backend = CgenBackend::new(isa);
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
        // The high half is only defined for two-register return types.
        let pair = sig.ret.reg_count() == 2;
        let mut out = None;
        for isa in [Isa::Tx64, Isa::Ta64] {
            let mut r =
                run_on(isa, build, sig.clone(), args).unwrap_or_else(|t| panic!("{isa}: {t}"));
            if !pair {
                r[1] = 0;
            }
            if let Some(prev) = out {
                assert_eq!(prev, r, "ISA mismatch");
            }
            out = Some(r);
        }
        out.unwrap()
    }

    #[test]
    fn arithmetic_roundtrips_through_c() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_both(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let s = b.add(Type::I64, x, y);
                let c = b.iconst(Type::I64, 3);
                let m = b.mul(Type::I64, s, c);
                let q = b.binary(Opcode::SDiv, Type::I64, m, y);
                b.ret(Some(q));
            },
            sig,
            &[10, 4],
        );
        assert_eq!(r[0] as i64, (10 + 4) * 3 / 4);
    }

    #[test]
    fn loops_and_phis_roundtrip() {
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
    fn i128_and_traps_roundtrip() {
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
        let sig2 = Signature::new(vec![Type::I64], Type::I64);
        let t = run_on(
            Isa::Tx64,
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let x = b.param(0);
                let s = b.binary(Opcode::SAddTrap, Type::I64, x, x);
                b.ret(Some(s));
            },
            sig2,
            &[i64::MAX as u64],
        );
        assert_eq!(t.unwrap_err(), Trap::Overflow);
    }

    #[test]
    fn strings_and_runtime_calls_roundtrip() {
        let mut state = RuntimeState::new();
        let s1 = state.intern_string("the cgen path, a long string");
        let s2 = state.intern_string("the cgen path, a long string");
        let sig = Signature::new(vec![Type::String, Type::String], Type::I64);
        let mut bld = FunctionBuilder::new("f", sig);
        let ext = bld.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_str_eq".into(),
            sig: Signature::new(vec![Type::String, Type::String], Type::Bool),
        });
        let e = bld.entry_block();
        bld.switch_to(e);
        let (x, y) = (bld.param(0), bld.param(1));
        let r = bld.call(ext, vec![x, y]).unwrap();
        let z = bld.zext(Type::I64, r);
        bld.ret(Some(z));
        let mut m = Module::new("m");
        m.push_function(bld.finish());
        let backend = CgenBackend::new(Isa::Tx64);
        let mut exe = backend.compile(&m, &TimeTrace::disabled()).unwrap();
        let r = exe
            .call(&mut state, "f", &[s1.lo, s1.hi, s2.lo, s2.hi])
            .unwrap();
        assert_eq!(r[0], 1);
    }

    #[test]
    fn crc_and_hash_builtins_roundtrip() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let r = run_both(
            |b| {
                let e = b.entry_block();
                b.switch_to(e);
                let (x, y) = (b.param(0), b.param(1));
                let c = b.crc32(x, y);
                let f = b.long_mul_fold(c, y);
                let rot = b.iconst(Type::I64, 17);
                let rr = b.binary(Opcode::RotR, Type::I64, f, rot);
                b.ret(Some(rr));
            },
            sig,
            &[5, 999],
        );
        let c = qc_target::crc32c_u64(5, 999);
        let f = qc_runtime::long_mul_fold(c, 999);
        assert_eq!(r[0], f.rotate_right(17));
    }

    #[test]
    fn phase_trace_matches_table1_structure() {
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
        let _ = CgenBackend::new(Isa::Tx64).compile(&m, &trace).unwrap();
        let report = trace.report();
        for phase in [
            "cgen",
            "io",
            "cc1_parse",
            "cc1_gimplify",
            "cc1_optimize",
            "cc1_codegen",
            "as",
            "ld",
        ] {
            assert!(report.total(phase).is_some(), "missing phase {phase}");
        }
    }

    #[test]
    fn generated_c_is_printable_and_reparseable() {
        let sig = Signature::new(vec![Type::Ptr, Type::I64, Type::I64], Type::Void);
        let mut b = FunctionBuilder::new("main_fn", sig);
        let e = b.entry_block();
        b.switch_to(e);
        let p = b.param(0);
        let v = b.load(Type::I32, p, 4);
        let w = b.sext(Type::I64, v);
        b.store(Type::I64, p, w, 8);
        b.ret(None);
        let mut m = Module::new("m");
        m.push_function(b.finish());
        let text = print_c(&m);
        assert!(text.contains("goto") || text.contains("return"), "{text}");
        let trace = TimeTrace::disabled();
        let reparsed = super::minicc::compile_c(&text, &trace).unwrap();
        qc_ir::verify_module(&reparsed).unwrap();
    }

    /// Gimplifies hand-written C and returns its one function.
    fn gimplify(c: &str) -> Function {
        let m = super::minicc::compile_c(c, &TimeTrace::disabled()).unwrap();
        qc_ir::verify_module(&m).unwrap();
        m.functions()[0].clone()
    }

    /// `f` after the C round trip: as gimplified, and as cc1 optimized it.
    fn round_trip(
        build: impl FnOnce(&mut FunctionBuilder),
        sig: Signature,
    ) -> (Function, Function) {
        let gimple = gimplify(&print_c(&module_of(build, sig)));
        let mut m = Module::new("m");
        m.push_function(gimple.clone());
        let optimized = optimize(&m).functions()[0].clone();
        qc_ir::verify_function(&optimized).unwrap();
        (gimple, optimized)
    }

    /// Every instruction of `f`, in block order.
    fn insts(f: &Function) -> Vec<&InstData> {
        f.blocks()
            .flat_map(|b| f.block_insts(b).iter().map(|&i| f.inst(i)))
            .collect()
    }

    fn def(f: &Function, v: Value) -> Option<&InstData> {
        match f.value_def(v) {
            ValueDef::Inst(i) => Some(f.inst(i)),
            ValueDef::Param(_) => None,
        }
    }

    fn branch_conds(f: &Function) -> Vec<Value> {
        insts(f)
            .into_iter()
            .filter_map(|d| match d {
                InstData::Branch { cond, .. } => Some(*cond),
                _ => None,
            })
            .collect()
    }

    fn casts(f: &Function, kind: CastOp) -> Vec<Value> {
        insts(f)
            .into_iter()
            .filter_map(|d| match d {
                InstData::Cast { op, arg, .. } if *op == kind => Some(*arg),
                _ => None,
            })
            .collect()
    }

    /// `if (v)` on `v = (i64)(a < b)` branches on the compare itself.
    #[test]
    fn a_branch_tests_the_compare_itself() {
        let build = |b: &mut FunctionBuilder| {
            let (e, yes, no) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(e);
            let (x, y) = (b.param(0), b.param(1));
            let c = b.icmp(CmpOp::SLt, Type::I64, x, y);
            b.branch(c, yes, no);
            b.switch_to(yes);
            let one = b.iconst(Type::I64, 1);
            b.ret(Some(one));
            b.switch_to(no);
            let two = b.iconst(Type::I64, 2);
            b.ret(Some(two));
        };
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let (gimple, optimized) = round_trip(build, sig.clone());
        let [cond] = branch_conds(&gimple)[..] else {
            panic!("one branch expected")
        };
        assert!(
            matches!(
                def(&gimple, cond),
                Some(InstData::Cmp { op: CmpOp::SLt, .. })
            ),
            "{}",
            qc_ir::print_function(&gimple)
        );
        assert!(casts(&optimized, CastOp::Zext).is_empty());
        assert_eq!(run_both(build, sig.clone(), &[3, 5])[0], 1);
        assert_eq!(run_both(build, sig, &[5, 3])[0], 2);
    }

    /// A compare that is also used as an integer keeps its `zext` for
    /// that use; the branch still tests the compare.
    #[test]
    fn a_compare_also_used_as_an_integer_keeps_its_zext() {
        let build = |b: &mut FunctionBuilder| {
            let (e, yes, no) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(e);
            let (x, y) = (b.param(0), b.param(1));
            let c = b.icmp(CmpOp::SLt, Type::I64, x, y);
            let wide = b.zext(Type::I64, c);
            let sum = b.add(Type::I64, wide, x);
            b.branch(c, yes, no);
            b.switch_to(yes);
            b.ret(Some(sum));
            b.switch_to(no);
            let zero = b.iconst(Type::I64, 0);
            b.ret(Some(zero));
        };
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
        let (_, optimized) = round_trip(build, sig.clone());
        let [cond] = branch_conds(&optimized)[..] else {
            panic!("one branch expected")
        };
        assert!(matches!(def(&optimized, cond), Some(InstData::Cmp { .. })));
        assert_eq!(casts(&optimized, CastOp::Zext), [cond]);
        assert_eq!(run_both(build, sig.clone(), &[3, 5])[0], 4);
        assert_eq!(run_both(build, sig, &[5, 3])[0], 0);
    }

    /// `c ? x : 0` over widened compares (`&&`) selects the compares, and
    /// the branch on it tests the `Bool` select.
    #[test]
    fn a_conjunction_selects_the_compares() {
        let build = |b: &mut FunctionBuilder| {
            let (e, yes, no) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(e);
            let (x, y, z) = (b.param(0), b.param(1), b.param(2));
            let c1 = b.icmp(CmpOp::SLt, Type::I64, x, y);
            let c2 = b.icmp(CmpOp::SLt, Type::I64, y, z);
            let no_ = b.iconst(Type::Bool, 0);
            let both = b.select(Type::Bool, c1, c2, no_);
            b.branch(both, yes, no);
            b.switch_to(yes);
            let one = b.iconst(Type::I64, 1);
            b.ret(Some(one));
            b.switch_to(no);
            let two = b.iconst(Type::I64, 2);
            b.ret(Some(two));
        };
        let sig = Signature::new(vec![Type::I64; 3], Type::I64);
        let (gimple, optimized) = round_trip(build, sig.clone());
        let [cond] = branch_conds(&gimple)[..] else {
            panic!("one branch expected")
        };
        let Some(&InstData::Select {
            ty: Type::Bool,
            cond: c1,
            if_true: c2,
            ..
        }) = def(&gimple, cond)
        else {
            panic!("{}", qc_ir::print_function(&gimple))
        };
        for c in [c1, c2] {
            assert!(matches!(def(&gimple, c), Some(InstData::Cmp { .. })));
        }
        assert!(casts(&optimized, CastOp::Zext).is_empty());
        for (args, want) in [([1, 2, 3], 1), ([2, 1, 3], 2), ([1, 3, 2], 2)] {
            assert_eq!(run_both(build, sig.clone(), &args)[0], want, "{args:?}");
        }
    }

    /// `*(T*)(p + d)` becomes a displacement (negative ones too), and
    /// `p + i * 8 + d` a `gep`: no arithmetic is left.
    #[test]
    fn addresses_fold_into_displacements_and_geps() {
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let (p, i) = (b.param(0), b.param(1));
            let a = b.gep_indexed(p, 16, i, 8);
            let v = b.load(Type::I64, a, -8);
            b.store(Type::I64, p, v, 40);
            b.ret(Some(v));
        };
        let sig = Signature::new(vec![Type::Ptr, Type::I64], Type::I64);
        let (gimple, _) = round_trip(build, sig.clone());
        let [InstData::Gep {
            offset: 16,
            index: Some(_),
            scale: 8,
            ..
        }, InstData::Load { offset: -8, .. }, InstData::Store { offset: 40, .. }, InstData::Return { .. }] =
            &insts(&gimple)[..]
        else {
            panic!("{}", qc_ir::print_function(&gimple))
        };
        let mut buf: Vec<u64> = (10..18).collect();
        let p = buf.as_mut_ptr() as u64;
        assert_eq!(run_both(build, sig, &[p, 1])[0], 12);
        assert_eq!(buf[5], 12);
    }

    /// A displacement outside i32 and a scale no addressing mode takes
    /// keep their arithmetic.
    #[test]
    fn wide_displacements_and_scale_16_keep_the_arithmetic() {
        let f = gimplify(
            "i64 f(i64 v0) {\n  i64 v1;\nL0:\n  v1 = *(i64*)(v0 + 5000000000);\n  return v1;\n}\n",
        );
        let shape: Vec<_> = insts(&f);
        assert!(
            matches!(
                shape[..],
                [
                    InstData::IConst {
                        imm: 5_000_000_000,
                        ..
                    },
                    InstData::Binary {
                        op: Opcode::Add,
                        ..
                    },
                    InstData::Load { offset: 0, .. },
                    InstData::Return { .. }
                ]
            ),
            "{}",
            qc_ir::print_function(&f)
        );

        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let (p, i) = (b.param(0), b.param(1));
            let a = b.gep_indexed(p, 0, i, 16);
            let v = b.load(Type::I64, a, 8);
            b.ret(Some(v));
        };
        let sig = Signature::new(vec![Type::Ptr, Type::I64], Type::I64);
        let (gimple, _) = round_trip(build, sig.clone());
        let data: Vec<_> = insts(&gimple);
        assert!(!data.iter().any(|d| matches!(d, InstData::Gep { .. })));
        assert!(data.iter().any(|d| matches!(
            d,
            InstData::Binary {
                op: Opcode::Mul,
                ..
            }
        )));
        let buf: Vec<u64> = (10..18).collect();
        assert_eq!(run_both(build, sig, &[buf.as_ptr() as u64, 1])[0], 13);
    }

    /// A `u32` load's `__sext32` is one `sext` of the loaded value, and
    /// `i32::MIN` comes back negative.
    #[test]
    fn a_narrow_load_sign_extends_once() {
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let p = b.param(0);
            let v = b.load(Type::I32, p, 0);
            let s = b.sext(Type::I64, v);
            b.ret(Some(s));
        };
        let sig = Signature::new(vec![Type::Ptr], Type::I64);
        let (gimple, _) = round_trip(build, sig.clone());
        assert!(casts(&gimple, CastOp::Trunc).is_empty());
        let [narrow] = casts(&gimple, CastOp::Sext)[..] else {
            panic!("{}", qc_ir::print_function(&gimple))
        };
        assert!(matches!(
            def(&gimple, narrow),
            Some(InstData::Load { ty: Type::I32, .. })
        ));
        for x in [i32::MIN, -1, 7, i32::MAX] {
            let cell = [x];
            let r = run_both(build, sig.clone(), &[cell.as_ptr() as u64]);
            assert_eq!(r[0] as i64, i64::from(x));
        }
    }

    /// An `if` arm without Φ copies branches straight to its label.
    #[test]
    fn arms_without_copies_are_not_blocks() {
        let build = |b: &mut FunctionBuilder| {
            let (e, neg, pos) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(e);
            let x = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(CmpOp::SLt, Type::I64, x, zero);
            b.branch(c, neg, pos);
            b.switch_to(neg);
            let one = b.iconst(Type::I64, 1);
            b.ret(Some(one));
            b.switch_to(pos);
            let two = b.iconst(Type::I64, 2);
            b.ret(Some(two));
        };
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let (gimple, _) = round_trip(build, sig.clone());
        assert_eq!(gimple.num_blocks(), 3, "{}", qc_ir::print_function(&gimple));
        assert_eq!(run_both(build, sig.clone(), &[-5i64 as u64])[0], 1);
        assert_eq!(run_both(build, sig, &[5])[0], 2);
    }

    /// An arm that carries Φ copies keeps its block; when both arms reach
    /// one label, both keep theirs, so the branch's successors differ.
    #[test]
    fn arms_with_copies_or_one_label_keep_their_blocks() {
        let build = |b: &mut FunctionBuilder| {
            let (e, other, join) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(e);
            let x = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let two = b.iconst(Type::I64, 2);
            let c = b.icmp(CmpOp::SLt, Type::I64, x, zero);
            b.branch(c, join, other);
            b.switch_to(other);
            b.jump(join);
            b.switch_to(join);
            let r = b.phi(Type::I64, vec![(e, one), (other, two)]);
            b.ret(Some(r));
        };
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let (gimple, _) = round_trip(build, sig.clone());
        // L0, L1, L2 and the `then` arm with the copies; the `else` arm
        // (no copies) is the branch to L1 itself.
        assert_eq!(gimple.num_blocks(), 4, "{}", qc_ir::print_function(&gimple));
        assert_eq!(run_both(build, sig.clone(), &[-5i64 as u64])[0], 1);
        assert_eq!(run_both(build, sig, &[5])[0], 2);

        let f = gimplify(
            "i64 f(i64 v0) {\n  i64 v1;\nL0:\n  if (v0) {\n    goto L1;\n  } else {\n    goto L1;\n  }\nL1:\n  v1 = 7;\n  return v1;\n}\n",
        );
        assert_eq!(f.num_blocks(), 4, "{}", qc_ir::print_function(&f));
        let Some(&InstData::Branch {
            then_dest,
            else_dest,
            ..
        }) = insts(&f).into_iter().find(|d| d.is_terminator())
        else {
            panic!("{}", qc_ir::print_function(&f))
        };
        assert_ne!(then_dest, else_dest);
    }

    /// After cc1's pipeline every non-Φ use of an integer constant reads a
    /// copy of its own in its own block, though CSE merged the constants
    /// and LICM hoisted them out of the loop.
    #[test]
    fn constants_are_rematerialized_at_their_uses() {
        let build = |b: &mut FunctionBuilder| {
            let (entry, header, body, exit) = (
                b.entry_block(),
                b.create_block(),
                b.create_block(),
                b.create_block(),
            );
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
            let three = b.iconst(Type::I64, 3);
            let t = b.mul(Type::I64, i, three);
            let s2 = b.add(Type::I64, s, t);
            let five = b.iconst(Type::I64, 5);
            let s3 = b.add(Type::I64, s2, five);
            let one = b.iconst(Type::I64, 1);
            let i2 = b.add(Type::I64, i, one);
            b.phi_add_incoming(i, body, i2);
            b.phi_add_incoming(s, body, s3);
            b.jump(header);
            b.switch_to(exit);
            b.ret(Some(s));
        };
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let (_, optimized) = round_trip(build, sig.clone());
        let f = &optimized;
        let mut uses = vec![0; f.num_values()];
        for d in insts(f) {
            d.for_each_arg(|v| uses[v.index()] += 1);
        }
        let mut constant_uses = 0;
        for block in f.blocks() {
            for &inst in f.block_insts(block) {
                if matches!(f.inst(inst), InstData::Phi { .. }) {
                    continue;
                }
                f.inst(inst).for_each_arg(|v| {
                    let ValueDef::Inst(d) = f.value_def(v) else {
                        return;
                    };
                    if matches!(f.inst(d), InstData::IConst { .. }) {
                        constant_uses += 1;
                        assert!(
                            f.block_insts(block).contains(&d) && uses[v.index()] == 1,
                            "{v} is shared or defined in another block:\n{}",
                            qc_ir::print_function(f)
                        );
                    }
                });
            }
        }
        assert!(constant_uses >= 3, "{}", qc_ir::print_function(f));
        assert_eq!(run_both(build, sig, &[10])[0], 3 * 45 + 5 * 10);
    }
}
