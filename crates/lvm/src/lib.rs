//! LVM: the LLVM-analog multi-pass optimizing back-end (paper Sec. V).
//!
//! The pipeline reproduces the cost structure of LLVM's ORC JIT flow and
//! the breakdowns of Figures 2 and 3:
//!
//! 1. **TargetMachine** construction (parsing an architecture description;
//!    optionally cached per thread — a Sec. V-A2 optimization),
//! 2. **IR construction** — Umbra-IR → LIR, with the `{i64,i64}`-struct
//!    vs. two-scalars representation ablation,
//! 3. **optimization passes** (-O2 only): CSE, instruction combining,
//!    LICM (computing the dominator tree and loop info twice), DCE —
//!    each pass rewrites the IR wholesale,
//! 4. **pre-ISel IR passes** that scan the whole IR for constructs query
//!    code never contains (large-division expansion, constant intrinsics,
//!    vector lowering, AMX types) — pure overhead by design,
//! 5. **instruction selection**: FastISel (with per-block SelectionDAG
//!    fallback and per-cause statistics), SelectionDAG (graph IR with
//!    recursive known-bits combining), or GlobalISel (whole-function
//!    generic-MIR passes; TA64),
//! 6. **register allocation**: two-address rewriting, then the fast or
//!    greedy allocator,
//! 7. **AsmPrinter**: per-instruction MC lowering through virtual-dispatch
//!    emission hooks and string-keyed labels, into an in-memory object,
//! 8. **ORC-style linking** in three phases: allocation and symbol
//!    resolution close each compile, and applying relocations is each
//!    instantiation of the artifact. The code model is per tier: -O0
//!    (FastISel) uses Small-PIC, with a per-module **PLT+GOT** that runtime
//!    calls go through, because the large model would send every call
//!    block to SelectionDAG; -O2 uses the large model, where a runtime
//!    call is an absolute `mov; callind` and the module has no PLT or GOT,
//! 9. **IR destruction**, measured separately (Sec. V-B1).

mod isel;
mod lir;
mod ra;

pub use isel::{IselOptions, IselStats, Selector};
pub use lir::PairRepr;

use qc_backend::memit::MirEmitter;
use qc_backend::mir::{CallTarget, MInst};
use qc_backend::{Backend, BackendError, CodeArtifact, CompileStats, NativeArtifact};
use qc_ir::Module;
use qc_runtime::resolve_runtime;
use qc_target::{ImageBuilder, Isa, SymbolRef, UnwindEntry};
use qc_timing::TimeTrace;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// An AsmPrinter emission hook, invoked for every machine instruction
/// (the paper's "hooks for relocations/unwind are virtual calls").
type EmitHook<'a> = Box<dyn FnMut(&MInst) + 'a>;

/// Optimization mode (paper Sec. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptMode {
    /// -O0 + FastISel.
    Cheap,
    /// -O2 + SelectionDAG.
    Optimized,
}

/// Full option set including the paper's ablations.
#[derive(Debug, Clone, Copy)]
pub struct LvmOptions {
    /// Target ISA.
    pub isa: Isa,
    /// Optimization mode.
    pub mode: OptMode,
    /// String/pair representation in LIR (Sec. V-A2 ablation).
    pub pair_repr: PairRepr,
    /// Small-PIC code model (vs. large; Sec. V-A2 ablation): runtime
    /// calls go through a per-module PLT stub and GOT slot instead of an
    /// absolute `mov; callind`. The default is on for
    /// [`OptMode::Cheap`] only, whose FastISel falls back to SelectionDAG
    /// at every call under the large model.
    pub small_pic: bool,
    /// FastISel CRC-32 intrinsic support (Sec. V-A2 ablation).
    pub fastisel_crc32: bool,
    /// Cache the TargetMachine per thread (Sec. V-A2 ablation).
    pub cache_target_machine: bool,
    /// Use GlobalISel instead of FastISel/SelectionDAG (TA64 only).
    pub global_isel: bool,
}

impl LvmOptions {
    /// The paper's tuned defaults for `isa` and `mode`.
    pub fn defaults(isa: Isa, mode: OptMode) -> Self {
        LvmOptions {
            isa,
            mode,
            pair_repr: PairRepr::Scalars,
            small_pic: mode == OptMode::Cheap,
            fastisel_crc32: true,
            cache_target_machine: true,
            global_isel: false,
        }
    }
}

/// The LLVM-analog back-end.
#[derive(Debug)]
pub struct LvmBackend {
    options: LvmOptions,
}

impl LvmBackend {
    /// Creates the back-end with tuned defaults.
    pub fn new(isa: Isa, mode: OptMode) -> Self {
        Self::with_options(LvmOptions::defaults(isa, mode))
    }

    /// Creates the back-end with full option control.
    pub fn with_options(options: LvmOptions) -> Self {
        LvmBackend { options }
    }
}

/// A parsed architecture description (feature strings, register costs).
/// Construction is deliberately non-trivial: the paper caches it per
/// thread because rebuilding it per compilation is measurable.
#[derive(Debug, Clone)]
struct TargetMachine {
    #[allow(dead_code)]
    features: Vec<(String, u32)>,
}

fn build_target_machine(isa: Isa) -> TargetMachine {
    // Parse a synthetic architecture description string.
    let desc = match isa {
        Isa::Tx64 => {
            "arch=tx64;gpr=16;flags=true;crc32=native;mul128=native;\
             enc=var;sse=4.1;cmov=false;addr=base+index*scale+disp32;\
             callconv=r0-r5;ret=r0:r1;sp=r15;align=16"
        }
        Isa::Ta64 => {
            "arch=ta64;gpr=31;flags=true;crc32=native;mul128=native;\
             enc=fixed4;neon=base;addr=base+imm12|base+index;\
             callconv=r0-r7;ret=r0:r1;sp=r31;align=16"
        }
    };
    let mut features = Vec::new();
    for chunk in desc.split(';') {
        let (k, v) = chunk.split_once('=').unwrap_or((chunk, ""));
        let weight = v.bytes().map(|b| b as u32).sum::<u32>() ^ (k.len() as u32);
        features.push((k.to_string(), weight));
    }
    // Derived register-cost tables (more "parsing" work).
    for i in 0..64u32 {
        features.push((format!("regcost{i}"), i * 7 % 13));
    }
    TargetMachine { features }
}

thread_local! {
    static TM_CACHE: RefCell<HashMap<&'static str, TargetMachine>> =
        RefCell::new(HashMap::new());
}

impl Backend for LvmBackend {
    fn name(&self) -> &'static str {
        match self.options.mode {
            OptMode::Cheap => "LVM-cheap",
            OptMode::Optimized => "LVM-opt",
        }
    }

    fn isa(&self) -> Isa {
        self.options.isa
    }

    fn config_fingerprint(&self) -> u64 {
        let o = self.options;
        u64::from(o.pair_repr == PairRepr::Struct)
            | u64::from(o.small_pic) << 1
            | u64::from(o.fastisel_crc32) << 2
            | u64::from(o.global_isel) << 3
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
}

impl LvmBackend {
    /// Pipeline phases 1–9 (TargetMachine through AsmPrinter, PLT+GOT
    /// synthesis, the ORC link's first two phases and IR destruction),
    /// producing the unlinked image; applying relocations is the
    /// artifact's instantiation.
    #[allow(clippy::too_many_lines)]
    fn build_parts(
        &self,
        module: &Module,
        trace: &TimeTrace,
    ) -> Result<(ImageBuilder, CompileStats), BackendError> {
        let o = self.options;
        if o.global_isel && o.isa != Isa::Ta64 {
            return Err(BackendError::new("GlobalISel is only supported on TA64"));
        }
        let mut stats = CompileStats::default();

        // --- TargetMachine ---
        {
            let _t = trace.scope("targetmachine");
            if o.cache_target_machine {
                TM_CACHE.with(|c| {
                    c.borrow_mut()
                        .entry(o.isa.name())
                        .or_insert_with(|| build_target_machine(o.isa));
                });
            } else {
                let tm = build_target_machine(o.isa);
                std::hint::black_box(&tm);
            }
        }

        // --- IR construction ---
        let mut lir = {
            let _t = trace.scope("irgen");
            lir::construct(module, o.pair_repr)
        };

        // --- Optimization passes (-O2), each a full IR rewrite, driven by
        // a legacy-style pass manager that tracks analyses. ---
        if o.mode == OptMode::Optimized {
            let _t = trace.scope("opt");
            let mut analyses: HashMap<&'static str, bool> = HashMap::new();
            let mut run_pass =
                |name: &'static str,
                 needs: &[&'static str],
                 lir: &mut Module,
                 f: &dyn Fn(&qc_ir::Function) -> qc_ir::Function| {
                    // Legacy pass-manager bookkeeping (Sec. V-B8: ~5% of time).
                    for n in needs {
                        analyses.entry(n).or_insert(true);
                    }
                    let _t = trace.scope(name);
                    let mut out = Module::new(&lir.name);
                    for func in lir.functions() {
                        out.push_function(f(func));
                    }
                    analyses.clear(); // transformation invalidates analyses
                    *lir = out;
                };
            run_pass("cse", &["domtree"], &mut lir, &lir::pass_cse);
            run_pass("instcombine", &[], &mut lir, &lir::pass_instcombine);
            run_pass("licm", &["domtree", "loops"], &mut lir, &lir::pass_licm);
            run_pass("dce", &[], &mut lir, &lir::pass_dce);
            // -O2 revisits the scalar passes after LICM exposes new
            // opportunities (LLVM runs InstCombine several times).
            run_pass("cse2", &["domtree"], &mut lir, &lir::pass_cse);
            run_pass("instcombine2", &[], &mut lir, &lir::pass_instcombine);
            run_pass("dce2", &[], &mut lir, &lir::pass_dce);
        }

        // --- Pre-ISel IR passes: scan for constructs that never occur. ---
        {
            let _t = trace.scope("irpasses");
            let mut matches = 0u64;
            for pass in [
                "div128expand",
                "constintrinsics",
                "vectorcombine",
                "amxlower",
            ] {
                let _t = trace.scope(pass);
                for func in lir.functions() {
                    for block in func.blocks() {
                        for &inst in func.block_insts(block) {
                            // Pattern checks that never fire on query code.
                            let data = func.inst(inst);
                            if matches!(
                                data,
                                qc_ir::InstData::Binary {
                                    op: qc_ir::Opcode::URem,
                                    ty: qc_ir::Type::I128,
                                    ..
                                }
                            ) {
                                matches += 1;
                            }
                        }
                    }
                }
            }
            stats.bump("preisel_matches", matches);
        }

        let selector = match (o.mode, o.global_isel) {
            (OptMode::Cheap, false) => Selector::Fast,
            (OptMode::Optimized, false) => Selector::Dag,
            (OptMode::Cheap, true) => Selector::GlobalCheap,
            (OptMode::Optimized, true) => Selector::GlobalOpt,
        };
        let iopts = IselOptions {
            small_pic: o.small_pic,
            fastisel_crc32: o.fastisel_crc32,
        };

        let mut image = ImageBuilder::new(o.isa);
        let func_names: Vec<String> = lir.functions().iter().map(|f| f.name.clone()).collect();
        let mut used_syms: HashSet<String> = HashSet::new();

        for func in lir.functions() {
            // --- Instruction selection ---
            let out = {
                let _t = trace.scope("isel");
                let sub = match selector {
                    Selector::Fast => "fastisel",
                    Selector::Dag => "selectiondag",
                    Selector::GlobalCheap | Selector::GlobalOpt => "globalisel",
                };
                let _t2 = trace.scope(sub);
                isel::select(func, selector, iopts)?
            };
            stats.bump("fallback_calls", out.stats.fallback_calls);
            stats.bump("fallback_i128", out.stats.fallback_i128);
            stats.bump("fallback_struct", out.stats.fallback_struct);
            stats.bump("fallback_intrinsic", out.stats.fallback_intrinsic);
            stats.bump("dag_nodes", out.stats.dag_nodes);
            stats.bump("known_bits_queries", out.stats.known_bits_queries);
            stats.bump("gmir_insts", out.stats.gmir_insts);
            let mut vcode = out.vcode;

            // --- Register allocation (with two-address rewriting) ---
            let alloc = {
                let _t = trace.scope("regalloc");
                {
                    let _t2 = trace.scope("twoaddr");
                    ra::two_address_pass(&mut vcode, o.isa);
                }
                match o.mode {
                    OptMode::Cheap => ra::allocate_fast(&vcode, o.isa),
                    OptMode::Optimized => ra::allocate_greedy(&vcode, o.isa, trace),
                }
            };
            stats.bump("spilled", alloc.spills);

            // --- Other back-end passes: prologue/epilogue insertion
            // (frame finalization) plus assorted small passes. ---
            {
                let _t = trace.scope("otherpasses");
                let mut frame_refs = 0u64;
                for insts in &vcode.blocks {
                    for inst in insts {
                        if matches!(inst, MInst::FrameAddr { .. }) {
                            frame_refs += 1;
                        }
                        inst.for_each_use(|v| {
                            if matches!(alloc.locs[v as usize], qc_backend::mir::Loc::Spill(_)) {
                                frame_refs += 1;
                            }
                        });
                    }
                }
                stats.bump("frame_refs", frame_refs);
            }

            // --- AsmPrinter: MC lowering with hooks and string labels ---
            let (code, relocs, frame) = {
                let _t = trace.scope("asmprinter");
                // Frame area for QIR stack slots (byte-offset addressed).
                let user_frame: u32 = func.stack_slots().iter().fold(0u32, |acc, s| {
                    ((acc + s.align - 1) & !(s.align - 1)) + s.size
                });
                let mut emitter =
                    MirEmitter::new(o.isa, &alloc, &func_names, vcode.blocks.len(), user_frame);
                // String-keyed labels, as in LLVM's MC layer (Sec. V-B6).
                let mut label_names: HashMap<String, usize> = HashMap::new();
                for b in 0..vcode.blocks.len() {
                    label_names.insert(format!("{}_bb{}", func.name, b), b);
                }
                // Emission hooks (virtual calls per instruction); the
                // unwind plug-in counts call sites.
                let mut call_sites = 0u64;
                let mut hooks: Vec<EmitHook<'_>> = vec![Box::new(|inst: &MInst| {
                    if inst.is_call() {
                        call_sites += 1;
                    }
                })];
                emitter.prologue(&vcode.params);
                for (b, insts) in vcode.blocks.iter().enumerate() {
                    // Label lookup through the string map.
                    let key = format!("{}_bb{}", func.name, b);
                    let bb = *label_names.get(&key).expect("label");
                    emitter.bind_block(bb);
                    for inst in insts {
                        for h in &mut hooks {
                            h(inst);
                        }
                        // MC lowering: route calls per code model.
                        match inst {
                            MInst::CallRt {
                                target: CallTarget::Sym(name),
                                args,
                                ret,
                            } => {
                                used_syms.insert(name.clone());
                                let routed = if o.small_pic {
                                    MInst::CallRt {
                                        target: CallTarget::Sym(format!("plt${name}")),
                                        args: args.clone(),
                                        ret: ret.clone(),
                                    }
                                } else {
                                    let addr = resolve_runtime(name).ok_or_else(|| {
                                        BackendError::new(format!("unknown symbol {name}"))
                                    })?;
                                    MInst::CallRt {
                                        target: CallTarget::Abs(addr),
                                        args: args.clone(),
                                        ret: ret.clone(),
                                    }
                                };
                                emitter.emit_inst(&routed)?;
                            }
                            other => emitter.emit_inst(other)?,
                        }
                    }
                }
                drop(hooks);
                stats.bump("unwind_call_sites", call_sites);
                emitter.finish()
            };
            let len = code.len();
            let off = image.add_function(&func.name, code, relocs);
            // Unwind registration plug-in.
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

        // --- PLT + GOT (Small-PIC): one pair per module. ---
        if o.small_pic {
            let _t = trace.scope("asmprinter");
            let mut syms: Vec<String> = used_syms.iter().cloned().collect();
            syms.sort();
            for name in &syms {
                // GOT slot holding the absolute runtime address.
                let got = format!("got${name}");
                image.add_data(
                    &got,
                    vec![0u8; 8],
                    8,
                    vec![qc_target::Reloc {
                        offset: 0,
                        kind: qc_target::RelocKind::Abs64,
                        sym: SymbolRef::named(name),
                        addend: 0,
                    }],
                );
                // PLT stub: load the GOT slot and tail-jump through it,
                // so the helper returns straight to the stub's caller.
                let mut masm = qc_target::new_masm(o.isa);
                let scratch = o.isa.abi().scratch;
                masm.mov_sym(scratch, SymbolRef::named(&got));
                masm.load(qc_target::Width::W64, scratch, scratch, None, 0);
                masm.jmp_ind(scratch);
                let (code, relocs) = Box::new(masm).finish();
                image.add_function(&format!("plt${name}"), code, relocs);
            }
            stats.bump("plt_entries", syms.len() as u64);
        }

        // --- ORC-style link: memory allocation and symbol resolution
        // run once per compile; the third phase, applying relocations,
        // is each instantiation, timed under `link` as well. ---
        {
            let _t = trace.scope("link");
            {
                let _p1 = trace.scope("phase1_alloc");
                // Recover/prune symbols: hash every defined symbol name.
                let mut h = 0u64;
                for n in &func_names {
                    h = h.wrapping_mul(31).wrapping_add(n.len() as u64);
                }
                std::hint::black_box(h);
            }
            {
                let _p2 = trace.scope("phase2_resolve");
                for s in &used_syms {
                    std::hint::black_box(resolve_runtime(s));
                }
            }
        }

        // --- IR destruction, measured separately. ---
        {
            let _t = trace.scope("irdtor");
            drop(lir);
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

    fn run_with(
        options: LvmOptions,
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
        let backend = LvmBackend::with_options(options);
        let mut exe = match backend.compile(&m, &TimeTrace::disabled()) {
            Ok(e) => e,
            Err(e) => panic!("{e}"),
        };
        let mut state = RuntimeState::new();
        exe.call(&mut state, "f", args)
    }

    fn matrix() -> Vec<LvmOptions> {
        let mut out = Vec::new();
        for isa in [Isa::Tx64, Isa::Ta64] {
            for mode in [OptMode::Cheap, OptMode::Optimized] {
                out.push(LvmOptions::defaults(isa, mode));
            }
        }
        // GlobalISel variants (TA64).
        for mode in [OptMode::Cheap, OptMode::Optimized] {
            let mut o = LvmOptions::defaults(Isa::Ta64, mode);
            o.global_isel = true;
            out.push(o);
        }
        // Struct-pair + large-model ablations.
        let mut o = LvmOptions::defaults(Isa::Tx64, OptMode::Cheap);
        o.pair_repr = PairRepr::Struct;
        out.push(o);
        let mut o = LvmOptions::defaults(Isa::Tx64, OptMode::Cheap);
        o.small_pic = false;
        out.push(o);
        out
    }

    #[test]
    fn loop_with_phis_across_option_matrix() {
        let sig = Signature::new(vec![Type::I64], Type::I64);
        for options in matrix() {
            let r = run_with(
                options,
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
                sig.clone(),
                &[100],
            )
            .unwrap_or_else(|t| panic!("{options:?}: {t}"));
            assert_eq!(r[0], 4950, "{options:?}");
        }
    }

    #[test]
    fn selects_on_compares_across_option_matrix() {
        // `min(x, y)` (signed), kept when `x == 7` and 100 otherwise, plus
        // the unsigned-smaller of `x` and `y` widened to i128: three
        // compares that only selects use, one of them on an immediate.
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I128);
        let cases = [(3i64, 9i64), (9, 3), (7, -1), (-5, 2), (7, 7)];
        for options in matrix() {
            for (x, y) in cases {
                let r = run_with(
                    options,
                    |b| {
                        let e = b.entry_block();
                        b.switch_to(e);
                        let (px, py) = (b.param(0), b.param(1));
                        let lt = b.icmp(CmpOp::SLt, Type::I64, px, py);
                        let min = b.select(Type::I64, lt, px, py);
                        let seven = b.iconst(Type::I64, 7);
                        let is7 = b.icmp(CmpOp::Eq, Type::I64, px, seven);
                        let hundred = b.iconst(Type::I64, 100);
                        let kept = b.select(Type::I64, is7, min, hundred);
                        let below = b.icmp(CmpOp::ULt, Type::I64, px, py);
                        let (wx, wy) = (b.sext(Type::I128, px), b.sext(Type::I128, py));
                        let wide = b.select(Type::I128, below, wx, wy);
                        let k = b.zext(Type::I128, kept);
                        let sum = b.add(Type::I128, wide, k);
                        b.ret(Some(sum));
                    },
                    sig.clone(),
                    &[x as u64, y as u64],
                )
                .unwrap_or_else(|t| panic!("{options:?}: {t}"));
                let kept = if x == 7 { x.min(y) } else { 100 };
                let wide = if (x as u64) < (y as u64) { x } else { y };
                let want = i128::from(wide) + i128::from(kept as u64);
                let got = (u128::from(r[1]) << 64 | u128::from(r[0])) as i128;
                assert_eq!(got, want, "{options:?}: x={x} y={y}");
            }
        }
    }

    #[test]
    fn i128_and_overflow_across_modes() {
        let sig = Signature::new(vec![Type::I64, Type::I64], Type::I128);
        for options in matrix() {
            let r = run_with(
                options,
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
                sig.clone(),
                &[100, 200],
            )
            .unwrap_or_else(|t| panic!("{options:?}: {t}"));
            assert_eq!(r[0], 60_000, "{options:?}");
        }
    }

    #[test]
    fn global_isel_is_rejected_on_tx64() {
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let mut b = FunctionBuilder::new("f", sig);
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        b.ret(Some(x));
        let mut m = Module::new("m");
        m.push_function(b.finish());
        let mut o = LvmOptions::defaults(Isa::Tx64, OptMode::Cheap);
        o.global_isel = true;
        let err = LvmBackend::with_options(o)
            .compile(&m, &TimeTrace::disabled())
            .err()
            .expect("must be rejected");
        assert!(err.to_string().contains("GlobalISel"), "{err}");
    }

    #[test]
    fn large_code_model_turns_calls_into_fallbacks() {
        // The historical behavior the paper fixed with Small-PIC: under
        // the large model every call is a FastISel fallback.
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let build = || {
            let mut b = FunctionBuilder::new("f", sig.clone());
            let ext = b.declare_ext_func(qc_ir::ExtFuncDecl {
                name: "rt_alloc".into(),
                sig: Signature::new(vec![Type::I64], Type::Ptr),
            });
            let e = b.entry_block();
            b.switch_to(e);
            let x = b.param(0);
            let p = b.call(ext, vec![x]).unwrap();
            b.store(Type::I64, p, x, 0);
            let v = b.load(Type::I64, p, 0);
            b.ret(Some(v));
            let mut m = Module::new("m");
            m.push_function(b.finish());
            m
        };
        let mut state = RuntimeState::new();
        for (small_pic, expect_fallbacks) in [(true, false), (false, true)] {
            let mut o = LvmOptions::defaults(Isa::Tx64, OptMode::Cheap);
            o.small_pic = small_pic;
            let m = build();
            let mut exe = LvmBackend::with_options(o)
                .compile(&m, &TimeTrace::disabled())
                .unwrap();
            let calls = exe
                .compile_stats()
                .counters
                .get("fallback_calls")
                .copied()
                .unwrap_or(0);
            assert_eq!(calls > 0, expect_fallbacks, "small_pic={small_pic}");
            // Either way the code must run correctly.
            let r = exe.call(&mut state, "f", &[64]).unwrap();
            assert_eq!(r[0], 64, "small_pic={small_pic}");
        }
    }

    #[test]
    fn fastisel_counts_i128_fallbacks() {
        let sig = Signature::new(vec![Type::I64], Type::I128);
        let mut b = FunctionBuilder::new("f", sig);
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let w = b.sext(Type::I128, x);
        let s = b.binary(Opcode::SAddTrap, Type::I128, w, w);
        b.ret(Some(s));
        let mut m = Module::new("m");
        m.push_function(b.finish());
        let backend = LvmBackend::new(Isa::Tx64, OptMode::Cheap);
        let exe = backend.compile(&m, &TimeTrace::disabled()).unwrap();
        assert!(
            exe.compile_stats()
                .counters
                .get("fallback_i128")
                .copied()
                .unwrap_or(0)
                > 0,
            "{:?}",
            exe.compile_stats().counters
        );
    }

    #[test]
    fn strings_fall_back_in_struct_mode_only() {
        let mut state = RuntimeState::new();
        let s1 = state.intern_string("lvm string beyond the inline size");
        let sig = Signature::new(vec![Type::String], Type::I64);
        let build = |b: &mut FunctionBuilder| {
            let ext = b.declare_ext_func(qc_ir::ExtFuncDecl {
                name: "rt_str_hash".into(),
                sig: Signature::new(vec![Type::String], Type::I64),
            });
            let e = b.entry_block();
            b.switch_to(e);
            let s = b.param(0);
            let h = b.call(ext, vec![s]).unwrap();
            b.ret(Some(h));
        };
        let mut fallbacks = Vec::new();
        for repr in [PairRepr::Scalars, PairRepr::Struct] {
            let mut bld = FunctionBuilder::new("f", sig.clone());
            build(&mut bld);
            let mut m = Module::new("m");
            m.push_function(bld.finish());
            let mut o = LvmOptions::defaults(Isa::Tx64, OptMode::Cheap);
            o.pair_repr = repr;
            let mut exe = LvmBackend::with_options(o)
                .compile(&m, &TimeTrace::disabled())
                .unwrap();
            let c = exe.compile_stats().counters.clone();
            fallbacks.push(
                c.get("fallback_struct").copied().unwrap_or(0)
                    + c.get("fallback_calls").copied().unwrap_or(0),
            );
            let r = exe.call(&mut state, "f", &[s1.lo, s1.hi]).unwrap();
            assert_eq!(r[0], qc_runtime::hash_string(&s1), "{repr:?}");
        }
        assert_eq!(fallbacks[0], 0, "scalar mode must not fall back");
        assert!(fallbacks[1] > 0, "struct mode must fall back");
    }

    #[test]
    fn phase_trace_matches_figure2_structure() {
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
        let _ = LvmBackend::new(Isa::Tx64, OptMode::Optimized)
            .compile(&m, &trace)
            .unwrap();
        let report = trace.report();
        for phase in [
            "targetmachine",
            "irgen",
            "opt",
            "irpasses",
            "isel",
            "regalloc",
            "otherpasses",
            "asmprinter",
            "link",
            "irdtor",
        ] {
            assert!(report.total(phase).is_some(), "missing phase {phase}");
        }
        assert!(report.total("link/phase1_alloc").is_some());
        assert!(report.total("link/phase2_resolve").is_some());
        assert!(report.total("isel/selectiondag").is_some());
    }

    /// `f(x) = load(store(rt_alloc(x), crc32(x, x)))`: two helpers, so
    /// two stubs under Small-PIC.
    fn two_helper_module() -> Module {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64], Type::I64));
        let alloc = b.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_alloc".into(),
            sig: Signature::new(vec![Type::I64], Type::Ptr),
        });
        let crc = b.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_crc32".into(),
            sig: Signature::new(vec![Type::I64, Type::I64], Type::I64),
        });
        let e = b.entry_block();
        b.switch_to(e);
        let x = b.param(0);
        let p = b.call(alloc, vec![x]).unwrap();
        let h = b.call(crc, vec![x, x]).unwrap();
        b.store(Type::I64, p, h, 0);
        let v = b.load(Type::I64, p, 0);
        b.ret(Some(v));
        let mut m = Module::new("m");
        m.push_function(b.finish());
        m
    }

    #[test]
    fn optimized_images_call_the_runtime_directly() {
        use qc_target::{decode_inst, runtime_addr, DecodedInst};
        let mut state = RuntimeState::new();
        let optimized = matrix()
            .into_iter()
            .filter(|o| o.mode == OptMode::Optimized)
            .collect::<Vec<_>>();
        // SelectionDAG on both ISAs and optimizing GlobalISel on TA64.
        assert_eq!(optimized.len(), 3);
        for options in optimized {
            assert!(!options.small_pic, "{options:?}");
            let backend = LvmBackend::with_options(options);
            let (builder, stats) = backend
                .build_parts(&two_helper_module(), &TimeTrace::disabled())
                .unwrap();
            assert_eq!(stats.counters.get("plt_entries").copied().unwrap_or(0), 0);
            let image = builder.link(&resolve_runtime).unwrap();
            for name in ["rt_alloc", "rt_crc32"] {
                for item in [format!("plt${name}"), format!("got${name}")] {
                    assert_eq!(image.addr_of(&item), None, "{options:?}: {item}");
                }
            }
            // Walk `f` to its `ret`, tracking the constants `mov`/`movk`
            // build: each call is an indirect one through a register the
            // instructions right before it loaded with a helper's address.
            let mut off = (image.addr_of("f").unwrap() - image.base()) as usize;
            let (mut regs, mut built) = ([None::<u64>; 32], None);
            let mut targets = Vec::new();
            loop {
                let (inst, len) = decode_inst(options.isa, image.bytes(), off).unwrap();
                off += len as usize;
                match inst {
                    DecodedInst::MovRI { dst, imm } => {
                        regs[dst.index()] = Some(imm as u64);
                        built = Some(dst);
                        continue;
                    }
                    DecodedInst::MovK { dst, imm16, shift } if built == Some(dst) => {
                        let sh = 16 * (u32::from(shift) & 3);
                        let r = regs[dst.index()].unwrap();
                        regs[dst.index()] = Some(r & !(0xFFFF << sh) | u64::from(imm16) << sh);
                        continue;
                    }
                    DecodedInst::CallInd { reg } => {
                        assert_eq!(built, Some(reg), "{options:?}: no `mov` right before");
                        targets.push(regs[reg.index()].unwrap());
                    }
                    DecodedInst::Call { .. } | DecodedInst::JmpInd { .. } => {
                        panic!("{options:?}: {inst:?} in `f`")
                    }
                    DecodedInst::Ret => break,
                    _ => {}
                }
                built = None;
            }
            let expected: Vec<u64> = ["rt_alloc", "rt_crc32"]
                .iter()
                .map(|n| runtime_addr(qc_runtime::rt_index(n).unwrap()))
                .collect();
            assert_eq!(targets, expected, "{options:?}");
            let mut exe = backend
                .compile(&two_helper_module(), &TimeTrace::disabled())
                .unwrap();
            let r = exe.call(&mut state, "f", &[5]).unwrap();
            assert_eq!(r[0], qc_target::crc32c_u64(5, 5), "{options:?}");
        }
    }

    #[test]
    fn plt_stubs_tail_jump_through_the_got() {
        use qc_target::{decode_inst, DecodedInst};
        let mut state = RuntimeState::new();
        for options in matrix().into_iter().filter(|o| o.small_pic) {
            let backend = LvmBackend::with_options(options);
            let (builder, stats) = backend
                .build_parts(&two_helper_module(), &TimeTrace::disabled())
                .unwrap();
            assert_eq!(stats.counters.get("plt_entries"), Some(&2), "{options:?}");
            let image = builder.link(&resolve_runtime).unwrap();
            let scratch = options.isa.abi().scratch;
            for name in ["rt_alloc", "rt_crc32"] {
                let stub = image.addr_of(&format!("plt${name}")).unwrap();
                // Decode up to the first instruction that transfers
                // control; that it is the `jmpind` means the stub holds no
                // `ret` and no call.
                let mut off = (stub - image.base()) as usize;
                let mut insts = Vec::new();
                loop {
                    let (inst, len) = decode_inst(options.isa, image.bytes(), off).unwrap();
                    insts.push(inst);
                    off += len as usize;
                    if matches!(
                        inst,
                        DecodedInst::JmpInd { .. }
                            | DecodedInst::Jmp { .. }
                            | DecodedInst::Jcc { .. }
                            | DecodedInst::Call { .. }
                            | DecodedInst::CallInd { .. }
                            | DecodedInst::Ret
                            | DecodedInst::Trap { .. }
                    ) {
                        break;
                    }
                }
                assert_eq!(
                    insts.last(),
                    Some(&DecodedInst::JmpInd { reg: scratch }),
                    "{options:?} plt${name}: {insts:?}"
                );
            }
            let mut exe = backend
                .compile(&two_helper_module(), &TimeTrace::disabled())
                .unwrap();
            let r = exe.call(&mut state, "f", &[5]).unwrap();
            assert_eq!(r[0], qc_target::crc32c_u64(5, 5), "{options:?}");
        }
    }

    #[test]
    fn optimized_code_is_smaller_or_equal() {
        // CSE + folding should not produce more code than cheap mode.
        let sig = Signature::new(vec![Type::I64], Type::I64);
        let build = |b: &mut FunctionBuilder| {
            let e = b.entry_block();
            b.switch_to(e);
            let x = b.param(0);
            let a = b.add(Type::I64, x, x);
            let a2 = b.add(Type::I64, x, x);
            let s = b.add(Type::I64, a, a2);
            let four = b.iconst(Type::I64, 4);
            let m = b.mul(Type::I64, s, four);
            b.ret(Some(m));
        };
        let mut sizes = Vec::new();
        for mode in [OptMode::Cheap, OptMode::Optimized] {
            let mut bld = FunctionBuilder::new("f", sig.clone());
            build(&mut bld);
            let mut m = Module::new("m");
            m.push_function(bld.finish());
            let exe = LvmBackend::new(Isa::Tx64, mode)
                .compile(&m, &TimeTrace::disabled())
                .unwrap();
            sizes.push(exe.compile_stats().code_bytes);
        }
        assert!(
            sizes[1] <= sizes[0],
            "opt {} vs cheap {}",
            sizes[1],
            sizes[0]
        );
    }
}
