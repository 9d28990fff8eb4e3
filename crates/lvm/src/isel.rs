//! Instruction selection: FastISel, SelectionDAG, and GlobalISel
//! (paper Sec. V-B3).

use qc_backend::mir::{cond_of, fcond_of, width_of, CallTarget, MInst, RegClass, VCode, VReg};
use qc_backend::BackendError;
use qc_ir::{CastOp, CmpOp, Function, InstData, Opcode, Type, Value};
use qc_target::{AluOp, Cond, FaluOp, Width};
use std::collections::HashMap;

/// Which selector pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selector {
    /// FastISel with per-block SelectionDAG fallback (cheap mode).
    Fast,
    /// SelectionDAG for everything (optimized mode).
    Dag,
    /// GlobalISel without optimization combiners (TA64).
    GlobalCheap,
    /// GlobalISel with combiners (TA64).
    GlobalOpt,
}

/// ISel options relevant to the paper's ablations.
#[derive(Debug, Clone, Copy)]
pub struct IselOptions {
    /// Small-PIC code model (large forces FastISel call fallbacks).
    pub small_pic: bool,
    /// FastISel support for the CRC-32 intrinsic (Sec. V-A2, merged
    /// upstream by the authors).
    pub fastisel_crc32: bool,
}

/// Per-function selection statistics.
#[derive(Debug, Default, Clone)]
pub struct IselStats {
    /// FastISel → SelectionDAG fallbacks by cause.
    pub fallback_calls: u64,
    /// Fallbacks caused by 128-bit values.
    pub fallback_i128: u64,
    /// Fallbacks caused by two-register struct values.
    pub fallback_struct: u64,
    /// Fallbacks caused by unsupported intrinsics.
    pub fallback_intrinsic: u64,
    /// DAG nodes constructed.
    pub dag_nodes: u64,
    /// Known-bits queries performed during DAG combining.
    pub known_bits_queries: u64,
    /// GlobalISel generic instructions created.
    pub gmir_insts: u64,
}

/// Selection result.
pub struct IselOutput {
    /// The selected machine code.
    pub vcode: VCode,
    /// Statistics.
    pub stats: IselStats,
}

struct Ctx<'f> {
    func: &'f Function,
    vcode: VCode,
    val_reg: Vec<(VReg, VReg)>, // (lo, hi=VNONE for one-reg)
    cur: Vec<MInst>,
    stats: IselStats,
    fold: bool,
    opts: IselOptions,
    /// Per value: an integer compare that emits nothing where it is
    /// defined, because each of its users re-tests the operands (see
    /// [`sunk_compares`]).
    sunk: Vec<bool>,
}

const VNONE: VReg = u32::MAX;

/// Runs instruction selection over one LIR function.
///
/// # Errors
/// Returns [`BackendError`] for unsupported constructs.
pub fn select(
    func: &Function,
    selector: Selector,
    opts: IselOptions,
) -> Result<IselOutput, BackendError> {
    let mut classes = Vec::new();
    let mut val_reg = Vec::with_capacity(func.num_values());
    for i in 0..func.num_values() {
        let ty = func.value_type(Value::new(i));
        match ty {
            Type::F64 => {
                classes.push(RegClass::Float);
                val_reg.push(((classes.len() - 1) as VReg, VNONE));
            }
            t if t.reg_count() == 2 => {
                classes.push(RegClass::Int);
                classes.push(RegClass::Int);
                val_reg.push(((classes.len() - 2) as VReg, (classes.len() - 1) as VReg));
            }
            _ => {
                classes.push(RegClass::Int);
                val_reg.push(((classes.len() - 1) as VReg, VNONE));
            }
        }
    }
    let mut params = Vec::new();
    for &p in func.params() {
        let (lo, hi) = val_reg[p.index()];
        params.push(lo);
        if hi != VNONE {
            params.push(hi);
        }
    }
    let nb = func.num_blocks();
    let mut ctx = Ctx {
        func,
        vcode: VCode {
            name: func.name.clone(),
            blocks: Vec::new(),
            succs: (0..nb)
                .map(|b| {
                    let block = qc_ir::Block::new(b);
                    if func.block_insts(block).is_empty() {
                        Vec::new()
                    } else {
                        func.inst(func.terminator(block))
                            .successors()
                            .iter()
                            .map(|s| s.index())
                            .collect()
                    }
                })
                .collect(),
            classes,
            params,
            fusions: (0, 0),
        },
        val_reg,
        cur: Vec::new(),
        stats: IselStats::default(),
        fold: matches!(selector, Selector::Dag | Selector::GlobalOpt),
        opts,
        sunk: if matches!(selector, Selector::Dag | Selector::GlobalOpt) {
            sunk_compares(func)
        } else {
            vec![false; func.num_values()]
        },
    };

    // GlobalISel runs its whole-function generic passes first: the
    // IRTranslator builds gMIR (≈ one full lowering pass), the Legalizer
    // rewrites it wholesale, RegBankSelect walks every operand, and the
    // optimized mode adds a combiner sweep. Each pass iterates over and
    // copies the entire IR — the multi-pass cost of paper Sec. V-B3c.
    if matches!(selector, Selector::GlobalCheap | Selector::GlobalOpt) {
        // IRTranslator: a complete gMIR construction, then discarded in
        // favor of the instruction-selected MIR below.
        let mut gmir: Vec<MInst> = Vec::new();
        for b in 0..nb {
            let block = qc_ir::Block::new(b);
            for &inst in func.block_insts(block) {
                ctx.cur.clear();
                emit_lir_inst(&mut ctx, block, inst)?;
                gmir.append(&mut ctx.cur);
            }
        }
        ctx.stats.gmir_insts += gmir.len() as u64;
        // Legalizer: rewrite into a fresh buffer.
        let legalized: Vec<MInst> = gmir.to_vec();
        // Combiner (optimized only): pattern scan over the whole IR.
        if selector == Selector::GlobalOpt {
            let mut hits = 0u64;
            for inst in &legalized {
                if let MInst::AluImm { imm: 0, .. } = inst {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
        }
        // RegBankSelect: classify every operand of every instruction.
        let mut banks = 0u64;
        for inst in &legalized {
            inst.for_each_use(|v| banks += (v & 1) as u64);
            inst.for_each_def(|v| banks += (v & 1) as u64);
        }
        std::hint::black_box(banks);
        global_isel_passes(&mut ctx, selector);
    }

    for b in 0..nb {
        let block = qc_ir::Block::new(b);
        ctx.cur = Vec::new();
        let insts: Vec<qc_ir::Inst> = func.block_insts(block).to_vec();
        match selector {
            Selector::Fast => {
                let mut i = 0;
                while i < insts.len() {
                    match fastisel_supported(&ctx, insts[i]) {
                        Support::Yes => {
                            emit_lir_inst(&mut ctx, block, insts[i])?;
                            i += 1;
                        }
                        Support::No(cause) => {
                            // Fall back to SelectionDAG for the remainder
                            // of the block.
                            match cause {
                                Cause::Call => ctx.stats.fallback_calls += 1,
                                Cause::I128 => ctx.stats.fallback_i128 += 1,
                                Cause::Struct => ctx.stats.fallback_struct += 1,
                                Cause::Intrinsic => ctx.stats.fallback_intrinsic += 1,
                            }
                            let rest = &insts[i..];
                            selection_dag(&mut ctx, block, rest)?;
                            i = insts.len();
                        }
                    }
                }
            }
            Selector::Dag => selection_dag(&mut ctx, block, &insts)?,
            Selector::GlobalCheap | Selector::GlobalOpt => {
                // InstructionSelect: gMIR → MIR, in place, block by block.
                for &inst in &insts {
                    emit_lir_inst(&mut ctx, block, inst)?;
                }
            }
        }
        let done = std::mem::take(&mut ctx.cur);
        ctx.vcode.blocks.push(done);
    }

    // PHIElimination: parallel moves at the end of predecessor blocks.
    phi_elimination(&mut ctx);

    Ok(IselOutput {
        vcode: ctx.vcode,
        stats: ctx.stats,
    })
}

/// Marks, per value, the single-register integer compares whose every
/// use is a `Branch` condition or the condition of a non-F64 `Select`.
/// A folding selector fuses such a compare into each user, which emits
/// its own `cmp` and then jumps on the flags (`select_cc`);
/// materializing the boolean where the compare is defined as well would
/// be dead work.
fn sunk_compares(func: &Function) -> Vec<bool> {
    let mut uses = vec![0u32; func.num_values()];
    let mut retests = vec![0u32; func.num_values()];
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            let data = func.inst(inst);
            data.for_each_arg(|v| uses[v.index()] += 1);
            match data {
                InstData::Branch { cond, .. } => retests[cond.index()] += 1,
                InstData::Select { ty, cond, .. } if *ty != Type::F64 => {
                    retests[cond.index()] += 1;
                }
                _ => {}
            }
        }
    }
    (0..func.num_values())
        .map(|i| {
            uses[i] > 0
                && uses[i] == retests[i]
                && matches!(
                    func.value_def(Value::new(i)),
                    qc_ir::ValueDef::Inst(ci)
                        if matches!(func.inst(ci), InstData::Cmp { ty, .. } if ty.reg_count() == 1)
                )
        })
        .collect()
}

enum Support {
    Yes,
    No(Cause),
}

enum Cause {
    Call,
    I128,
    Struct,
    Intrinsic,
}

fn fastisel_supported(ctx: &Ctx, inst: qc_ir::Inst) -> Support {
    let func = ctx.func;
    let data = func.inst(inst);
    // Two-register values are unsupported: distinguish structs (strings)
    // from 128-bit integers for the statistics.
    let mut bad: Option<Cause> = None;
    let mut check = |ty: Type| {
        if ty.reg_count() == 2 && bad.is_none() {
            bad = Some(if ty == Type::String {
                Cause::Struct
            } else {
                Cause::I128
            });
        }
    };
    data.for_each_arg(|v| check(func.value_type(v)));
    if let Some(r) = func.inst_result(inst) {
        check(func.value_type(r));
    }
    // Calls: fine under Small-PIC with register arguments; the large code
    // model forces a SelectionDAG fallback for every call (Sec. V-A2).
    if let InstData::Call { args, .. } = data {
        if !ctx.opts.small_pic {
            return Support::No(Cause::Call);
        }
        let slots: usize = args
            .iter()
            .map(|&a| func.value_type(a).reg_count() as usize)
            .sum();
        if slots > 6 {
            return Support::No(Cause::Call);
        }
        if bad.is_some() {
            // Unsupported data types in a call are counted as call
            // fallbacks in the paper.
            return Support::No(Cause::Call);
        }
    }
    if matches!(data, InstData::Crc32 { .. }) && !ctx.opts.fastisel_crc32 {
        return Support::No(Cause::Intrinsic);
    }
    match bad {
        Some(cause) => Support::No(cause),
        None => Support::Yes,
    }
}

/// SelectionDAG for (the remainder of) one block: build the graph-based
/// IR, run combining with recursive known-bits queries, legalize, select,
/// and linearize. The node graph drives the *cost*; the selected output is
/// produced by the shared pattern emitter with folding enabled.
fn selection_dag(
    ctx: &mut Ctx,
    block: qc_ir::Block,
    insts: &[qc_ir::Inst],
) -> Result<(), BackendError> {
    // Build: one node per instruction plus leaves for constants and
    // out-of-block values.
    #[derive(Clone)]
    struct Node {
        op: u16,
        args: Vec<u32>,
        wide: bool,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut value_node: HashMap<Value, u32> = HashMap::new();
    for &inst in insts {
        let data = ctx.func.inst(inst);
        let mut args = Vec::new();
        data.for_each_arg(|v| {
            let id = *value_node.entry(v).or_insert_with(|| {
                nodes.push(Node {
                    op: 0, /* CopyFromReg */
                    args: Vec::new(),
                    wide: false,
                });
                (nodes.len() - 1) as u32
            });
            args.push(id);
        });
        let wide = ctx
            .func
            .inst_result(inst)
            .map(|r| ctx.func.value_type(r).reg_count() == 2)
            .unwrap_or(false);
        nodes.push(Node {
            op: discriminant_of(data),
            args,
            wide,
        });
        if let Some(r) = ctx.func.inst_result(inst) {
            value_node.insert(r, (nodes.len() - 1) as u32);
        }
    }
    ctx.stats.dag_nodes += nodes.len() as u64;

    // Combine: recursive known-bits over the DAG (the expensive part the
    // paper calls out: "determining whether any bits of the operation are
    // known, implemented as recursive traversal").
    fn known_bits(nodes: &[(u16, Vec<u32>)], id: u32, depth: u32, queries: &mut u64) -> u64 {
        *queries += 1;
        if depth == 0 {
            return 0;
        }
        let (op, args) = &nodes[id as usize];
        let mut known = !0u64;
        for &a in args {
            known &= known_bits(nodes, a, depth - 1, queries);
        }
        if *op == 0 {
            0
        } else {
            known >> 1 // operations lose precision
        }
    }
    let flat: Vec<(u16, Vec<u32>)> = nodes.iter().map(|n| (n.op, n.args.clone())).collect();
    let mut queries = 0u64;
    // LLVM runs DAGCombine three times: before legalization, after
    // legalization, and after selection.
    for _round in 0..3 {
        for (i, n) in nodes.iter().enumerate() {
            if n.op != 0 && !n.args.is_empty() {
                let _ = known_bits(&flat, i as u32, 6, &mut queries);
            }
        }
    }
    ctx.stats.known_bits_queries += queries;

    // Legalize: split wide (two-register) nodes.
    let wide_count = nodes.iter().filter(|n| n.wide).count();
    let _ = wide_count;

    // Select + schedule: emit in source order (topological for a linear
    // block) through the folding pattern emitter.
    let saved_fold = ctx.fold;
    ctx.fold = true;
    for &inst in insts {
        emit_lir_inst(ctx, block, inst)?;
    }
    ctx.fold = saved_fold;
    Ok(())
}

fn discriminant_of(data: &InstData) -> u16 {
    // A stable small code per instruction kind (DAG node opcode).
    match data {
        InstData::IConst { .. } => 1,
        InstData::FConst { .. } => 2,
        InstData::Binary { .. } => 3,
        InstData::Cmp { .. } => 4,
        InstData::FCmp { .. } => 5,
        InstData::Cast { .. } => 6,
        InstData::Crc32 { .. } => 7,
        InstData::LongMulFold { .. } => 8,
        InstData::Select { .. } => 9,
        InstData::Load { .. } => 10,
        InstData::Store { .. } => 11,
        InstData::Gep { .. } => 12,
        InstData::StackAddr { .. } => 13,
        InstData::Call { .. } => 14,
        InstData::FuncAddr { .. } => 15,
        InstData::Phi { .. } => 16,
        InstData::Jump { .. } => 17,
        InstData::Branch { .. } => 18,
        InstData::Return { .. } => 19,
        InstData::Unreachable => 20,
    }
}

/// GlobalISel's whole-function generic passes: IRTranslator → Legalizer →
/// (Combiner) → RegBankSelect. Each pass iterates over and rewrites the
/// entire IR — the multi-pass cost the paper measures (Sec. V-B3c).
fn global_isel_passes(ctx: &mut Ctx, selector: Selector) {
    // IRTranslator: generic MIR, one record per LIR instruction.
    let mut gmir: Vec<(u16, u8)> = Vec::new();
    for block in ctx.func.blocks() {
        for &inst in ctx.func.block_insts(block) {
            let data = ctx.func.inst(inst);
            gmir.push((discriminant_of(data), 0));
        }
    }
    ctx.stats.gmir_insts += gmir.len() as u64;
    // Legalizer: rewrite wide operations (new buffer, full iteration).
    let legalized: Vec<(u16, u8)> = gmir.iter().map(|&(op, _)| (op, 1)).collect();
    // Combiner (optimized mode only): another full scan.
    let combined: Vec<(u16, u8)> = if selector == Selector::GlobalOpt {
        legalized.iter().map(|&(op, f)| (op, f | 2)).collect()
    } else {
        legalized
    };
    // RegBankSelect: assign a bank per instruction (full iteration).
    let mut banks = 0u64;
    for &(op, _) in &combined {
        banks += (op as u64) & 1;
    }
    let _ = banks;
}

/// PHIElimination: Φ vregs are written by parallel moves at the end of
/// each predecessor block (splitting conditional edges through trampoline
/// blocks when required).
fn phi_elimination(ctx: &mut Ctx) {
    let func = ctx.func;
    // Collect per-edge moves: (pred, succ) -> Vec<(src, dst)> (flattened).
    let mut edge_moves: HashMap<(usize, usize), Vec<(VReg, VReg)>> = HashMap::new();
    for block in func.blocks() {
        for &inst in func.block_insts(block) {
            if let InstData::Phi { pairs, .. } = func.inst(inst) {
                let res = func.inst_result(inst).expect("phi result");
                let (dlo, dhi) = ctx.val_reg[res.index()];
                for &(pred, src) in pairs {
                    let (slo, shi) = ctx.val_reg[src.index()];
                    let m = edge_moves.entry((pred.index(), block.index())).or_default();
                    m.push((slo, dlo));
                    if dhi != VNONE {
                        m.push((shi, dhi));
                    }
                }
            } else {
                break;
            }
        }
    }
    for ((pred, succ), moves) in edge_moves {
        let term_count = {
            let insts = &ctx.vcode.blocks[pred];
            // Number of trailing branch instructions (Jcc+Jmp or Jmp).
            let mut n = 0;
            for inst in insts.iter().rev() {
                match inst {
                    MInst::Jmp { .. } | MInst::Jcc { .. } => n += 1,
                    _ => break,
                }
            }
            n
        };
        let single_succ = ctx.vcode.succs[pred].len() == 1;
        if single_succ {
            let insts = &mut ctx.vcode.blocks[pred];
            let at = insts.len() - term_count;
            insts.insert(at, MInst::ParMove { moves });
        } else {
            // Split the edge: new trampoline block with the moves.
            let tramp = ctx.vcode.blocks.len();
            ctx.vcode
                .blocks
                .push(vec![MInst::ParMove { moves }, MInst::Jmp { target: succ }]);
            ctx.vcode.succs.push(vec![succ]);
            for inst in ctx.vcode.blocks[pred].iter_mut() {
                match inst {
                    MInst::Jcc { target, .. } | MInst::Jmp { target } if *target == succ => {
                        *target = tramp;
                    }
                    _ => {}
                }
            }
            for s in ctx.vcode.succs[pred].iter_mut() {
                if *s == succ {
                    *s = tramp;
                }
            }
        }
    }
}

fn new_vreg(ctx: &mut Ctx, class: RegClass) -> VReg {
    ctx.vcode.classes.push(class);
    (ctx.vcode.classes.len() - 1) as VReg
}

fn lo(ctx: &Ctx, v: Value) -> VReg {
    ctx.val_reg[v.index()].0
}

fn hi(ctx: &Ctx, v: Value) -> VReg {
    ctx.val_reg[v.index()].1
}

/// Emits the flag-setting half of a one-register integer compare: `cmp`,
/// or `cmp`-immediate on a folded constant. Returns the condition that
/// holds when the compare is true.
fn emit_test(ctx: &mut Ctx, op: CmpOp, ty: Type, args: [Value; 2]) -> Cond {
    let w = width_of(ty);
    let a = lo(ctx, args[0]);
    if let Some(imm) = fold_imm(ctx, args[1]) {
        ctx.cur.push(MInst::CmpImm { w, a, imm });
    } else {
        let b = lo(ctx, args[1]);
        ctx.cur.push(MInst::Cmp { w, a, b });
    }
    cond_of(op)
}

/// Folds a constant operand into an immediate when folding is enabled and
/// the producer is an in-function `iconst` (SelectionDAG-style matching).
fn fold_imm(ctx: &Ctx, v: Value) -> Option<i64> {
    if !ctx.fold {
        return None;
    }
    match ctx.func.value_def(v) {
        qc_ir::ValueDef::Inst(i) => match ctx.func.inst(i) {
            InstData::IConst { imm, ty } if ty.reg_count() == 1 => i64::try_from(*imm).ok(),
            _ => None,
        },
        qc_ir::ValueDef::Param(_) => None,
    }
}

#[allow(clippy::too_many_lines)]
fn emit_lir_inst(
    ctx: &mut Ctx,
    block: qc_ir::Block,
    inst: qc_ir::Inst,
) -> Result<(), BackendError> {
    let func = ctx.func;
    let data = func.inst(inst).clone();
    let res = func.inst_result(inst);
    match data {
        InstData::Phi { .. } => {} // handled by PHIElimination
        InstData::IConst { ty, imm } => {
            let r = res.expect("const");
            if ty.reg_count() == 2 {
                let (l, h) = (lo(ctx, r), hi(ctx, r));
                ctx.cur.push(MInst::MovRI {
                    d: l,
                    imm: imm as i64,
                });
                ctx.cur.push(MInst::MovRI {
                    d: h,
                    imm: (imm >> 64) as i64,
                });
            } else {
                let canon = if ty.bits() >= 64 {
                    imm as u64
                } else {
                    (imm as u64) & ((1u64 << ty.bits()) - 1)
                };
                ctx.cur.push(MInst::MovRI {
                    d: lo(ctx, r),
                    imm: canon as i64,
                });
            }
        }
        InstData::FConst { imm } => {
            let r = res.expect("const");
            let bits = new_vreg(ctx, RegClass::Int);
            ctx.cur.push(MInst::MovRI {
                d: bits,
                imm: imm.to_bits() as i64,
            });
            ctx.cur.push(MInst::FMovFromGpr {
                d: lo(ctx, r),
                s: bits,
            });
        }
        InstData::Binary { op, ty, args } => {
            emit_binary(ctx, op, ty, args, res.expect("binary"))?;
        }
        InstData::Cmp { .. } if ctx.sunk[res.expect("cmp").index()] => {
            // Each branch or select that uses it compares the operands
            // itself.
        }
        InstData::Cmp { op, ty, args } => {
            let r = res.expect("cmp");
            if ty.reg_count() == 2 {
                emit_cmp_wide(ctx, op, args, lo(ctx, r));
            } else {
                let cond = emit_test(ctx, op, ty, args);
                ctx.cur.push(MInst::SetCc {
                    cond,
                    d: lo(ctx, r),
                });
            }
        }
        InstData::FCmp { op, args } => {
            let r = res.expect("fcmp");
            ctx.cur.push(MInst::FCmpM {
                a: lo(ctx, args[0]),
                b: lo(ctx, args[1]),
            });
            ctx.cur.push(MInst::SetCc {
                cond: fcond_of(op),
                d: lo(ctx, r),
            });
        }
        InstData::Cast { op, to, arg } => {
            let r = res.expect("cast");
            let from = func.value_type(arg);
            match op {
                CastOp::Zext => {
                    ctx.cur.push(MInst::MovRR {
                        d: lo(ctx, r),
                        s: lo(ctx, arg),
                    });
                    if to.reg_count() == 2 {
                        ctx.cur.push(MInst::MovRI {
                            d: hi(ctx, r),
                            imm: 0,
                        });
                    }
                }
                CastOp::Sext => {
                    if from.reg_count() == 2 {
                        ctx.cur.push(MInst::MovRR {
                            d: lo(ctx, r),
                            s: lo(ctx, arg),
                        });
                        ctx.cur.push(MInst::MovRR {
                            d: hi(ctx, r),
                            s: hi(ctx, arg),
                        });
                    } else {
                        if from == Type::I64 || from == Type::Ptr {
                            ctx.cur.push(MInst::MovRR {
                                d: lo(ctx, r),
                                s: lo(ctx, arg),
                            });
                        } else {
                            ctx.cur.push(MInst::Sext {
                                from: width_of(from),
                                d: lo(ctx, r),
                                s: lo(ctx, arg),
                            });
                        }
                        if to.reg_count() == 2 {
                            let h = hi(ctx, r);
                            ctx.cur.push(MInst::MovRR {
                                d: h,
                                s: lo(ctx, r),
                            });
                            ctx.cur.push(MInst::AluImm {
                                op: AluOp::Sar,
                                w: Width::W64,
                                sf: false,
                                d: h,
                                s1: h,
                                imm: 63,
                            });
                        }
                    }
                }
                CastOp::Trunc => {
                    ctx.cur.push(MInst::MovRR {
                        d: lo(ctx, r),
                        s: lo(ctx, arg),
                    });
                    let mask: i64 = match to {
                        Type::Bool | Type::I8 => 0xFF,
                        Type::I16 => 0xFFFF,
                        Type::I32 => 0xFFFF_FFFF,
                        _ => -1,
                    };
                    if mask != -1 {
                        ctx.cur.push(MInst::AluImm {
                            op: AluOp::And,
                            w: Width::W64,
                            sf: false,
                            d: lo(ctx, r),
                            s1: lo(ctx, r),
                            imm: mask,
                        });
                    }
                    if to == Type::Bool {
                        ctx.cur.push(MInst::AluImm {
                            op: AluOp::And,
                            w: Width::W8,
                            sf: false,
                            d: lo(ctx, r),
                            s1: lo(ctx, r),
                            imm: 1,
                        });
                    }
                }
                CastOp::SiToF => {
                    if from.reg_count() == 2 {
                        return Err(BackendError::new("lvm: sitof from i128"));
                    }
                    let src = if from == Type::I64 {
                        lo(ctx, arg)
                    } else {
                        let t = new_vreg(ctx, RegClass::Int);
                        ctx.cur.push(MInst::Sext {
                            from: width_of(from),
                            d: t,
                            s: lo(ctx, arg),
                        });
                        t
                    };
                    ctx.cur.push(MInst::CvtSiToF {
                        d: lo(ctx, r),
                        s: src,
                    });
                }
                CastOp::FToSi => {
                    ctx.cur.push(MInst::CvtFToSi {
                        d: lo(ctx, r),
                        s: lo(ctx, arg),
                    });
                }
            }
        }
        InstData::Crc32 { args } => {
            let r = res.expect("crc32");
            ctx.cur.push(MInst::Crc32 {
                d: lo(ctx, r),
                acc: lo(ctx, args[0]),
                data: lo(ctx, args[1]),
            });
        }
        InstData::LongMulFold { args } => {
            let r = res.expect("lmf");
            let h = new_vreg(ctx, RegClass::Int);
            ctx.cur.push(MInst::MulFull {
                dlo: lo(ctx, r),
                dhi: h,
                a: lo(ctx, args[0]),
                b: lo(ctx, args[1]),
            });
            ctx.cur.push(MInst::Alu {
                op: AluOp::Xor,
                w: Width::W64,
                sf: false,
                d: lo(ctx, r),
                s1: lo(ctx, r),
                s2: h,
            });
        }
        InstData::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => {
            let r = res.expect("select");
            if ty == Type::F64 {
                ctx.cur.push(MInst::FSelect {
                    cond: lo(ctx, cond),
                    d: lo(ctx, r),
                    t: lo(ctx, if_true),
                    f: lo(ctx, if_false),
                });
            } else if ctx.sunk[cond.index()] {
                // select_cc: re-test the compare's operands before each
                // half and pick on the flags.
                let qc_ir::ValueDef::Inst(ci) = func.value_def(cond) else {
                    unreachable!("a sunk compare is an instruction");
                };
                let InstData::Cmp { op, ty: cty, args } = *func.inst(ci) else {
                    unreachable!("a sunk value is a compare");
                };
                let mut halves = vec![(lo(ctx, r), lo(ctx, if_true), lo(ctx, if_false))];
                if ty.reg_count() == 2 {
                    halves.push((hi(ctx, r), hi(ctx, if_true), hi(ctx, if_false)));
                }
                for (d, t, f) in halves {
                    let cc = emit_test(ctx, op, cty, args);
                    ctx.cur.push(MInst::SelectCc { cc, d, t, f });
                }
            } else {
                ctx.cur.push(MInst::Select {
                    cond: lo(ctx, cond),
                    d: lo(ctx, r),
                    t: lo(ctx, if_true),
                    f: lo(ctx, if_false),
                });
                if ty.reg_count() == 2 {
                    ctx.cur.push(MInst::Select {
                        cond: lo(ctx, cond),
                        d: hi(ctx, r),
                        t: hi(ctx, if_true),
                        f: hi(ctx, if_false),
                    });
                }
            }
        }
        InstData::Load { ty, ptr, offset } => {
            let r = res.expect("load");
            match ty {
                Type::F64 => ctx.cur.push(MInst::FLoad {
                    d: lo(ctx, r),
                    base: lo(ctx, ptr),
                    disp: offset,
                }),
                t if t.reg_count() == 2 => {
                    ctx.cur.push(MInst::Load {
                        w: Width::W64,
                        d: lo(ctx, r),
                        base: lo(ctx, ptr),
                        disp: offset,
                    });
                    ctx.cur.push(MInst::Load {
                        w: Width::W64,
                        d: hi(ctx, r),
                        base: lo(ctx, ptr),
                        disp: offset + 8,
                    });
                }
                t => ctx.cur.push(MInst::Load {
                    w: width_of(t),
                    d: lo(ctx, r),
                    base: lo(ctx, ptr),
                    disp: offset,
                }),
            }
        }
        InstData::Store {
            ty,
            ptr,
            value,
            offset,
        } => match ty {
            Type::F64 => ctx.cur.push(MInst::FStore {
                s: lo(ctx, value),
                base: lo(ctx, ptr),
                disp: offset,
            }),
            t if t.reg_count() == 2 => {
                ctx.cur.push(MInst::Store {
                    w: Width::W64,
                    s: lo(ctx, value),
                    base: lo(ctx, ptr),
                    disp: offset,
                });
                ctx.cur.push(MInst::Store {
                    w: Width::W64,
                    s: hi(ctx, value),
                    base: lo(ctx, ptr),
                    disp: offset + 8,
                });
            }
            t => ctx.cur.push(MInst::Store {
                w: width_of(t),
                s: lo(ctx, value),
                base: lo(ctx, ptr),
                disp: offset,
            }),
        },
        InstData::Gep {
            base,
            offset,
            index,
            scale,
        } => {
            let r = res.expect("gep");
            match index {
                Some(i) if ctx.fold => {
                    // DAG folds scaled indices into one addressing op.
                    ctx.cur.push(MInst::Lea {
                        d: lo(ctx, r),
                        base: lo(ctx, base),
                        index: Some((lo(ctx, i), scale)),
                        disp: offset as i32,
                    });
                }
                Some(i) => {
                    // Naive expansion: mul + add + add.
                    let t = new_vreg(ctx, RegClass::Int);
                    ctx.cur.push(MInst::MovRI {
                        d: t,
                        imm: scale as i64,
                    });
                    ctx.cur.push(MInst::Alu {
                        op: AluOp::Mul,
                        w: Width::W64,
                        sf: false,
                        d: t,
                        s1: lo(ctx, i),
                        s2: t,
                    });
                    ctx.cur.push(MInst::Alu {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: t,
                        s1: t,
                        s2: lo(ctx, base),
                    });
                    ctx.cur.push(MInst::AluImm {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: lo(ctx, r),
                        s1: t,
                        imm: offset,
                    });
                }
                None => {
                    ctx.cur.push(MInst::AluImm {
                        op: AluOp::Add,
                        w: Width::W64,
                        sf: false,
                        d: lo(ctx, r),
                        s1: lo(ctx, base),
                        imm: offset,
                    });
                }
            }
        }
        InstData::StackAddr { slot } => {
            let r = res.expect("stackaddr");
            // Byte offset within the user frame area (16-byte aligned).
            let mut off = 0u32;
            for s in func.stack_slots().iter().take(slot.index()) {
                off = (off + s.align - 1) & !(s.align - 1);
                off += s.size;
            }
            let data = func.stack_slot(slot);
            off = (off + data.align - 1) & !(data.align - 1);
            ctx.cur.push(MInst::FrameAddr { d: lo(ctx, r), off });
        }
        InstData::Call { callee, args } => {
            let decl = func.ext_func(callee).clone();
            let mut flat = Vec::new();
            for &a in &args {
                flat.push(lo(ctx, a));
                if func.value_type(a).reg_count() == 2 {
                    flat.push(hi(ctx, a));
                }
            }
            let ret = match res {
                None => Vec::new(),
                Some(r) if func.value_type(r).reg_count() == 2 => {
                    vec![lo(ctx, r), hi(ctx, r)]
                }
                Some(r) => vec![lo(ctx, r)],
            };
            ctx.cur.push(MInst::CallRt {
                target: CallTarget::Sym(decl.name.into_owned()),
                args: flat,
                ret,
            });
        }
        InstData::FuncAddr { func: fid } => {
            let r = res.expect("funcaddr");
            ctx.cur.push(MInst::FuncAddr {
                d: lo(ctx, r),
                func: fid.index(),
            });
        }
        InstData::Jump { dest } => {
            ctx.cur.push(MInst::Jmp {
                target: dest.index(),
            });
        }
        InstData::Branch {
            cond,
            then_dest,
            else_dest,
        } => {
            // DAG fuses a one-register compare (under the optimizing
            // selectors, a sunk one emitted nothing where it is defined);
            // FastISel re-tests the bool.
            let mut fused = false;
            if ctx.fold {
                if let qc_ir::ValueDef::Inst(ci) = func.value_def(cond) {
                    if let InstData::Cmp { op, ty, args } = *func.inst(ci) {
                        if ty.reg_count() == 1 {
                            let cond = emit_test(ctx, op, ty, args);
                            ctx.cur.push(MInst::Jcc {
                                cond,
                                target: then_dest.index(),
                            });
                            fused = true;
                        }
                    }
                }
            }
            if !fused {
                ctx.cur.push(MInst::CmpImm {
                    w: Width::W8,
                    a: lo(ctx, cond),
                    imm: 0,
                });
                ctx.cur.push(MInst::Jcc {
                    cond: Cond::Ne,
                    target: then_dest.index(),
                });
            }
            ctx.cur.push(MInst::Jmp {
                target: else_dest.index(),
            });
            let _ = block;
        }
        InstData::Return { value } => {
            let vals = match value {
                None => Vec::new(),
                Some(v) if func.value_type(v).reg_count() == 2 => {
                    vec![lo(ctx, v), hi(ctx, v)]
                }
                Some(v) => vec![lo(ctx, v)],
            };
            ctx.cur.push(MInst::Ret { vals });
        }
        InstData::Unreachable => ctx.cur.push(MInst::Trap { code: 0 }),
    }
    Ok(())
}

fn emit_binary(
    ctx: &mut Ctx,
    op: Opcode,
    ty: Type,
    args: [Value; 2],
    r: Value,
) -> Result<(), BackendError> {
    if ty == Type::F64 {
        let fop = match op {
            Opcode::FAdd => FaluOp::Add,
            Opcode::FSub => FaluOp::Sub,
            Opcode::FMul => FaluOp::Mul,
            Opcode::FDiv => FaluOp::Div,
            other => return Err(BackendError::new(format!("float op expected, got {other}"))),
        };
        ctx.cur.push(MInst::Falu {
            op: fop,
            d: lo(ctx, r),
            a: lo(ctx, args[0]),
            b: lo(ctx, args[1]),
        });
        return Ok(());
    }
    if ty.reg_count() == 2 {
        match op {
            Opcode::Add | Opcode::Sub | Opcode::SAddTrap | Opcode::SSubTrap => {
                let (lo_op, hi_op) = if matches!(op, Opcode::Add | Opcode::SAddTrap) {
                    (AluOp::Add, AluOp::Adc)
                } else {
                    (AluOp::Sub, AluOp::Sbb)
                };
                ctx.cur.push(MInst::Alu {
                    op: lo_op,
                    w: Width::W64,
                    sf: true,
                    d: lo(ctx, r),
                    s1: lo(ctx, args[0]),
                    s2: lo(ctx, args[1]),
                });
                ctx.cur.push(MInst::Alu {
                    op: hi_op,
                    w: Width::W64,
                    sf: true,
                    d: hi(ctx, r),
                    s1: hi(ctx, args[0]),
                    s2: hi(ctx, args[1]),
                });
                if op.can_trap() {
                    ctx.cur.push(MInst::TrapIf {
                        cond: Cond::O,
                        code: 1,
                    });
                }
            }
            Opcode::SMulTrap => {
                // The paper's custom 128-bit multiplication: a run-time
                // check for 64-bit-representable operands with an inline
                // fast path, otherwise the hand-optimized helper.
                ctx.cur.push(MInst::CallRt {
                    target: CallTarget::Sym("rt_mul128_ovf".into()),
                    args: vec![
                        lo(ctx, args[0]),
                        hi(ctx, args[0]),
                        lo(ctx, args[1]),
                        hi(ctx, args[1]),
                    ],
                    ret: vec![lo(ctx, r), hi(ctx, r)],
                });
            }
            Opcode::SDiv => {
                ctx.cur.push(MInst::CallRt {
                    target: CallTarget::Sym("rt_i128_div".into()),
                    args: vec![
                        lo(ctx, args[0]),
                        hi(ctx, args[0]),
                        lo(ctx, args[1]),
                        hi(ctx, args[1]),
                    ],
                    ret: vec![lo(ctx, r), hi(ctx, r)],
                });
            }
            other => {
                return Err(BackendError::new(format!(
                    "lvm: {other} at i128 unsupported"
                )));
            }
        }
        return Ok(());
    }
    let w = width_of(ty);
    match op {
        Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem => {
            ctx.cur.push(MInst::Div {
                signed: matches!(op, Opcode::SDiv | Opcode::SRem),
                rem: matches!(op, Opcode::SRem | Opcode::URem),
                w,
                d: lo(ctx, r),
                a: lo(ctx, args[0]),
                b: lo(ctx, args[1]),
            });
        }
        Opcode::SAddOvf | Opcode::SSubOvf | Opcode::SMulOvf => {
            let t = new_vreg(ctx, RegClass::Int);
            let aop = match op {
                Opcode::SAddOvf => AluOp::Add,
                Opcode::SSubOvf => AluOp::Sub,
                _ => AluOp::Mul,
            };
            ctx.cur.push(MInst::Alu {
                op: aop,
                w,
                sf: true,
                d: t,
                s1: lo(ctx, args[0]),
                s2: lo(ctx, args[1]),
            });
            ctx.cur.push(MInst::SetCc {
                cond: Cond::O,
                d: lo(ctx, r),
            });
        }
        _ => {
            let trapping = op.can_trap();
            let aop = match op {
                Opcode::Add | Opcode::SAddTrap => AluOp::Add,
                Opcode::Sub | Opcode::SSubTrap => AluOp::Sub,
                Opcode::Mul | Opcode::SMulTrap => AluOp::Mul,
                Opcode::And => AluOp::And,
                Opcode::Or => AluOp::Or,
                Opcode::Xor => AluOp::Xor,
                Opcode::Shl => AluOp::Shl,
                Opcode::LShr => AluOp::Shr,
                Opcode::AShr => AluOp::Sar,
                Opcode::RotR => AluOp::Rotr,
                other => return Err(BackendError::new(format!("unexpected op {other}"))),
            };
            // Strength reduction in folding mode: mul by power of two.
            if ctx.fold && aop == AluOp::Mul && !trapping {
                if let Some(imm) = fold_imm(ctx, args[1]) {
                    if imm > 0 && (imm as u64).is_power_of_two() {
                        ctx.cur.push(MInst::AluImm {
                            op: AluOp::Shl,
                            w,
                            sf: false,
                            d: lo(ctx, r),
                            s1: lo(ctx, args[0]),
                            imm: imm.trailing_zeros() as i64,
                        });
                        return Ok(());
                    }
                }
            }
            if let Some(imm) = fold_imm(ctx, args[1]).filter(|_| !trapping) {
                ctx.cur.push(MInst::AluImm {
                    op: aop,
                    w,
                    sf: false,
                    d: lo(ctx, r),
                    s1: lo(ctx, args[0]),
                    imm,
                });
            } else {
                ctx.cur.push(MInst::Alu {
                    op: aop,
                    w,
                    sf: trapping,
                    d: lo(ctx, r),
                    s1: lo(ctx, args[0]),
                    s2: lo(ctx, args[1]),
                });
                if trapping {
                    ctx.cur.push(MInst::TrapIf {
                        cond: Cond::O,
                        code: 1,
                    });
                }
            }
        }
    }
    Ok(())
}

fn emit_cmp_wide(ctx: &mut Ctx, op: CmpOp, args: [Value; 2], dst: VReg) {
    let (alo, ahi) = (lo(ctx, args[0]), hi(ctx, args[0]));
    let (blo, bhi) = (lo(ctx, args[1]), hi(ctx, args[1]));
    let t1 = new_vreg(ctx, RegClass::Int);
    let t2 = new_vreg(ctx, RegClass::Int);
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            ctx.cur.push(MInst::Alu {
                op: AluOp::Xor,
                w: Width::W64,
                sf: false,
                d: t1,
                s1: alo,
                s2: blo,
            });
            ctx.cur.push(MInst::Alu {
                op: AluOp::Xor,
                w: Width::W64,
                sf: false,
                d: t2,
                s1: ahi,
                s2: bhi,
            });
            ctx.cur.push(MInst::Alu {
                op: AluOp::Or,
                w: Width::W64,
                sf: true,
                d: t1,
                s1: t1,
                s2: t2,
            });
            ctx.cur.push(MInst::SetCc {
                cond: cond_of(op),
                d: dst,
            });
        }
        _ => {
            let (x, y, c) = match op {
                CmpOp::SLt => ((alo, ahi), (blo, bhi), Cond::Lt),
                CmpOp::SGe => ((alo, ahi), (blo, bhi), Cond::Ge),
                CmpOp::SGt => ((blo, bhi), (alo, ahi), Cond::Lt),
                CmpOp::SLe => ((blo, bhi), (alo, ahi), Cond::Ge),
                CmpOp::ULt => ((alo, ahi), (blo, bhi), Cond::B),
                CmpOp::UGe => ((alo, ahi), (blo, bhi), Cond::Ae),
                CmpOp::UGt => ((blo, bhi), (alo, ahi), Cond::B),
                CmpOp::ULe => ((blo, bhi), (alo, ahi), Cond::Ae),
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            };
            ctx.cur.push(MInst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                sf: true,
                d: t1,
                s1: x.0,
                s2: y.0,
            });
            ctx.cur.push(MInst::Alu {
                op: AluOp::Sbb,
                w: Width::W64,
                sf: true,
                d: t2,
                s1: x.1,
                s2: y.1,
            });
            ctx.cur.push(MInst::SetCc { cond: c, d: dst });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::{FunctionBuilder, Signature};

    const OPTS: IselOptions = IselOptions {
        small_pic: true,
        fastisel_crc32: true,
    };

    /// `f(x, y)`: `x < y` branches to a block that tests
    /// `rt_probe(x) == 10`; each compare's one use is its block's
    /// branch. Under the large code model FastISel hands the second
    /// block to SelectionDAG at the call.
    fn branch_only() -> Function {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64; 2], Type::I64));
        let probe = b.declare_ext_func(qc_ir::ExtFuncDecl {
            name: "rt_probe".into(),
            sig: Signature::new(vec![Type::I64], Type::I64),
        });
        let (entry, next, yes, no) = (
            b.entry_block(),
            b.create_block(),
            b.create_block(),
            b.create_block(),
        );
        b.switch_to(entry);
        let (x, y) = (b.param(0), b.param(1));
        let lt = b.icmp(CmpOp::SLt, Type::I64, x, y);
        b.branch(lt, next, no);
        b.switch_to(next);
        let h = b.call(probe, vec![x]).expect("returns a value");
        let ten = b.iconst(Type::I64, 10);
        let eq = b.icmp(CmpOp::Eq, Type::I64, h, ten);
        b.branch(eq, yes, no);
        b.switch_to(yes);
        b.ret(Some(x));
        b.switch_to(no);
        b.ret(Some(y));
        b.finish()
    }

    /// `f(x, y)`: `x < y` feeds a branch and, through `other`, a second
    /// user in the branch's block.
    fn shared(other: impl FnOnce(&mut FunctionBuilder, Value, Value) -> Value) -> Function {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64; 2], Type::I64));
        let (entry, yes, no) = (b.entry_block(), b.create_block(), b.create_block());
        b.switch_to(entry);
        let (x, y) = (b.param(0), b.param(1));
        let lt = b.icmp(CmpOp::SLt, Type::I64, x, y);
        let v = other(&mut b, lt, x);
        b.branch(lt, yes, no);
        b.switch_to(yes);
        b.ret(Some(v));
        b.switch_to(no);
        b.ret(Some(y));
        b.finish()
    }

    /// `(compares, set_ccs)` in the selected code.
    fn count(func: &Function, selector: Selector, opts: IselOptions) -> (usize, usize) {
        let out = select(func, selector, opts).expect("selects");
        let insts = out.vcode.blocks.iter().flatten();
        let (mut cmps, mut setccs) = (0, 0);
        for inst in insts {
            match inst {
                MInst::Cmp { .. } | MInst::CmpImm { .. } => cmps += 1,
                MInst::SetCc { .. } => setccs += 1,
                _ => {}
            }
        }
        (cmps, setccs)
    }

    #[test]
    fn a_compare_used_only_by_its_branch_emits_once() {
        qc_ir::verify_function(&branch_only()).expect("valid");
        for selector in [Selector::Dag, Selector::GlobalOpt] {
            let out = select(&branch_only(), selector, OPTS).expect("selects");
            let insts: Vec<&MInst> = out.vcode.blocks.iter().flatten().collect();
            let cmp = |i: &&&MInst| matches!(i, MInst::Cmp { .. });
            let cmp_imm = |i: &&&MInst| matches!(i, MInst::CmpImm { imm: 10, .. });
            assert_eq!(insts.iter().filter(cmp).count(), 1, "{selector:?}");
            assert_eq!(insts.iter().filter(cmp_imm).count(), 1, "{selector:?}");
            assert_eq!(
                count(&branch_only(), selector, OPTS),
                (2, 0),
                "{selector:?}"
            );
        }
    }

    /// `f(x, y) = x < y ? x : 0`, whose compare also feeds the branch
    /// that picks between the select and `y`.
    fn with_select() -> Function {
        shared(|b, lt, x| {
            let zero = b.iconst(Type::I64, 0);
            b.select(Type::I64, lt, x, zero)
        })
    }

    /// The `SelectCc`s and plain `Select`s in the selected code.
    fn selects(func: &Function, selector: Selector) -> (Vec<MInst>, usize) {
        let out = select(func, selector, OPTS).expect("selects");
        let insts = out.vcode.blocks.into_iter().flatten();
        let (mut cc, mut plain) = (Vec::new(), 0);
        for inst in insts {
            match inst {
                MInst::SelectCc { .. } => cc.push(inst),
                MInst::Select { .. } | MInst::FSelect { .. } => plain += 1,
                _ => {}
            }
        }
        (cc, plain)
    }

    #[test]
    fn a_compare_used_only_by_selects_and_branches_emits_no_setcc() {
        // `x > 7 ? x : y`: the folded constant is re-tested as an
        // immediate at the select.
        let with_imm = || {
            let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64; 2], Type::I64));
            b.switch_to(b.entry_block());
            let (x, y) = (b.param(0), b.param(1));
            let seven = b.iconst(Type::I64, 7);
            let gt = b.icmp(CmpOp::SGt, Type::I64, x, seven);
            let v = b.select(Type::I64, gt, x, y);
            b.ret(Some(v));
            b.finish()
        };
        qc_ir::verify_function(&with_select()).expect("valid");
        qc_ir::verify_function(&with_imm()).expect("valid");
        for selector in [Selector::Dag, Selector::GlobalOpt] {
            // One `cmp` at the select, one at the branch; no `setcc`.
            assert_eq!(
                count(&with_select(), selector, OPTS),
                (2, 0),
                "{selector:?}"
            );
            let (cc, plain) = selects(&with_select(), selector);
            assert_eq!(plain, 0, "{selector:?}");
            assert!(
                matches!(cc[..], [MInst::SelectCc { cc: Cond::Lt, .. }]),
                "{selector:?}: {cc:?}"
            );

            let out = select(&with_imm(), selector, OPTS).expect("selects");
            let insts: Vec<&MInst> = out.vcode.blocks.iter().flatten().collect();
            assert!(
                matches!(
                    insts[..],
                    [
                        MInst::MovRI { imm: 7, .. },
                        MInst::CmpImm { imm: 7, .. },
                        MInst::SelectCc { cc: Cond::Gt, .. },
                        MInst::Ret { .. },
                    ]
                ),
                "{selector:?}: {insts:?}"
            );
        }
    }

    #[test]
    fn an_i128_select_re_tests_once_per_half() {
        let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64; 2], Type::I128));
        b.switch_to(b.entry_block());
        let (x, y) = (b.param(0), b.param(1));
        let lt = b.icmp(CmpOp::ULt, Type::I64, x, y);
        let (wx, wy) = (b.sext(Type::I128, x), b.sext(Type::I128, y));
        let v = b.select(Type::I128, lt, wx, wy);
        b.ret(Some(v));
        let func = b.finish();
        qc_ir::verify_function(&func).expect("valid");
        for selector in [Selector::Dag, Selector::GlobalOpt] {
            assert_eq!(count(&func, selector, OPTS), (2, 0), "{selector:?}");
            let out = select(&func, selector, OPTS).expect("selects");
            let tail: Vec<&MInst> = out.vcode.blocks[0].iter().rev().take(5).rev().collect();
            let [MInst::Cmp { .. }, MInst::SelectCc {
                cc: Cond::B,
                d: d_lo,
                ..
            }, MInst::Cmp { .. }, MInst::SelectCc {
                cc: Cond::B,
                d: d_hi,
                ..
            }, MInst::Ret { vals }] = tail[..]
            else {
                panic!("{selector:?}: {tail:?}");
            };
            assert_eq!(vals, &vec![*d_lo, *d_hi], "{selector:?}");
        }
    }

    #[test]
    fn a_compare_with_another_user_still_materializes() {
        // An F64 select still tests the materialized bool.
        let with_fselect = || {
            shared(|b, lt, _| {
                let (one, two) = (b.fconst(1.0), b.fconst(2.0));
                let f = b.select(Type::F64, lt, one, two);
                b.cast(CastOp::FToSi, Type::I64, f)
            })
        };
        // The phi's incoming value on the edge into `join` is the compare.
        let with_phi = || {
            let mut b = FunctionBuilder::new("f", Signature::new(vec![Type::I64; 2], Type::I64));
            let (entry, yes, join) = (b.entry_block(), b.create_block(), b.create_block());
            b.switch_to(entry);
            let (x, y) = (b.param(0), b.param(1));
            let lt = b.icmp(CmpOp::SLt, Type::I64, x, y);
            b.branch(lt, yes, join);
            b.switch_to(yes);
            let no = b.iconst(Type::Bool, 0);
            b.jump(join);
            b.switch_to(join);
            let p = b.phi(Type::Bool, vec![(entry, lt), (yes, no)]);
            let r = b.zext(Type::I64, p);
            b.ret(Some(r));
            b.finish()
        };
        // The boolean itself is stored.
        let with_store = || {
            shared(|b, lt, x| {
                let slot = b.stack_slot(8);
                let p = b.stack_addr(slot);
                b.store(Type::Bool, p, lt, 0);
                x
            })
        };
        // An integer select beside one of those users selects on the
        // materialized bool too.
        let with_select_and_store = || {
            shared(|b, lt, x| {
                let slot = b.stack_slot(8);
                let p = b.stack_addr(slot);
                b.store(Type::Bool, p, lt, 0);
                let zero = b.iconst(Type::I64, 0);
                b.select(Type::I64, lt, x, zero)
            })
        };
        for func in [
            with_fselect(),
            with_phi(),
            with_store(),
            with_select_and_store(),
        ] {
            qc_ir::verify_function(&func).expect("valid");
            for selector in [Selector::Dag, Selector::GlobalOpt] {
                // `cmp; setcc` where the compare is defined, `cmp; jcc`
                // at the branch.
                assert_eq!(count(&func, selector, OPTS), (2, 1), "{selector:?}");
                assert!(selects(&func, selector).0.is_empty(), "{selector:?}");
            }
        }
    }

    /// FastISel's selection of [`branch_only`] under Small-PIC.
    const FAST_SMALL_PIC: &str = r#"VCode { name: "f", blocks: [[Cmp { w: W64, a: 0, b: 1 }, SetCc { cond: Lt, d: 2 }, CmpImm { w: W8, a: 2, imm: 0 }, Jcc { cond: Ne, target: 1 }, Jmp { target: 3 }], [CallRt { target: Sym("rt_probe"), args: [0], ret: [3] }, MovRI { d: 4, imm: 10 }, Cmp { w: W64, a: 3, b: 4 }, SetCc { cond: Eq, d: 5 }, CmpImm { w: W8, a: 5, imm: 0 }, Jcc { cond: Ne, target: 2 }, Jmp { target: 3 }], [Ret { vals: [0] }], [Ret { vals: [1] }]], succs: [[1, 3], [2, 3], [], []], classes: [Int, Int, Int, Int, Int, Int], params: [0, 1], fusions: (0, 0) }"#;

    /// The same under the large code model: the second block is the
    /// SelectionDAG fallback's, which fuses the compare into the branch
    /// and materializes it as well.
    const FAST_LARGE: &str = r#"VCode { name: "f", blocks: [[Cmp { w: W64, a: 0, b: 1 }, SetCc { cond: Lt, d: 2 }, CmpImm { w: W8, a: 2, imm: 0 }, Jcc { cond: Ne, target: 1 }, Jmp { target: 3 }], [CallRt { target: Sym("rt_probe"), args: [0], ret: [3] }, MovRI { d: 4, imm: 10 }, CmpImm { w: W64, a: 3, imm: 10 }, SetCc { cond: Eq, d: 5 }, CmpImm { w: W64, a: 3, imm: 10 }, Jcc { cond: Eq, target: 2 }, Jmp { target: 3 }], [Ret { vals: [0] }], [Ret { vals: [1] }]], succs: [[1, 3], [2, 3], [], []], classes: [Int, Int, Int, Int, Int, Int], params: [0, 1], fusions: (0, 0) }"#;

    /// FastISel's selection of [`with_select`] under either code model:
    /// the select tests the materialized bool.
    const FAST_SELECT: &str = r#"VCode { name: "f", blocks: [[Cmp { w: W64, a: 0, b: 1 }, SetCc { cond: Lt, d: 2 }, MovRI { d: 3, imm: 0 }, Select { cond: 2, d: 4, t: 0, f: 3 }, CmpImm { w: W8, a: 2, imm: 0 }, Jcc { cond: Ne, target: 1 }, Jmp { target: 2 }], [Ret { vals: [4] }], [Ret { vals: [1] }]], succs: [[1, 2], [], []], classes: [Int, Int, Int, Int, Int], params: [0, 1], fusions: (0, 0) }"#;

    /// FastISel materializes every compare, in its SelectionDAG fallback
    /// blocks too: its selections of [`branch_only`] and [`with_select`]
    /// under both code models are pinned as they were before the
    /// optimizing selectors stopped materializing compares that only
    /// branches and selects use.
    #[test]
    fn fast_isel_selection_is_unchanged() {
        for (small_pic, pinned) in [(true, FAST_SMALL_PIC), (false, FAST_LARGE)] {
            let opts = IselOptions { small_pic, ..OPTS };
            let out = select(&branch_only(), Selector::Fast, opts).expect("selects");
            assert_eq!(count(&branch_only(), Selector::Fast, opts), (4, 2));
            assert_eq!(format!("{:?}", out.vcode), pinned, "small_pic={small_pic}");
            let out = select(&with_select(), Selector::Fast, opts).expect("selects");
            assert_eq!(
                format!("{:?}", out.vcode),
                FAST_SELECT,
                "small_pic={small_pic}"
            );
        }
    }
}
