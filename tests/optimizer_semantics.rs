//! Optimizer correctness: every shared IR pass (and the composed -O
//! pipeline the GCC/LVM analogs run) must preserve both the verifier
//! invariants and the observable semantics of arbitrary loopy functions,
//! including trap behavior.

use proptest::prelude::*;
use qc_backend::Backend;
use qc_ir::opt::{pass_cse, pass_dce, pass_instcombine, pass_licm, pass_phi_prune};
use qc_ir::{CmpOp, Function, FunctionBuilder, InstData, Module, Opcode, Signature, Type};
use qc_runtime::RuntimeState;
use qc_timing::TimeTrace;

/// One step of the randomly generated loop body. Indices pick operands
/// from the pool of previously defined values (modulo pool size).
#[derive(Debug, Clone)]
enum Op {
    Const(i64),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    AddTrap(usize, usize),
    Xor(usize, usize),
    And(usize, usize),
    Shl(usize, usize),
    RotR(usize, usize),
    Crc(usize, usize),
    LmF(usize, usize),
    SelectLt(usize, usize, usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let i = || 0usize..12;
    prop_oneof![
        any::<i64>().prop_map(Op::Const),
        (i(), i()).prop_map(|(a, b)| Op::Add(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Sub(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Mul(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::AddTrap(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Xor(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::And(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Shl(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::RotR(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::Crc(a, b)),
        (i(), i()).prop_map(|(a, b)| Op::LmF(a, b)),
        (i(), i(), i(), i()).prop_map(|(c, d, a, b)| Op::SelectLt(c, d, a, b)),
    ]
}

/// Builds `fn f(x, y) -> i64` as a counted loop running `trips` times,
/// with `body` applied to a growing value pool each iteration. The loop
/// gives LICM something to hoist, the duplicated body gives CSE work, and
/// the pool values never consumed give DCE work.
fn build_loop_fn(body: &[Op], trips: u8) -> Function {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let loop_bb = b.create_block();
    let exit = b.create_block();

    b.switch_to(entry);
    let x = b.param(0);
    let y = b.param(1);
    let zero = b.iconst(Type::I64, 0);
    let start_acc = b.binary(Opcode::Xor, Type::I64, x, y);
    let n = b.iconst(Type::I64, i128::from(trips));
    b.jump(loop_bb);

    b.switch_to(loop_bb);
    let i_phi = b.phi(Type::I64, vec![(entry, zero)]);
    let acc_phi = b.phi(Type::I64, vec![(entry, start_acc)]);
    let mut pool = vec![x, y, i_phi, acc_phi];
    for op in body {
        let pick = |k: usize| pool[k % pool.len()];
        let v = match *op {
            Op::Const(c) => b.iconst(Type::I64, i128::from(c)),
            Op::Add(a2, b2) => b.add(Type::I64, pick(a2), pick(b2)),
            Op::Sub(a2, b2) => b.sub(Type::I64, pick(a2), pick(b2)),
            Op::Mul(a2, b2) => b.mul(Type::I64, pick(a2), pick(b2)),
            Op::AddTrap(a2, b2) => b.binary(Opcode::SAddTrap, Type::I64, pick(a2), pick(b2)),
            Op::Xor(a2, b2) => b.binary(Opcode::Xor, Type::I64, pick(a2), pick(b2)),
            Op::And(a2, b2) => b.binary(Opcode::And, Type::I64, pick(a2), pick(b2)),
            Op::Shl(a2, b2) => b.binary(Opcode::Shl, Type::I64, pick(a2), pick(b2)),
            Op::RotR(a2, b2) => b.binary(Opcode::RotR, Type::I64, pick(a2), pick(b2)),
            Op::Crc(a2, b2) => b.crc32(pick(a2), pick(b2)),
            Op::LmF(a2, b2) => b.long_mul_fold(pick(a2), pick(b2)),
            Op::SelectLt(c2, d2, a2, b2) => {
                let c = b.icmp(CmpOp::SLt, Type::I64, pick(c2), pick(d2));
                b.select(Type::I64, c, pick(a2), pick(b2))
            }
        };
        pool.push(v);
    }
    let next_acc = b.binary(Opcode::Xor, Type::I64, acc_phi, *pool.last().expect("pool"));
    let one = b.iconst(Type::I64, 1);
    let next_i = b.add(Type::I64, i_phi, one);
    b.phi_add_incoming(i_phi, loop_bb, next_i);
    b.phi_add_incoming(acc_phi, loop_bb, next_acc);
    let more = b.icmp(CmpOp::SLt, Type::I64, next_i, n);
    b.branch(more, loop_bb, exit);

    b.switch_to(exit);
    let out = b.phi(Type::I64, vec![(loop_bb, next_acc)]);
    b.ret(Some(out));
    b.finish()
}

fn run_interp(f: Function, x: i64, y: i64) -> Result<u64, String> {
    run_interp_args(f, &[x as u64, y as u64])
}

fn run_interp_args(f: Function, args: &[u64]) -> Result<u64, String> {
    let mut m = Module::new("m");
    m.push_function(f);
    qc_ir::verify_module(&m).map_err(|e| format!("verify: {e}"))?;
    let backend = qc_interp::InterpBackend::new();
    let mut exe = backend
        .compile(&m, &TimeTrace::disabled())
        .map_err(|e| e.to_string())?;
    let mut state = RuntimeState::new();
    exe.call(&mut state, "f", args)
        .map(|r| r[0])
        .map_err(|t| format!("trap: {t}"))
}

type Pass = (&'static str, fn(&Function) -> Function);

const PASSES: &[Pass] = &[
    ("phi_prune", pass_phi_prune),
    ("cse", pass_cse),
    ("instcombine", pass_instcombine),
    ("licm", pass_licm),
    ("dce", pass_dce),
];

/// The composed pipeline minicc runs at -O3 (and qc-lvm's -O2 is the same
/// set applied twice).
fn full_pipeline(f: &Function) -> Function {
    let mut g = pass_phi_prune(f);
    g = pass_cse(&g);
    g = pass_instcombine(&g);
    g = pass_licm(&g);
    g = pass_dce(&g);
    g = pass_cse(&g);
    pass_dce(&g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_pass_preserves_loop_semantics(
        body in prop::collection::vec(op_strategy(), 1..16),
        trips in 0u8..12,
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let base = build_loop_fn(&body, trips);
        let expected = run_interp(base.clone(), x, y);
        for (name, pass) in PASSES {
            let opt = pass(&base);
            let got = run_interp(opt, x, y);
            // Traps must be preserved exactly: trapping instructions have
            // side effects and may not be removed or hoisted past control
            // flow that guards them.
            prop_assert_eq!(&got, &expected, "pass {} changed semantics", name);
        }
        let got = run_interp(full_pipeline(&base), x, y);
        prop_assert_eq!(&got, &expected, "full pipeline changed semantics");
    }

    #[test]
    fn passes_are_idempotent_on_semantics(
        body in prop::collection::vec(op_strategy(), 1..10),
        trips in 0u8..6,
        x in any::<i64>(),
        y in any::<i64>(),
    ) {
        let base = build_loop_fn(&body, trips);
        let once = full_pipeline(&base);
        let twice = full_pipeline(&once);
        prop_assert_eq!(
            run_interp(once, x, y),
            run_interp(twice, x, y),
            "second pipeline application changed semantics"
        );
    }
}

#[test]
fn licm_hoists_invariant_work_out_of_the_loop() {
    // Body multiplies the two loop-invariant params; after LICM the loop
    // block must contain fewer instructions.
    let body = vec![Op::Mul(0, 1), Op::Crc(0, 1)];
    let f = build_loop_fn(&body, 8);
    let opt = pass_licm(&f);
    let count_in = |f: &Function| -> usize {
        // Loop header is the (only) block with a phi; count its insts.
        f.blocks()
            .map(|b| f.block_insts(b).len())
            .max()
            .unwrap_or(0)
    };
    assert!(
        count_in(&opt) < count_in(&f),
        "LICM did not shrink the loop body: {} -> {}",
        count_in(&f),
        count_in(&opt)
    );
    assert_eq!(
        run_interp(f, 7, 9).expect("base"),
        run_interp(opt, 7, 9).expect("opt"),
    );
}

/// `fn f(x, y, n)`: for rows `i` in `0..n`, `acc = acc +trap g` where
/// `g` is `x ^ y` on even rows and `x * y` on odd ones. The `xor` sits in
/// the header, which runs on every iteration; the `mul` sits behind the
/// odd-row branch, so it does not dominate the latch.
fn guarded_loop_fn() -> Function {
    let sig = Signature::new(vec![Type::I64, Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let header = b.create_block();
    let guarded = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();

    b.switch_to(entry);
    let (x, y, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.iconst(Type::I64, 0);
    let one = b.iconst(Type::I64, 1);
    let enter = b.icmp(CmpOp::SLt, Type::I64, zero, n);
    b.branch(enter, header, exit);

    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(entry, zero)]);
    let acc = b.phi(Type::I64, vec![(entry, zero)]);
    let always = b.binary(Opcode::Xor, Type::I64, x, y);
    let parity = b.binary(Opcode::And, Type::I64, i, one);
    let odd = b.icmp(CmpOp::Ne, Type::I64, parity, zero);
    b.branch(odd, guarded, latch);

    b.switch_to(guarded);
    let rare = b.mul(Type::I64, x, y);
    b.jump(latch);

    b.switch_to(latch);
    let g = b.phi(Type::I64, vec![(header, always), (guarded, rare)]);
    let next_acc = b.binary(Opcode::SAddTrap, Type::I64, acc, g);
    let next_i = b.add(Type::I64, i, one);
    b.phi_add_incoming(i, latch, next_i);
    b.phi_add_incoming(acc, latch, next_acc);
    let more = b.icmp(CmpOp::SLt, Type::I64, next_i, n);
    b.branch(more, header, exit);

    b.switch_to(exit);
    let out = b.phi(Type::I64, vec![(entry, zero), (latch, next_acc)]);
    b.ret(Some(out));
    b.finish()
}

#[test]
fn licm_hoists_only_from_blocks_that_run_every_iteration() {
    let f = guarded_loop_fn();
    let opt = pass_licm(&f);
    let block_of = |f: &Function, op: Opcode| -> usize {
        f.blocks()
            .find(|&bb| {
                f.block_insts(bb)
                    .iter()
                    .any(|&i| matches!(f.inst(i), InstData::Binary { op: o, .. } if *o == op))
            })
            .expect("op present")
            .index()
    };
    assert_eq!(block_of(&f, Opcode::Xor), 1);
    assert_eq!(
        block_of(&opt, Opcode::Xor),
        0,
        "the every-iteration xor was not hoisted"
    );
    assert_eq!(
        block_of(&opt, Opcode::Mul),
        2,
        "the guarded mul left its guard"
    );

    // x * y = 2^62 + 2^31 and x ^ y = 1: row 1 adds the product once,
    // row 3 a second time and overflows. Every trip count up to 3 returns
    // the same sum, and from 4 on both versions trap, so the trap comes
    // from row 3 in each.
    let (x, y) = (1u64 << 31, (1u64 << 31) + 1);
    for n in 0..8u64 {
        let want = run_interp_args(f.clone(), &[x, y, n]);
        assert_eq!(want.is_err(), n >= 4, "n={n}: {want:?}");
        assert_eq!(run_interp_args(opt.clone(), &[x, y, n]), want, "n={n}");
    }
}

#[test]
fn dce_keeps_trapping_instructions_alive() {
    // An unused overflow-checked add must survive DCE: its trap is an
    // observable effect.
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let _unused = b.binary(Opcode::SAddTrap, Type::I64, x, x);
    let r = b.add(Type::I64, x, y);
    b.ret(Some(r));
    let f = b.finish();
    let opt = pass_dce(&f);
    assert!(
        run_interp(opt, i64::MAX, 1).is_err(),
        "DCE removed a trapping instruction"
    );
}

#[test]
fn cse_merges_duplicate_pure_work() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let a1 = b.mul(Type::I64, x, y);
    let a2 = b.mul(Type::I64, x, y);
    let s = b.add(Type::I64, a1, a2);
    b.ret(Some(s));
    let f = b.finish();
    let opt = pass_dce(&pass_cse(&f));
    let insts = |f: &Function| f.blocks().map(|bb| f.block_insts(bb).len()).sum::<usize>();
    assert!(insts(&opt) < insts(&f), "CSE+DCE removed nothing");
    assert_eq!(run_interp(f, 6, 7).unwrap(), run_interp(opt, 6, 7).unwrap());
}
