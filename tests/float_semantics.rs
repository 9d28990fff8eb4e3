//! Floating-point semantics across every back-end: the query layer only
//! produces `f64` through `AVG` (int→float casts + division), but the IR
//! and all back-ends implement the full float ALU, comparisons, selects,
//! and conversions — results must be bit-identical to Rust `f64`.

use qc_backend::Backend;
use qc_engine::backends;
use qc_ir::{CastOp, CmpOp, FunctionBuilder, Module, Opcode, Signature, Type};
use qc_runtime::RuntimeState;
use qc_target::Isa;
use qc_timing::TimeTrace;

fn all_backends() -> Vec<Box<dyn Backend>> {
    let mut v = backends::all_for(Isa::Tx64);
    v.extend(backends::all_for(Isa::Ta64));
    v
}

fn run_all_f64(m: &Module, args: &[u64], expected_bits: u64) {
    qc_ir::verify_module(m).expect("verify");
    for backend in all_backends() {
        let mut exe = backend.compile(m, &TimeTrace::disabled()).expect("compile");
        let mut state = RuntimeState::new();
        let got = exe
            .call(&mut state, "f", args)
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", backend.name()));
        assert_eq!(
            got[0],
            expected_bits,
            "{}: got {} expected {}",
            backend.name(),
            f64::from_bits(got[0]),
            f64::from_bits(expected_bits)
        );
    }
}

/// `fn f(x: i64, y: i64) -> f64 bits`: chains every float ALU op.
#[test]
fn float_alu_chain_is_bit_identical() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::F64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let fx = b.cast(CastOp::SiToF, Type::F64, x);
    let fy = b.cast(CastOp::SiToF, Type::F64, y);
    let half = b.fconst(0.5);
    let s = b.binary(Opcode::FAdd, Type::F64, fx, fy);
    let d = b.binary(Opcode::FSub, Type::F64, s, half);
    let p = b.binary(Opcode::FMul, Type::F64, d, fx);
    let q = b.binary(Opcode::FDiv, Type::F64, p, fy);
    b.ret(Some(q));
    let mut m = Module::new("m");
    m.push_function(b.finish());

    let model = |x: i64, y: i64| -> f64 { ((x as f64 + y as f64) - 0.5) * x as f64 / y as f64 };
    for (x, y) in [(3i64, 7i64), (-5, 2), (1_000_000, -3), (0, 9)] {
        run_all_f64(&m, &[x as u64, y as u64], model(x, y).to_bits());
    }
}

/// Float comparison drives a select; both sides of the branchless path.
#[test]
fn float_compare_and_select() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::F64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let fx = b.cast(CastOp::SiToF, Type::F64, x);
    let fy = b.cast(CastOp::SiToF, Type::F64, y);
    let c = b.fcmp(CmpOp::SLt, fx, fy);
    let r = b.select(Type::F64, c, fx, fy); // min(fx, fy)
    b.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    for (x, y) in [(1i64, 2i64), (2, 1), (-8, -9), (5, 5)] {
        let expected = (x as f64).min(y as f64).to_bits();
        run_all_f64(&m, &[x as u64, y as u64], expected);
    }
}

/// A float comparison drives a branch, also on NaN: every ordered
/// comparison with a NaN operand is false and `!=` true. The compare's
/// taken block comes right after it, so an emitter that inverted the
/// branch on float flags would take the other way on NaN.
#[test]
fn float_compare_branches_on_nan() {
    let holds = |op, a: f64, b: f64| match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::SLt => a < b,
        CmpOp::SLe => a <= b,
        CmpOp::SGt => a > b,
        CmpOp::SGe => a >= b,
        _ => unreachable!(),
    };
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::SLt,
        CmpOp::SLe,
        CmpOp::SGt,
        CmpOp::SGe,
    ] {
        // `f(x, y, z, w) = (x / z) op (y / w) ? 1 : 2` in floats; a zero
        // numerator over a zero divisor makes that side NaN.
        let sig = Signature::new(vec![Type::I64; 4], Type::I64);
        let mut b = FunctionBuilder::new("f", sig);
        let entry = b.entry_block();
        let taken = b.create_block();
        let other = b.create_block();
        b.switch_to(entry);
        let [x, y, z, w] = [0, 1, 2, 3].map(|i| {
            let p = b.param(i);
            b.cast(CastOp::SiToF, Type::F64, p)
        });
        let lhs = b.binary(Opcode::FDiv, Type::F64, x, z);
        let rhs = b.binary(Opcode::FDiv, Type::F64, y, w);
        let c = b.fcmp(op, lhs, rhs);
        b.branch(c, taken, other);
        for (block, v) in [(taken, 1), (other, 2)] {
            b.switch_to(block);
            let r = b.iconst(Type::I64, v);
            b.ret(Some(r));
        }
        let mut m = Module::new("m");
        m.push_function(b.finish());
        qc_ir::verify_module(&m).expect("verify");
        for backend in all_backends() {
            let mut exe = backend
                .compile(&m, &TimeTrace::disabled())
                .expect("compile");
            let mut state = RuntimeState::new();
            for [x, y, z, w] in [
                [0i64, 1, 0, 1],
                [1, 0, 1, 0],
                [0, 0, 0, 0],
                [1, 2, 1, 1],
                [2, 2, 1, 1],
            ] {
                let (a, c) = (x as f64 / z as f64, y as f64 / w as f64);
                let want = if holds(op, a, c) { 1 } else { 2 };
                let args = [x, y, z, w].map(|v| v as u64);
                let got = exe
                    .call(&mut state, "f", &args)
                    .unwrap_or_else(|t| panic!("{}: trapped: {t}", backend.name()));
                assert_eq!(got[0], want, "{} {op:?} {a} {c}", backend.name());
            }
        }
    }
}

/// Float → int conversion (the trapping cast) on exact values.
#[test]
fn float_to_int_roundtrip() {
    let sig = Signature::new(vec![Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let fx = b.cast(CastOp::SiToF, Type::F64, x);
    let three = b.fconst(3.0);
    let trip = b.binary(Opcode::FMul, Type::F64, fx, three);
    let back = b.cast(CastOp::FToSi, Type::I64, trip);
    b.ret(Some(back));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    qc_ir::verify_module(&m).expect("verify");
    for backend in all_backends() {
        let mut exe = backend
            .compile(&m, &TimeTrace::disabled())
            .expect("compile");
        let mut state = RuntimeState::new();
        for x in [0i64, 14, -100, 1 << 20] {
            let got = exe
                .call(&mut state, "f", &[x as u64])
                .unwrap_or_else(|t| panic!("{}: trapped: {t}", backend.name()));
            assert_eq!(got[0] as i64, x * 3, "{} at x={x}", backend.name());
        }
    }
}

/// More live float values than the float register pool: float spill
/// paths must reload the right bits.
#[test]
fn float_register_pressure() {
    const N: i64 = 24;
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::F64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let fx = b.cast(CastOp::SiToF, Type::F64, x);
    let mut live = Vec::new();
    for i in 0..N {
        let k = b.fconst(i as f64 + 1.5);
        live.push(b.binary(Opcode::FMul, Type::F64, fx, k));
    }
    let mut acc = live.pop().expect("values");
    while let Some(v) = live.pop() {
        acc = b.binary(Opcode::FAdd, Type::F64, acc, v);
    }
    b.ret(Some(acc));
    let mut m = Module::new("m");
    m.push_function(b.finish());

    let model = |x: i64| -> f64 {
        let fx = x as f64;
        let vals: Vec<f64> = (0..N).map(|i| fx * (i as f64 + 1.5)).collect();
        let mut acc = vals[N as usize - 1];
        for v in vals[..N as usize - 1].iter().rev() {
            acc += v;
        }
        acc
    };
    for x in [1i64, -7, 12345] {
        run_all_f64(&m, &[x as u64, 0], model(x).to_bits());
    }
}
