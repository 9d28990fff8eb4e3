//! Criterion micro-benchmarks of the execution substrate itself: raw
//! emulator dispatch rate, runtime-call dispatch overhead, the bytecode
//! interpreter's dispatch loop, and the inline hash sequence — the
//! per-instruction costs underneath every cycle number in
//! EXPERIMENTS.md.
//!
//! These measure *host* wall-clock of the substrate, not model cycles.
//! The emulator decodes each instruction once (the executable is
//! compiled outside the timed loop and the first iteration fills its
//! decode cache), so what is timed is dispatch over pre-decoded
//! instructions; a bytecode op does the work of several machine
//! instructions, so the interpreter can still finish first here even
//! though its deterministic cycle cost (the paper's metric) is far
//! higher.

use criterion::{criterion_group, criterion_main, Criterion};
use qc_backend::Backend;
use qc_ir::{CmpOp, FunctionBuilder, Module, Opcode, Signature, Type};
use qc_runtime::RuntimeState;
use qc_target::Isa;
use qc_timing::TimeTrace;

/// `fn f(x, n)`: a counted loop running `n` times with eight ALU ops per
/// iteration — a pure decode/dispatch workload with no memory traffic.
fn alu_loop_module() -> Module {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let lp = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let x = b.param(0);
    let n = b.param(1);
    let zero = b.iconst(Type::I64, 0);
    b.jump(lp);
    b.switch_to(lp);
    let i = b.phi(Type::I64, vec![(entry, zero)]);
    let acc = b.phi(Type::I64, vec![(entry, x)]);
    let t1 = b.add(Type::I64, acc, i);
    let t2 = b.binary(Opcode::Xor, Type::I64, t1, x);
    let t3 = b.binary(Opcode::RotR, Type::I64, t2, i);
    let t4 = b.mul(Type::I64, t3, x);
    let t5 = b.sub(Type::I64, t4, i);
    let t6 = b.binary(Opcode::Shl, Type::I64, t5, i);
    let t7 = b.binary(Opcode::Or, Type::I64, t6, x);
    let t8 = b.add(Type::I64, t7, acc);
    b.phi_add_incoming(acc, lp, t8);
    let one = b.iconst(Type::I64, 1);
    let i2 = b.add(Type::I64, i, one);
    b.phi_add_incoming(i, lp, i2);
    let c = b.icmp(CmpOp::SLt, Type::I64, i2, n);
    b.branch(c, lp, exit);
    b.switch_to(exit);
    b.ret(Some(t8));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    m
}

/// `fn f(n)`: calls `rt_alloc` in a loop — runtime dispatch overhead.
fn rt_call_loop_module() -> Module {
    let sig = Signature::new(vec![Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let lp = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let n = b.param(0);
    let zero = b.iconst(Type::I64, 0);
    let callee = b.declare_ext_func(qc_ir::ExtFuncDecl {
        name: "rt_alloc".to_string(),
        sig: Signature::new(vec![Type::I64], Type::Ptr),
    });
    b.jump(lp);
    b.switch_to(lp);
    let i = b.phi(Type::I64, vec![(entry, zero)]);
    let sixteen = b.iconst(Type::I64, 16);
    let _p = b.call(callee, vec![sixteen]);
    let one = b.iconst(Type::I64, 1);
    let i2 = b.add(Type::I64, i, one);
    b.phi_add_incoming(i, lp, i2);
    let c = b.icmp(CmpOp::SLt, Type::I64, i2, n);
    b.branch(c, lp, exit);
    b.switch_to(exit);
    b.ret(Some(i2));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    m
}

/// `fn f(x, n)`: the paper's Listing-2 hash sequence (crc32 ×2 +
/// long-mul-fold) in a loop.
fn hash_loop_module() -> Module {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let entry = b.entry_block();
    let lp = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let x = b.param(0);
    let n = b.param(1);
    let zero = b.iconst(Type::I64, 0);
    let seed1 = b.iconst(Type::I64, 0x5851_f42d_4c95_7f2du64 as i64 as i128);
    let seed2 = b.iconst(Type::I64, 0x1405_7b7e_f767_814fu64 as i64 as i128);
    b.jump(lp);
    b.switch_to(lp);
    let i = b.phi(Type::I64, vec![(entry, zero)]);
    let acc = b.phi(Type::I64, vec![(entry, x)]);
    let c1 = b.crc32(seed1, acc);
    let c2 = b.crc32(seed2, acc);
    let thirty_two = b.iconst(Type::I64, 32);
    let hi = b.binary(Opcode::Shl, Type::I64, c2, thirty_two);
    let h = b.binary(Opcode::Or, Type::I64, c1, hi);
    let folded = b.long_mul_fold(h, seed1);
    b.phi_add_incoming(acc, lp, folded);
    let one = b.iconst(Type::I64, 1);
    let i2 = b.add(Type::I64, i, one);
    b.phi_add_incoming(i, lp, i2);
    let c = b.icmp(CmpOp::SLt, Type::I64, i2, n);
    b.branch(c, lp, exit);
    b.switch_to(exit);
    b.ret(Some(folded));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    m
}

fn run_module(make: fn() -> Module, group_name: &str, args: &[u64], c: &mut Criterion) {
    let m = make();
    let mut group = c.benchmark_group(group_name);
    let mut entries: Vec<(&str, Box<dyn Backend>)> = vec![
        ("Interpreter", Box::new(qc_interp::InterpBackend::new())),
        ("DirectEmit", Box::new(qc_direct::DirectBackend::new())),
        (
            "Clift-tx64",
            Box::new(qc_clift::CliftBackend::new(Isa::Tx64)),
        ),
        (
            "Clift-ta64",
            Box::new(qc_clift::CliftBackend::new(Isa::Ta64)),
        ),
    ];
    for (name, backend) in entries.drain(..) {
        let mut exe = backend
            .compile(&m, &TimeTrace::disabled())
            .expect("compile");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut state = RuntimeState::new();
                exe.call(&mut state, "f", std::hint::black_box(args))
                    .expect("run")
            });
        });
    }
    group.finish();
}

fn bench_alu_dispatch(c: &mut Criterion) {
    run_module(alu_loop_module, "emulate_alu_loop_1k", &[99, 1000], c);
}

fn bench_rt_dispatch(c: &mut Criterion) {
    run_module(rt_call_loop_module, "runtime_dispatch_100", &[100], c);
}

fn bench_hash_sequence(c: &mut Criterion) {
    run_module(hash_loop_module, "hash_sequence_1k", &[42, 1000], c);
}

criterion_group!(
    benches,
    bench_alu_dispatch,
    bench_rt_dispatch,
    bench_hash_sequence
);
criterion_main!(benches);
