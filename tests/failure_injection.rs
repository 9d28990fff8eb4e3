//! Failure-injection tests spanning the whole stack: planning errors,
//! runtime traps on every back-end, emulator guards, link errors, and
//! chaos-driven faults inside the compilation service (panic isolation,
//! storage races).

use qc_backend::chaos::{ChaosBackend, ChaosFault};
use qc_backend::{Backend, BackendErrorKind};
use qc_engine::{backends, CompileService, EngineError, PreparedStatement, Session};
use qc_ir::{FunctionBuilder, Module, Opcode, Signature, Type};
use qc_plan::{col, lit_i64, PlanNode};
use qc_runtime::RuntimeState;
use qc_target::{
    new_masm, AluOp, EmuOptions, Emulator, ImageBuilder, Isa, Reentry, RuntimeDispatch, SymbolRef,
    Trap, Tx64Assembler, Width,
};
use qc_timing::TimeTrace;

/// Host with no runtime functions (generated code must not call out).
struct NoRuntime;
impl RuntimeDispatch for NoRuntime {
    fn arg_slots(&self, _: usize) -> usize {
        0
    }
    fn runtime_cost(&self, _: usize, _: &[u64]) -> u64 {
        0
    }
    fn call_runtime(&mut self, _: usize, _: &[u64], _: Reentry<'_>) -> Result<[u64; 2], Trap> {
        Err(Trap::Runtime(0))
    }
}

fn all_backends() -> Vec<Box<dyn Backend>> {
    let mut v = backends::all_for(Isa::Tx64);
    v.extend(backends::all_for(Isa::Ta64));
    v
}

/// Builds `fn f(x, y) -> i64` whose body is a single binary op.
fn binop_module(op: Opcode) -> Module {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let r = b.binary(op, Type::I64, x, y);
    b.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    m
}

fn call_on(backend: &dyn Backend, m: &Module, x: i64, y: i64) -> Result<u64, Trap> {
    let mut exe = backend.compile(m, &TimeTrace::disabled()).expect("compile");
    let mut state = RuntimeState::new();
    exe.call(&mut state, "f", &[x as u64, y as u64])
        .map(|r| r[0])
}

#[test]
fn unknown_table_is_a_plan_error() {
    let db = qc_storage::gen_hlike(0.01);
    let session = Session::new(&db);
    let plan = PlanNode::scan("no_such_table", &["x"]);
    match session.statement(&plan) {
        Err(EngineError::Plan(_)) => {}
        other => panic!("expected plan error, got {other:?}"),
    }
}

#[test]
fn unknown_column_is_a_plan_error() {
    let db = qc_storage::gen_hlike(0.01);
    let session = Session::new(&db);
    let plan =
        PlanNode::scan("lineitem", &["l_orderkey"]).filter(col("no_such_column").gt(lit_i64(0)));
    match session.statement(&plan) {
        Err(EngineError::Plan(_)) => {}
        other => panic!("expected plan error, got {other:?}"),
    }
}

#[test]
fn signed_overflow_traps_on_every_backend() {
    let m = binop_module(Opcode::SAddTrap);
    for backend in all_backends() {
        let r = call_on(backend.as_ref(), &m, i64::MAX, 1);
        assert!(
            r.is_err(),
            "{}: expected overflow trap, got {r:?}",
            backend.name()
        );
        // Non-overflowing inputs must still succeed.
        let ok = call_on(backend.as_ref(), &m, 40, 2);
        assert_eq!(ok, Ok(42), "{}", backend.name());
    }
}

#[test]
fn signed_mul_overflow_traps_on_every_backend() {
    let m = binop_module(Opcode::SMulTrap);
    for backend in all_backends() {
        let r = call_on(backend.as_ref(), &m, i64::MAX / 2, 3);
        assert!(
            r.is_err(),
            "{}: expected overflow trap, got {r:?}",
            backend.name()
        );
        assert_eq!(
            call_on(backend.as_ref(), &m, -6, -7),
            Ok(42),
            "{}",
            backend.name()
        );
    }
}

#[test]
fn division_by_zero_traps_on_every_backend() {
    let m = binop_module(Opcode::SDiv);
    for backend in all_backends() {
        let r = call_on(backend.as_ref(), &m, 42, 0);
        assert!(
            r.is_err(),
            "{}: expected div-by-zero trap, got {r:?}",
            backend.name()
        );
        assert_eq!(
            call_on(backend.as_ref(), &m, -84, -2),
            Ok(42),
            "{}",
            backend.name()
        );
    }
}

#[test]
fn int_min_division_overflow_traps_on_every_backend() {
    // i64::MIN / -1 overflows; the paper's IR traps rather than wrapping.
    let m = binop_module(Opcode::SDiv);
    for backend in all_backends() {
        let r = call_on(backend.as_ref(), &m, i64::MIN, -1);
        assert!(
            r.is_err(),
            "{}: expected overflow trap, got {r:?}",
            backend.name()
        );
    }
}

#[test]
fn fuel_guard_stops_runaway_code_on_both_isas() {
    for isa in [Isa::Tx64, Isa::Ta64] {
        let mut masm = new_masm(isa);
        let spin = masm.new_label();
        masm.bind(spin);
        masm.jmp(spin);
        masm.ret(); // unreachable; keeps the image well formed
        let (code, relocs) = masm.finish();
        let mut ib = ImageBuilder::new(isa);
        ib.add_function("spin", code, relocs);
        let image = ib.link(&|_| None).expect("link");
        let mut emu = Emulator::with_options(
            image,
            EmuOptions {
                fuel: 1_000,
                stack_size: 1 << 16,
            },
        );
        match emu.call(&mut NoRuntime, "spin", &[]) {
            Err(Trap::Fuel) => {}
            other => panic!("{isa:?}: expected fuel trap, got {other:?}"),
        }
    }
}

#[test]
fn stack_guard_stops_a_runaway_push_loop_on_both_isas() {
    for isa in [Isa::Tx64, Isa::Ta64] {
        let abi = isa.abi();
        let (code, relocs) = if isa == Isa::Tx64 {
            let mut asm = Tx64Assembler::new();
            let top = asm.new_label();
            asm.bind(top);
            asm.push(abi.arg_regs[0]);
            asm.jmp(top);
            asm.finish()
        } else {
            // TA64 has no `push`: the same thing in two instructions.
            let mut masm = new_masm(isa);
            let top = masm.new_label();
            masm.bind(top);
            masm.alu_rri(AluOp::Sub, Width::W64, false, abi.sp, abi.sp, 8);
            masm.store(Width::W64, abi.arg_regs[0], abi.sp, None, 0);
            masm.jmp(top);
            masm.finish()
        };
        let mut ib = ImageBuilder::new(isa);
        ib.add_function("spin", code, relocs);
        let mut emu = Emulator::new(ib.link(&|_| None).expect("link"));
        // Default options: unlimited fuel, so only the stack bound can
        // end the loop, after one push per eight bytes of stack.
        assert_eq!(
            emu.call(&mut NoRuntime, "spin", &[7]),
            Err(Trap::StackOverflow),
            "{isa:?}"
        );
        let pushes = (EmuOptions::default().stack_size / 8) as u64;
        assert!(
            emu.stats().insts <= 3 * pushes + 1,
            "{isa:?}: {:?}",
            emu.stats()
        );
    }
}

#[test]
fn calling_an_unknown_symbol_is_a_bad_jump() {
    let mut masm = new_masm(Isa::Tx64);
    masm.ret();
    let (code, relocs) = masm.finish();
    let mut ib = ImageBuilder::new(Isa::Tx64);
    ib.add_function("f", code, relocs);
    let image = ib.link(&|_| None).expect("link");
    let mut emu = Emulator::new(image);
    match emu.call(&mut NoRuntime, "nonexistent", &[]) {
        Err(Trap::BadJump(_)) => {}
        other => panic!("expected bad-jump trap, got {other:?}"),
    }
}

#[test]
fn unresolved_call_target_is_a_link_error_naming_the_symbol() {
    for isa in [Isa::Tx64, Isa::Ta64] {
        let mut masm = new_masm(isa);
        masm.call_sym(SymbolRef::named("missing_helper"));
        masm.ret();
        let (code, relocs) = masm.finish();
        let mut ib = ImageBuilder::new(isa);
        ib.add_function("f", code, relocs);
        let err = ib.link(&|_| None).expect_err("link must fail");
        let msg = err.to_string();
        assert!(msg.contains("missing_helper"), "{isa:?}: {msg}");
    }
}

#[test]
fn unreachable_marker_traps_on_every_backend() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    b.unreachable();
    let mut m = Module::new("m");
    m.push_function(b.finish());
    for backend in all_backends() {
        let r = call_on(backend.as_ref(), &m, 0, 0);
        assert!(r.is_err(), "{}: expected trap, got {r:?}", backend.name());
    }
}

#[test]
fn verifier_rejects_type_mismatch() {
    // add i64 of an i128 operand must not verify.
    let sig = Signature::new(vec![Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let wide = b.sext(Type::I128, x);
    let bad = b.add(Type::I64, wide, x);
    b.ret(Some(bad));
    let mut m = Module::new("m");
    m.push_function(b.finish());
    assert!(qc_ir::verify_module(&m).is_err());
}

/// A representative prepared statement for service-level fault injection.
fn prepared_scan(session: &Session<'_>) -> PreparedStatement {
    let plan = PlanNode::scan("lineitem", &["l_orderkey", "l_partkey"])
        .filter(col("l_orderkey").gt(lit_i64(10)));
    session.statement(&plan).expect("prepare")
}

#[test]
fn compile_panic_is_isolated_and_the_pool_survives() {
    // Silence the default panic hook for the injected panics only.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if !msg.is_some_and(|m| m.contains("chaos: injected")) {
            default(info);
        }
    }));

    let db = qc_storage::gen_hlike(0.01);
    let session = Session::new(&db);
    let stmt = prepared_scan(&session);
    let prepared = stmt.query();
    let service = CompileService::default();
    let trace = TimeTrace::disabled();
    let workers_before = service.worker_count();

    let chaotic: std::sync::Arc<dyn Backend> = std::sync::Arc::new(ChaosBackend::always(
        std::sync::Arc::from(backends::lvm_cheap(Isa::Tx64)),
        ChaosFault::Panic,
    ));
    match service.compile(prepared, &chaotic, &trace) {
        Err(EngineError::Backend(e)) => {
            assert_eq!(e.kind, BackendErrorKind::Panic, "{e}");
            assert!(e.message.contains("panicked"), "{e}");
        }
        Err(other) => panic!("expected isolated panic error, got {other:?}"),
        Ok(_) => panic!("expected isolated panic error, got a compiled query"),
    }
    assert!(service.fault_stats().panics_caught > 0);

    // Nothing from the failed compile may be cached, and the pool must
    // still serve clean work at full strength.
    assert_eq!(service.cache_stats().entries, 0, "poisoned cache");
    let clean: std::sync::Arc<dyn Backend> = std::sync::Arc::from(backends::lvm_cheap(Isa::Tx64));
    let mut compiled = service
        .compile(prepared, &clean, &trace)
        .expect("pool must survive a panicked job");
    session
        .run(stmt.clone())
        .execute_compiled(&mut compiled)
        .expect("post-panic execution");
    assert_eq!(service.worker_count(), workers_before);
}

#[test]
fn vanished_table_is_a_storage_error_not_a_panic() {
    // Prepare against an H-like catalog, execute against a DS-like one:
    // the table referenced by the plan no longer exists at execution
    // time, which must surface as EngineError::Storage.
    let db_h = qc_storage::gen_hlike(0.01);
    let session_h = Session::new(&db_h);
    let stmt = prepared_scan(&session_h);
    let backend: std::sync::Arc<dyn Backend> = std::sync::Arc::from(backends::interpreter());
    let mut compiled = session_h
        .run(stmt.clone())
        .backend(backend)
        .direct()
        .compile()
        .expect("compile");

    let db_ds = qc_storage::gen_dslike(0.01);
    let session_ds = Session::new(&db_ds);
    match session_ds.run(stmt.clone()).execute_compiled(&mut compiled) {
        Err(EngineError::Storage(msg)) => {
            assert!(msg.contains("lineitem"), "{msg}");
            assert!(msg.contains("vanished"), "{msg}");
        }
        Err(other) => panic!("expected storage error, got {other:?}"),
        Ok(r) => panic!("expected storage error, got {} rows", r.rows.len()),
    }
}

#[test]
fn trap_surfaces_through_the_engine_as_engine_error() {
    // quantity * extendedprice * extendedprice overflows a 128-bit decimal
    // eventually? Keep it deterministic instead: big literal multiply.
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let plan = PlanNode::scan("lineitem", &["l_orderkey"]).map(vec![(
        "boom",
        col("l_orderkey")
            .add(lit_i64(i64::MAX - 1))
            .mul(lit_i64(i64::MAX - 1)),
    )]);
    for backend in [backends::interpreter(), backends::clift(Isa::Tx64)] {
        let backend: std::sync::Arc<dyn Backend> = std::sync::Arc::from(backend);
        let name = backend.name();
        match session
            .prepare(&plan)
            .map(|run| run.backend(backend))
            .and_then(|run| run.execute())
        {
            Err(EngineError::Trap(_)) => {}
            other => panic!(
                "{name}: expected overflow trap through engine, got {:?}",
                other.map(|r| r.rows.len())
            ),
        }
    }
}
