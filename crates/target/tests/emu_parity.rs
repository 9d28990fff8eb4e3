//! The emulator's pre-decoded dispatch, from outside: a run that fills
//! the decode cache, a run that only hits it and a run on a fresh
//! `Emulator` must be indistinguishable — registers, flags, `ExecStats`
//! and traps — and the traps whose payload or timing depends on how an
//! instruction was fetched are pinned instruction by instruction.
//! (That every cached slot equals a fresh decode is checked next to the
//! cache, in `emu.rs`'s unit tests.)

mod common;

use common::{cond, emit_masm, register_inst, CONDS};
use proptest::prelude::*;
use qc_target::{
    decode_inst, new_masm, runtime_addr, AluOp, CodeImage, Cond, DecodedInst, EmuOptions, Emulator,
    ExecStats, ImageBuilder, Isa, MacroAssembler, Reentry, Reg, RuntimeDispatch, SymbolRef, Trap,
    Tx64Assembler, Width,
};

const ISAS: [Isa; 2] = [Isa::Tx64, Isa::Ta64];

/// Links functions assembled for `isa`; `ext` resolves to runtime
/// helper 0, and an optional data blob rides along.
fn link(isa: Isa, funcs: Vec<(&str, Box<dyn MacroAssembler>)>, data: Option<&[u8]>) -> CodeImage {
    let mut b = ImageBuilder::new(isa);
    for (name, asm) in funcs {
        let (code, relocs) = asm.finish();
        b.add_function(name, code, relocs);
    }
    if let Some(bytes) = data {
        b.add_data("blob", bytes.to_vec(), 8, Vec::new());
    }
    b.link(&|sym| (sym == "ext").then(|| runtime_addr(0)))
        .unwrap_or_else(|e| panic!("{isa}: {e}"))
}

/// A host for code that calls no helper.
struct NoHost;

impl RuntimeDispatch for NoHost {
    fn arg_slots(&self, _index: usize) -> usize {
        0
    }

    fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
        0
    }

    fn call_runtime(&mut self, _: usize, _: &[u64], _: Reentry<'_>) -> Result<[u64; 2], Trap> {
        Err(Trap::Runtime(0xEE))
    }
}

/// One `call`, with the `ExecStats` it added.
fn call(
    emu: &mut Emulator,
    host: &mut dyn RuntimeDispatch,
    name: &str,
    args: &[u64],
) -> (Result<[u64; 2], Trap>, ExecStats) {
    let before = emu.stats();
    let r = emu.call(host, name, args);
    let after = emu.stats();
    let delta = ExecStats {
        cycles: after.cycles - before.cycles,
        insts: after.insts - before.insts,
    };
    (r, delta)
}

// ---------------------------------------------------------------- (a)

/// One step of a generated program.
#[derive(Clone, Debug)]
enum Step {
    Op(DecodedInst),
    /// A forward `jcc` over the next `n` steps.
    SkipIf(Cond, usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        register_inst().prop_map(Step::Op),
        register_inst().prop_map(Step::Op),
        register_inst().prop_map(Step::Op),
        (cond(), 1usize..6).prop_map(|(c, n)| Step::SkipIf(c, n)),
    ]
}

/// Registers the generated instructions use (`common::reg`).
const REGS: usize = 14;
/// What a finished program leaves in the observation buffer: every
/// register, then every condition as the final flags evaluate it.
type Observed = [u64; REGS + CONDS.len()];

/// `steps`, then an epilogue that stores the machine state to `out`
/// (the emulator executes against host memory) and returns.
fn assemble(isa: Isa, steps: &[Step], out: *mut Observed) -> Box<dyn MacroAssembler> {
    let mut asm = new_masm(isa);
    let mut pending: Vec<(usize, qc_target::MLabel)> = Vec::new();
    for s in steps {
        pending.retain(|&(left, label)| {
            if left == 0 {
                asm.bind(label);
            }
            left > 0
        });
        for p in &mut pending {
            p.0 -= 1;
        }
        match s {
            Step::Op(i) => emit_masm(asm.as_mut(), i),
            Step::SkipIf(c, n) => {
                let label = asm.new_label();
                asm.jcc(*c, label);
                pending.push((*n, label));
            }
        }
    }
    for (_, label) in pending {
        asm.bind(label);
    }
    let base = isa.abi().scratch;
    asm.mov_ri(base, out as i64);
    for r in 0..REGS {
        asm.store(Width::W64, Reg(r as u8), base, None, 8 * r as i32);
    }
    for (k, c) in CONDS.iter().enumerate() {
        asm.setcc(*c, Reg(0));
        asm.store(Width::W64, Reg(0), base, None, 8 * (REGS + k) as i32);
    }
    asm.ret();
    asm
}

/// Everything one run shows: result or trap, counters, machine state.
type Outcome = (Result<[u64; 2], Trap>, ExecStats, Observed);

fn observe(emu: &mut Emulator, args: &[u64], out: *mut Observed) -> Outcome {
    // SAFETY: `out` is the live allocation the program was assembled
    // against; only this thread, here or in the emulated stores
    // between these two lines, touches it.
    unsafe { out.write([0; REGS + CONDS.len()]) };
    let (r, stats) = call(emu, &mut NoHost, "f", args);
    (r, stats, unsafe { out.read() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cold fill, all hits, and a fresh emulator agree on everything.
    #[test]
    fn filling_and_hitting_the_cache_are_indistinguishable(
        steps in prop::collection::vec(step(), 1..40),
        args in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        // One raw pointer for the programs' stores and the test's reads.
        let out: *mut Observed = Box::into_raw(Box::new([0; REGS + CONDS.len()]));
        for isa in ISAS {
            let fresh =
                || Emulator::new(link(isa, vec![("f", assemble(isa, &steps, out))], None));
            let mut emu = fresh();
            let cold = observe(&mut emu, &args, out);
            let warm = observe(&mut emu, &args, out);
            let other = observe(&mut fresh(), &args, out);
            prop_assert_eq!(&cold, &warm, "{}: second run on one emulator", isa);
            prop_assert_eq!(&cold, &other, "{}: fresh emulator", isa);
            if cold.0.is_ok() {
                prop_assert!(cold.1.insts as usize > REGS + 2 * CONDS.len());
            }
        }
        // SAFETY: allocated above by `Box::into_raw`; the emulators
        // that stored through it are gone.
        drop(unsafe { Box::from_raw(out) });
    }
}

// ---------------------------------------------------------------- (c)

/// `f(n)`: counts `r0` down to zero, three instructions per iteration.
fn countdown(isa: Isa) -> CodeImage {
    let mut asm = new_masm(isa);
    let top = asm.new_label();
    asm.bind(top);
    asm.alu_rri(AluOp::Sub, Width::W64, false, Reg(0), Reg(0), 1);
    asm.cmp_ri(Width::W64, Reg(0), 0);
    asm.jcc(Cond::Ne, top);
    asm.ret();
    link(isa, vec![("f", asm)], None)
}

#[test]
fn fuel_runs_out_after_exactly_that_many_instructions() {
    for isa in ISAS {
        for fuel in [1u64, 2, 3, 4, 29, 30] {
            let opts = EmuOptions {
                fuel,
                ..Default::default()
            };
            let mut emu = Emulator::with_options(countdown(isa), opts);
            // 10 iterations + ret = 31 instructions: cold, then warm.
            for pass in ["cold", "warm"] {
                let (r, stats) = call(&mut emu, &mut NoHost, "f", &[10]);
                assert_eq!(r, Err(Trap::Fuel), "{isa} fuel {fuel} {pass}");
                assert_eq!(stats.insts, fuel, "{isa} fuel {fuel} {pass}");
            }
        }
        let opts = EmuOptions {
            fuel: 31,
            ..Default::default()
        };
        let mut emu = Emulator::with_options(countdown(isa), opts);
        for pass in ["cold", "warm"] {
            let (r, stats) = call(&mut emu, &mut NoHost, "f", &[10]);
            assert_eq!(r.map(|rv| rv[0]), Ok(0), "{isa} {pass}");
            assert_eq!(stats.insts, 31, "{isa} {pass}");
        }
    }
}

/// `f(target)`: `call target; ret`.
fn trampoline(isa: Isa) -> Box<dyn MacroAssembler> {
    let mut asm = new_masm(isa);
    asm.call_ind(Reg(0));
    asm.ret();
    asm
}

#[test]
fn a_target_outside_the_image_is_a_bad_jump_to_it() {
    for isa in ISAS {
        let image = link(isa, vec![("f", trampoline(isa))], None);
        let past_end = image.base() + image.len() as u64;
        let mut emu = Emulator::new(image);
        for target in [past_end, past_end + 4096, 8, u64::MAX] {
            for pass in ["cold", "warm"] {
                let (r, stats) = call(&mut emu, &mut NoHost, "f", &[target]);
                assert_eq!(r, Err(Trap::BadJump(target)), "{isa} {pass}");
                // The call executed; nothing at the target did.
                assert_eq!(stats.insts, 1, "{isa} {pass}");
            }
        }
    }
}

#[test]
fn bytes_that_do_not_decode_are_a_bad_jump_every_time() {
    for isa in ISAS {
        let image = link(isa, vec![("f", trampoline(isa))], Some(&[0xFF; 16]));
        let blob = image.addr_of("blob").expect("data symbol");
        let off = (blob - image.base()) as usize;
        assert!(decode_inst(isa, image.bytes(), off).is_err());
        let mut emu = Emulator::new(image);
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(call(&mut emu, &mut NoHost, "f", &[blob]));
        }
        let stats = ExecStats {
            // The call's own cost; the failed fetch counts for nothing.
            cycles: 2,
            insts: 1,
        };
        assert_eq!(seen, vec![(Err(Trap::BadJump(blob)), stats); 3], "{isa}");
    }
}

#[test]
fn a_target_inside_an_instruction_runs_what_those_bytes_decode_to() {
    // g: movabs r3, <imm64> ; mov r0, 5 ; ret — where the immediate's
    // eight bytes are themselves `mov r0, 77 ; ret ; nop`.
    let mut inner = Tx64Assembler::new();
    inner.mov_ri(Reg(0), 77);
    inner.ret();
    inner.nop();
    let (inner, _) = inner.finish();
    let imm = i64::from_le_bytes(inner.as_slice().try_into().expect("eight bytes"));
    let mut g = Tx64Assembler::new();
    g.mov_ri64(Reg(3), imm);
    g.mov_ri(Reg(0), 5);
    g.ret();
    let (g, _) = g.finish();

    let mut b = ImageBuilder::new(Isa::Tx64);
    let (f, relocs) = trampoline(Isa::Tx64).finish();
    b.add_function("f", f, relocs);
    b.add_function("g", g, Vec::new());
    let image = b.link(&|_| None).expect("link");
    let g = image.addr_of("g").expect("g");
    let inside = (g + 2 - image.base()) as usize;
    assert_eq!(
        decode_inst(Isa::Tx64, image.bytes(), inside)
            .expect("decodes")
            .0,
        DecodedInst::MovRI {
            dst: Reg(0),
            imm: 77
        }
    );

    let mut emu = Emulator::new(image);
    // Whole instruction first, so both views of the same bytes end up
    // cached side by side; then each again, warm.
    for pass in ["cold", "warm"] {
        let (r, stats) = call(&mut emu, &mut NoHost, "f", &[g]);
        assert_eq!((r.map(|rv| rv[0]), stats.insts), (Ok(5), 5), "{pass}");
        let (r, stats) = call(&mut emu, &mut NoHost, "f", &[g + 2]);
        assert_eq!((r.map(|rv| rv[0]), stats.insts), (Ok(77), 4), "{pass}");
    }
}

// ---------------------------------------------------------------- (d)

/// Helper 0 re-enters compiled code at its first argument, passing its
/// second; `swallow` makes it report success whatever the nested
/// activation did.
struct ReenterHost {
    swallow: bool,
    nested: Vec<Result<u64, Trap>>,
}

impl RuntimeDispatch for ReenterHost {
    fn arg_slots(&self, _index: usize) -> usize {
        2
    }

    fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
        0
    }

    fn call_runtime(
        &mut self,
        _index: usize,
        args: &[u64],
        mut reentry: Reentry<'_>,
    ) -> Result<[u64; 2], Trap> {
        let r = reentry.call(self, args[0], &[args[1]]);
        self.nested.push(r);
        match r {
            Ok(v) => Ok([v, 0]),
            Err(_) if self.swallow => Ok([u64::MAX, 0]),
            Err(t) => Err(t),
        }
    }
}

/// `f(cb, x)` calls `mid(cb, x)`, which calls helper 0, which re-enters
/// `cb(x)`; `f` returns `mid`'s result plus the 1000 it parked in a
/// callee-saved register. `twice(x)` returns `2x` through a call of its
/// own; `boom(x)` overwrites that register and traps two frames deep.
/// Every level is a real call, so every level owns shadow frames.
fn reentrant_image(isa: Isa) -> CodeImage {
    let abi = isa.abi();
    let keep = abi.callee_saved[0];
    let mut f = new_masm(isa);
    f.mov_ri(keep, 1000);
    f.call_sym(SymbolRef::named("mid"));
    f.alu_rrr(AluOp::Add, Width::W64, false, abi.ret, abi.ret, keep);
    f.ret();
    let mut mid = new_masm(isa);
    mid.call_sym(SymbolRef::named("ext"));
    mid.ret();
    let mut twice = new_masm(isa);
    twice.call_sym(SymbolRef::named("double"));
    twice.ret();
    let mut double = new_masm(isa);
    double.alu_rrr(AluOp::Add, Width::W64, false, abi.ret, Reg(0), Reg(0));
    double.ret();
    let mut boom = new_masm(isa);
    boom.mov_ri(keep, 0xDEAD);
    boom.call_sym(SymbolRef::named("leaf_trap"));
    // Only a stale shadow frame could bring control back here.
    boom.mov_ri(abi.ret, 0xBAD);
    boom.ret();
    let mut leaf_trap = new_masm(isa);
    leaf_trap.trap(7);
    link(
        isa,
        vec![
            ("f", f),
            ("mid", mid),
            ("twice", twice),
            ("double", double),
            ("boom", boom),
            ("leaf_trap", leaf_trap),
        ],
        None,
    )
}

#[test]
fn reentry_shares_fuel_and_restores_the_callers_frames() {
    for isa in ISAS {
        let image = reentrant_image(isa);
        let twice = image.addr_of("twice").expect("twice");
        let boom = image.addr_of("boom").expect("boom");
        let host = |swallow| ReenterHost {
            swallow,
            nested: Vec::new(),
        };

        // Return path, cold then warm: the nested activation's frames
        // are gone and `mid`'s and `f`'s returns land where they should.
        let mut emu = Emulator::new(image);
        let mut h = host(false);
        let mut total = 0;
        for pass in ["cold", "warm"] {
            let (r, stats) = call(&mut emu, &mut h, "f", &[twice, 21]);
            assert_eq!(r.map(|rv| rv[0]), Ok(1042), "{isa} {pass}");
            total = stats.insts;
        }
        assert_eq!(h.nested, vec![Ok(42), Ok(42)], "{isa}");

        // Trap path: the nested activation dies two calls deep; a
        // helper that swallows the trap returns into intact frames,
        // and the interrupted activation's registers are back.
        let mut h = host(true);
        for pass in ["cold", "warm"] {
            let (r, _) = call(&mut emu, &mut h, "f", &[boom, 0]);
            assert_eq!(
                r.map(|rv| rv[0]),
                Ok(u64::MAX.wrapping_add(1000)),
                "{isa} {pass}"
            );
        }
        assert_eq!(h.nested, vec![Err(Trap::Runtime(7)); 2], "{isa}");
        // …and one that does not swallow it propagates it.
        let (r, _) = call(&mut emu, &mut host(false), "f", &[boom, 0]);
        assert_eq!(r, Err(Trap::Runtime(7)), "{isa}");

        // One fuel budget for outer and nested instructions together.
        // Any budget short of the whole run ends in `Fuel` after
        // exactly that many instructions — also when it ran dry inside
        // the nested activation and the helper carried on regardless.
        let mut dry_inside = 0;
        for fuel in 1..=total {
            let opts = EmuOptions {
                fuel,
                ..Default::default()
            };
            let mut emu = Emulator::with_options(reentrant_image(isa), opts);
            let twice = emu.image().addr_of("twice").expect("twice");
            let mut h = host(true);
            let (r, stats) = call(&mut emu, &mut h, "f", &[twice, 21]);
            let want = if fuel == total {
                Ok(1042)
            } else {
                Err(Trap::Fuel)
            };
            assert_eq!(r.map(|rv| rv[0]), want, "{isa} fuel {fuel}");
            assert_eq!(stats.insts, fuel, "{isa} fuel {fuel}");
            dry_inside += (h.nested == [Err(Trap::Fuel)]) as u64;
        }
        // `twice` and `double` are four instructions.
        assert_eq!(dry_inside, 4, "{isa}");
    }
}

// ---------------------------------------------------------------- (e)

/// Helper `n` takes `n` argument slots and records what it was given.
#[derive(Default)]
struct RecordingHost {
    seen: Vec<Vec<u64>>,
}

impl RuntimeDispatch for RecordingHost {
    fn arg_slots(&self, index: usize) -> usize {
        index
    }

    fn runtime_cost(&self, _index: usize, args: &[u64]) -> u64 {
        args.len() as u64
    }

    fn call_runtime(
        &mut self,
        _index: usize,
        args: &[u64],
        _reentry: Reentry<'_>,
    ) -> Result<[u64; 2], Trap> {
        self.seen.push(args.to_vec());
        Ok([args.iter().fold(0, |a, &b| a.wrapping_add(b)), 0])
    }
}

#[test]
fn helpers_receive_every_register_and_stack_argument_in_order() {
    for isa in ISAS {
        let abi = isa.abi();
        let nreg = abi.arg_regs.len();
        // As many as the registers hold, one more (the first stack
        // argument, and past the emulator's inline argument array),
        // and a long tail.
        for slots in [nreg, nreg + 1, nreg + 12] {
            let value = |i: usize| 0x1000 + 17 * i as u64;
            let on_stack = slots - nreg;
            let frame = ((on_stack * 8 + 15) & !15) as i64;
            let mut asm = new_masm(isa);
            asm.alu_rri(AluOp::Sub, Width::W64, false, abi.sp, abi.sp, frame);
            for i in 0..on_stack {
                asm.mov_ri(abi.scratch, value(nreg + i) as i64);
                asm.store(Width::W64, abi.scratch, abi.sp, None, 8 * i as i32);
            }
            for (i, r) in abi.arg_regs.iter().enumerate() {
                asm.mov_ri(*r, value(i) as i64);
            }
            asm.call_abs(runtime_addr(slots));
            asm.alu_rri(AluOp::Add, Width::W64, false, abi.sp, abi.sp, frame);
            asm.ret();
            let mut emu = Emulator::new(link(isa, vec![("f", asm)], None));
            let mut host = RecordingHost::default();
            let want: Vec<u64> = (0..slots).map(value).collect();
            let sum = want.iter().sum::<u64>();
            for pass in ["cold", "warm"] {
                let (r, _) = call(&mut emu, &mut host, "f", &[]);
                assert_eq!(r.map(|rv| rv[0]), Ok(sum), "{isa} {slots} slots {pass}");
            }
            assert_eq!(host.seen, vec![want.clone(), want], "{isa} {slots} slots");
        }
    }
}
