//! Property tests for the target subsystem: `decode_inst` inverts both
//! assemblers, and the linker correctly wires calls to external symbols
//! supplied by the resolver.

mod common;

use common::{emit_masm, emit_tx64, inst};
use proptest::prelude::*;
use qc_target::{
    decode_inst, runtime_addr, DecodedInst, Emulator, ImageBuilder, Isa, Reentry, Reg,
    RuntimeDispatch, SymbolRef, Trap, Tx64Assembler, TA64_ABI, TX64_ABI,
};

fn decode_all(isa: Isa, code: &[u8]) -> Vec<DecodedInst> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < code.len() {
        let (inst, len) =
            decode_inst(isa, code, off).unwrap_or_else(|e| panic!("decode failed: {e}"));
        out.push(inst);
        off += len as usize;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tx64_decode_inverts_encode(insts in prop::collection::vec(inst(), 1..40)) {
        // TX64 ALU forms are two-address: the decoded src1 is the
        // destination, so normalize the expectation.
        let insts: Vec<DecodedInst> = insts
            .into_iter()
            .map(|i| match i {
                DecodedInst::Alu { op, width, set_flags, dst, src2, .. } => {
                    DecodedInst::Alu { op, width, set_flags, dst, src1: dst, src2 }
                }
                DecodedInst::AluImm { op, width, set_flags, dst, imm, .. } => {
                    DecodedInst::AluImm { op, width, set_flags, dst, src1: dst, imm }
                }
                other => other,
            })
            .collect();
        let mut asm = Tx64Assembler::new();
        for i in &insts {
            emit_tx64(&mut asm, i);
        }
        let (code, relocs) = asm.finish();
        prop_assert!(relocs.is_empty());
        let decoded = decode_all(Isa::Tx64, &code);
        prop_assert_eq!(decoded, insts);
    }

    #[test]
    fn ta64_decode_inverts_encode(insts in prop::collection::vec(inst(), 1..40)) {
        // TA64 has no dedicated nop encoding in the portable interface.
        let insts: Vec<DecodedInst> =
            insts.into_iter().filter(|i| !matches!(i, DecodedInst::Nop)).collect();
        let mut asm = qc_target::new_masm(Isa::Ta64);
        for i in &insts {
            emit_masm(asm.as_mut(), i);
        }
        let (code, relocs) = asm.finish();
        prop_assert!(relocs.is_empty());
        prop_assert_eq!(code.len(), insts.len() * 4, "each form must be one word");
        let decoded = decode_all(Isa::Ta64, &code);
        prop_assert_eq!(decoded, insts);
    }
}

/// `jmp_ind` is one instruction on both ISAs and decodes back to itself,
/// through the ABI scratch a PLT stub jumps through as well.
#[test]
fn jmp_ind_round_trips_on_both_isas() {
    for (isa, len) in [(Isa::Tx64, 2), (Isa::Ta64, 4)] {
        let regs: Vec<Reg> = (0..14).map(Reg).chain([isa.abi().scratch]).collect();
        let mut asm = qc_target::new_masm(isa);
        for &reg in &regs {
            asm.jmp_ind(reg);
        }
        let (code, relocs) = asm.finish();
        assert!(relocs.is_empty(), "{isa}");
        assert_eq!(code.len(), regs.len() * len, "{isa}");
        let want: Vec<DecodedInst> = regs
            .iter()
            .map(|&reg| DecodedInst::JmpInd { reg })
            .collect();
        assert_eq!(decode_all(isa, &code), want, "{isa}");
    }
}

/// Host that serves external helper calls for the linker property test.
struct AddHost;

impl RuntimeDispatch for AddHost {
    fn arg_slots(&self, _index: usize) -> usize {
        2
    }

    fn runtime_cost(&self, _index: usize, _args: &[u64]) -> u64 {
        1
    }

    fn call_runtime(
        &mut self,
        index: usize,
        args: &[u64],
        _reentry: Reentry<'_>,
    ) -> Result<[u64; 2], Trap> {
        Ok([args[0].wrapping_add(args[1]).wrapping_add(index as u64), 0])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Calls through resolver-supplied external symbols must reach the
    /// runtime with their arguments intact, on both ISAs.
    #[test]
    fn linker_routes_external_symbols(
        x in any::<u64>(),
        y in any::<u64>(),
        index in 0usize..64,
    ) {
        for isa in [Isa::Tx64, Isa::Ta64] {
            let abi = match isa {
                Isa::Tx64 => &TX64_ABI,
                Isa::Ta64 => &TA64_ABI,
            };
            let mut asm = qc_target::new_masm(isa);
            // fn f(a, b) = ext(a, b): a tail-position call through the
            // resolver-provided address.
            asm.call_sym(SymbolRef::named("ext_helper"));
            asm.mov_rr(abi.ret, abi.ret);
            asm.ret();
            let (code, relocs) = asm.finish();
            prop_assert!(!relocs.is_empty(), "external call must produce a relocation");

            let mut builder = ImageBuilder::new(isa);
            builder.add_function("f", code, relocs);
            let image = builder
                .link(&|sym| (sym == "ext_helper").then(|| runtime_addr(index)))
                .unwrap_or_else(|e| panic!("{isa}: link failed: {e}"));

            let mut emu = Emulator::new(image);
            let mut host = AddHost;
            let got = emu
                .call(&mut host, "f", &[x, y])
                .unwrap_or_else(|t| panic!("{isa}: trapped: {t}"));
            prop_assert_eq!(got[0], x.wrapping_add(y).wrapping_add(index as u64));
        }
    }

    /// A relocation against a symbol the resolver does not know must
    /// surface as `LinkError::Unresolved` naming the symbol.
    #[test]
    fn unresolved_symbols_name_the_culprit(seed in any::<u8>()) {
        let isa = if seed & 1 == 0 { Isa::Tx64 } else { Isa::Ta64 };
        let mut asm = qc_target::new_masm(isa);
        asm.call_sym(SymbolRef::named("missing_helper"));
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut builder = ImageBuilder::new(isa);
        builder.add_function("f", code, relocs);
        let err = builder.link(&|_| None).expect_err("link must fail");
        prop_assert!(err.to_string().contains("missing_helper"));
    }
}
