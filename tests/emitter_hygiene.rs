//! The shared MIR emitter (`qc_backend::memit`) emits no dead control
//! flow and no dead moves, on every cell built on it: Clift, LVM-cheap,
//! LVM-opt and GCC/C on both ISAs. Every function of every module of
//! both suites is compiled, linked and decoded, and none may hold
//!
//! - a `jmp` to the very next instruction (displacement 0),
//! - a `jcc` whose only skipped instruction is a `jmp` (it should have
//!   been inverted into a branch to the `jmp`'s target), or
//! - a `mov r, r` or `fmov f, f`.
//!
//! DirectEmit has its own emitter and the interpreter no machine code,
//! so neither is checked here.

use qc_engine::{backends, Session};
use qc_ir::Module;
use qc_target::{decode_inst, DecodedInst, ImageBuilder, Isa};
use qc_timing::TimeTrace;
use std::sync::Arc;

const CELLS: [&str; 4] = ["Clift", "LVM-cheap", "LVM-opt", "GCC/C"];

/// Every module of both suites, in suite and pipeline order.
fn suite_modules() -> Vec<Arc<Module>> {
    let mut modules = Vec::new();
    for (db, queries) in [
        (qc_storage::gen_dslike(0.01), qc_workloads::dslike_suite()),
        (qc_storage::gen_hlike(0.1), qc_workloads::hlike_suite()),
    ] {
        let session = Session::new(&db);
        for q in &queries {
            let statement = session.statement(&q.plan).expect("prepares");
            modules.extend(statement.query().ir.modules.iter().cloned());
        }
    }
    modules
}

/// The findings in one function's code, each as `offset: what`.
fn dead_code_in(isa: Isa, code: &[u8]) -> Vec<String> {
    let mut insts = Vec::new();
    let mut off = 0;
    while off < code.len() {
        let (inst, len) = decode_inst(isa, code, off).expect("decodes");
        insts.push((off, inst, len as i32));
        off += len as usize;
    }
    let mut found = Vec::new();
    for (i, &(at, inst, _)) in insts.iter().enumerate() {
        let what = match inst {
            DecodedInst::Jmp { rel: 0 } => "jmp to the next instruction",
            DecodedInst::Jcc { rel, .. } => match insts.get(i + 1) {
                Some(&(_, DecodedInst::Jmp { .. }, len)) if rel == len => "jcc over one jmp",
                _ => continue,
            },
            DecodedInst::MovRR { dst, src } if dst == src => "mov r, r",
            DecodedInst::FMov { dst, src } if dst == src => "fmov f, f",
            _ => continue,
        };
        found.push(format!("{at:#x}: {what} ({inst:?})"));
    }
    found
}

#[test]
fn mir_emitter_images_have_no_dead_jumps_or_self_moves() {
    let modules = suite_modules();
    let trace = TimeTrace::disabled();
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in backends::all_for(isa) {
            if !CELLS.contains(&backend.name()) {
                continue;
            }
            let mut functions = 0;
            for module in &modules {
                let artifact = backend
                    .compile_artifact(module, &trace)
                    .expect("compiles")
                    .expect("an artifact");
                let builder =
                    ImageBuilder::deserialize_bytes(&artifact.content_bytes()).expect("image");
                let image = builder.link(&qc_runtime::resolve_runtime).expect("links");
                for &(start, entry) in image.unwind_entries() {
                    let start = start as usize;
                    let code = &image.bytes()[start + entry.start..start + entry.end];
                    let found = dead_code_in(isa, code);
                    assert!(
                        found.is_empty(),
                        "{} {isa}: {} function at {start:#x}:\n{}",
                        backend.name(),
                        module.name,
                        found.join("\n")
                    );
                    functions += 1;
                }
            }
            assert!(functions > modules.len(), "{} {isa}", backend.name());
        }
    }
}
