//! The bench harness reads per-phase timings out of [`qc_timing`]
//! reports; these tests pin the phase vocabulary each back-end emits (the
//! rows of the paper's Figures 2–5 and Table I) so a refactor cannot
//! silently rename a phase out of the published breakdowns.

use qc_engine::{backends, Session};
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;

fn trace_for(backend: Box<dyn qc_backend::Backend>) -> qc_timing::Report {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
    let trace = TimeTrace::new();
    session
        .prepare(&suite[2].plan)
        .expect("prepare")
        .backend(backend)
        .trace(&trace)
        .direct()
        .compile()
        .expect("compile");
    trace.report()
}

fn assert_phases(report: &qc_timing::Report, backend: &str, expect: &[&str]) {
    for phase in expect {
        assert!(
            report.total(phase).is_some(),
            "{backend}: phase `{phase}` missing; recorded phases: {:?}",
            report
                .rows()
                .iter()
                .map(|r| r.path.clone())
                .collect::<Vec<_>>()
        );
    }
}

/// Top-level phase fractions must account for (almost) all compile time —
/// the breakdown figures would otherwise hide work in unlabeled gaps.
fn assert_fractions_sum(report: &qc_timing::Report, backend: &str) {
    let sum: f64 = report
        .rows()
        .iter()
        .filter(|r| r.depth() == 0)
        .map(|r| report.fraction(&r.path))
        .sum();
    assert!(
        (0.99..=1.01).contains(&sum),
        "{backend}: top-level fractions sum to {sum}"
    );
}

#[test]
fn interpreter_phases() {
    let r = trace_for(backends::interpreter());
    assert_phases(&r, "Interpreter", &["bytecodegen", "link"]);
    assert_fractions_sum(&r, "Interpreter");
}

#[test]
fn direct_emit_phases_match_figure5() {
    let r = trace_for(backends::direct_emit());
    assert_phases(
        &r,
        "DirectEmit",
        &[
            "analysis",
            "analysis/liveness",
            "analysis/cfg",
            "codegen",
            "link",
        ],
    );
    assert_fractions_sum(&r, "DirectEmit");
    // Figure 5's headline: liveness dominates the analysis pass. That is
    // a wall-clock share, which a loaded machine can bury in any one
    // compile, so up to five traced compiles get to show it.
    let share = |r: &qc_timing::Report| {
        let liveness = r.total("analysis/liveness").expect("liveness");
        liveness.as_secs_f64() / r.total("analysis").expect("analysis").as_secs_f64()
    };
    let mut shares = vec![share(&r)];
    while shares.len() < 5 && shares.iter().all(|&s| s <= 0.5) {
        shares.push(share(&trace_for(backends::direct_emit())));
    }
    assert!(
        shares.iter().any(|&s| s > 0.5),
        "liveness never exceeded half of analysis: {shares:?}"
    );
}

#[test]
fn clift_phases_match_figure4() {
    let r = trace_for(backends::clift(Isa::Tx64));
    assert_phases(&r, "Clift", &["irgen", "regalloc", "emit", "finish"]);
    assert_fractions_sum(&r, "Clift");
}

#[test]
fn lvm_cheap_phases_match_figure2() {
    let r = trace_for(backends::lvm_cheap(Isa::Tx64));
    assert_phases(
        &r,
        "LVM-cheap",
        &[
            "irgen",
            "isel",
            "regalloc",
            "asmprinter",
            "link",
            "link/phase1_alloc",
            "link/phase2_resolve",
            "irdtor",
        ],
    );
    assert_fractions_sum(&r, "LVM-cheap");
    // The paper's surprise: the AsmPrinter is a visible fraction even in
    // cheap mode.
    assert!(
        r.fraction("asmprinter") > 0.05,
        "AsmPrinter fraction too small"
    );
}

#[test]
fn lvm_opt_runs_the_pass_pipeline() {
    let r = trace_for(backends::lvm_opt(Isa::Tx64));
    assert_phases(
        &r,
        "LVM-opt",
        &["irgen", "isel", "regalloc", "asmprinter", "link"],
    );
    assert_fractions_sum(&r, "LVM-opt");
}

#[test]
fn cgen_phases_match_table1() {
    let r = trace_for(backends::cgen(Isa::Tx64));
    assert_phases(
        &r,
        "GCC/C",
        &[
            "cgen",
            "io",
            "cc1_parse",
            "cc1_gimplify",
            "cc1_optimize",
            "cc1_codegen",
            "as",
            "ld",
        ],
    );
    assert_fractions_sum(&r, "GCC/C");
    // Table I: the compiler proper dominates; the linker is small.
    let ld = r.fraction("ld");
    assert!(ld < 0.2, "linker fraction {ld} unexpectedly large");
}

/// A traced service compile (no `.direct()`) links through the same
/// instantiation as a direct one, so Fig. 4's `finish` is in its trace.
#[test]
fn traced_service_compile_records_the_link_phase() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let trace = TimeTrace::new();
    session
        .prepare(&suite[2].plan)
        .expect("prepare")
        .backend(backend)
        .trace(&trace)
        .compile()
        .expect("compile");
    let r = trace.report();
    assert_phases(
        &r,
        "Clift (service)",
        &["irgen", "regalloc", "emit", "finish"],
    );
}

#[test]
fn disabled_traces_record_nothing() {
    let db = qc_storage::gen_hlike(0.02);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backends::clift(Isa::Tx64));
    let trace = TimeTrace::disabled();
    session
        .prepare(&suite[0].plan)
        .expect("prepare")
        .backend(backend)
        .trace(&trace)
        .direct()
        .compile()
        .expect("compile");
    assert_eq!(trace.event_count(), 0);
}
