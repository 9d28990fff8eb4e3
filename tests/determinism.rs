//! Determinism and cross-ISA invariants: the cycle model must be exactly
//! reproducible run-to-run, results must be ISA-independent, and the
//! relative execution-cost ordering the paper's run-time numbers rest on
//! must hold on representative queries.

use qc_engine::{backends, ExecutionResult, Session};
use qc_plan::reference;
use qc_target::Isa;
use std::sync::Arc;

fn run_on(
    session: &Session<'_>,
    plan: &qc_plan::PlanNode,
    backend: Box<dyn qc_backend::Backend>,
) -> Result<ExecutionResult, qc_engine::EngineError> {
    let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
    session.prepare(plan)?.backend(backend).execute()
}

#[test]
fn repeated_runs_are_cycle_identical() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    for &i in &[0usize, 4, 12] {
        let q = &suite[i];
        let a = run_on(&session, &q.plan, backends::clift(Isa::Tx64)).expect("first run");
        let b = run_on(&session, &q.plan, backends::clift(Isa::Tx64)).expect("second run");
        assert_eq!(
            a.exec_stats.cycles, b.exec_stats.cycles,
            "{}: cycle count is not deterministic",
            q.name
        );
        assert_eq!(
            reference::normalize(&a.rows),
            reference::normalize(&b.rows),
            "{}: results differ between runs",
            q.name
        );
    }
}

#[test]
fn results_are_isa_independent() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    for &i in &[2usize, 5, 16] {
        let q = &suite[i];
        for make in [
            backends::clift,
            backends::lvm_cheap,
            backends::lvm_opt,
            backends::cgen,
        ] {
            let tx = run_on(&session, &q.plan, make(Isa::Tx64)).expect("tx64");
            let ta = run_on(&session, &q.plan, make(Isa::Ta64)).expect("ta64");
            assert_eq!(
                reference::normalize(&tx.rows),
                reference::normalize(&ta.rows),
                "{} on {}: TX64 and TA64 disagree",
                make(Isa::Tx64).name(),
                q.name
            );
        }
    }
}

#[test]
fn interpreter_costs_more_cycles_than_compiled_code() {
    // The paper's Table III: the interpreter is a multiple of every
    // compiling back-end at execution time. Check the per-query cycle
    // ordering on a scan-heavy query where dispatch dominates.
    let db = qc_storage::gen_hlike(0.1);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let q = &suite[0]; // H01 shape: big scan + aggregation
    let interp = run_on(&session, &q.plan, backends::interpreter()).expect("interp");
    let direct = run_on(&session, &q.plan, backends::direct_emit()).expect("direct");
    let clift = run_on(&session, &q.plan, backends::clift(Isa::Tx64)).expect("clift");
    assert!(
        interp.exec_stats.cycles > direct.exec_stats.cycles,
        "interpreter ({}) not slower than DirectEmit ({})",
        interp.exec_stats.cycles,
        direct.exec_stats.cycles
    );
    assert!(
        interp.exec_stats.cycles > clift.exec_stats.cycles,
        "interpreter ({}) not slower than Clift ({})",
        interp.exec_stats.cycles,
        clift.exec_stats.cycles
    );
}

#[test]
fn optimized_code_is_never_slower_than_unoptimized_lvm() {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let suite = qc_workloads::hlike_suite();
    let mut cheap_total = 0u64;
    let mut opt_total = 0u64;
    for &i in &[0usize, 2, 5, 12] {
        let q = &suite[i];
        cheap_total += run_on(&session, &q.plan, backends::lvm_cheap(Isa::Tx64))
            .expect("cheap")
            .exec_stats
            .cycles;
        opt_total += run_on(&session, &q.plan, backends::lvm_opt(Isa::Tx64))
            .expect("opt")
            .exec_stats
            .cycles;
    }
    assert!(
        opt_total < cheap_total,
        "-O2 total cycles {opt_total} not below -O0 total {cheap_total}"
    );
}

/// The paper's Table III has LLVM -O2 emitting the fastest code. Over
/// the whole DS-like (sf 0.01) and H-like (sf 0.1) suites, on both ISAs,
/// LVM-opt's code runs in at least 8 % fewer model cycles than Clift's.
#[test]
fn optimized_lvm_emits_the_fastest_tx64_code() {
    let suites = [
        (
            "DS-like",
            qc_storage::gen_dslike(0.01),
            qc_workloads::dslike_suite(),
        ),
        (
            "H-like",
            qc_storage::gen_hlike(0.1),
            qc_workloads::hlike_suite(),
        ),
    ];
    for (suite, db, queries) in &suites {
        let session = Session::new(db);
        let total = |make: fn(Isa) -> Box<dyn qc_backend::Backend>, isa: Isa| -> u64 {
            queries
                .iter()
                .map(|q| {
                    run_on(&session, &q.plan, make(isa))
                        .unwrap_or_else(|e| panic!("{}: {e}", q.name))
                        .exec_stats
                        .cycles
                })
                .sum()
        };
        // By a margin: 0.818 (TX64) and 0.849 (TA64) on DS-like, 0.908
        // and 0.874 on H-like when this bound was set.
        for isa in [Isa::Tx64, Isa::Ta64] {
            let (opt, clift) = (total(backends::lvm_opt, isa), total(backends::clift, isa));
            assert!(
                opt as f64 <= 0.92 * clift as f64,
                "{suite} {isa}: LVM-opt's {opt} cycles are not 8 % below Clift's {clift}"
            );
        }
    }
}

#[test]
fn data_generators_are_seed_stable() {
    let a = qc_storage::gen_hlike(0.03);
    let b = qc_storage::gen_hlike(0.03);
    let session_a = Session::new(&a);
    let session_b = Session::new(&b);
    let suite = qc_workloads::hlike_suite();
    let q = &suite[5];
    let ra = run_on(&session_a, &q.plan, backends::interpreter()).expect("a");
    let rb = run_on(&session_b, &q.plan, backends::interpreter()).expect("b");
    assert_eq!(
        reference::normalize(&ra.rows),
        reference::normalize(&rb.rows)
    );
}

/// `(query, cell, rows checksum, ExecStats.cycles, ExecStats.insts)`,
/// captured at commit ef94563 — the last one whose emulator decoded
/// every executed instruction and whose interpreter costed every
/// executed op. The `lvm_opt.tx64` rows were re-pinned when the greedy
/// allocator began to weigh spills by loop frequency, evict and
/// rematerialize constants. Both LVM rows were re-pinned when PLT stubs
/// began to tail-jump through the GOT, which takes exactly one
/// instruction and three cycles off each runtime call (all that moved
/// `lvm_cheap.tx64`), and the optimizing selectors stopped materializing
/// a compare whose only use is its branch. The `lvm_opt.tx64` rows
/// moved once more when LVM-opt began calling the runtime by absolute
/// address (no PLT stub) and selecting on a sunk compare's flags. H-like
/// at scale factor 1 in
/// 512-row morsels; `SORT` orders every `orders` row through the
/// comparator re-entry path.
/// Cells: back-end.ISA, `.w2` = two morsel workers under the static
/// schedule (total work across both). A mismatch prints the whole
/// measured table.
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("H01", "interp", 17943616066831546111, 7835087, 489858),
    ("H01", "direct.tx64", 17943616066831546111, 4661061, 1497697),
    (
        "H01",
        "lvm_cheap.tx64",
        17943616066831546111,
        5247071,
        1634389,
    ),
    (
        "H01",
        "lvm_opt.tx64",
        17943616066831546111,
        3903818,
        1138429,
    ),
    ("H01", "clift.ta64", 17943616066831546111, 4659552, 1393939),
    (
        "H01",
        "clift.ta64.w2",
        17943616066831546111,
        4658990,
        1393625,
    ),
    ("H03", "interp", 8780595189787933563, 3338614, 233108),
    ("H03", "direct.tx64", 8780595189787933563, 1257654, 541121),
    (
        "H03",
        "lvm_cheap.tx64",
        8780595189787933563,
        1438157,
        582407,
    ),
    ("H03", "lvm_opt.tx64", 8780595189787933563, 961262, 386082),
    ("H03", "clift.ta64", 8780595189787933563, 954610, 429401),
    ("H03", "clift.ta64.w2", 8780595189787933563, 957739, 428163),
    ("H06", "interp", 6711127979096780410, 2769710, 206135),
    ("H06", "direct.tx64", 6711127979096780410, 858618, 527796),
    ("H06", "lvm_cheap.tx64", 6711127979096780410, 972821, 519718),
    ("H06", "lvm_opt.tx64", 6711127979096780410, 587169, 362193),
    ("H06", "clift.ta64", 6711127979096780410, 562904, 379341),
    ("H06", "clift.ta64.w2", 6711127979096780410, 563246, 379372),
    ("H09", "interp", 6766816719252940531, 4406320, 294410),
    ("H09", "direct.tx64", 6766816719252940531, 1800524, 698692),
    (
        "H09",
        "lvm_cheap.tx64",
        6766816719252940531,
        2076613,
        760530,
    ),
    ("H09", "lvm_opt.tx64", 6766816719252940531, 1649713, 583519),
    ("H09", "clift.ta64", 6766816719252940531, 1637377, 625826),
    ("H09", "clift.ta64.w2", 6766816719252940531, 1637469, 625588),
    ("H13", "interp", 8395823974148997529, 825506, 56215),
    ("H13", "direct.tx64", 8395823974148997529, 286146, 119835),
    ("H13", "lvm_cheap.tx64", 8395823974148997529, 318677, 122826),
    ("H13", "lvm_opt.tx64", 8395823974148997529, 195374, 73812),
    ("H13", "clift.ta64", 8395823974148997529, 171432, 80772),
    ("H13", "clift.ta64.w2", 8395823974148997529, 181200, 80800),
    ("H18", "interp", 9937041724392243382, 5293491, 358863),
    ("H18", "direct.tx64", 9937041724392243382, 2123514, 876270),
    (
        "H18",
        "lvm_cheap.tx64",
        9937041724392243382,
        2323914,
        892691,
    ),
    ("H18", "lvm_opt.tx64", 9937041724392243382, 1475834, 572437),
    ("H18", "clift.ta64", 9937041724392243382, 1364435, 608454),
    ("H18", "clift.ta64.w2", 9937041724392243382, 1398088, 584285),
    ("SORT", "interp", 15329311058863616378, 2581923, 162196),
    ("SORT", "direct.tx64", 15329311058863616378, 1671592, 662920),
    (
        "SORT",
        "lvm_cheap.tx64",
        15329311058863616378,
        1919899,
        653189,
    ),
    (
        "SORT",
        "lvm_opt.tx64",
        15329311058863616378,
        1031252,
        428144,
    ),
    ("SORT", "clift.ta64", 15329311058863616378, 949688, 390115),
    (
        "SORT",
        "clift.ta64.w2",
        15329311058863616378,
        949812,
        390133,
    ),
];

#[test]
fn model_cycles_match_the_golden_table() {
    use qc_engine::backends as b;
    let db = qc_storage::gen_hlike(1.0);
    // Small morsels, so the two-worker cell really runs in parallel.
    let session = Session::with_config(
        &db,
        qc_engine::SessionConfig {
            engine: qc_engine::EngineConfig { morsel_size: 512 },
            ..Default::default()
        },
    );
    let suite = qc_workloads::hlike_suite();
    let sort_heavy = qc_plan::PlanNode::scan("orders", &["o_orderkey", "o_totalprice"])
        .sort(&[("o_totalprice", false), ("o_orderkey", true)], None);
    let mut queries: Vec<(&str, &qc_plan::PlanNode)> = [0usize, 2, 5, 8, 12, 17]
        .iter()
        .map(|&i| (suite[i].name.as_str(), &suite[i].plan))
        .collect();
    queries.push(("SORT", &sort_heavy));
    type Make = fn() -> Box<dyn qc_backend::Backend>;
    let cells: [(&str, Make, usize); 6] = [
        ("interp", b::interpreter, 1),
        ("direct.tx64", b::direct_emit, 1),
        ("lvm_cheap.tx64", || b::lvm_cheap(Isa::Tx64), 1),
        ("lvm_opt.tx64", || b::lvm_opt(Isa::Tx64), 1),
        ("clift.ta64", || b::clift(Isa::Ta64), 1),
        ("clift.ta64.w2", || b::clift(Isa::Ta64), 2),
    ];
    let mut measured = Vec::new();
    for (name, plan) in &queries {
        for (cell, make, workers) in &cells {
            let r = session
                .prepare(plan)
                .and_then(|run| {
                    run.backend(Arc::from(make()))
                        .workers(*workers)
                        .schedule(qc_engine::MorselSchedule::Static)
                        .execute()
                })
                .unwrap_or_else(|e| panic!("{name} on {cell}: {e}"));
            measured.push((
                *name,
                *cell,
                reference::checksum(&r.rows),
                r.exec_stats.cycles,
                r.exec_stats.insts,
            ));
        }
    }
    let table: String = measured
        .iter()
        .map(|(q, c, sum, cycles, insts)| {
            format!("    ({q:?}, {c:?}, {sum}, {cycles}, {insts}),\n")
        })
        .collect();
    assert!(
        measured == GOLDEN,
        "model cycles, instruction counts or results drifted; measured:\n{table}"
    );
}
