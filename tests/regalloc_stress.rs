//! Register-pressure stress on every back-end: more simultaneously live
//! values than either ISA has registers (forcing spills in Clift/LVM and
//! home-slot traffic in DirectEmit), including 128-bit pairs that consume
//! two registers each. The plan-level cases drive LVM-opt's eviction,
//! rematerialization and selects on compares through whole queries.

use qc_backend::Backend;
use qc_engine::backends;
use qc_engine::Session;
use qc_ir::{FunctionBuilder, Module, Signature, Type};
use qc_plan::{col, lit_dec, lit_i64, reference, AggFunc, PlanNode};
use qc_runtime::RuntimeState;
use qc_target::Isa;
use qc_timing::TimeTrace;
use std::sync::Arc;

fn all_backends() -> Vec<Box<dyn Backend>> {
    let mut v = backends::all_for(Isa::Tx64);
    v.extend(backends::all_for(Isa::Ta64));
    v
}

fn run_all(m: &Module, args: &[u64], expected: u64) {
    qc_ir::verify_module(m).expect("verify");
    for backend in all_backends() {
        let mut exe = backend.compile(m, &TimeTrace::disabled()).expect("compile");
        let mut state = RuntimeState::new();
        let got = exe
            .call(&mut state, "f", args)
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", backend.name()));
        assert_eq!(got[0], expected, "{} wrong result", backend.name());
    }
}

/// 48 products `x*(i+1) ^ y` all live until a final fold — far beyond 16
/// (TX64) and 31 (TA64) registers, so every allocator must spill and
/// reload correctly.
#[test]
fn forty_eight_simultaneously_live_values() {
    const N: i64 = 48;
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let mut live = Vec::new();
    for i in 0..N {
        let k = b.iconst(Type::I64, i128::from(i + 1));
        let p = b.mul(Type::I64, x, k);
        let v = b.binary(qc_ir::Opcode::Xor, Type::I64, p, y);
        live.push(v);
    }
    // Fold in reverse so the first product has the longest live range.
    let mut acc = live.pop().expect("values");
    while let Some(v) = live.pop() {
        acc = b.add(Type::I64, acc, v);
    }
    b.ret(Some(acc));
    let mut m = Module::new("m");
    m.push_function(b.finish());

    let model = |x: i64, y: i64| -> i64 {
        (0..N)
            .map(|i| (x.wrapping_mul(i + 1)) ^ y)
            .fold(0i64, i64::wrapping_add)
    };
    for (x, y) in [(3i64, 5i64), (-7, 1 << 40), (i64::MAX / 3, -1)] {
        run_all(&m, &[x as u64, y as u64], model(x, y) as u64);
    }
}

/// Twelve live i128 values (24 register halves) plus their fold: pair
/// allocation must keep lo/hi halves consistent across spills.
#[test]
fn live_i128_pairs_under_pressure() {
    const N: i64 = 12;
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let wx = b.sext(Type::I128, x);
    let wy = b.sext(Type::I128, y);
    let mut live = Vec::new();
    for i in 0..N {
        let k = b.iconst(Type::I128, i128::from(i + 3));
        // Trapping arithmetic: the only i128 multiply query code emits
        // (decimals), supported by every back-end including DirectEmit.
        let p = b.binary(qc_ir::Opcode::SMulTrap, Type::I128, wx, k);
        let q = b.binary(qc_ir::Opcode::SAddTrap, Type::I128, p, wy);
        live.push(q);
    }
    let mut acc = live.pop().expect("values");
    while let Some(v) = live.pop() {
        acc = b.binary(qc_ir::Opcode::SAddTrap, Type::I128, acc, v);
    }
    // Collapse to 64 bits mixing both halves: the hi half is extracted
    // with the i128 division DirectEmit supports (a runtime helper).
    let two64 = b.iconst(Type::I128, 1i128 << 64);
    let hi = b.binary(qc_ir::Opcode::SDiv, Type::I128, acc, two64);
    let lo64 = b.trunc(Type::I64, acc);
    let hi64 = b.trunc(Type::I64, hi);
    let r = b.binary(qc_ir::Opcode::Xor, Type::I64, lo64, hi64);
    b.ret(Some(r));
    let mut m = Module::new("m");
    m.push_function(b.finish());

    let model = |x: i64, y: i64| -> u64 {
        let (wx, wy) = (i128::from(x), i128::from(y));
        let acc = (0..N).map(|i| wx * i128::from(i + 3) + wy).sum::<i128>();
        let hi = acc / (1i128 << 64);
        (acc as u64) ^ (hi as u64)
    };
    for (x, y) in [
        (1_000_000_007i64, -13i64),
        (-1, 1),
        (i64::MAX / 5, i64::MIN / 7),
    ] {
        run_all(&m, &[x as u64, y as u64], model(x, y));
    }
}

/// Pressure across a runtime call: values live over a call must survive
/// the call (caller-saved handling / store-through-home correctness).
#[test]
fn values_live_across_runtime_calls() {
    let sig = Signature::new(vec![Type::I64, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new("f", sig);
    let e = b.entry_block();
    b.switch_to(e);
    let x = b.param(0);
    let y = b.param(1);
    let mut live = Vec::new();
    for i in 0..20i64 {
        let k = b.iconst(Type::I64, i128::from(i + 17));
        live.push(b.mul(Type::I64, x, k));
    }
    // rt_alloc allocates scratch memory and clobbers caller-saved regs.
    let callee = b.declare_ext_func(qc_ir::ExtFuncDecl {
        name: "rt_alloc".to_string(),
        sig: Signature::new(vec![Type::I64], Type::Ptr),
    });
    let size = b.iconst(Type::I64, 64);
    let ptr = b.call(callee, vec![size]).expect("rt_alloc returns");
    // Store/load through the fresh allocation to use the call result.
    b.store(Type::I64, ptr, y, 0);
    let back = b.load(Type::I64, ptr, 0);
    let mut acc = back;
    for v in live {
        acc = b.add(Type::I64, acc, v);
    }
    b.ret(Some(acc));
    let mut m = Module::new("m");
    m.push_function(b.finish());

    let model = |x: i64, y: i64| -> i64 {
        (0..20i64)
            .map(|i| x.wrapping_mul(i + 17))
            .fold(y, i64::wrapping_add)
    };
    for (x, y) in [(11i64, 300i64), (-2, 9)] {
        run_all(&m, &[x as u64, y as u64], model(x, y) as u64);
    }
}

/// Runs `plan` on LVM-opt and LVM-cheap on both ISAs and compares each
/// result with the plan-level reference. An eviction that hands a
/// register to a new value while the old one is still live is a
/// miscompile, not a slowdown, so the result is the check.
fn lvm_agrees_with_reference(plan: &PlanNode) {
    let db = qc_storage::gen_hlike(0.05);
    let session = Session::new(&db);
    let expected = reference::normalize(&reference::execute(plan, &db).expect("reference"));
    assert!(expected.len() > 1, "the plan must produce rows to compare");
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in [backends::lvm_opt(isa), backends::lvm_cheap(isa)] {
            let name = format!("{} on {isa:?}", backend.name());
            let got = session
                .prepare(plan)
                .and_then(|run| run.backend(Arc::from(backend)).execute())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(reference::normalize(&got.rows), expected, "{name}");
        }
    }
}

/// A string-keyed group-by with thirteen aggregates: the group-table
/// probe and insert are runtime calls, and the aggregate inputs, the key
/// and the hash stay live across them, far more values than TX64's
/// three callee-saved registers.
#[test]
fn string_keyed_group_by_with_thirteen_aggregates() {
    let plan = PlanNode::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipmode",
        ],
    )
    .group_by(
        &["l_shipmode"],
        vec![
            ("n", AggFunc::CountStar),
            ("sum_qty", AggFunc::Sum(col("l_quantity"))),
            ("sum_price", AggFunc::Sum(col("l_extendedprice"))),
            ("sum_disc", AggFunc::Sum(col("l_discount"))),
            ("sum_tax", AggFunc::Sum(col("l_tax"))),
            ("min_qty", AggFunc::Min(col("l_quantity"))),
            ("max_qty", AggFunc::Max(col("l_quantity"))),
            ("min_price", AggFunc::Min(col("l_extendedprice"))),
            ("max_price", AggFunc::Max(col("l_extendedprice"))),
            ("max_order", AggFunc::Max(col("l_orderkey"))),
            ("min_part", AggFunc::Min(col("l_partkey"))),
            ("sum_supp", AggFunc::Sum(col("l_suppkey"))),
            ("avg_disc", AggFunc::Avg(col("l_discount"))),
        ],
    );
    lvm_agrees_with_reference(&plan);
}

/// A join probe whose payload and probe-side columns feed a filter and
/// then a sort: the probe's chain walk, the row's columns and the
/// payload are live across the probe call and the sort buffer's append.
#[test]
fn join_probe_feeding_a_filter_and_a_sort() {
    let plan = PlanNode::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    .hash_join(
        PlanNode::scan(
            "orders",
            &["o_orderkey", "o_totalprice", "o_orderdate", "o_custkey"],
        ),
        &["l_orderkey"],
        &["o_orderkey"],
        &["o_totalprice", "o_orderdate", "o_custkey"],
    )
    .filter(
        col("l_extendedprice")
            .mul(lit_dec(100, 2).sub(col("l_discount")))
            .gt(col("o_totalprice").mul(lit_dec(5, 2)))
            .and(col("l_quantity").lt(lit_dec(4000, 2))),
    )
    .sort(
        &[
            ("o_orderdate", true),
            ("l_extendedprice", false),
            ("l_orderkey", true),
            ("l_partkey", true),
        ],
        None,
    );
    lvm_agrees_with_reference(&plan);
}

/// Selects on compares inside the scan loop: the filter's `AND`/`OR`
/// are boolean selects whose conditions are i64, date and decimal
/// compares, and each group's `MIN`/`MAX` picks between the row's value
/// and the state on an i64 or a decimal (i128) compare. Under LVM-opt a
/// one-register compare that only selects and branches use is re-tested
/// at each of them (`select_cc`), so its operands stay live up to the
/// select.
#[test]
fn selects_on_compares_in_the_scan_loop() {
    let plan = PlanNode::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
        ],
    )
    .filter(
        col("l_partkey")
            .gt(lit_i64(40))
            .and(col("l_quantity").lt(lit_dec(3000, 2)))
            .or(col("l_suppkey")
                .le(lit_i64(4))
                .and(col("l_discount").ge(lit_dec(5, 2))))
            .or(col("l_shipdate")
                .lt(col("l_commitdate"))
                .and(col("l_receiptdate").gt(col("l_commitdate")))),
    )
    .group_by(
        &["l_suppkey"],
        vec![
            ("n", AggFunc::CountStar),
            ("min_order", AggFunc::Min(col("l_orderkey"))),
            ("max_order", AggFunc::Max(col("l_orderkey"))),
            ("min_part", AggFunc::Min(col("l_partkey"))),
            ("max_part", AggFunc::Max(col("l_partkey"))),
            ("min_qty", AggFunc::Min(col("l_quantity"))),
            ("max_qty", AggFunc::Max(col("l_quantity"))),
            ("min_price", AggFunc::Min(col("l_extendedprice"))),
            ("max_price", AggFunc::Max(col("l_extendedprice"))),
        ],
    );
    lvm_agrees_with_reference(&plan);
}
