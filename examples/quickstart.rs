//! Quickstart: load a synthetic database, run one query with two
//! back-ends, and compare compile time vs. execution cost.
//!
//! Run with: `cargo run --release --example quickstart`

use qc_engine::{backends, Session};
use qc_plan::{col, lit_dec, AggFunc, PlanNode};
use std::sync::Arc;

fn main() {
    // A TPC-H-shaped database at a small scale factor.
    let db = qc_storage::gen_hlike(0.5);
    let session = Session::new(&db);

    // SELECT l_returnflag, sum(l_extendedprice * (1 - l_discount)), count(*)
    // FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag
    let plan = PlanNode::scan(
        "lineitem",
        &[
            "l_returnflag",
            "l_extendedprice",
            "l_discount",
            "l_quantity",
        ],
    )
    .filter(col("l_quantity").lt(lit_dec(3_000, 2)))
    .map(vec![(
        "rev",
        col("l_extendedprice").mul(lit_dec(100, 2).sub(col("l_discount"))),
    )])
    .group_by(
        &["l_returnflag"],
        vec![
            ("revenue", AggFunc::Sum(col("rev"))),
            ("n", AggFunc::CountStar),
        ],
    )
    .sort(&[("l_returnflag", true)], None);

    for backend in [backends::interpreter(), backends::direct_emit()] {
        let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
        let run = session
            .prepare(&plan)
            .expect("plan prepares")
            .backend(Arc::clone(&backend));
        let mut compiled = run.compile().expect("query compiles");
        let result = run.execute_compiled(&mut compiled).expect("query runs");
        println!("== {} ==", backend.name());
        println!(
            "compiled in {:?}, executed in {} model cycles",
            compiled.compile_time, result.exec_stats.cycles
        );
        for row in &result.rows {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            println!("  {}", cells.join(" | "));
        }
    }
}
