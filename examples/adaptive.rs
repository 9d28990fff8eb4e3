//! Adaptive execution (paper Sec. III-C): execute with the cheap tier
//! right away; when the size/work heuristic predicts a win, compile the
//! optimizing tier in the background and swap it in at a morsel
//! boundary.
//!
//! Run with: `cargo run --release --example adaptive`

use qc_engine::{backends, AdaptiveExecution, Session};
use std::sync::Arc;

fn main() {
    let db = qc_storage::gen_hlike(1.0);
    let session = Session::new(&db);
    let cheap: Arc<dyn qc_backend::Backend> = Arc::from(backends::direct_emit());
    let optimized: Arc<dyn qc_backend::Backend> =
        Arc::from(backends::lvm_opt(qc_target::Isa::Tx64));

    for (label, expected_executions) in [("one-shot query", 1), ("hot recurring query", 500)] {
        let query = qc_workloads::hlike_suite().remove(0); // H01
        let stmt = session.statement(&query.plan).expect("prepare");
        let policy = AdaptiveExecution {
            expected_executions,
            ..Default::default()
        };
        let (result, report) = policy
            .run_background(
                session.engine(),
                session.compile_service(),
                stmt.query(),
                &cheap,
                &optimized,
                None,
            )
            .expect("adaptive run");
        println!(
            "{label}: {:?} (swapped at morsel {:?}) — total compile {:?}, {} rows, {} cycles",
            report.outcome,
            report.swapped_at_morsel,
            result.compile_time,
            result.rows.len(),
            result.exec_stats.cycles
        );
    }
}
