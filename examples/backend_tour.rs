//! Back-end tour: compile the same query with every back-end on both
//! target ISAs and print the paper's core tradeoff — compile time versus
//! generated-code quality (execution cycles) versus code size.
//!
//! Run with: `cargo run --release --example backend_tour`

use qc_engine::{backends, Session};
use qc_target::Isa;
use std::sync::Arc;

fn main() {
    let db = qc_storage::gen_hlike(0.5);
    let session = Session::new(&db);
    let query = qc_workloads::hlike_suite().remove(2); // H03: joins + group + top-k
    let stmt = session.statement(&query.plan).expect("prepare");
    println!(
        "query {} → {} pipelines, {} IR instructions\n",
        query.name,
        stmt.query().plan().pipelines.len(),
        stmt.query().ir_size()
    );
    println!(
        "{:<14} {:<6} {:>12} {:>14} {:>10}",
        "back-end", "isa", "compile", "exec cycles", "code bytes"
    );
    for isa in [Isa::Tx64, Isa::Ta64] {
        for backend in backends::all_for(isa) {
            let backend: Arc<dyn qc_backend::Backend> = Arc::from(backend);
            let run = session
                .run(stmt.clone())
                .backend(Arc::clone(&backend))
                .direct();
            let mut compiled = run.compile().expect("compile");
            let result = run.execute_compiled(&mut compiled).expect("execute");
            println!(
                "{:<14} {:<6} {:>12?} {:>14} {:>10}",
                backend.name(),
                isa.name(),
                compiled.compile_time,
                result.exec_stats.cycles,
                compiled.compile_stats.code_bytes
            );
        }
    }
}
