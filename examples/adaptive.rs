//! Adaptive execution (paper Sec. III-C): execute with the cheap tier
//! right away, compile the optimizing tier in the background and swap it
//! in at a morsel boundary. A single query tiers up as a one-request
//! serve whose scheduler has a `tier_up_backend`.
//!
//! Run with: `cargo run --release --example adaptive`

use qc_engine::{backends, QueryScheduler, SchedulerConfig, Session, SessionRequest};
use std::sync::Arc;

fn main() {
    let db = qc_storage::gen_hlike(1.0);
    let session = Session::new(&db);
    let cheap: Arc<dyn qc_backend::Backend> = Arc::from(backends::direct_emit());
    let optimized: Arc<dyn qc_backend::Backend> =
        Arc::from(backends::lvm_opt(qc_target::Isa::Tx64));

    let query = qc_workloads::hlike_suite().remove(0); // H01
    let scheduler = QueryScheduler::try_new(SchedulerConfig {
        workers: 1,
        tier_up_backend: Some(optimized),
        ..Default::default()
    })
    .expect("valid scheduler config");
    let request = SessionRequest::new(query.name.clone(), query.plan);
    let report = scheduler.serve_session(&session, &cheap, vec![request]);
    let outcome = &report.outcomes[0];
    if let Some(error) = &outcome.error {
        panic!("{}: {error}", outcome.name);
    }
    println!(
        "{}: tiered up {} — latency {:?}, {} cycles, {} rows",
        outcome.name,
        outcome.tiered_up,
        outcome.latency,
        outcome.cycles,
        outcome.rows.len()
    );
}
