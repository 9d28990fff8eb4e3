//! The metric registry: every name the benchmark reports, with unit,
//! direction and (end-to-end) bound. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use crate::cells;
use crate::stats::Better;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly from run to run (a count made by the program),
    /// as opposed to a timing.
    pub exact: bool,
    /// Share of the base's median by which the metric may worsen;
    /// meaningful for end-to-end metrics only.
    pub bound: f64,
}

fn def(name: &str, unit: &'static str, better: Better, exact: bool, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        exact,
        bound,
    }
}

/// `setup_s` must also be worse by more than this many seconds before
/// `compare` calls it a regression.
pub const SETUP_MIN_ABS_S: f64 = 0.2;

/// What a user of the system sees; reported on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        // Datagen + suites + reference results + session open +
        // warm-up/verification round; median of the run's set-ups.
        def("setup_s", "s", Lower, false, 0.25),
        // Requests in a round / time the system was busy with them.
        // Timing bounds are at least three times the widest spread ten
        // runs on ten seeds showed on the two-core sandbox (6.5 %, 6.6 %,
        // 6.9 %).
        def("throughput_qps", "1/s", Higher, false, 0.20),
        // Request latency, plan in hand -> response; per-round
        // percentile, median over rounds.
        def("query_p50_ms", "ms", Lower, false, 0.25),
        def("query_p95_ms", "ms", Lower, false, 0.25),
        // VmHWM of the workload's process.
        def("peak_rss_mb", "MB", Lower, false, 0.10),
        // Mean over serial cell x query of ExecStats.cycles (the
        // paper's execution-time column) and CompileStats.code_bytes.
        def("model_cycles_per_query", "cycles", Lower, true, 0.001),
        def("code_bytes_per_query", "B", Lower, true, 0.001),
    ]
}

/// TimeTrace phases reported as shares of a tx64 cell's compile time:
/// (cell, metric suffix, phase path in the report).
pub const PHASES: [(&str, &str, &str); 19] = [
    ("direct.tx64", "analysis", "analysis"),
    ("direct.tx64", "codegen", "codegen"),
    ("direct.tx64", "link", "link"),
    ("clift.tx64", "irgen", "irgen"),
    ("clift.tx64", "isel", "iselprep_isel"),
    ("clift.tx64", "regalloc", "regalloc"),
    ("clift.tx64", "emit", "emit"),
    ("lvm_cheap.tx64", "irgen", "irgen"),
    ("lvm_cheap.tx64", "isel", "isel"),
    ("lvm_cheap.tx64", "regalloc", "regalloc"),
    ("lvm_cheap.tx64", "asmprinter", "asmprinter"),
    ("lvm_cheap.tx64", "link", "link"),
    ("lvm_opt.tx64", "opt", "opt"),
    ("lvm_opt.tx64", "isel", "isel"),
    ("lvm_opt.tx64", "regalloc", "regalloc"),
    ("cgen.tx64", "cc1_parse", "cc1_parse"),
    ("cgen.tx64", "cc1_optimize", "cc1_optimize"),
    ("cgen.tx64", "cc1_codegen", "cc1_codegen"),
    ("cgen.tx64", "as", "as"),
];

/// Single-layer metrics; a layer is a crate or a `qc-engine` module.
/// A layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut timed = |name: &str, unit: &'static str, better: Better| {
        v.push(def(name, unit, better, false, 0.0));
    };
    for cell in cells::serial() {
        timed(&format!("{cell}.compile_us_per_query"), "us", Lower);
    }
    for (cell, suffix, _) in PHASES {
        timed(&format!("{cell}.{suffix}_pct"), "%", Lower);
    }
    for (name, unit, better) in [
        ("storage.gen_dslike_ms", "ms", Lower),
        ("storage.gen_hlike_ms", "ms", Lower),
        ("workloads.build_suites_ms", "ms", Lower),
        ("plan.reference_ms_per_query", "ms", Lower),
        ("plan.decompose_us_per_query", "us", Lower),
        ("plan.canonical_text_us_per_query", "us", Lower),
        ("codegen.generate_us_per_query", "us", Lower),
        ("ir.module_hash_us_per_module", "us", Lower),
        ("session.statement_hit_us", "us", Lower),
        ("session.statement_miss_us", "us", Lower),
        ("session.statement_hit_ratio", "ratio", Higher),
        ("backend.instantiate_us_per_module", "us", Lower),
        ("backend.serialize_us_per_module", "us", Lower),
        ("backend.deserialize_us_per_module", "us", Lower),
        ("compile_service.cold_us_per_query", "us", Lower),
        ("compile_service.l1_hit_us_per_query", "us", Lower),
        ("compile_service.overhead_us_per_query", "us", Lower),
        ("compile_service.l1_hit_ratio", "ratio", Higher),
        ("compile_service.l1_evictions_per_query", "count", Lower),
        ("compile_service.resident_kb", "kB", Lower),
        ("artifact_store.disk_hit_us_per_query", "us", Lower),
        ("artifact_store.store_us_per_module", "us", Lower),
        ("artifact_store.load_us_per_module", "us", Lower),
        ("target.tx64.host_ns_per_inst", "ns", Lower),
        ("target.ta64.host_ns_per_inst", "ns", Lower),
        ("interp.host_ns_per_inst", "ns", Lower),
        ("runtime.ht_insert_ns", "ns", Lower),
        ("runtime.ht_probe_ns", "ns", Lower),
        ("runtime.fork_worker_us", "us", Lower),
        ("morsel_exec.w2_wall_speedup", "ratio", Higher),
        ("morsel_exec.w2_model_speedup", "ratio", Higher),
        ("morsel_exec.w2_extra_cycles_pct", "%", Lower),
        ("scheduler.queue_wait_p50_ms", "ms", Lower),
        ("scheduler.busy_ms_per_query", "ms", Lower),
        ("scheduler.utilization", "ratio", Higher),
        ("scheduler.work_distribution_speedup", "ratio", Higher),
        ("timing.timetrace_overhead_pct", "%", Lower),
        ("harness.trace_overhead_pct", "%", Lower),
        ("harness.span_sum_error_pct", "%", Lower),
        // Mean self time per request of the spans below the request.
        ("request.statement_us", "us", Lower),
        ("request.compile_us", "us", Lower),
        ("request.execute_us", "us", Lower),
        ("request.queue_us", "us", Lower),
        ("request.service_us", "us", Lower),
        // Workload separation: what share of request time is compile,
        // and (cache_reuse) what share of a round is warm passes.
        ("separation.compile_share_pct", "%", Lower),
        ("separation.warm_pass_share_pct", "%", Higher),
    ] {
        timed(name, unit, better);
    }

    let mut exact = |name: &str, unit: &'static str| {
        v.push(def(name, unit, Lower, true, 0.0));
    };
    for cell in cells::serial() {
        exact(&format!("{cell}.code_bytes_per_query"), "B");
        exact(&format!("{cell}.model_cycles_per_query"), "cycles");
    }
    for (name, unit) in [
        ("plan.pipelines_per_query", "count"),
        ("codegen.ir_insts_per_query", "count"),
        ("codegen.functions_per_query", "count"),
        ("backend.artifact_bytes_per_module", "B"),
        ("artifact_store.bytes_per_module", "B"),
        ("artifact_store.writes_per_round", "count"),
        ("artifact_store.disk_hits_per_round", "count"),
        ("target.tx64.insts_per_query", "count"),
        ("target.ta64.insts_per_query", "count"),
        ("target.tx64.model_cpi", "ratio"),
        ("target.ta64.model_cpi", "ratio"),
        ("interp.insts_per_query", "count"),
        ("timing.events_per_query", "count"),
    ] {
        exact(name, unit);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(all.iter().all(|m| valid_name(&m.name)));
        assert!(all.iter().all(|m| m.unit.len() <= 16));
        assert!(end_to_end().len() <= 16);
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &end_to_end()[0];
        assert_eq!(
            (setup.name.as_str(), setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// registry and to the workload list.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid json");
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    let bound = m.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound.is_some(), with_bound, "{key}: bound");
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let expect = |defs: Vec<MetricDef>, with_bound: bool| -> Vec<_> {
            defs.into_iter()
                .map(|m| {
                    let bound = with_bound.then_some(m.bound);
                    (
                        m.name,
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end", true), expect(end_to_end(), true));
        assert_eq!(listed("per_layer", false), expect(per_layer(), false));

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workload::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        assert!(specs.iter().all(|(_, why)| why.len() <= 200));
    }
}
