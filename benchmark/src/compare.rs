//! `compare A B`: one row per workload × metric of two result files,
//! judged by the registry's bounds.

use crate::json::Json;
use crate::metrics::{self, MetricDef, SETUP_MIN_ABS_S};
use crate::stats::{verdict, worsening, Summary, Verdict};

/// One compared metric.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub def: MetricDef,
    pub base: Summary,
    pub cand: Summary,
    pub verdict: Verdict,
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |key: &str| metric.get(key).and_then(Json::as_f64);
    let median = num("value")?;
    Some(Summary {
        median,
        q1: num("q1").unwrap_or(median),
        q3: num("q3").unwrap_or(median),
        n: num("n").map_or(1, |n| n as usize),
    })
}

/// Compares every metric present in both files and known to the
/// registry, in registry order.
///
/// # Errors
/// Returns a message when a file lacks the `workloads` object.
pub fn compare(base: &Json, cand: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a result file: no \"workloads\" object".to_string())
    };
    let cand_workloads = workloads(cand)?;
    let registry: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    let mut rows = Vec::new();
    for (workload, base_run) in workloads(base)? {
        let Some((_, cand_run)) = cand_workloads.iter().find(|(name, _)| *name == workload) else {
            continue;
        };
        for def in &registry {
            let metric = |run: &Json| {
                run.get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(summary_of)
            };
            let (Some(base), Some(cand)) = (metric(&base_run), metric(cand_run)) else {
                continue;
            };
            let min_abs = if def.name == "setup_s" {
                SETUP_MIN_ABS_S
            } else {
                0.0
            };
            // Per-layer timings carry no bound: they explain a move of
            // an end-to-end metric, they do not gate.
            let verdict = if def.bound == 0.0 && !def.exact {
                Verdict::Ok
            } else {
                verdict(&base, &cand, def.better, def.bound, min_abs, def.exact)
            };
            rows.push(Row {
                workload: workload.clone(),
                def: def.clone(),
                base,
                cand,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether any is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<13} {:<28} {:>6} {:>14} {:>14} {:>9}  {:<10} spread(base, cand)  n",
        "workload", "metric", "unit", "base", "candidate", "worse by", "verdict"
    );
    for r in rows {
        // Exact metrics are counts: both values and the base say it all.
        let change = if r.def.exact && r.verdict != Verdict::Ok {
            format!("{:+.0}", r.cand.median - r.base.median)
        } else {
            format!(
                "{:+.2}%",
                100.0 * worsening(r.base.median, r.cand.median, r.def.better)
            )
        };
        println!(
            "{:<13} {:<28} {:>6} {:>14.4} {:>14.4} {:>9}  {:<10} {:.3} {:.3}  {} {}",
            r.workload,
            r.def.name,
            r.def.unit,
            r.base.median,
            r.cand.median,
            change,
            r.verdict.as_str(),
            r.base.spread(),
            r.cand.spread(),
            r.base.n,
            r.cand.n,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "# {} rows: {} ok, {} worse, {} unresolved, {} changed (ratios are (candidate - base) / base, sign turned so that + is worse)",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Changed),
    );
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(p50: f64, cycles: f64) -> Json {
        let metric = |value: f64, spread: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("q1", Json::Num(value * (1.0 - spread))),
                ("q3", Json::Num(value * (1.0 + spread))),
                ("n", Json::Num(12.0)),
            ])
        };
        let run = Json::obj([(
            "metrics",
            Json::obj([
                ("query_p50_ms", metric(p50, 0.01)),
                ("model_cycles_per_query", metric(cycles, 0.0)),
                ("not_in_registry", metric(1.0, 0.0)),
            ]),
        )]);
        Json::obj([("workloads", Json::obj([("hot_exec", run)]))])
    }

    #[test]
    fn rows_follow_the_registry_and_its_bounds() {
        let rows = compare(&file(10.0, 500.0), &file(10.5, 500.0)).expect("rows");
        let names: Vec<&str> = rows.iter().map(|r| r.def.name.as_str()).collect();
        assert_eq!(names, ["query_p50_ms", "model_cycles_per_query"]);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

        let rows = compare(&file(10.0, 500.0), &file(13.0, 501.0)).expect("rows");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(print(&rows));

        let rows = compare(&file(10.0, 500.0), &file(8.0, 499.0)).expect("rows");
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Changed);
        assert!(!print(&rows));
    }

    #[test]
    fn a_file_without_workloads_is_rejected() {
        assert!(compare(&Json::obj([("x", Json::Null)]), &file(1.0, 1.0)).is_err());
    }
}
