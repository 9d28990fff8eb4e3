//! Data-centric code generation: physical pipelines → SSA IR.
//!
//! Implements the paper's code-generation model (Sec. II–III): each
//! pipeline becomes one IR [`qc_ir::Module`] containing a `setup` function
//! (creates hash tables/buffers, storing handles into the query context),
//! a `main` function processing one morsel (`fn(ctx, start, count)` — the
//! tuple-at-a-time loop with operators applied in nested fashion), a
//! `finish` function (hash-table build / sort), and for sort pipelines a
//! comparator called back from the runtime.
//!
//! Hash sequences are emitted inline exactly as the runtime computes them
//! (two seeded `crc32` steps; `long-mul-fold` combining — paper Listing 2),
//! so generated code and runtime agree on every hash bit.

mod gen;

pub use gen::{generate, GeneratedQuery};

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::verify_module;
    use qc_plan::TableSchema;
    use qc_plan::{col, lit_dec, lit_i64, lit_str, AggFunc, PhysicalPlan, PlanNode};
    use qc_storage::ColumnType;
    use std::sync::Arc;

    fn catalog(name: &str) -> Option<TableSchema> {
        match name {
            "fact" => Some(Arc::new([
                ("k".into(), ColumnType::I64),
                ("d".into(), ColumnType::Date),
                ("v".into(), ColumnType::Decimal(2)),
                ("s".into(), ColumnType::Str),
                ("q".into(), ColumnType::I32),
                ("b".into(), ColumnType::Bool),
            ])),
            "dim" => Some(Arc::new([
                ("k".into(), ColumnType::I64),
                ("label".into(), ColumnType::Str),
            ])),
            _ => None,
        }
    }

    fn gen(plan: &PlanNode) -> GeneratedQuery {
        let phys = PhysicalPlan::decompose(plan, &catalog).unwrap();
        let q = generate(&phys, "q");
        for m in &q.modules {
            verify_module(m).unwrap_or_else(|e| {
                panic!("{e}\n{}", qc_ir::print_module(m));
            });
        }
        q
    }

    #[test]
    fn scan_filter_output_verifies() {
        let p = PlanNode::scan("fact", &["k", "v"])
            .filter(col("k").gt(lit_i64(10)).and(col("v").lt(lit_dec(500, 2))));
        let q = gen(&p);
        assert_eq!(q.modules.len(), 1);
        let m = &q.modules[0];
        assert!(m.function_by_name("setup").is_some());
        assert!(m.function_by_name("main").is_some());
        assert!(m.function_by_name("finish").is_some());
    }

    #[test]
    fn all_column_types_load_and_store() {
        let p = PlanNode::scan("fact", &["k", "d", "v", "s", "q", "b"]);
        gen(&p);
    }

    #[test]
    fn join_produces_probe_loop() {
        let p = PlanNode::scan("fact", &["k", "v"]).hash_join(
            PlanNode::scan("dim", &["k", "label"]),
            &["k"],
            &["k"],
            &["label"],
        );
        let q = gen(&p);
        assert_eq!(q.modules.len(), 2);
        // Probe main must contain crc32 hashing and a probe call.
        let main = q.modules[1].function_by_name("main").unwrap().1;
        let text = qc_ir::print_function(main);
        assert!(text.contains("crc32"), "{text}");
        assert!(text.contains("rt_ht_probe"), "{text}");
    }

    #[test]
    fn string_key_joins_use_runtime_hash() {
        let p = PlanNode::scan("fact", &["k", "s"]).hash_join(
            PlanNode::scan("dim", &["label", "k"]),
            &["s"],
            &["label"],
            &["k"],
        );
        // payload `k` collides with probe scope -> dedup keeps probe k.
        let phys = PhysicalPlan::decompose(&p, &catalog);
        assert!(phys.is_ok());
        let q = generate(&phys.unwrap(), "q");
        let text = qc_ir::print_module(&q.modules[1]);
        assert!(text.contains("rt_str_hash"), "{text}");
        assert!(text.contains("rt_str_eq"), "{text}");
    }

    #[test]
    fn group_by_generates_update_and_create_paths() {
        let p = PlanNode::scan("fact", &["s", "v", "k"]).group_by(
            &["s"],
            vec![
                ("n", AggFunc::CountStar),
                ("total", AggFunc::Sum(col("v"))),
                ("hi", AggFunc::Max(col("k"))),
                ("avg_v", AggFunc::Avg(col("v"))),
            ],
        );
        let q = gen(&p);
        assert_eq!(q.modules.len(), 2);
        let text = qc_ir::print_module(&q.modules[0]);
        assert!(text.contains("rt_ht_insert"), "{text}");
        assert!(text.contains("saddtrap i128"), "{text}");
    }

    #[test]
    fn sort_pipeline_has_comparator() {
        let p = PlanNode::scan("fact", &["k", "v", "s"])
            .sort(&[("v", false), ("s", true), ("k", true)], Some(5));
        let q = gen(&p);
        assert_eq!(q.modules.len(), 2);
        let m = &q.modules[0];
        let (_, cmp) = m.function_by_name("cmp0").expect("comparator exists");
        assert_eq!(cmp.sig.params.len(), 2);
        let text = qc_ir::print_module(m);
        assert!(text.contains("rt_sort"), "{text}");
        assert!(text.contains("funcaddr"), "{text}");
        assert!(text.contains("rt_str_lt"), "{text}");
    }

    #[test]
    fn string_literals_load_from_context() {
        let p = PlanNode::scan("fact", &["s"]).filter(col("s").starts_with(lit_str("abc")));
        let q = gen(&p);
        let text = qc_ir::print_module(&q.modules[0]);
        assert!(text.contains("rt_str_prefix"), "{text}");
        assert!(text.contains("load string"), "{text}");
    }

    #[test]
    fn decimal_division_prescales() {
        let p = PlanNode::scan("fact", &["v"]).map(vec![("r", col("v").div(lit_dec(300, 2)))]);
        let q = gen(&p);
        let text = qc_ir::print_module(&q.modules[0]);
        assert!(text.contains("smultrap i128"), "{text}");
        assert!(text.contains("sdiv i128"), "{text}");
    }
}
