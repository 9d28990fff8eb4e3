//! Logical plan operators with schema inference.

use crate::expr::Expr;
use qc_storage::ColumnType;
use std::error::Error;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A table schema: ordered (column name, type) pairs, shared, so a
/// catalog can hand out a table's schema without copying it.
pub type TableSchema = Arc<[(String, ColumnType)]>;

/// Catalog lookup used during planning: table name → schema, or `None`
/// for an unknown table.
pub type CatalogFn<'a> = dyn Fn(&str) -> Option<TableSchema> + 'a;

/// Aggregate functions for [`PlanNode::GroupBy`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)` — result `i64`.
    CountStar,
    /// `SUM(expr)` — decimals sum at their scale, integers at `i64`.
    Sum(Expr),
    /// `MIN(expr)`.
    Min(Expr),
    /// `MAX(expr)`.
    Max(Expr),
    /// `AVG(expr)` — result `f64`.
    Avg(Expr),
}

/// Error produced by plan validation/schema inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Problem description.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl Error for PlanError {}

fn err<T>(message: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError {
        message: message.into(),
    })
}

/// A logical query plan node. Names are shared (`Arc<str>`): planning
/// keeps them in pipelines, layouts and context slots without copying.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Base-table scan with projected columns and an optional pushed-down
    /// filter.
    Scan {
        /// Table name.
        table: Arc<str>,
        /// Projected column names.
        columns: Vec<Arc<str>>,
        /// Pushed-down predicate.
        filter: Option<Expr>,
    },
    /// Tuple filter.
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate (`bool`).
        predicate: Expr,
    },
    /// Appends computed columns to the tuple.
    Map {
        /// Input.
        input: Box<PlanNode>,
        /// `(name, expression)` pairs appended to the schema.
        exprs: Vec<(Arc<str>, Expr)>,
    },
    /// Inner hash join. The build side is materialized into a hash table;
    /// the probe side streams.
    HashJoin {
        /// Build (materialized) input.
        build: Box<PlanNode>,
        /// Probe (streaming) input.
        probe: Box<PlanNode>,
        /// Equi-join key columns on the build side.
        build_keys: Vec<Arc<str>>,
        /// Equi-join key columns on the probe side (same count/types).
        probe_keys: Vec<Arc<str>>,
        /// Build-side columns carried into the output (key columns are
        /// carried automatically).
        payload: Vec<Arc<str>>,
    },
    /// Hash aggregation.
    GroupBy {
        /// Input.
        input: Box<PlanNode>,
        /// Grouping key columns.
        keys: Vec<Arc<str>>,
        /// `(output name, aggregate)` pairs.
        aggs: Vec<(Arc<str>, AggFunc)>,
    },
    /// Sort (with optional limit), a full pipeline breaker.
    Sort {
        /// Input.
        input: Box<PlanNode>,
        /// `(column, ascending)` sort keys.
        keys: Vec<(Arc<str>, bool)>,
        /// Optional row limit applied after sorting.
        limit: Option<usize>,
    },
}

/// Shared copies of `names`.
fn names(names: &[&str]) -> Vec<Arc<str>> {
    names.iter().map(|&n| n.into()).collect()
}

impl PlanNode {
    /// Convenience constructor for a scan.
    pub fn scan(table: &str, columns: &[&str]) -> PlanNode {
        PlanNode::Scan {
            table: table.into(),
            columns: names(columns),
            filter: None,
        }
    }

    /// Convenience constructor for a filtered scan.
    pub fn scan_filtered(table: &str, columns: &[&str], filter: Expr) -> PlanNode {
        PlanNode::Scan {
            table: table.into(),
            columns: names(columns),
            filter: Some(filter),
        }
    }

    /// Wraps `self` in a filter.
    pub fn filter(self, predicate: Expr) -> PlanNode {
        PlanNode::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps `self` in a map.
    pub fn map(self, exprs: Vec<(&str, Expr)>) -> PlanNode {
        PlanNode::Map {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Joins `build` into `self` (probe side).
    pub fn hash_join(
        self,
        build: PlanNode,
        probe_keys: &[&str],
        build_keys: &[&str],
        payload: &[&str],
    ) -> PlanNode {
        PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(self),
            build_keys: names(build_keys),
            probe_keys: names(probe_keys),
            payload: names(payload),
        }
    }

    /// Groups `self`.
    pub fn group_by(self, keys: &[&str], aggs: Vec<(&str, AggFunc)>) -> PlanNode {
        PlanNode::GroupBy {
            input: Box::new(self),
            keys: names(keys),
            aggs: aggs.into_iter().map(|(n, a)| (n.into(), a)).collect(),
        }
    }

    /// Sorts `self`.
    pub fn sort(self, keys: &[(&str, bool)], limit: Option<usize>) -> PlanNode {
        PlanNode::Sort {
            input: Box::new(self),
            keys: keys.iter().map(|&(n, asc)| (n.into(), asc)).collect(),
            limit,
        }
    }

    /// Infers the output schema against a database catalog lookup.
    ///
    /// # Errors
    /// Returns a [`PlanError`] for unknown tables/columns or type errors.
    pub fn schema(&self, catalog: &CatalogFn<'_>) -> Result<Vec<(String, ColumnType)>, PlanError> {
        match self {
            PlanNode::Scan {
                table,
                columns,
                filter,
            } => {
                let Some(table_schema) = catalog(table) else {
                    return err(format!("unknown table `{table}`"));
                };
                let mut out = Vec::new();
                for c in columns {
                    match table_schema.iter().find(|(n, _)| **n == **c) {
                        Some(entry) => out.push(entry.clone()),
                        None => return err(format!("unknown column `{c}` in `{table}`")),
                    }
                }
                if let Some(f) = filter {
                    // The filter may reference any table column, not just
                    // the projected ones.
                    match f.infer_type(&table_schema[..]) {
                        Ok(ColumnType::Bool) => {}
                        Ok(t) => return err(format!("scan filter has type {t}")),
                        Err(m) => return err(m),
                    }
                }
                Ok(out)
            }
            PlanNode::Filter { input, predicate } => {
                let schema = input.schema(catalog)?;
                match predicate.infer_type(&schema) {
                    Ok(ColumnType::Bool) => Ok(schema),
                    Ok(t) => err(format!("filter has type {t}")),
                    Err(m) => err(m),
                }
            }
            PlanNode::Map { input, exprs } => {
                let mut schema = input.schema(catalog)?;
                for (name, e) in exprs {
                    let ty = e
                        .infer_type(&schema)
                        .map_err(|m| PlanError { message: m })?;
                    schema.push((name.to_string(), ty));
                }
                Ok(schema)
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
            } => {
                let bs = build.schema(catalog)?;
                let ps = probe.schema(catalog)?;
                if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
                    return err("join key count mismatch");
                }
                for (bk, pk) in build_keys.iter().zip(probe_keys) {
                    let bt = bs.iter().find(|(n, _)| **n == **bk);
                    let pt = ps.iter().find(|(n, _)| **n == **pk);
                    match (bt, pt) {
                        (Some((_, bt)), Some((_, pt))) if bt == pt => {}
                        (Some(_), Some(_)) => {
                            return err(format!("join key type mismatch {bk}/{pk}"))
                        }
                        _ => return err(format!("unknown join key {bk}/{pk}")),
                    }
                }
                let mut out = ps;
                for p in payload {
                    match bs.iter().find(|(n, _)| **n == **p) {
                        Some(entry) => {
                            if out.iter().any(|(n, _)| **n == **p) {
                                return err(format!("duplicate output column `{p}`"));
                            }
                            out.push(entry.clone());
                        }
                        None => return err(format!("unknown payload column `{p}`")),
                    }
                }
                Ok(out)
            }
            PlanNode::GroupBy { input, keys, aggs } => {
                let schema = input.schema(catalog)?;
                let mut out = Vec::new();
                for k in keys {
                    match schema.iter().find(|(n, _)| **n == **k) {
                        Some(e) => out.push(e.clone()),
                        None => return err(format!("unknown group key `{k}`")),
                    }
                }
                for (name, agg) in aggs {
                    let ty = match agg {
                        AggFunc::CountStar => ColumnType::I64,
                        AggFunc::Avg(e) => {
                            e.infer_type(&schema)
                                .map_err(|m| PlanError { message: m })?;
                            ColumnType::F64
                        }
                        AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => {
                            let t = e
                                .infer_type(&schema)
                                .map_err(|m| PlanError { message: m })?;
                            match t {
                                ColumnType::Decimal(s) => ColumnType::Decimal(s),
                                ColumnType::I64 | ColumnType::I32 | ColumnType::Date => {
                                    ColumnType::I64
                                }
                                ColumnType::F64 => ColumnType::F64,
                                other => return err(format!("cannot aggregate type {other}")),
                            }
                        }
                    };
                    out.push((name.to_string(), ty));
                }
                Ok(out)
            }
            PlanNode::Sort { input, keys, .. } => {
                let schema = input.schema(catalog)?;
                for (k, _) in keys {
                    if !schema.iter().any(|(n, _)| **n == **k) {
                        return err(format!("unknown sort key `{k}`"));
                    }
                }
                Ok(schema)
            }
        }
    }

    /// Renders the plan as canonical, deterministic text — the engine's
    /// stand-in for SQL query text, used as the prepared-statement cache
    /// key. Two plans render identically exactly when they are equal:
    /// every operator, column list, expression, and option is spelled
    /// out in a fixed order with unambiguous delimiters.
    ///
    /// One allocation: a first pass only measures the text, the second
    /// writes it into a `String` of exactly that size.
    pub fn canonical_text(&self) -> String {
        /// A sink that keeps nothing but the length.
        struct Measure(usize);
        impl Write for Measure {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut measure = Measure(0);
        let _ = self.write_canonical(&mut measure);
        let mut out = String::with_capacity(measure.0);
        let _ = self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut impl Write) -> fmt::Result {
        /// `items` separated by commas.
        fn list<W: Write, T>(
            out: &mut W,
            items: &[T],
            mut item: impl FnMut(&mut W, &T) -> fmt::Result,
        ) -> fmt::Result {
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                item(out, x)?;
            }
            Ok(())
        }
        fn names(out: &mut impl Write, names: &[Arc<str>]) -> fmt::Result {
            list(out, names, |out, n| out.write_str(n))
        }
        match self {
            PlanNode::Scan {
                table,
                columns,
                filter,
            } => {
                write!(out, "scan({table};")?;
                names(out, columns)?;
                if let Some(f) = filter {
                    write!(out, ";where {f}")?;
                }
                out.write_char(')')
            }
            PlanNode::Filter { input, predicate } => {
                write!(out, "filter({predicate};")?;
                input.write_canonical(out)?;
                out.write_char(')')
            }
            PlanNode::Map { input, exprs } => {
                out.write_str("map(")?;
                list(out, exprs, |out, (name, e)| write!(out, "{name}={e}"))?;
                out.write_char(';')?;
                input.write_canonical(out)?;
                out.write_char(')')
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
            } => {
                out.write_str("join(")?;
                names(out, probe_keys)?;
                out.write_char('=')?;
                names(out, build_keys)?;
                out.write_str(";payload ")?;
                names(out, payload)?;
                out.write_str(";build ")?;
                build.write_canonical(out)?;
                out.write_str(";probe ")?;
                probe.write_canonical(out)?;
                out.write_char(')')
            }
            PlanNode::GroupBy { input, keys, aggs } => {
                out.write_str("groupby(")?;
                names(out, keys)?;
                out.write_char(';')?;
                list(out, aggs, |out, (name, agg)| match agg {
                    AggFunc::CountStar => write!(out, "{name}=count(*)"),
                    AggFunc::Sum(e) => write!(out, "{name}=sum({e})"),
                    AggFunc::Min(e) => write!(out, "{name}=min({e})"),
                    AggFunc::Max(e) => write!(out, "{name}=max({e})"),
                    AggFunc::Avg(e) => write!(out, "{name}=avg({e})"),
                })?;
                out.write_char(';')?;
                input.write_canonical(out)?;
                out.write_char(')')
            }
            PlanNode::Sort { input, keys, limit } => {
                out.write_str("sort(")?;
                list(out, keys, |out, (name, asc)| {
                    write!(out, "{name} {}", if *asc { "asc" } else { "desc" })
                })?;
                if let Some(l) = limit {
                    write!(out, ";limit {l}")?;
                }
                out.write_char(';')?;
                input.write_canonical(out)?;
                out.write_char(')')
            }
        }
    }

    /// Counts the pipeline breakers below (and including) this node —
    /// a quick complexity metric used by the workload generators.
    pub fn breaker_count(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 0,
            PlanNode::Filter { input, .. } | PlanNode::Map { input, .. } => input.breaker_count(),
            PlanNode::HashJoin { build, probe, .. } => {
                1 + build.breaker_count() + probe.breaker_count()
            }
            PlanNode::GroupBy { input, .. } | PlanNode::Sort { input, .. } => {
                1 + input.breaker_count()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_date};

    fn catalog(name: &str) -> Option<TableSchema> {
        match name {
            "t" => Some(Arc::new([
                ("k".into(), ColumnType::I64),
                ("d".into(), ColumnType::Date),
                ("v".into(), ColumnType::Decimal(2)),
            ])),
            "dim" => Some(Arc::new([
                ("k".into(), ColumnType::I64),
                ("label".into(), ColumnType::Str),
            ])),
            _ => None,
        }
    }

    #[test]
    fn scan_schema_projects_columns() {
        let p = PlanNode::scan_filtered("t", &["k", "v"], col("d").lt(lit_date(10)));
        let s = p.schema(&catalog).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1], ("v".into(), ColumnType::Decimal(2)));
    }

    #[test]
    fn join_appends_payload() {
        let p = PlanNode::scan("t", &["k", "v"]).hash_join(
            PlanNode::scan("dim", &["k", "label"]),
            &["k"],
            &["k"],
            &["label"],
        );
        let s = p.schema(&catalog).unwrap();
        assert_eq!(
            s.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["k", "v", "label"]
        );
        assert_eq!(p.breaker_count(), 1);
    }

    #[test]
    fn group_by_schema() {
        let p = PlanNode::scan("t", &["k", "v"]).group_by(
            &["k"],
            vec![
                ("total", AggFunc::Sum(col("v"))),
                ("n", AggFunc::CountStar),
                ("avg_v", AggFunc::Avg(col("v"))),
            ],
        );
        let s = p.schema(&catalog).unwrap();
        assert_eq!(s[1], ("total".into(), ColumnType::Decimal(2)));
        assert_eq!(s[2], ("n".into(), ColumnType::I64));
        assert_eq!(s[3], ("avg_v".into(), ColumnType::F64));
    }

    #[test]
    fn errors_on_unknown_entities() {
        assert!(PlanNode::scan("missing", &["x"]).schema(&catalog).is_err());
        assert!(PlanNode::scan("t", &["x"]).schema(&catalog).is_err());
        let bad_sort = PlanNode::scan("t", &["k"]).sort(&[("nope", true)], None);
        assert!(bad_sort.schema(&catalog).is_err());
        let bad_join = PlanNode::scan("t", &["k"]).hash_join(
            PlanNode::scan("dim", &["label"]),
            &["k"],
            &["label"],
            &[],
        );
        assert!(bad_join.schema(&catalog).is_err());
    }

    #[test]
    fn filter_must_be_bool() {
        let p = PlanNode::scan("t", &["k"]).filter(col("k"));
        assert!(p.schema(&catalog).is_err());
    }
}
