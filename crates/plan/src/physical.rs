//! Pipeline decomposition: logical plan → physical pipelines.

use crate::expr::{lit_f64, Expr};
use crate::layout::RowLayout;
use crate::node::{AggFunc, CatalogFn, PlanError, PlanNode};
use qc_storage::ColumnType;
use std::sync::Arc;

/// One query-context slot. The context is a flat array of 8-byte slots the
/// engine fills before execution; generated functions receive its address
/// as their first argument (the `%state` pointer of paper Listing 2) and
/// load handles/column bases from fixed offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtxEntry {
    /// Output tuple-buffer handle.
    OutputBuf,
    /// Hash-table handle of join `n`.
    JoinHt(usize),
    /// Hash-table handle of aggregation `n`.
    AggHt(usize),
    /// Group-registration buffer handle of aggregation `n` (each created
    /// group's payload pointer is appended, making groups scannable).
    AggGroups(usize),
    /// Materialization buffer handle of sort `n`.
    SortBuf(usize),
    /// Base address of a table column.
    ColumnBase {
        /// Table name.
        table: Arc<str>,
        /// Column name.
        column: Arc<str>,
    },
    /// Interned string literal `n` (occupies 16 bytes: the full
    /// [`qc_runtime::RtString`] descriptor).
    StrConst(usize),
}

impl CtxEntry {
    /// Size of this entry in the context block.
    pub fn size(&self) -> usize {
        match self {
            CtxEntry::StrConst(_) => 16,
            _ => 8,
        }
    }
}

/// Tuple source of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Scan a base table over a morsel `[start, start+count)`.
    Table {
        /// Table name.
        name: Arc<str>,
        /// Columns to load: projected plus filter-only columns.
        columns: Vec<(Arc<str>, ColumnType)>,
        /// Names visible downstream (the projected subset).
        projected: Vec<Arc<str>>,
        /// Pushed-down predicate over `columns`.
        filter: Option<Expr>,
    },
    /// Scan a materialized buffer (aggregation groups or sorted rows).
    Buffer {
        /// Context slot holding the buffer handle.
        buffer: CtxEntry,
        /// Row layout.
        layout: RowLayout,
        /// Row limit (sort+limit).
        limit: Option<usize>,
    },
}

/// Streaming (non-materializing) operator.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// Drop tuples failing the predicate.
    Filter(Expr),
    /// Append computed columns.
    Map(Vec<(Arc<str>, ColumnType, Expr)>),
    /// Probe join `join_id`: hash the probe keys, walk the bucket chain,
    /// and for every key-equal entry emit the tuple extended with the
    /// carried build columns (one nested loop per join, paper Sec. III-A).
    Probe {
        /// Join identifier (context slot [`CtxEntry::JoinHt`]).
        join_id: usize,
        /// Probe-side key columns.
        probe_keys: Vec<Arc<str>>,
        /// Build-side entry payload layout (keys first, then payload).
        build_layout: RowLayout,
        /// Build columns added to the scope (payload minus keys).
        carry: Vec<(Arc<str>, ColumnType)>,
    },
}

/// Materializing pipeline end.
#[derive(Debug, Clone, PartialEq)]
pub enum Sink {
    /// Write the scope columns into the output buffer.
    Output {
        /// Output row layout.
        layout: RowLayout,
    },
    /// Insert into join `join_id`'s hash table.
    JoinBuild {
        /// Join identifier.
        join_id: usize,
        /// Build key columns (hashed).
        keys: Vec<Arc<str>>,
        /// Entry payload layout (keys first, then payload).
        layout: RowLayout,
    },
    /// Update aggregation `agg_id`'s hash table.
    AggBuild {
        /// Aggregation identifier.
        agg_id: usize,
        /// Group key columns (hashed).
        keys: Vec<Arc<str>>,
        /// Aggregates in output order.
        aggs: Vec<(Arc<str>, AggFunc)>,
        /// Group-entry payload layout: keys, then aggregate state fields
        /// (named `#<output>` / `#<output>_cnt` for AVG).
        layout: RowLayout,
    },
    /// Materialize into sort `sort_id`'s buffer (sorted by the finish
    /// function).
    SortMaterialize {
        /// Sort identifier.
        sort_id: usize,
        /// `(column, ascending)` keys.
        keys: Vec<(Arc<str>, bool)>,
        /// Row layout.
        layout: RowLayout,
    },
}

/// One linear pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Position in execution order (dependencies come first).
    pub id: usize,
    /// Tuple source.
    pub source: Source,
    /// Streaming operators in order.
    pub ops: Vec<StreamOp>,
    /// Materializing end.
    pub sink: Sink,
}

/// The decomposed plan consumed by code generation and the engine.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Pipelines in execution order.
    pub pipelines: Vec<Pipeline>,
    /// Context slots in block order; each takes [`CtxEntry::size`] bytes.
    pub ctx: Vec<CtxEntry>,
    /// Byte offset of each slot of `ctx`, summed once by `decompose`.
    offsets: Vec<i32>,
    /// Output row layout (matches the logical root schema).
    pub output: RowLayout,
    /// Logical output schema.
    pub output_schema: Vec<(Arc<str>, ColumnType)>,
    /// Deduplicated string literals; literal `n` is loaded from context
    /// entry [`CtxEntry::StrConst`]`(n)`.
    pub str_literals: Vec<Arc<str>>,
}

impl PhysicalPlan {
    /// Slot index of a context entry.
    ///
    /// # Panics
    /// Panics if the entry was never allocated (decomposition bug).
    pub fn slot_of(&self, entry: &CtxEntry) -> usize {
        self.ctx
            .iter()
            .position(|e| e == entry)
            .unwrap_or_else(|| panic!("context entry {entry:?} not allocated"))
    }

    /// Byte offset of a context entry within the context block.
    pub fn ctx_offset(&self, entry: &CtxEntry) -> i32 {
        self.offsets[self.slot_of(entry)]
    }

    /// Size of the context block in bytes.
    pub fn ctx_size(&self) -> usize {
        self.ctx.iter().map(CtxEntry::size).sum()
    }

    /// Decomposes a logical plan. Names are shared with `root`, never
    /// copied.
    ///
    /// # Errors
    /// Propagates schema/type errors from the logical plan.
    pub fn decompose(root: &PlanNode, catalog: &CatalogFn<'_>) -> Result<PhysicalPlan, PlanError> {
        let mut d = Decomposer {
            catalog,
            pipelines: Vec::with_capacity(root.breaker_count() + 1),
            ctx: vec![CtxEntry::OutputBuf],
            joins: 0,
            aggs: 0,
            sorts: 0,
            str_literals: Vec::new(),
            name: String::new(),
        };
        let (source, ops, scope) = d.process(root)?;
        let layout = RowLayout::new(&scope);
        d.pipelines.push(Pipeline {
            id: d.pipelines.len(),
            source,
            ops,
            sink: Sink::Output {
                layout: layout.clone(),
            },
        });
        let offsets = d
            .ctx
            .iter()
            .scan(0, |next, e| {
                let off = *next;
                *next += e.size() as i32;
                Some(off)
            })
            .collect();
        Ok(PhysicalPlan {
            pipelines: d.pipelines,
            ctx: d.ctx,
            offsets,
            output: layout,
            output_schema: scope,
            str_literals: d.str_literals,
        })
    }
}

struct Decomposer<'c> {
    catalog: &'c CatalogFn<'c>,
    pipelines: Vec<Pipeline>,
    ctx: Vec<CtxEntry>,
    joins: usize,
    aggs: usize,
    sorts: usize,
    str_literals: Vec<Arc<str>>,
    /// Where aggregate state names are spelled before they are shared.
    name: String,
}

type Scope = Vec<(Arc<str>, ColumnType)>;

/// The entry of `scope` named `name`, shared.
fn find(scope: &[(Arc<str>, ColumnType)], name: &str) -> Option<(Arc<str>, ColumnType)> {
    scope.iter().find(|(n, _)| **n == *name).cloned()
}

impl Decomposer<'_> {
    fn slot(&mut self, e: CtxEntry) {
        if !self.ctx.contains(&e) {
            self.ctx.push(e);
        }
    }

    /// Interns every string literal of `e` as a context entry.
    fn intern_strings(&mut self, e: &Expr) {
        collect_str_literals(e, &mut |lit| {
            let idx = match self.str_literals.iter().position(|s| s == lit) {
                Some(i) => i,
                None => {
                    self.str_literals.push(Arc::clone(lit));
                    self.str_literals.len() - 1
                }
            };
            self.slot(CtxEntry::StrConst(idx));
        });
    }

    /// The state field name of aggregate `agg`: `#<agg><suffix>` (see
    /// [`RowLayout::agg_state`]).
    fn state_name(&mut self, agg: &str, suffix: &str) -> Arc<str> {
        self.name.clear();
        self.name.push('#');
        self.name.push_str(agg);
        self.name.push_str(suffix);
        Arc::from(self.name.as_str())
    }

    fn perr<T>(msg: impl Into<String>) -> Result<T, PlanError> {
        Err(PlanError {
            message: msg.into(),
        })
    }

    fn process(&mut self, node: &PlanNode) -> Result<(Source, Vec<StreamOp>, Scope), PlanError> {
        match node {
            PlanNode::Scan {
                table,
                columns,
                filter,
            } => {
                let Some(table_schema) = (self.catalog)(table) else {
                    return Self::perr(format!("unknown table `{table}`"));
                };
                // Loaded: the projected columns, then the filter's others.
                let mut loaded: Scope = Vec::with_capacity(columns.len());
                let mut load = |c: &Arc<str>| match table_schema.iter().find(|(n, _)| **n == **c) {
                    Some(&(_, ty)) => {
                        loaded.push((Arc::clone(c), ty));
                        Ok(())
                    }
                    None => Self::perr(format!("unknown column `{c}` in `{table}`")),
                };
                columns.iter().try_for_each(&mut load)?;
                if let Some(f) = filter {
                    let mut extra = Vec::new();
                    f.collect_columns(&mut extra);
                    for c in &extra {
                        if !columns.contains(c) {
                            load(c)?;
                        }
                    }
                }
                for (c, _) in &loaded {
                    self.slot(CtxEntry::ColumnBase {
                        table: Arc::clone(table),
                        column: Arc::clone(c),
                    });
                }
                if let Some(f) = filter {
                    self.intern_strings(f);
                }
                let scope: Scope = columns
                    .iter()
                    .map(|c| find(&loaded, c).expect("projected"))
                    .collect();
                Ok((
                    Source::Table {
                        name: Arc::clone(table),
                        columns: loaded,
                        projected: columns.clone(),
                        filter: filter.clone(),
                    },
                    Vec::new(),
                    scope,
                ))
            }
            PlanNode::Filter { input, predicate } => {
                let (src, mut ops, scope) = self.process(input)?;
                match predicate.infer_type(&scope) {
                    Ok(ColumnType::Bool) => {}
                    Ok(t) => return Self::perr(format!("filter has type {t}")),
                    Err(m) => return Self::perr(m),
                }
                self.intern_strings(predicate);
                ops.push(StreamOp::Filter(predicate.clone()));
                Ok((src, ops, scope))
            }
            PlanNode::Map { input, exprs } => {
                let (src, mut ops, mut scope) = self.process(input)?;
                let mut typed = Vec::with_capacity(exprs.len());
                for (name, e) in exprs {
                    let ty = e.infer_type(&scope).map_err(|m| PlanError { message: m })?;
                    self.intern_strings(e);
                    typed.push((Arc::clone(name), ty, e.clone()));
                    scope.push((Arc::clone(name), ty));
                }
                ops.push(StreamOp::Map(typed));
                Ok((src, ops, scope))
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
            } => {
                let join_id = self.joins;
                self.joins += 1;
                self.slot(CtxEntry::JoinHt(join_id));

                // Build side becomes its own pipeline (and possibly more).
                let (bsrc, bops, bscope) = self.process(build)?;
                let mut entry_fields: Scope = Vec::with_capacity(build_keys.len() + payload.len());
                for k in build_keys {
                    match find(&bscope, k) {
                        Some(e) => entry_fields.push(e),
                        None => return Self::perr(format!("unknown build key `{k}`")),
                    }
                }
                let mut carry: Scope = Vec::with_capacity(payload.len());
                for p in payload {
                    let Some(e) = find(&bscope, p) else {
                        return Self::perr(format!("unknown payload column `{p}`"));
                    };
                    if !build_keys.contains(p) {
                        entry_fields.push(e.clone());
                    }
                    carry.push(e);
                }
                let build_layout = RowLayout::new(&entry_fields);
                self.pipelines.push(Pipeline {
                    id: self.pipelines.len(),
                    source: bsrc,
                    ops: bops,
                    sink: Sink::JoinBuild {
                        join_id,
                        keys: build_keys.clone(),
                        layout: build_layout.clone(),
                    },
                });

                // Probe side continues the current pipeline.
                let (psrc, mut pops, mut pscope) = self.process(probe)?;
                for (bk, pk) in build_keys.iter().zip(probe_keys) {
                    let bt = build_layout.field(bk).map(|f| f.ty);
                    let pt = pscope.iter().find(|(n, _)| n == pk).map(|&(_, t)| t);
                    if bt.is_none() || pt.is_none() || bt != pt {
                        return Self::perr(format!("join key mismatch {bk}/{pk}"));
                    }
                }
                // Only carry columns not already in scope (schema() rejects
                // real duplicates).
                carry.retain(|(n, _)| !pscope.iter().any(|(pn, _)| pn == n));
                pscope.extend(carry.iter().cloned());
                pops.push(StreamOp::Probe {
                    join_id,
                    probe_keys: probe_keys.clone(),
                    build_layout,
                    carry,
                });
                Ok((psrc, pops, pscope))
            }
            PlanNode::GroupBy { input, keys, aggs } => {
                let agg_id = self.aggs;
                self.aggs += 1;
                self.slot(CtxEntry::AggHt(agg_id));
                self.slot(CtxEntry::AggGroups(agg_id));

                let (isrc, iops, iscope) = self.process(input)?;
                let states = aggs.len()
                    + aggs
                        .iter()
                        .filter(|(_, a)| matches!(a, AggFunc::Avg(_)))
                        .count();
                let mut fields: Scope = Vec::with_capacity(keys.len() + states);
                for k in keys {
                    match find(&iscope, k) {
                        Some(e) => fields.push(e),
                        None => return Self::perr(format!("unknown group key `{k}`")),
                    }
                }
                // Aggregate state fields.
                let mut finals: Vec<(Arc<str>, ColumnType, Expr)> = Vec::new();
                let mut out_scope: Scope = Vec::with_capacity(keys.len() + aggs.len());
                out_scope.extend(fields.iter().cloned());
                for (name, agg) in aggs {
                    let state_ty = |e: &Expr| -> Result<ColumnType, PlanError> {
                        let t = e
                            .infer_type(&iscope)
                            .map_err(|m| PlanError { message: m })?;
                        Ok(match t {
                            ColumnType::I32 | ColumnType::Date => ColumnType::I64,
                            other => other,
                        })
                    };
                    match agg {
                        AggFunc::CountStar => {
                            fields.push((self.state_name(name, ""), ColumnType::I64));
                            out_scope.push((Arc::clone(name), ColumnType::I64));
                        }
                        AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => {
                            let ty = state_ty(e)?;
                            fields.push((self.state_name(name, ""), ty));
                            out_scope.push((Arc::clone(name), ty));
                        }
                        AggFunc::Avg(e) => {
                            let ty = state_ty(e)?;
                            let sum = self.state_name(name, "");
                            let count = self.state_name(name, "_cnt");
                            fields.push((Arc::clone(&sum), ty));
                            fields.push((Arc::clone(&count), ColumnType::I64));
                            // Finalization: sum / 10^scale / count as f64.
                            let scale_div = match ty {
                                ColumnType::Decimal(s) => 10f64.powi(s as i32),
                                _ => 1.0,
                            };
                            let e = Expr::Column(sum)
                                .cast_f64()
                                .mul(lit_f64(1.0 / scale_div))
                                .div(Expr::Column(count).cast_f64());
                            finals.push((Arc::clone(name), ColumnType::F64, e));
                            out_scope.push((Arc::clone(name), ColumnType::F64));
                        }
                    }
                }
                let layout = RowLayout::new(&fields);
                self.pipelines.push(Pipeline {
                    id: self.pipelines.len(),
                    source: isrc,
                    ops: iops,
                    sink: Sink::AggBuild {
                        agg_id,
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                        layout: layout.clone(),
                    },
                });

                // Group scan: rename `#agg` state fields to their output
                // names (non-AVG) via a Map, compute AVG finals.
                let mut ops: Vec<StreamOp> = Vec::new();
                let renames: Vec<(Arc<str>, ColumnType, Expr)> = aggs
                    .iter()
                    .filter(|(_, agg)| !matches!(agg, AggFunc::Avg(_)))
                    .map(|(name, _)| {
                        let f = layout.agg_state(name, false).expect("state field");
                        (Arc::clone(name), f.ty, Expr::Column(Arc::clone(&f.name)))
                    })
                    .collect();
                if !renames.is_empty() {
                    ops.push(StreamOp::Map(renames));
                }
                if !finals.is_empty() {
                    ops.push(StreamOp::Map(finals));
                }
                Ok((
                    Source::Buffer {
                        buffer: CtxEntry::AggGroups(agg_id),
                        layout,
                        limit: None,
                    },
                    ops,
                    out_scope,
                ))
            }
            PlanNode::Sort { input, keys, limit } => {
                let sort_id = self.sorts;
                self.sorts += 1;
                self.slot(CtxEntry::SortBuf(sort_id));

                let (isrc, iops, iscope) = self.process(input)?;
                for (k, _) in keys {
                    if !iscope.iter().any(|(n, _)| n == k) {
                        return Self::perr(format!("unknown sort key `{k}`"));
                    }
                }
                let layout = RowLayout::new(&iscope);
                self.pipelines.push(Pipeline {
                    id: self.pipelines.len(),
                    source: isrc,
                    ops: iops,
                    sink: Sink::SortMaterialize {
                        sort_id,
                        keys: keys.clone(),
                        layout: layout.clone(),
                    },
                });
                Ok((
                    Source::Buffer {
                        buffer: CtxEntry::SortBuf(sort_id),
                        layout,
                        limit: *limit,
                    },
                    Vec::new(),
                    iscope,
                ))
            }
        }
    }
}

fn collect_str_literals(e: &Expr, f: &mut impl FnMut(&Arc<str>)) {
    match e {
        Expr::LitStr(s) => f(s),
        Expr::Arith(_, a, b)
        | Expr::Cmp(_, a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::StrPrefix(a, b)
        | Expr::StrContains(a, b) => {
            collect_str_literals(a, f);
            collect_str_literals(b, f);
        }
        Expr::Not(a) | Expr::CastF64(a) => collect_str_literals(a, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_date, lit_i64};
    use crate::TableSchema;

    fn catalog(name: &str) -> Option<TableSchema> {
        match name {
            "fact" => Some(Arc::new([
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
    fn single_scan_is_one_pipeline() {
        let p = PlanNode::scan("fact", &["k", "v"]).filter(col("k").gt(lit_i64(3)));
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        assert_eq!(phys.pipelines.len(), 1);
        assert!(matches!(phys.pipelines[0].sink, Sink::Output { .. }));
        assert_eq!(phys.pipelines[0].ops.len(), 1);
        assert_eq!(phys.output.fields.len(), 2);
        // ctx: output buffer + 2 column bases.
        assert_eq!(phys.ctx.len(), 3);
        assert_eq!(phys.slot_of(&CtxEntry::OutputBuf), 0);
    }

    #[test]
    fn scan_filter_loads_extra_columns() {
        let p = PlanNode::scan_filtered("fact", &["v"], col("d").lt(lit_date(100)));
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        let Source::Table {
            columns, projected, ..
        } = &phys.pipelines[0].source
        else {
            panic!("expected table source");
        };
        assert_eq!(columns.len(), 2); // v + d
        assert_eq!(projected, &[Arc::<str>::from("v")]);
        assert_eq!(phys.output.fields.len(), 1);
    }

    #[test]
    fn join_produces_build_pipeline_first() {
        let p = PlanNode::scan("fact", &["k", "v"]).hash_join(
            PlanNode::scan("dim", &["k", "label"]),
            &["k"],
            &["k"],
            &["label"],
        );
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        assert_eq!(phys.pipelines.len(), 2);
        assert!(matches!(
            phys.pipelines[0].sink,
            Sink::JoinBuild { join_id: 0, .. }
        ));
        assert!(matches!(phys.pipelines[1].sink, Sink::Output { .. }));
        let Sink::JoinBuild { layout, .. } = &phys.pipelines[0].sink else {
            unreachable!()
        };
        // key k + payload label
        assert_eq!(layout.fields.len(), 2);
        let StreamOp::Probe { carry, .. } = &phys.pipelines[1].ops[0] else {
            panic!("expected probe op");
        };
        assert_eq!(carry.len(), 1);
        assert_eq!(phys.output_schema.len(), 3);
    }

    #[test]
    fn group_by_splits_and_finalizes_avg() {
        let p = PlanNode::scan("fact", &["k", "v"]).group_by(
            &["k"],
            vec![
                ("total", AggFunc::Sum(col("v"))),
                ("n", AggFunc::CountStar),
                ("avg_v", AggFunc::Avg(col("v"))),
            ],
        );
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        assert_eq!(phys.pipelines.len(), 2);
        let Sink::AggBuild { layout, .. } = &phys.pipelines[0].sink else {
            panic!("expected agg sink");
        };
        // k, #total, #n, #avg_v, #avg_v_cnt
        assert_eq!(layout.fields.len(), 5);
        let Source::Buffer { .. } = &phys.pipelines[1].source else {
            panic!("expected buffer source");
        };
        assert_eq!(
            phys.output_schema
                .iter()
                .map(|(n, _)| &**n)
                .collect::<Vec<_>>(),
            vec!["k", "total", "n", "avg_v"]
        );
        assert_eq!(phys.output_schema[3].1, ColumnType::F64);
    }

    #[test]
    fn sort_materializes_then_scans_with_limit() {
        let p = PlanNode::scan("fact", &["k", "v"]).sort(&[("v", false)], Some(10));
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        assert_eq!(phys.pipelines.len(), 2);
        assert!(matches!(
            phys.pipelines[0].sink,
            Sink::SortMaterialize { sort_id: 0, .. }
        ));
        let Source::Buffer { limit, .. } = &phys.pipelines[1].source else {
            panic!("expected buffer source");
        };
        assert_eq!(*limit, Some(10));
    }

    #[test]
    fn complex_query_pipeline_count() {
        // join + group + sort = 4 pipelines (build, agg-build, sort-mat, out).
        let p = PlanNode::scan("fact", &["k", "v"])
            .hash_join(
                PlanNode::scan("dim", &["k", "label"]),
                &["k"],
                &["k"],
                &["label"],
            )
            .group_by(&["label"], vec![("total", AggFunc::Sum(col("v")))])
            .sort(&[("total", false)], Some(5));
        let phys = PhysicalPlan::decompose(&p, &catalog).unwrap();
        assert_eq!(phys.pipelines.len(), 4);
    }
}
