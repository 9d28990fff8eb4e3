//! Direct (non-compiled) plan evaluator over columnar storage.
//!
//! This is a back-end-independent oracle: it evaluates the logical plan in
//! plain Rust, with the same overflow-checked decimal semantics the
//! generated code implements. Differential tests compare its output — as a
//! multiset — against every compilation back-end and the bytecode
//! interpreter.

use crate::expr::{ArithOp, CmpKind, Expr};
use crate::node::{AggFunc, PlanError, PlanNode};
use qc_runtime::SqlValue;
use qc_storage::{ColumnType, Database};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

type Schema = Vec<(Arc<str>, ColumnType)>;
type Row = Vec<SqlValue>;

fn err<T>(message: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError {
        message: message.into(),
    })
}

/// Executes `plan` against `db`, returning the output rows.
///
/// # Errors
/// Returns a [`PlanError`] on schema errors or arithmetic overflow (the
/// same condition that traps in generated code).
pub fn execute(plan: &PlanNode, db: &Database) -> Result<Vec<Row>, PlanError> {
    let catalog = |name: &str| {
        db.table(name)
            .map(|t| t.schema.iter().map(|(n, ty)| (n.to_string(), ty)).collect())
    };
    let schema = plan.schema(&catalog)?;
    let (s, rows) = eval(plan, db)?;
    debug_assert_eq!(s.len(), schema.len());
    Ok(rows)
}

/// Renders rows as sorted strings for order-insensitive comparison.
pub fn normalize(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort_unstable();
    out
}

/// Checksum of a row multiset, comparable across back-ends.
pub fn checksum(rows: &[Row]) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in row {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(v.checksum());
        }
        sum = sum.wrapping_add(h); // order-insensitive across rows
    }
    sum.wrapping_add(rows.len() as u64)
}

fn load_cell(db: &Database, table: &str, column: &str, row: usize) -> SqlValue {
    let t = db.table(table).expect("table checked");
    let idx = t.schema.index_of(column).expect("column checked");
    t.column(idx).value(row, t.schema.column(idx).1)
}

fn eval(node: &PlanNode, db: &Database) -> Result<(Schema, Vec<Row>), PlanError> {
    match node {
        PlanNode::Scan {
            table,
            columns,
            filter,
        } => {
            let Some(t) = db.table(table) else {
                return err(format!("unknown table `{table}`"));
            };
            let full_schema: Schema = t.schema.iter().map(|(n, ty)| (n.into(), ty)).collect();
            let mut needed: Vec<Arc<str>> = columns.clone();
            if let Some(f) = filter {
                let mut extra = Vec::new();
                f.collect_columns(&mut extra);
                for c in extra {
                    if !needed.contains(&c) {
                        needed.push(c);
                    }
                }
            }
            let needed_schema: Schema = needed
                .iter()
                .map(|c| {
                    full_schema
                        .iter()
                        .find(|(n, _)| n == c)
                        .cloned()
                        .ok_or_else(|| PlanError {
                            message: format!("unknown column `{c}`"),
                        })
                })
                .collect::<Result<_, _>>()?;
            let mut rows = Vec::new();
            for i in 0..t.row_count() {
                let full: Row = needed.iter().map(|c| load_cell(db, table, c, i)).collect();
                if let Some(f) = filter {
                    if !truthy(&eval_expr(f, &needed_schema, &full)?) {
                        continue;
                    }
                }
                rows.push(full[..columns.len()].to_vec());
            }
            let schema = needed_schema[..columns.len()].to_vec();
            Ok((schema, rows))
        }
        PlanNode::Filter { input, predicate } => {
            let (schema, rows) = eval(input, db)?;
            let mut out = Vec::new();
            for r in rows {
                if truthy(&eval_expr(predicate, &schema, &r)?) {
                    out.push(r);
                }
            }
            Ok((schema, out))
        }
        PlanNode::Map { input, exprs } => {
            let (mut schema, rows) = eval(input, db)?;
            let mut out = Vec::with_capacity(rows.len());
            let mut new_schema = schema.clone();
            for (name, e) in exprs {
                let ty = e
                    .infer_type(&schema)
                    .map_err(|m| PlanError { message: m })?;
                new_schema.push((name.clone(), ty));
            }
            for mut r in rows {
                for (_, e) in exprs {
                    let v = eval_expr(e, &schema, &r)?;
                    r.push(v);
                }
                out.push(r);
            }
            schema = new_schema;
            Ok((schema, out))
        }
        PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
        } => {
            let (bschema, brows) = eval(build, db)?;
            let (pschema, prows) = eval(probe, db)?;
            let bkey_idx: Vec<usize> = build_keys
                .iter()
                .map(|k| bschema.iter().position(|(n, _)| n == k).expect("checked"))
                .collect();
            let pkey_idx: Vec<usize> = probe_keys
                .iter()
                .map(|k| pschema.iter().position(|(n, _)| n == k).expect("checked"))
                .collect();
            let pay_idx: Vec<usize> = payload
                .iter()
                .map(|p| bschema.iter().position(|(n, _)| n == p).expect("checked"))
                .collect();
            let mut index: HashMap<Vec<KeyRepr>, Vec<usize>> = HashMap::new();
            for (i, r) in brows.iter().enumerate() {
                let key: Vec<KeyRepr> = bkey_idx.iter().map(|&k| KeyRepr::of(&r[k])).collect();
                index.entry(key).or_default().push(i);
            }
            let mut schema = pschema.clone();
            for p in payload {
                schema.push(
                    bschema
                        .iter()
                        .find(|(n, _)| n == p)
                        .cloned()
                        .expect("checked"),
                );
            }
            let mut out = Vec::new();
            for pr in &prows {
                let key: Vec<KeyRepr> = pkey_idx.iter().map(|&k| KeyRepr::of(&pr[k])).collect();
                if let Some(matches) = index.get(&key) {
                    for &bi in matches {
                        let mut row = pr.clone();
                        for &pi in &pay_idx {
                            row.push(brows[bi][pi].clone());
                        }
                        out.push(row);
                    }
                }
            }
            Ok((schema, out))
        }
        PlanNode::GroupBy { input, keys, aggs } => {
            let (schema, rows) = eval(input, db)?;
            let key_idx: Vec<usize> = keys
                .iter()
                .map(|k| schema.iter().position(|(n, _)| n == k).expect("checked"))
                .collect();
            let mut groups: HashMap<Vec<KeyRepr>, (Row, Vec<AggState>)> = HashMap::new();
            let mut order: Vec<Vec<KeyRepr>> = Vec::new();
            for r in &rows {
                let key: Vec<KeyRepr> = key_idx.iter().map(|&k| KeyRepr::of(&r[k])).collect();
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (
                        key_idx.iter().map(|&k| r[k].clone()).collect(),
                        aggs.iter().map(|_| AggState::Empty).collect(),
                    )
                });
                for ((_, agg), st) in aggs.iter().zip(entry.1.iter_mut()) {
                    let v = match agg {
                        AggFunc::CountStar => None,
                        AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) | AggFunc::Avg(e) => {
                            Some(eval_expr(e, &schema, r)?)
                        }
                    };
                    st.update(agg, v)?;
                }
            }
            let mut out_schema: Schema = key_idx.iter().map(|&k| schema[k].clone()).collect();
            let catalog_scope = schema.clone();
            for (name, agg) in aggs {
                let ty = match agg {
                    AggFunc::CountStar => ColumnType::I64,
                    AggFunc::Avg(_) => ColumnType::F64,
                    AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => {
                        match e
                            .infer_type(&catalog_scope)
                            .map_err(|m| PlanError { message: m })?
                        {
                            ColumnType::Decimal(s) => ColumnType::Decimal(s),
                            ColumnType::F64 => ColumnType::F64,
                            _ => ColumnType::I64,
                        }
                    }
                };
                out_schema.push((name.clone(), ty));
            }
            let mut out = Vec::new();
            for key in order {
                let (krow, states) = groups.remove(&key).expect("group exists");
                let mut row = krow;
                for (st, (_, agg)) in states.into_iter().zip(aggs) {
                    row.push(st.finish(agg));
                }
                out.push(row);
            }
            Ok((out_schema, out))
        }
        PlanNode::Sort { input, keys, limit } => {
            let (schema, mut rows) = eval(input, db)?;
            let idx: Vec<(usize, bool)> = keys
                .iter()
                .map(|(k, asc)| {
                    (
                        schema.iter().position(|(n, _)| n == k).expect("checked"),
                        *asc,
                    )
                })
                .collect();
            rows.sort_by(|a, b| {
                for &(i, asc) in &idx {
                    let ord = cmp_values(&a[i], &b[i]);
                    if ord != Ordering::Equal {
                        return if asc { ord } else { ord.reverse() };
                    }
                }
                Ordering::Equal
            });
            if let Some(l) = limit {
                rows.truncate(*l);
            }
            Ok((schema, rows))
        }
    }
}

/// Hashable key representation (floats are excluded from keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyRepr {
    I(i128),
    S(String),
    B(bool),
}

impl KeyRepr {
    fn of(v: &SqlValue) -> KeyRepr {
        match v {
            SqlValue::I32(x) => KeyRepr::I(*x as i128),
            SqlValue::I64(x) => KeyRepr::I(*x as i128),
            SqlValue::Decimal(x, _) => KeyRepr::I(*x),
            SqlValue::Bool(b) => KeyRepr::B(*b),
            SqlValue::Str(s) => KeyRepr::S(s.clone()),
            SqlValue::F64(_) | SqlValue::Null => KeyRepr::S(format!("{v:?}")),
        }
    }
}

#[derive(Debug)]
enum AggState {
    Empty,
    Count(i64),
    SumI(i128, u8, bool), // value, scale, is_decimal
    SumF(f64),
    MinMax(SqlValue),
    AvgI(i128, u8, i64),
    AvgF(f64, i64),
}

impl AggState {
    fn update(&mut self, agg: &AggFunc, v: Option<SqlValue>) -> Result<(), PlanError> {
        match agg {
            AggFunc::CountStar => {
                *self = match self {
                    AggState::Empty => AggState::Count(1),
                    AggState::Count(n) => AggState::Count(*n + 1),
                    _ => unreachable!(),
                };
            }
            AggFunc::Sum(_) => {
                let v = v.expect("sum has input");
                match (&mut *self, &v) {
                    (AggState::Empty, SqlValue::Decimal(x, s)) => {
                        *self = AggState::SumI(*x, *s, true)
                    }
                    (AggState::Empty, SqlValue::I64(x)) => {
                        *self = AggState::SumI(*x as i128, 0, false)
                    }
                    (AggState::Empty, SqlValue::I32(x)) => {
                        *self = AggState::SumI(*x as i128, 0, false)
                    }
                    (AggState::Empty, SqlValue::F64(x)) => *self = AggState::SumF(*x),
                    (AggState::SumI(acc, _, _), SqlValue::Decimal(x, _)) => {
                        *acc = acc.checked_add(*x).ok_or_else(|| PlanError {
                            message: "overflow".into(),
                        })?;
                    }
                    (AggState::SumI(acc, _, _), SqlValue::I64(x)) => {
                        *acc = acc.checked_add(*x as i128).ok_or_else(|| PlanError {
                            message: "overflow".into(),
                        })?;
                    }
                    (AggState::SumI(acc, _, _), SqlValue::I32(x)) => {
                        *acc = acc.checked_add(*x as i128).ok_or_else(|| PlanError {
                            message: "overflow".into(),
                        })?;
                    }
                    (AggState::SumF(acc), SqlValue::F64(x)) => *acc += x,
                    _ => return err("sum type confusion"),
                }
            }
            AggFunc::Min(_) | AggFunc::Max(_) => {
                let v = v.expect("minmax has input");
                let is_min = matches!(agg, AggFunc::Min(_));
                match &mut *self {
                    AggState::Empty => *self = AggState::MinMax(v),
                    AggState::MinMax(cur) => {
                        let ord = cmp_values(&v, cur);
                        if (is_min && ord == Ordering::Less)
                            || (!is_min && ord == Ordering::Greater)
                        {
                            *cur = v;
                        }
                    }
                    _ => unreachable!(),
                }
            }
            AggFunc::Avg(_) => {
                let v = v.expect("avg has input");
                match (&mut *self, &v) {
                    (AggState::Empty, SqlValue::Decimal(x, s)) => *self = AggState::AvgI(*x, *s, 1),
                    (AggState::Empty, SqlValue::I64(x)) => *self = AggState::AvgI(*x as i128, 0, 1),
                    (AggState::Empty, SqlValue::I32(x)) => *self = AggState::AvgI(*x as i128, 0, 1),
                    (AggState::Empty, SqlValue::F64(x)) => *self = AggState::AvgF(*x, 1),
                    (AggState::AvgI(acc, _, n), SqlValue::Decimal(x, _)) => {
                        *acc += x;
                        *n += 1;
                    }
                    (AggState::AvgI(acc, _, n), SqlValue::I64(x)) => {
                        *acc += *x as i128;
                        *n += 1;
                    }
                    (AggState::AvgI(acc, _, n), SqlValue::I32(x)) => {
                        *acc += *x as i128;
                        *n += 1;
                    }
                    (AggState::AvgF(acc, n), SqlValue::F64(x)) => {
                        *acc += x;
                        *n += 1;
                    }
                    _ => return err("avg type confusion"),
                }
            }
        }
        Ok(())
    }

    fn finish(self, agg: &AggFunc) -> SqlValue {
        match (self, agg) {
            (AggState::Count(n), _) => SqlValue::I64(n),
            (AggState::SumI(v, s, true), _) => SqlValue::Decimal(v, s),
            (AggState::SumI(v, _, false), _) => SqlValue::I64(v as i64),
            (AggState::SumF(v), _) => SqlValue::F64(v),
            (AggState::MinMax(v), _) => v,
            (AggState::AvgI(sum, scale, n), _) => {
                SqlValue::F64(sum as f64 / 10f64.powi(scale as i32) / n as f64)
            }
            (AggState::AvgF(sum, n), _) => SqlValue::F64(sum / n as f64),
            (AggState::Empty, AggFunc::CountStar) => SqlValue::I64(0),
            (AggState::Empty, _) => SqlValue::Null,
        }
    }
}

fn truthy(v: &SqlValue) -> bool {
    matches!(v, SqlValue::Bool(true))
}

fn cmp_values(a: &SqlValue, b: &SqlValue) -> Ordering {
    match (a, b) {
        (SqlValue::I32(x), SqlValue::I32(y)) => x.cmp(y),
        (SqlValue::I64(x), SqlValue::I64(y)) => x.cmp(y),
        (SqlValue::I32(x), SqlValue::I64(y)) => (*x as i64).cmp(y),
        (SqlValue::I64(x), SqlValue::I32(y)) => x.cmp(&(*y as i64)),
        (SqlValue::Decimal(x, _), SqlValue::Decimal(y, _)) => x.cmp(y),
        (SqlValue::F64(x), SqlValue::F64(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (SqlValue::Str(x), SqlValue::Str(y)) => x.cmp(y),
        (SqlValue::Bool(x), SqlValue::Bool(y)) => x.cmp(y),
        _ => Ordering::Equal,
    }
}

fn as_i64(v: &SqlValue) -> Result<i64, PlanError> {
    match v {
        SqlValue::I32(x) => Ok(*x as i64),
        SqlValue::I64(x) => Ok(*x),
        _ => err(format!("expected integer, got {v:?}")),
    }
}

fn eval_expr(e: &Expr, schema: &Schema, row: &Row) -> Result<SqlValue, PlanError> {
    use SqlValue as V;
    Ok(match e {
        Expr::Column(name) => {
            let i = schema
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| PlanError {
                    message: format!("unknown column `{name}`"),
                })?;
            row[i].clone()
        }
        Expr::LitI64(v) => V::I64(*v),
        Expr::LitI32(v) => V::I32(*v),
        Expr::LitDec(v, s) => V::Decimal(*v, *s),
        Expr::LitF64(v) => V::F64(*v),
        Expr::LitDate(v) => V::I32(*v),
        Expr::LitStr(s) => V::Str(s.to_string()),
        Expr::LitBool(b) => V::Bool(*b),
        Expr::Arith(op, a, b) => {
            let (va, vb) = (eval_expr(a, schema, row)?, eval_expr(b, schema, row)?);
            match (&va, &vb) {
                (V::Decimal(x, s1), V::Decimal(y, s2)) => {
                    let overflow = || PlanError {
                        message: "overflow".into(),
                    };
                    let (v, s) = match op {
                        ArithOp::Add => (x.checked_add(*y).ok_or_else(overflow)?, *s1),
                        ArithOp::Sub => (x.checked_sub(*y).ok_or_else(overflow)?, *s1),
                        ArithOp::Mul => (x.checked_mul(*y).ok_or_else(overflow)?, s1 + s2),
                        ArithOp::Div => {
                            if *y == 0 {
                                return err("division by zero");
                            }
                            let scaled =
                                x.checked_mul(10i128.pow(*s2 as u32)).ok_or_else(overflow)?;
                            (scaled / y, *s1)
                        }
                    };
                    V::Decimal(v, s)
                }
                (V::F64(x), V::F64(y)) => V::F64(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                }),
                _ => {
                    let (x, y) = (as_i64(&va)?, as_i64(&vb)?);
                    let overflow = || PlanError {
                        message: "overflow".into(),
                    };
                    V::I64(match op {
                        ArithOp::Add => x.checked_add(y).ok_or_else(overflow)?,
                        ArithOp::Sub => x.checked_sub(y).ok_or_else(overflow)?,
                        ArithOp::Mul => x.checked_mul(y).ok_or_else(overflow)?,
                        ArithOp::Div => {
                            if y == 0 {
                                return err("division by zero");
                            }
                            x.checked_div(y).ok_or_else(overflow)?
                        }
                    })
                }
            }
        }
        Expr::Cmp(op, a, b) => {
            let (va, vb) = (eval_expr(a, schema, row)?, eval_expr(b, schema, row)?);
            // Dates load as I32; literals may be I64 — promote.
            let ord = cmp_values(&va, &vb);
            let r = match op {
                CmpKind::Eq => ord == Ordering::Equal,
                CmpKind::Ne => ord != Ordering::Equal,
                CmpKind::Lt => ord == Ordering::Less,
                CmpKind::Le => ord != Ordering::Greater,
                CmpKind::Gt => ord == Ordering::Greater,
                CmpKind::Ge => ord != Ordering::Less,
            };
            V::Bool(r)
        }
        Expr::And(a, b) => {
            V::Bool(truthy(&eval_expr(a, schema, row)?) && truthy(&eval_expr(b, schema, row)?))
        }
        Expr::Or(a, b) => {
            V::Bool(truthy(&eval_expr(a, schema, row)?) || truthy(&eval_expr(b, schema, row)?))
        }
        Expr::Not(a) => V::Bool(!truthy(&eval_expr(a, schema, row)?)),
        Expr::StrPrefix(a, b) => {
            let (V::Str(x), V::Str(y)) = (eval_expr(a, schema, row)?, eval_expr(b, schema, row)?)
            else {
                return err("string predicate on non-strings");
            };
            V::Bool(x.starts_with(&y))
        }
        Expr::StrContains(a, b) => {
            let (V::Str(x), V::Str(y)) = (eval_expr(a, schema, row)?, eval_expr(b, schema, row)?)
            else {
                return err("string predicate on non-strings");
            };
            V::Bool(x.contains(&y))
        }
        Expr::CastF64(a) => match eval_expr(a, schema, row)? {
            V::I32(x) => V::F64(x as f64),
            V::I64(x) => V::F64(x as f64),
            V::Decimal(x, _) => V::F64(x as f64),
            V::F64(x) => V::F64(x),
            other => return err(format!("cannot cast {other:?} to f64")),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_dec, lit_i64, lit_str};
    use qc_storage::{Column, Schema as TblSchema, Table};

    fn test_db() -> Database {
        let mut db = Database::new();
        let labels = ["aa", "bb", "aa", "cc", "bb", "aa"];
        let label_col = Column::Str(
            labels
                .iter()
                .map(|s| qc_runtime::RtString::new(s, &mut db.string_arena))
                .collect(),
        );
        db.add_table(Table::new(
            "t",
            TblSchema::new(vec![
                ("k", ColumnType::I64),
                ("v", ColumnType::Decimal(2)),
                ("label", ColumnType::Str),
            ]),
            vec![
                Column::I64(vec![1, 2, 3, 4, 5, 6]),
                Column::Decimal(vec![100, 200, 300, 400, 500, 600]),
                label_col,
            ],
        ));
        db
    }

    #[test]
    fn filter_and_map() {
        let db = test_db();
        let p = PlanNode::scan("t", &["k", "v"])
            .filter(col("k").gt(lit_i64(3)))
            .map(vec![("v2", col("v").mul(lit_dec(200, 2)))]);
        let rows = execute(&p, &db).unwrap();
        assert_eq!(rows.len(), 3);
        // v2 = v * 2.00 at scale 4.
        assert_eq!(rows[0][2], SqlValue::Decimal(400 * 200, 4));
    }

    #[test]
    fn group_by_with_all_aggregates() {
        let db = test_db();
        let p = PlanNode::scan("t", &["k", "v", "label"]).group_by(
            &["label"],
            vec![
                ("n", AggFunc::CountStar),
                ("total", AggFunc::Sum(col("v"))),
                ("lo", AggFunc::Min(col("k"))),
                ("hi", AggFunc::Max(col("k"))),
                ("avg_v", AggFunc::Avg(col("v"))),
            ],
        );
        let rows = execute(&p, &db).unwrap();
        assert_eq!(rows.len(), 3);
        let aa = rows
            .iter()
            .find(|r| r[0] == SqlValue::Str("aa".into()))
            .unwrap();
        assert_eq!(aa[1], SqlValue::I64(3));
        assert_eq!(aa[2], SqlValue::Decimal(100 + 300 + 600, 2));
        assert_eq!(aa[3], SqlValue::I64(1));
        assert_eq!(aa[4], SqlValue::I64(6));
        let SqlValue::F64(avg) = aa[5] else { panic!() };
        assert!((avg - (1.0 + 3.0 + 6.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn join_multiplies_matches() {
        let db = test_db();
        // Self-join on label: aa x aa (3x3) + bb x bb (2x2) + cc (1) = 14.
        let p = PlanNode::scan("t", &["k", "label"]).hash_join(
            PlanNode::scan("t", &["label", "v"]),
            &["label"],
            &["label"],
            &["v"],
        );
        let rows = execute(&p, &db).unwrap();
        assert_eq!(rows.len(), 9 + 4 + 1);
    }

    #[test]
    fn sort_with_limit() {
        let db = test_db();
        let p = PlanNode::scan("t", &["k", "v"]).sort(&[("v", false)], Some(2));
        let rows = execute(&p, &db).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], SqlValue::I64(6));
        assert_eq!(rows[1][0], SqlValue::I64(5));
    }

    #[test]
    fn string_predicates() {
        let db = test_db();
        let p = PlanNode::scan("t", &["label"]).filter(col("label").starts_with(lit_str("a")));
        assert_eq!(execute(&p, &db).unwrap().len(), 3);
        let p = PlanNode::scan("t", &["label"]).filter(col("label").eq(lit_str("cc")));
        assert_eq!(execute(&p, &db).unwrap().len(), 1);
    }

    #[test]
    fn overflow_is_reported() {
        let db = test_db();
        let p = PlanNode::scan("t", &["v"])
            .map(vec![("big", col("v").mul(lit_dec(i128::MAX / 50, 0)))]);
        assert!(execute(&p, &db).is_err());
    }

    #[test]
    fn checksum_is_order_insensitive() {
        let rows1 = vec![vec![SqlValue::I64(1)], vec![SqlValue::I64(2)]];
        let rows2 = vec![vec![SqlValue::I64(2)], vec![SqlValue::I64(1)]];
        assert_eq!(checksum(&rows1), checksum(&rows2));
        assert_ne!(checksum(&rows1), checksum(&[vec![SqlValue::I64(3)]]));
        assert_eq!(normalize(&rows1), normalize(&rows2));
    }
}
