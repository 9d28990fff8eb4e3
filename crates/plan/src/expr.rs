//! Typed scalar expressions over the current tuple.

use qc_storage::ColumnType;
use std::fmt;
use std::sync::Arc;

/// Arithmetic operators. All arithmetic on user data is overflow-checked
/// (paper Sec. III-A): integer/decimal operations trap on overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (decimal result scale is the sum of input scales).
    Mul,
    /// Division (decimals: numerator pre-scaled by the divisor's scale).
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// A scalar expression evaluated per tuple. Names and subexpressions
/// are shared, so cloning an expression (as planning does for every
/// predicate, projection and aggregate it keeps) allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column of the current tuple scope, by name.
    Column(Arc<str>),
    /// 64-bit integer literal.
    LitI64(i64),
    /// 32-bit integer literal.
    LitI32(i32),
    /// Decimal literal (raw value, scale).
    LitDec(i128, u8),
    /// Float literal.
    LitF64(f64),
    /// Date literal (days since epoch).
    LitDate(i32),
    /// String literal.
    LitStr(Arc<str>),
    /// Boolean literal.
    LitBool(bool),
    /// Overflow-checked arithmetic.
    Arith(ArithOp, Arc<Expr>, Arc<Expr>),
    /// Comparison.
    Cmp(CmpKind, Arc<Expr>, Arc<Expr>),
    /// Logical and (non-short-circuiting in generated code is allowed).
    And(Arc<Expr>, Arc<Expr>),
    /// Logical or.
    Or(Arc<Expr>, Arc<Expr>),
    /// Logical not.
    Not(Arc<Expr>),
    /// `LIKE 'x%'`.
    StrPrefix(Arc<Expr>, Arc<Expr>),
    /// `LIKE '%x%'`.
    StrContains(Arc<Expr>, Arc<Expr>),
    /// Conversion of an integer/decimal/date value to `f64` (decimals
    /// convert their *raw* value; scale handling is the caller's job).
    CastF64(Arc<Expr>),
}

/// Column reference.
pub fn col(name: &str) -> Expr {
    Expr::Column(name.into())
}

/// 64-bit integer literal.
pub fn lit_i64(v: i64) -> Expr {
    Expr::LitI64(v)
}

/// 32-bit integer literal.
pub fn lit_i32(v: i32) -> Expr {
    Expr::LitI32(v)
}

/// Decimal literal from raw value and scale (`lit_dec(150, 2)` = 1.50).
pub fn lit_dec(raw: i128, scale: u8) -> Expr {
    Expr::LitDec(raw, scale)
}

/// Float literal.
pub fn lit_f64(v: f64) -> Expr {
    Expr::LitF64(v)
}

/// Date literal (days since epoch).
pub fn lit_date(days: i32) -> Expr {
    Expr::LitDate(days)
}

/// String literal.
pub fn lit_str(s: &str) -> Expr {
    Expr::LitStr(s.into())
}

/// Boolean literal.
pub fn lit_bool(b: bool) -> Expr {
    Expr::LitBool(b)
}

// `add`/`sub`/`mul`/`div` intentionally mirror SQL arithmetic by name;
// they build AST nodes rather than computing, so the `std::ops` traits
// (whose contracts imply evaluation) are not implemented.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Arc::new(self), Arc::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Arc::new(self), Arc::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Arc::new(self), Arc::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Arc::new(self), Arc::new(rhs))
    }

    /// Comparison.
    pub fn cmp(self, op: CmpKind, rhs: Expr) -> Expr {
        Expr::Cmp(op, Arc::new(self), Arc::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Eq, rhs)
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Ne, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.cmp(CmpKind::Ge, rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Arc::new(self), Arc::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Arc::new(self), Arc::new(rhs))
    }

    /// `NOT self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Arc::new(self))
    }

    /// `self LIKE 'rhs%'`.
    pub fn starts_with(self, rhs: Expr) -> Expr {
        Expr::StrPrefix(Arc::new(self), Arc::new(rhs))
    }

    /// `self LIKE '%rhs%'`.
    pub fn contains(self, rhs: Expr) -> Expr {
        Expr::StrContains(Arc::new(self), Arc::new(rhs))
    }

    /// `CAST(self AS f64)` of the raw value.
    pub fn cast_f64(self) -> Expr {
        Expr::CastF64(Arc::new(self))
    }

    /// Infers the result type against a tuple scope.
    ///
    /// # Errors
    /// Returns a message for unknown columns or type mismatches.
    pub fn infer_type<N: AsRef<str>>(
        &self,
        scope: &[(N, ColumnType)],
    ) -> Result<ColumnType, String> {
        use ColumnType as T;
        match self {
            Expr::Column(name) => scope
                .iter()
                .find(|(n, _)| n.as_ref() == &**name)
                .map(|&(_, t)| t)
                .ok_or_else(|| format!("unknown column `{name}`")),
            Expr::LitI64(_) => Ok(T::I64),
            Expr::LitI32(_) => Ok(T::I32),
            Expr::LitDec(_, s) => Ok(T::Decimal(*s)),
            Expr::LitF64(_) => Ok(T::F64),
            Expr::LitDate(_) => Ok(T::Date),
            Expr::LitStr(_) => Ok(T::Str),
            Expr::LitBool(_) => Ok(T::Bool),
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.infer_type(scope)?, b.infer_type(scope)?);
                match (ta, tb) {
                    (T::Decimal(s1), T::Decimal(s2)) => Ok(match op {
                        ArithOp::Add | ArithOp::Sub => {
                            if s1 != s2 {
                                return Err(format!("decimal scale mismatch: {s1} vs {s2}"));
                            }
                            T::Decimal(s1)
                        }
                        ArithOp::Mul => T::Decimal(s1 + s2),
                        ArithOp::Div => T::Decimal(s1),
                    }),
                    (T::I64 | T::I32 | T::Date, T::I64 | T::I32 | T::Date) => Ok(T::I64),
                    (T::F64, T::F64) => Ok(T::F64),
                    _ => Err(format!("cannot apply {op:?} to {ta} and {tb}")),
                }
            }
            Expr::Cmp(_, a, b) => {
                let (ta, tb) = (a.infer_type(scope)?, b.infer_type(scope)?);
                let compatible = matches!(
                    (ta, tb),
                    (T::I64 | T::I32 | T::Date, T::I64 | T::I32 | T::Date)
                        | (T::F64, T::F64)
                        | (T::Str, T::Str)
                        | (T::Bool, T::Bool)
                ) || matches!((ta, tb), (T::Decimal(x), T::Decimal(y)) if x == y);
                if compatible {
                    Ok(T::Bool)
                } else {
                    Err(format!("cannot compare {ta} and {tb}"))
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                for e in [a, b] {
                    if e.infer_type(scope)? != T::Bool {
                        return Err("logical operand is not bool".into());
                    }
                }
                Ok(T::Bool)
            }
            Expr::Not(a) => {
                if a.infer_type(scope)? != T::Bool {
                    return Err("not-operand is not bool".into());
                }
                Ok(T::Bool)
            }
            Expr::StrPrefix(a, b) | Expr::StrContains(a, b) => {
                if a.infer_type(scope)? != T::Str || b.infer_type(scope)? != T::Str {
                    return Err("string predicate on non-strings".into());
                }
                Ok(T::Bool)
            }
            Expr::CastF64(a) => match a.infer_type(scope)? {
                T::I32 | T::I64 | T::Date | T::Decimal(_) | T::F64 => Ok(T::F64),
                other => Err(format!("cannot cast {other} to f64")),
            },
        }
    }

    /// Collects all referenced column names into `out`.
    pub fn collect_columns(&self, out: &mut Vec<Arc<str>>) {
        match self {
            Expr::Column(n) if !out.contains(n) => {
                out.push(Arc::clone(n));
            }
            Expr::Arith(_, a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::StrPrefix(a, b)
            | Expr::StrContains(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::CastF64(a) => a.collect_columns(out),
            _ => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "{n}"),
            Expr::LitI64(v) => write!(f, "{v}"),
            Expr::LitI32(v) => write!(f, "{v}i32"),
            Expr::LitDec(v, s) => write!(f, "dec({v},{s})"),
            Expr::LitF64(v) => write!(f, "{v}"),
            Expr::LitDate(v) => write!(f, "date({v})"),
            Expr::LitStr(s) => write!(f, "'{s}'"),
            Expr::LitBool(b) => write!(f, "{b}"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::StrPrefix(a, b) => write!(f, "({a} LIKE {b}%)"),
            Expr::StrContains(a, b) => write!(f, "({a} LIKE %{b}%)"),
            Expr::CastF64(a) => write!(f, "f64({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope() -> Vec<(String, ColumnType)> {
        vec![
            ("price".into(), ColumnType::Decimal(2)),
            ("disc".into(), ColumnType::Decimal(2)),
            ("qty".into(), ColumnType::I64),
            ("name".into(), ColumnType::Str),
            ("d".into(), ColumnType::Date),
        ]
    }

    #[test]
    fn decimal_arith_scales() {
        let s = scope();
        let e = col("price").mul(col("disc"));
        assert_eq!(e.infer_type(&s).unwrap(), ColumnType::Decimal(4));
        let e = col("price").sub(col("disc"));
        assert_eq!(e.infer_type(&s).unwrap(), ColumnType::Decimal(2));
        let e = col("price").add(lit_dec(100, 3));
        assert!(e.infer_type(&s).is_err(), "scale mismatch must fail");
    }

    #[test]
    fn int_and_date_promote_to_i64() {
        let s = scope();
        assert_eq!(
            col("qty").add(lit_i32(1)).infer_type(&s).unwrap(),
            ColumnType::I64
        );
        assert_eq!(
            col("d").lt(lit_date(9000)).infer_type(&s).unwrap(),
            ColumnType::Bool
        );
    }

    #[test]
    fn string_predicates_type_check() {
        let s = scope();
        assert_eq!(
            col("name")
                .starts_with(lit_str("a"))
                .infer_type(&s)
                .unwrap(),
            ColumnType::Bool
        );
        assert!(col("qty").starts_with(lit_str("a")).infer_type(&s).is_err());
        assert!(col("name").eq(lit_i64(1)).infer_type(&s).is_err());
    }

    #[test]
    fn unknown_column_errors() {
        assert!(col("missing").infer_type(&scope()).is_err());
    }

    #[test]
    fn collects_columns_once() {
        let e = col("a").add(col("b")).mul(col("a"));
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, [Arc::<str>::from("a"), Arc::from("b")]);
    }
}
