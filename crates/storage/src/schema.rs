//! Table schemas.

use std::fmt;
use std::sync::Arc;

/// The storage type of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer (keys).
    I64,
    /// 128-bit decimal with the given scale (fractional digits).
    Decimal(u8),
    /// Double-precision float.
    F64,
    /// Date as days since epoch (stored as `i32`).
    Date,
    /// 16-byte string descriptor.
    Str,
    /// Boolean (one byte).
    Bool,
}

impl ColumnType {
    /// Size of one element in the columnar array, in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            ColumnType::I32 | ColumnType::Date => 4,
            ColumnType::I64 | ColumnType::F64 => 8,
            ColumnType::Decimal(_) => 16,
            ColumnType::Str => 16,
            ColumnType::Bool => 1,
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::I32 => write!(f, "i32"),
            ColumnType::I64 => write!(f, "i64"),
            ColumnType::Decimal(s) => write!(f, "decimal({s})"),
            ColumnType::F64 => write!(f, "f64"),
            ColumnType::Date => write!(f, "date"),
            ColumnType::Str => write!(f, "str"),
            ColumnType::Bool => write!(f, "bool"),
        }
    }
}

/// An ordered list of named, typed columns.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    columns: Arc<[(String, ColumnType)]>,
}

impl Schema {
    /// Creates a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column name and type by position.
    pub fn column(&self, i: usize) -> (&str, ColumnType) {
        let (n, t) = &self.columns[i];
        (n, *t)
    }

    /// Position of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// The `(name, type)` pairs, shared: a catalog lookup clones the
    /// `Arc`, not the names.
    pub fn columns(&self) -> &Arc<[(String, ColumnType)]> {
        &self.columns
    }

    /// Iterator over `(name, type)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.columns.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_sizes() {
        assert_eq!(ColumnType::I32.elem_size(), 4);
        assert_eq!(ColumnType::Decimal(2).elem_size(), 16);
        assert_eq!(ColumnType::Str.elem_size(), 16);
        assert_eq!(ColumnType::Bool.elem_size(), 1);
        assert_eq!(ColumnType::Date.elem_size(), 4);
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![("a", ColumnType::I64), ("b", ColumnType::Str)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
        assert_eq!(s.column(0).0, "a");
    }
}
