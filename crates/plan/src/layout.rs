//! Materialized row layouts.

use qc_storage::ColumnType;
use std::sync::Arc;

/// One field of a materialized row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowField {
    /// Field (column) name.
    pub name: Arc<str>,
    /// Value type.
    pub ty: ColumnType,
    /// Byte offset within the row.
    pub offset: u32,
}

/// Byte layout of a materialized row (hash-table payloads, tuple-buffer
/// rows, query output).
///
/// All scalar fields occupy 8 bytes (integers sign-extended, booleans
/// zero-extended) and 16-byte values (`decimal`, `string`) occupy 16; this
/// uniformity keeps code generation simple across five back-ends while
/// preserving the paper-relevant property that decimals and strings are
/// two-register values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowLayout {
    /// Fields in declaration order.
    pub fields: Vec<RowField>,
    /// Total row size in bytes (16-byte aligned).
    pub size: u32,
}

/// Storage width of one field in a materialized row.
pub fn field_size(ty: ColumnType) -> u32 {
    match ty {
        ColumnType::Decimal(_) | ColumnType::Str => 16,
        _ => 8,
    }
}

impl RowLayout {
    /// Builds a layout from `(name, type)` pairs.
    pub fn new(fields: &[(Arc<str>, ColumnType)]) -> Self {
        let mut offset = 0u32;
        let fields = fields
            .iter()
            .map(|(name, ty)| {
                let f = RowField {
                    name: Arc::clone(name),
                    ty: *ty,
                    offset,
                };
                offset += field_size(*ty);
                f
            })
            .collect();
        RowLayout {
            fields,
            size: (offset + 15) & !15,
        }
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Option<&RowField> {
        self.fields.iter().find(|f| *f.name == *name)
    }

    /// The state field of aggregate output `agg` in a group layout:
    /// `#<agg>`, or with `count` an AVG's row count `#<agg>_cnt` (the
    /// first field so named, as [`RowLayout::field`] finds it).
    pub fn agg_state(&self, agg: &str, count: bool) -> Option<&RowField> {
        let suffix = if count { "_cnt" } else { "" };
        self.fields.iter().find(|f| {
            f.name
                .strip_prefix('#')
                .and_then(|rest| rest.strip_prefix(agg))
                .is_some_and(|rest| rest == suffix)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_size() {
        let l = RowLayout::new(&[
            ("a".into(), ColumnType::I64),
            ("b".into(), ColumnType::Decimal(2)),
            ("c".into(), ColumnType::I32),
            ("d".into(), ColumnType::Str),
        ]);
        assert_eq!(l.field("a").unwrap().offset, 0);
        assert_eq!(l.field("b").unwrap().offset, 8);
        assert_eq!(l.field("c").unwrap().offset, 24);
        assert_eq!(l.field("d").unwrap().offset, 32);
        assert_eq!(l.size, 48);
        assert!(l.field("missing").is_none());
    }

    #[test]
    fn agg_state_finds_the_field_spelled_for_the_aggregate() {
        let l = RowLayout::new(&[
            ("#a".into(), ColumnType::I64),
            ("#a_cnt".into(), ColumnType::I64),
            ("#ab".into(), ColumnType::I64),
        ]);
        assert_eq!(l.agg_state("a", false).unwrap().offset, 0);
        assert_eq!(l.agg_state("a", true).unwrap().offset, 8);
        assert_eq!(l.agg_state("a_cnt", false).unwrap().offset, 8);
        assert_eq!(l.agg_state("ab", false).unwrap().offset, 16);
        assert!(l.agg_state("b", false).is_none());
        assert!(l.agg_state("ab", true).is_none());
    }

    #[test]
    fn size_is_16_aligned() {
        let l = RowLayout::new(&[("a".into(), ColumnType::I64)]);
        assert_eq!(l.size, 16);
        let empty = RowLayout::new(&[]);
        assert_eq!(empty.size, 0);
    }
}
