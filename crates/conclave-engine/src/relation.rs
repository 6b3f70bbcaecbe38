//! In-memory relations: a schema plus a vector of rows.

use crate::error::{EngineError, EngineResult};
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

/// A materialized relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Column definitions.
    pub schema: Schema,
    /// Row-major data; every row has `schema.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a relation from a schema and rows. Rows with the wrong arity
    /// are rejected with a typed [`EngineError::RowArity`].
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> EngineResult<Self> {
        let width = schema.len();
        if let Some(bad) = rows.iter().position(|r| r.len() != width) {
            return Err(EngineError::RowArity {
                row: bad,
                got: rows[bad].len(),
                expected: width,
            });
        }
        Ok(Relation { schema, rows })
    }

    /// Builds an all-integer relation from `i64` rows — the common case in
    /// tests and synthetic workloads.
    pub fn from_ints(names: &[&str], rows: &[Vec<i64>]) -> Self {
        let schema = Schema::ints(names);
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
            .collect();
        Relation { schema, rows }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.schema.len()
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a named column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// All values of a named column, cloned.
    pub fn column_values(&self, name: &str) -> Option<Vec<Value>> {
        let idx = self.col_index(name)?;
        Some(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// The single value of a 1×1 relation, if it is one.
    pub fn scalar(&self) -> Option<&Value> {
        if self.num_rows() == 1 && self.num_cols() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Approximate in-memory / on-wire size in bytes.
    pub fn byte_size(&self) -> usize {
        self.num_rows() * self.schema.row_byte_size()
    }

    /// Sorts rows in place by the named column.
    pub fn sort_by_column(&mut self, name: &str, ascending: bool) -> EngineResult<()> {
        let idx = self
            .col_index(name)
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
        self.rows.sort_by(|a, b| a[idx].cmp(&b[idx]));
        if !ascending {
            self.rows.reverse();
        }
        Ok(())
    }

    /// Returns `true` if rows are sorted by the named column.
    pub fn is_sorted_by(&self, name: &str, ascending: bool) -> bool {
        let Some(idx) = self.col_index(name) else {
            return false;
        };
        self.rows.windows(2).all(|w| {
            let ord = w[0][idx].cmp(&w[1][idx]);
            if ascending {
                ord != std::cmp::Ordering::Greater
            } else {
                ord != std::cmp::Ordering::Less
            }
        })
    }

    /// Groups row indices by the values of the given key columns, preserving
    /// first-seen key order.
    pub fn group_indices(&self, key_cols: &[usize]) -> Vec<(Vec<Value>, Vec<usize>)> {
        group_indices(&self.rows, key_cols)
    }

    /// Concatenates borrowed relations with identical arity into one (union
    /// all), copying every row once. The result takes the first schema.
    pub fn concat<R: Borrow<Relation>>(parts: &[R]) -> EngineResult<Relation> {
        let Some(first) = parts.first().map(Borrow::borrow) else {
            return Err(EngineError::Eval("concat of zero relations".to_string()));
        };
        if parts
            .iter()
            .any(|p| p.borrow().num_cols() != first.num_cols())
        {
            return Err(EngineError::Eval("concat arity mismatch".to_string()));
        }
        let mut rows = Vec::with_capacity(parts.iter().map(|p| p.borrow().num_rows()).sum());
        for p in parts {
            rows.extend_from_slice(&p.borrow().rows);
        }
        Ok(Relation {
            schema: first.schema.clone(),
            rows,
        })
    }

    /// Compares contents ignoring row order (used by tests that check MPC and
    /// cleartext plans produce the same result).
    pub fn same_rows_unordered(&self, other: &Relation) -> bool {
        if self.num_rows() != other.num_rows() || self.num_cols() != other.num_cols() {
            return false;
        }
        let mut a = self.rows.clone();
        let mut b = other.rows.clone();
        a.sort();
        b.sort();
        a == b
    }
}

/// Groups the indices of `rows` by the values of the given key columns,
/// preserving first-seen key order.
pub(crate) fn group_indices(
    rows: &[Vec<Value>],
    key_cols: &[usize],
) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let key: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
        if !map.contains_key(&key) {
            order.push(key.clone());
        }
        map.entry(key).or_default().push(i);
    }
    order
        .into_iter()
        .map(|k| {
            let idxs = map.remove(&k).expect("key recorded");
            (k, idxs)
        })
        .collect()
}

impl fmt::Display for Relation {
    /// Prints a header row followed by up to 20 data rows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema.names().join("\t"))?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join("\t"))?;
        }
        if self.num_rows() > 20 {
            writeln!(f, "... ({} rows total)", self.num_rows())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::types::DataType;

    #[test]
    fn construction_and_shape() {
        let r = Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20]]);
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.num_cols(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.col_index("v"), Some(1));
        assert_eq!(
            r.column_values("v").unwrap(),
            vec![Value::Int(10), Value::Int(20)]
        );
        assert!(r.column_values("zzz").is_none());
        assert_eq!(r.byte_size(), 2 * 16);
    }

    #[test]
    fn new_rejects_bad_arity_with_typed_error() {
        let schema = Schema::ints(&["a", "b"]);
        assert!(matches!(
            Relation::new(schema.clone(), vec![vec![Value::Int(1)]]),
            Err(EngineError::RowArity {
                row: 0,
                got: 1,
                expected: 2
            })
        ));
        assert!(Relation::new(schema, vec![vec![Value::Int(1), Value::Int(2)]]).is_ok());
    }

    #[test]
    fn scalar_detection() {
        let r = Relation::from_ints(&["x"], &[vec![42]]);
        assert_eq!(r.scalar(), Some(&Value::Int(42)));
        let r2 = Relation::from_ints(&["x"], &[vec![1], vec![2]]);
        assert!(r2.scalar().is_none());
    }

    #[test]
    fn sorting_and_sortedness() {
        let mut r = Relation::from_ints(&["k"], &[vec![3], vec![1], vec![2]]);
        assert!(!r.is_sorted_by("k", true));
        r.sort_by_column("k", true).unwrap();
        assert!(r.is_sorted_by("k", true));
        r.sort_by_column("k", false).unwrap();
        assert!(r.is_sorted_by("k", false));
        assert!(r.sort_by_column("zzz", true).is_err());
        assert!(!r.is_sorted_by("zzz", true));
    }

    #[test]
    fn grouping_preserves_first_seen_order() {
        let r = Relation::from_ints(&["k", "v"], &[vec![2, 1], vec![1, 2], vec![2, 3]]);
        let groups = r.group_indices(&[0]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![Value::Int(2)]);
        assert_eq!(groups[0].1, vec![0, 2]);
        assert_eq!(groups[1].1, vec![1]);
    }

    #[test]
    fn concat_round_trip_borrowed() {
        let r = Relation::from_ints(&["a"], &(0..10).map(|i| vec![i]).collect::<Vec<_>>());
        let parts: Vec<Relation> = [0..4, 4..4, 4..10]
            .into_iter()
            .map(|range| Relation {
                schema: r.schema.clone(),
                rows: r.rows[range].to_vec(),
            })
            .collect();
        assert_eq!(Relation::concat(&parts).unwrap(), r);
        let refs: Vec<&Relation> = parts.iter().collect();
        assert_eq!(Relation::concat(&refs).unwrap(), r);
    }

    #[test]
    fn concat_errors() {
        assert!(Relation::concat::<Relation>(&[]).is_err());
        let a = Relation::from_ints(&["a"], &[vec![1]]);
        let b = Relation::from_ints(&["a", "b"], &[vec![1, 2]]);
        assert!(Relation::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn unordered_equality() {
        let a = Relation::from_ints(&["a"], &[vec![1], vec![2]]);
        let b = Relation::from_ints(&["a"], &[vec![2], vec![1]]);
        let c = Relation::from_ints(&["a"], &[vec![2], vec![3]]);
        assert!(a.same_rows_unordered(&b));
        assert!(!a.same_rows_unordered(&c));
        let d = Relation::from_ints(&["a"], &[vec![1]]);
        assert!(!a.same_rows_unordered(&d));
    }

    #[test]
    fn display_truncates() {
        let r = Relation::from_ints(&["a"], &(0..25).map(|i| vec![i]).collect::<Vec<_>>());
        let s = r.to_string();
        assert!(s.contains("rows total"));
        let mixed = Relation::new(
            Schema::new(vec![ColumnDef::new("s", DataType::Str)]),
            vec![vec![Value::Str("hi".into())]],
        )
        .unwrap();
        assert!(mixed.to_string().contains("hi"));
    }
}
