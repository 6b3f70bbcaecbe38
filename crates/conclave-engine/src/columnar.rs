//! Columnar relation storage.
//!
//! [`ColumnarRelation`] is the cache-friendly counterpart of the row-major
//! [`Relation`]: each column is stored as one typed vector ([`Column`]) with
//! an optional null mask, so the vectorized engine in [`crate::vexec`] can run
//! tight loops over primitive slices instead of chasing `Vec<Vec<Value>>`
//! pointers. Conversion to and from the row representation is lossless for
//! *any* relation — columns whose cells do not share one concrete type fall
//! back to a [`ColumnData::Mixed`] value vector — which is what lets the
//! differential test suite compare the two engines cell for cell.

use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use conclave_ir::expr::{BatchRef, ValueBatch};
use conclave_ir::schema::Schema;
use conclave_ir::types::{DataType, Value};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Range;

/// Typed storage for one column's values. Null slots in typed variants hold
/// a placeholder (`0`, `0.0`, `""`, `false`) and are marked in the owning
/// [`Column`]'s null mask.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-null values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null values are `Value::Str`.
    Str(Vec<String>),
    /// All non-null values are `Value::Bool`.
    Bool(Vec<bool>),
    /// Heterogeneous fallback: the cells verbatim (including nulls).
    Mixed(Vec<Value>),
}

/// One stored column: typed data plus an optional null mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// `Some(mask)` where `mask[i]` marks row `i` as NULL. Always `None` for
    /// [`ColumnData::Mixed`], which stores `Value::Null` inline.
    nulls: Option<Vec<bool>>,
}

impl Column {
    /// Builds a column from row values, inferring the tightest typed
    /// representation: if every non-null cell shares one concrete type the
    /// column is stored as a primitive vector (plus a null mask when needed),
    /// otherwise the values are kept verbatim as [`ColumnData::Mixed`].
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut dtype: Option<DataType> = None;
        let mut has_nulls = false;
        for v in &values {
            match v.data_type() {
                None => has_nulls = true,
                Some(t) => match dtype {
                    None => dtype = Some(t),
                    Some(prev) if prev == t => {}
                    Some(_) => return Column::mixed(values),
                },
            }
        }
        let n = values.len();
        let nulls = if has_nulls {
            Some(values.iter().map(Value::is_null).collect::<Vec<bool>>())
        } else {
            None
        };
        let data = match dtype {
            // All-null (or empty) columns default to integer storage.
            None => ColumnData::Int(vec![0; n]),
            Some(DataType::Int) => ColumnData::Int(
                values
                    .into_iter()
                    .map(|v| if let Value::Int(x) = v { x } else { 0 })
                    .collect(),
            ),
            Some(DataType::Float) => ColumnData::Float(
                values
                    .into_iter()
                    .map(|v| if let Value::Float(x) = v { x } else { 0.0 })
                    .collect(),
            ),
            Some(DataType::Bool) => ColumnData::Bool(
                values
                    .into_iter()
                    .map(|v| matches!(v, Value::Bool(true)))
                    .collect(),
            ),
            Some(DataType::Str) => ColumnData::Str(
                values
                    .into_iter()
                    .map(|v| {
                        if let Value::Str(s) = v {
                            s
                        } else {
                            String::new()
                        }
                    })
                    .collect(),
            ),
        };
        Column { data, nulls }
    }

    /// Builds a column directly from a batch-evaluation result.
    pub fn from_batch(batch: ValueBatch) -> Column {
        match batch {
            ValueBatch::Int(v) => Column {
                data: ColumnData::Int(v),
                nulls: None,
            },
            ValueBatch::Float(v) => Column {
                data: ColumnData::Float(v),
                nulls: None,
            },
            ValueBatch::Bool(v) => Column {
                data: ColumnData::Bool(v),
                nulls: None,
            },
            other => Column::from_values(other.into_values()),
        }
    }

    /// An all-integer column without nulls.
    pub fn ints(values: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Int(values),
            nulls: None,
        }
    }

    fn mixed(values: Vec<Value>) -> Column {
        Column {
            data: ColumnData::Mixed(values),
            nulls: None,
        }
    }

    /// Number of values (including nulls).
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Returns `true` if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if any value is NULL.
    pub fn has_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v.iter().any(Value::is_null),
            _ => self.nulls.as_ref().is_some_and(|m| m.iter().any(|&b| b)),
        }
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask, if one exists.
    pub fn null_mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// A borrowed batch view of the rows `rows` for vectorized expression
    /// evaluation: a window, nothing copied.
    pub fn window(&self, rows: Range<usize>) -> BatchRef<'_> {
        match &self.data {
            ColumnData::Int(v) => BatchRef::Int(&v[rows]),
            ColumnData::Float(v) => BatchRef::Float(&v[rows]),
            ColumnData::Str(v) => BatchRef::Str(&v[rows]),
            ColumnData::Bool(v) => BatchRef::Bool(&v[rows]),
            ColumnData::Mixed(v) => BatchRef::Mixed(&v[rows]),
        }
    }

    /// The null mask of the rows `rows`, if the column has one.
    pub fn window_nulls(&self, rows: Range<usize>) -> Option<&[bool]> {
        self.nulls.as_ref().map(|m| &m[rows])
    }

    /// The column as an `i64` slice, when it is a null-free integer column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match (&self.data, &self.nulls) {
            (ColumnData::Int(v), None) => Some(v),
            _ => None,
        }
    }

    /// The column as an `f64` slice, when it is a null-free float column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match (&self.data, &self.nulls) {
            (ColumnData::Float(v), None) => Some(v),
            _ => None,
        }
    }

    /// The value at row `i` (cloned).
    pub fn value(&self, i: usize) -> Value {
        if let Some(mask) = &self.nulls {
            if mask[i] {
                return Value::Null;
            }
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// All values, materialized.
    pub fn values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// The rows at the given indices, in index order.
    pub fn gather(&self, indices: &[usize]) -> Column {
        let nulls = self
            .nulls
            .as_ref()
            .map(|m| indices.iter().map(|&i| m[i]).collect());
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(indices.iter().map(|&i| v[i].clone()).collect())
            }
        };
        Column { data, nulls }
    }

    /// The rows where `keep[i]` is `true`, preserving order.
    pub fn filter(&self, keep: &[bool]) -> Column {
        fn select<T: Clone>(v: &[T], keep: &[bool]) -> Vec<T> {
            v.iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(x, _)| x.clone())
                .collect()
        }
        let nulls = self.nulls.as_ref().map(|m| select(m, keep));
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(select(v, keep)),
            ColumnData::Float(v) => ColumnData::Float(select(v, keep)),
            ColumnData::Str(v) => ColumnData::Str(select(v, keep)),
            ColumnData::Bool(v) => ColumnData::Bool(select(v, keep)),
            ColumnData::Mixed(v) => ColumnData::Mixed(select(v, keep)),
        };
        Column { data, nulls }
    }

    /// The contiguous rows `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let nulls = self.nulls.as_ref().map(|m| m[start..end].to_vec());
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Mixed(v) => ColumnData::Mixed(v[start..end].to_vec()),
        };
        Column { data, nulls }
    }

    /// Concatenates columns. Homogeneous typed parts stay typed; otherwise
    /// the result falls back to the generic representation.
    pub fn concat(parts: &[&Column]) -> Column {
        fn same_typed(parts: &[&Column]) -> bool {
            parts
                .windows(2)
                .all(|w| std::mem::discriminant(&w[0].data) == std::mem::discriminant(&w[1].data))
        }
        /// The parts' typed vectors end to end, every element copied once.
        fn chain<T: Clone>(
            parts: &[&Column],
            len: usize,
            typed: impl Fn(&ColumnData) -> &[T],
        ) -> Vec<T> {
            let mut all = Vec::with_capacity(len);
            for c in parts {
                all.extend_from_slice(typed(&c.data));
            }
            all
        }
        let Some(first) = parts.first() else {
            return Column::ints(Vec::new());
        };
        if !same_typed(parts) {
            let values = parts.iter().flat_map(|c| c.values()).collect();
            return Column::from_values(values);
        }
        let len = parts.iter().map(|c| c.len()).sum();
        let has_nulls = parts.iter().any(|c| c.nulls.is_some());
        let nulls = has_nulls.then(|| {
            let mut mask = Vec::with_capacity(len);
            for c in parts {
                match &c.nulls {
                    Some(m) => mask.extend_from_slice(m),
                    None => mask.resize(mask.len() + c.len(), false),
                }
            }
            mask
        });
        let data = match &first.data {
            ColumnData::Int(_) => ColumnData::Int(chain(parts, len, |d| match d {
                ColumnData::Int(v) => v,
                _ => unreachable!("checked same variant"),
            })),
            ColumnData::Float(_) => ColumnData::Float(chain(parts, len, |d| match d {
                ColumnData::Float(v) => v,
                _ => unreachable!("checked same variant"),
            })),
            ColumnData::Str(_) => ColumnData::Str(chain(parts, len, |d| match d {
                ColumnData::Str(v) => v,
                _ => unreachable!("checked same variant"),
            })),
            ColumnData::Bool(_) => ColumnData::Bool(chain(parts, len, |d| match d {
                ColumnData::Bool(v) => v,
                _ => unreachable!("checked same variant"),
            })),
            ColumnData::Mixed(_) => ColumnData::Mixed(chain(parts, len, |d| match d {
                ColumnData::Mixed(v) => v,
                _ => unreachable!("checked same variant"),
            })),
        };
        Column { data, nulls }
    }
}

/// A materialized relation in columnar form.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRelation {
    /// Column definitions (shared with the row representation).
    pub schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarRelation {
    /// Creates an empty columnar relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.len())
            .map(|_| Column::ints(Vec::new()))
            .collect();
        ColumnarRelation {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Creates a columnar relation from parts, validating that the column
    /// count matches the schema and all columns have equal length.
    pub fn new(schema: Schema, columns: Vec<Column>) -> EngineResult<Self> {
        if columns.len() != schema.len() {
            return Err(EngineError::Eval(format!(
                "{} columns for a {}-column schema",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        if let Some(bad) = columns.iter().position(|c| c.len() != rows) {
            return Err(EngineError::Eval(format!(
                "column {bad} has {} rows, expected {rows}",
                columns[bad].len()
            )));
        }
        Ok(ColumnarRelation {
            schema,
            columns,
            rows,
        })
    }

    /// Converts a row-major relation to columnar form (lossless).
    pub fn from_rows(rel: &Relation) -> Self {
        let n = rel.num_rows();
        let columns = (0..rel.num_cols())
            .map(|c| Column::from_values(rel.rows.iter().map(|r| r[c].clone()).collect()))
            .collect();
        ColumnarRelation {
            schema: rel.schema.clone(),
            columns,
            rows: n,
        }
    }

    /// Converts back to the row-major representation (exact inverse of
    /// [`ColumnarRelation::from_rows`]).
    pub fn to_rows(&self) -> Relation {
        let rows = (0..self.rows)
            .map(|i| self.columns.iter().map(|c| c.value(i)).collect())
            .collect();
        Relation {
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a named column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The value at row `i`, column `c` (cloned).
    pub fn value(&self, i: usize, c: usize) -> Value {
        self.columns[c].value(i)
    }

    /// A new relation holding the rows at `indices`, in index order.
    pub fn gather(&self, indices: &[usize]) -> ColumnarRelation {
        ColumnarRelation {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// The contiguous rows `start..end` of every column.
    pub fn slice(&self, start: usize, end: usize) -> ColumnarRelation {
        ColumnarRelation {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
            rows: end - start,
        }
    }

    /// Replaces the schema and columns wholesale (lengths must agree).
    pub fn with_columns(schema: Schema, columns: Vec<Column>) -> EngineResult<Self> {
        ColumnarRelation::new(schema, columns)
    }

    /// Concatenates borrowed columnar relations with identical arity (union
    /// all), copying every column once. The result takes the first schema.
    pub fn concat<R: Borrow<ColumnarRelation>>(parts: &[R]) -> EngineResult<ColumnarRelation> {
        let Some(first) = parts.first().map(Borrow::borrow) else {
            return Err(EngineError::Eval("concat of zero relations".to_string()));
        };
        if parts
            .iter()
            .any(|p| p.borrow().num_cols() != first.num_cols())
        {
            return Err(EngineError::Eval("concat arity mismatch".to_string()));
        }
        let columns = (0..first.num_cols())
            .map(|c| {
                let cols: Vec<&Column> = parts.iter().map(|p| &p.borrow().columns[c]).collect();
                Column::concat(&cols)
            })
            .collect();
        Ok(ColumnarRelation {
            schema: first.schema.clone(),
            columns,
            rows: parts.iter().map(|p| p.borrow().rows).sum(),
        })
    }
}

impl fmt::Display for ColumnarRelation {
    /// Renders via the row representation (header plus up to 20 rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_rows().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::schema::ColumnDef;

    fn mixed_relation() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("s", DataType::Str),
            ColumnDef::new("b", DataType::Bool),
            ColumnDef::new("m", DataType::Int),
        ]);
        Relation::new(
            schema,
            vec![
                vec![
                    Value::Int(1),
                    Value::Float(1.5),
                    Value::Str("x".into()),
                    Value::Bool(true),
                    Value::Int(7),
                ],
                vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Null,
                    Value::Bool(false),
                    Value::Float(2.5), // heterogeneous cell: forces Mixed storage
                ],
                vec![
                    Value::Null,
                    Value::Float(-0.0),
                    Value::Str("".into()),
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_lossless_for_mixed_and_null_data() {
        let rel = mixed_relation();
        let col = ColumnarRelation::from_rows(&rel);
        assert_eq!(col.num_rows(), 3);
        assert_eq!(col.num_cols(), 5);
        assert_eq!(col.to_rows(), rel);
        // The heterogeneous column fell back to Mixed storage.
        assert!(matches!(col.column(4).data(), ColumnData::Mixed(_)));
        // The homogeneous int column stayed typed despite the null.
        assert!(matches!(col.column(0).data(), ColumnData::Int(_)));
        assert!(col.column(0).has_nulls());
        assert!(col.column(4).has_nulls());
        assert!(
            !ColumnarRelation::from_rows(&Relation::from_ints(&["a"], &[vec![1]]))
                .column(0)
                .has_nulls()
        );
    }

    #[test]
    fn typed_accessors() {
        let rel = Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20]]);
        let col = ColumnarRelation::from_rows(&rel);
        assert_eq!(col.column(0).as_ints(), Some(&[1i64, 2][..]));
        assert_eq!(col.column(0).as_floats(), None);
        assert_eq!(col.value(1, 1), Value::Int(20));
        assert_eq!(col.col_index("v"), Some(1));
        assert!(!col.is_empty());
        let floats = Column::from_values(vec![Value::Float(1.0), Value::Float(2.0)]);
        assert_eq!(floats.as_floats(), Some(&[1.0f64, 2.0][..]));
        // Nulled typed column loses the fast-path slice.
        let nulled = Column::from_values(vec![Value::Int(1), Value::Null]);
        assert_eq!(nulled.as_ints(), None);
        assert_eq!(nulled.value(1), Value::Null);
    }

    #[test]
    fn gather_filter_slice_concat() {
        let rel = mixed_relation();
        let col = ColumnarRelation::from_rows(&rel);
        let gathered = col.gather(&[2, 0]);
        assert_eq!(gathered.to_rows().rows[0], rel.rows[2]);
        assert_eq!(gathered.to_rows().rows[1], rel.rows[0]);
        let filtered = col.column(4).filter(&[true, false, true]);
        assert_eq!(
            filtered.values(),
            [&rel.rows[0][4], &rel.rows[2][4]].map(Clone::clone)
        );
        assert!(matches!(col.column(0).window(1..3), BatchRef::Int(v) if v.len() == 2));
        assert_eq!(col.column(0).window_nulls(1..3), Some(&[false, true][..]));
        let sliced = col.slice(1, 3);
        assert_eq!(sliced.num_rows(), 2);
        assert_eq!(sliced.to_rows().rows[0], rel.rows[1]);
        let cat = ColumnarRelation::concat(&[col.clone(), col.clone()]).unwrap();
        assert_eq!(cat.num_rows(), 6);
        assert_eq!(cat.to_rows().rows[3], rel.rows[0]);
        assert_eq!(ColumnarRelation::concat(&[&col, &col]).unwrap(), cat);
        assert!(ColumnarRelation::concat::<ColumnarRelation>(&[]).is_err());
        let other = ColumnarRelation::empty(Schema::ints(&["a"]));
        assert!(ColumnarRelation::concat(&[col, other]).is_err());
    }

    #[test]
    fn concat_of_heterogeneous_parts_falls_back_to_mixed() {
        let ints = Column::ints(vec![1, 2]);
        let floats = Column::from_values(vec![Value::Float(0.5)]);
        let cat = Column::concat(&[&ints, &floats]);
        assert_eq!(cat.len(), 3);
        assert!(matches!(cat.data(), ColumnData::Mixed(_)));
        assert_eq!(cat.value(2), Value::Float(0.5));
        assert!(Column::concat(&[]).is_empty());
        // Typed parts stay typed; a part with no null mask is all valid.
        let holes = Column::from_values(vec![Value::Int(7), Value::Null]);
        let cat = Column::concat(&[&ints, &holes, &ints]);
        assert!(matches!(cat.data(), ColumnData::Int(_)));
        let expected = [Some(1), Some(2), Some(7), None, Some(1), Some(2)];
        assert_eq!(
            cat.values(),
            expected.map(|v| v.map_or(Value::Null, Value::Int))
        );
    }

    #[test]
    fn construction_validation() {
        let schema = Schema::ints(&["a", "b"]);
        assert!(ColumnarRelation::new(schema.clone(), vec![Column::ints(vec![1])]).is_err());
        assert!(ColumnarRelation::new(
            schema.clone(),
            vec![Column::ints(vec![1]), Column::ints(vec![1, 2])]
        )
        .is_err());
        let ok = ColumnarRelation::with_columns(
            schema,
            vec![Column::ints(vec![1]), Column::ints(vec![2])],
        )
        .unwrap();
        assert_eq!(ok.num_rows(), 1);
        assert_eq!(ok.columns().len(), 2);
    }

    #[test]
    fn batch_source_and_display() {
        let rel = mixed_relation();
        let col = ColumnarRelation::from_rows(&rel);
        assert!(matches!(col.column(0).window(0..3), BatchRef::Int(_)));
        assert!(col.column(0).window_nulls(0..3).is_some());
        assert!(col.column(3).window_nulls(0..3).is_some());
        assert!(col.to_string().contains('x'));
        assert_eq!(
            Column::from_batch(ValueBatch::Float(vec![1.0])).as_floats(),
            Some(&[1.0f64][..])
        );
        let from_mixed = Column::from_batch(ValueBatch::Values(vec![
            Value::Int(1),
            Value::Str("s".into()),
        ]));
        assert!(matches!(from_mixed.data(), ColumnData::Mixed(_)));
    }
}
