//! Secret-shared relations.
//!
//! A [`Rel`] is the MPC-resident counterpart of
//! [`conclave_engine::Relation`]: the schema stays public (as in the paper,
//! relation schemas and sizes are not hidden) while every cell is a share.
//! The share type is the engine's: [`SharedRelation`] is the relation of the
//! in-process [`Protocol`] engine, whose "share" is the value itself
//! ([`RingElem`]); [`crate::runtime::PartyRelation`] holds one party's
//! authenticated share.

use crate::engine::OpError;
use crate::protocol::Protocol;
use crate::ring::RingElem;
use conclave_engine::{Column, ColumnarRelation, Relation, Table};
use conclave_ir::schema::Schema;
use conclave_ir::types::{DataType, Value};
use std::borrow::Cow;

/// A relation whose cells are secret-shared as `S`.
#[derive(Debug, Clone)]
pub struct Rel<S> {
    /// Public schema (column names and types).
    pub schema: Schema,
    /// Secret-shared rows.
    pub rows: Vec<Vec<S>>,
}

/// The in-process [`Protocol`] engine's relation: every cell is the value.
pub type SharedRelation = Rel<RingElem>;

impl<S: Copy> Rel<S> {
    /// Creates an empty shared relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Rel {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.schema.len()
    }

    /// Total number of shared field elements (rows × columns).
    pub fn num_elems(&self) -> u64 {
        (self.num_rows() * self.num_cols()) as u64
    }

    /// Index of a named column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Index of a named column, or the operator error for a missing one.
    pub fn require(&self, name: &str) -> Result<usize, OpError> {
        self.col_index(name)
            .ok_or_else(|| OpError::Invalid(format!("unknown column `{name}`")))
    }

    /// Indexes of several named columns.
    pub fn require_all(&self, names: &[String]) -> Result<Vec<usize>, OpError> {
        names.iter().map(|c| self.require(c)).collect()
    }

    /// The shares of one column.
    pub fn column(&self, idx: usize) -> Vec<S> {
        self.rows.iter().map(|r| r[idx]).collect()
    }

    /// The schema a cleartext opening of this relation carries: opened cells
    /// are integers, so `Bool` columns are coerced for downstream steps.
    pub fn opened_schema(&self) -> Schema {
        let mut schema = self.schema.clone();
        for col in &mut schema.columns {
            if col.dtype == DataType::Bool {
                col.dtype = DataType::Int;
            }
        }
        schema
    }

    /// Projects onto the named columns (free: shares are just re-arranged).
    pub fn project(&self, columns: &[String]) -> Result<Self, OpError> {
        let idxs = self.require_all(columns)?;
        let schema = self
            .schema
            .project(columns)
            .map_err(|e| OpError::Invalid(e.to_string()))?;
        let rows = self
            .rows
            .iter()
            .map(|row| idxs.iter().map(|&i| row[i]).collect())
            .collect();
        Ok(Rel { schema, rows })
    }

    /// Concatenates shared relations with identical arity (free).
    pub fn concat(parts: &[&Self]) -> Result<Self, OpError> {
        Rel::concat_parts(parts.iter().map(|&p| Cow::Borrowed(p)).collect())
    }

    /// [`Rel::concat`] over parts the caller may own: an owned part's rows
    /// are moved into the result, a borrowed part's are cloned.
    pub(crate) fn concat_parts(parts: Vec<Cow<'_, Self>>) -> Result<Self, OpError> {
        let Some(first) = parts.first() else {
            return Err(OpError::Invalid("concat of zero relations".into()));
        };
        if parts.iter().any(|p| p.num_cols() != first.num_cols()) {
            return Err(OpError::Invalid("concat arity mismatch".into()));
        }
        let schema = first.schema.clone();
        let mut rows = Vec::with_capacity(parts.iter().map(|p| p.num_rows()).sum());
        for part in parts {
            match part {
                Cow::Owned(p) => rows.extend(p.rows),
                Cow::Borrowed(p) => rows.extend(p.rows.iter().cloned()),
            }
        }
        Ok(Rel { schema, rows })
    }

    /// Applies a row permutation, moving each row to its place (used by
    /// shuffles; the permutation itself never leaves the engine).
    pub fn permute(mut self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.num_rows());
        self.rows = perm
            .iter()
            .map(|&i| std::mem::take(&mut self.rows[i]))
            .collect();
        self
    }
}

/// Rejects schemas with a column type the `Z_{2^64}` engines cannot share.
pub(crate) fn check_shareable(schema: &Schema) -> Result<(), String> {
    match schema.columns.iter().find(|c| !c.dtype.mpc_compatible()) {
        Some(col) => Err(format!(
            "column `{}` has type {} which cannot be secret-shared",
            col.name, col.dtype
        )),
        None => Ok(()),
    }
}

/// The columns of `schema` at `idxs`, in that order.
fn picked(schema: &Schema, idxs: &[usize]) -> Schema {
    Schema::new(idxs.iter().map(|&c| schema.columns[c].clone()).collect())
}

/// The integer a cell is shared as.
fn shareable_int(v: &Value) -> Result<i64, String> {
    v.as_int()
        .ok_or_else(|| format!("cannot share non-integer value {v}"))
}

/// The integers a column is shared as: a null-free integer column as it is,
/// any other cell by cell (a `Bool` as 0/1; a NULL is refused).
fn shareable_column(col: &Column) -> Result<Cow<'_, [i64]>, String> {
    match col.as_ints() {
        Some(ints) => Ok(Cow::Borrowed(ints)),
        None => (0..col.len())
            .map(|i| shareable_int(&col.value(i)))
            .collect::<Result<_, _>>()
            .map(Cow::Owned),
    }
}

/// The cells of a columnar relation as the integers they are shared as, in
/// row-major order (every column is converted, and checked, before the
/// first cell is laid out).
pub(crate) fn row_major_ints(rel: &ColumnarRelation) -> Result<Vec<i64>, String> {
    let columns = rel
        .columns()
        .iter()
        .map(shareable_column)
        .collect::<Result<Vec<_>, _>>()?;
    let mut flat = Vec::with_capacity(rel.num_rows() * columns.len());
    for i in 0..rel.num_rows() {
        flat.extend(columns.iter().map(|c| c[i]));
    }
    Ok(flat)
}

impl SharedRelation {
    /// Secret-shares a cleartext relation into the MPC. Non-integer cells
    /// are rejected because the arithmetic backends operate on `Z_{2^64}`.
    pub fn from_relation(rel: &Relation, proto: &mut Protocol) -> Result<Self, String> {
        check_shareable(&rel.schema)?;
        let rows = rel
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| Ok(proto.share_value(shareable_int(v)?)))
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        Ok(Rel {
            schema: rel.schema.clone(),
            rows,
        })
    }

    /// Secret-shares a columnar relation into the MPC, one whole column at a
    /// time: each column is extracted as a contiguous `i64` vector and handed
    /// to [`Protocol::share_column`] in a single bulk call, instead of
    /// walking boxed row values cell by cell.
    pub fn from_columnar(rel: &ColumnarRelation, proto: &mut Protocol) -> Result<Self, String> {
        let all: Vec<usize> = (0..rel.num_cols()).collect();
        SharedRelation::from_columnar_picked(rel, &all, proto)
    }

    /// [`SharedRelation::from_columnar`] over the columns at `idxs` alone,
    /// in that order.
    fn from_columnar_picked(
        rel: &ColumnarRelation,
        idxs: &[usize],
        proto: &mut Protocol,
    ) -> Result<Self, String> {
        let schema = picked(&rel.schema, idxs);
        check_shareable(&schema)?;
        let n = rel.num_rows();
        let mut shared_columns: Vec<Vec<RingElem>> = Vec::with_capacity(idxs.len());
        for &c in idxs {
            // A null-free integer column shares its slice directly, with no
            // intermediate copy.
            shared_columns.push(proto.share_column(&shareable_column(rel.column(c))?));
        }
        // Transpose into the row-major share layout the oblivious operators
        // consume.
        let rows = (0..n)
            .map(|i| shared_columns.iter().map(|col| col[i]).collect())
            .collect();
        Ok(Rel { schema, rows })
    }

    /// Secret-shares a [`Table`] into the MPC from its integer columns, as
    /// the party runtime's input owners do: a row-only table converts once,
    /// and the conversion is cached for every clone of the table.
    pub fn from_table(table: &Table, proto: &mut Protocol) -> Result<Self, String> {
        SharedRelation::from_columnar(table.as_columns(), proto)
    }

    /// Secret-shares the named columns of a [`Table`] into the MPC, in the
    /// given order, from its integer columns as [`SharedRelation::from_table`]
    /// does; the table's other columns are neither read nor charged.
    pub fn from_table_columns(
        table: &Table,
        columns: &[&str],
        proto: &mut Protocol,
    ) -> Result<Self, String> {
        let idxs = columns
            .iter()
            .map(|c| {
                table
                    .schema()
                    .index_of(c)
                    .ok_or_else(|| format!("unknown column `{c}`"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        SharedRelation::from_columnar_picked(table.as_columns(), &idxs, proto)
    }

    /// Opens the whole relation to cleartext, one integer column per shared
    /// column (an `open` per cell is charged). Opened cells are integers, so
    /// the columns carry [`Rel::opened_schema`]; a caller that needs rows
    /// takes [`ColumnarRelation::to_rows`].
    pub fn open(&self, proto: &mut Protocol) -> ColumnarRelation {
        let all: Vec<usize> = (0..self.num_cols()).collect();
        self.open_picked(&all, proto)
    }

    /// [`SharedRelation::open`] of the named columns alone, in the given
    /// order: what opening a projection opens, without building it.
    pub fn open_columns(
        &self,
        columns: &[String],
        proto: &mut Protocol,
    ) -> Result<ColumnarRelation, OpError> {
        Ok(self.open_picked(&self.require_all(columns)?, proto))
    }

    fn open_picked(&self, idxs: &[usize], proto: &mut Protocol) -> ColumnarRelation {
        let schema = picked(&self.opened_schema(), idxs);
        let columns = idxs
            .iter()
            .map(|&c| Column::ints(self.rows.iter().map(|row| proto.open(row[c])).collect()))
            .collect();
        ColumnarRelation::new(schema, columns).expect("every opened column has one value per row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::schema::ColumnDef;

    fn demo() -> Relation {
        Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20], vec![3, 30]])
    }

    #[test]
    fn share_and_open_round_trip() {
        let mut p = Protocol::new(3, 1);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        assert_eq!(shared.num_rows(), 3);
        assert_eq!(shared.num_cols(), 2);
        assert_eq!(shared.num_elems(), 6);
        let back = shared.open(&mut p);
        // Opened straight into integer columns: no boxed value per cell.
        assert_eq!(back.column(0).as_ints(), Some(&[1, 2, 3][..]));
        assert_eq!(back.column(1).as_ints(), Some(&[10, 20, 30][..]));
        assert_eq!(back.schema, rel.schema);
        assert_eq!(back.to_rows().rows, rel.rows);
        assert_eq!(p.counts().input_elems, 6);
    }

    #[test]
    fn opening_charges_one_open_per_cell() {
        // One open per cell: rows × columns.
        let rel = Relation::from_ints(
            &["a", "b", "c"],
            &(0..7).map(|i| vec![i, -i, i * i]).collect::<Vec<_>>(),
        );
        let mut p = Protocol::new(3, 5);
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        shared.open(&mut p);
        assert_eq!(p.counts().opened_elems, 21);
        assert_eq!(p.counts().opened_elems, shared.num_elems());
        shared.project(&["b".to_string()]).unwrap().open(&mut p);
        assert_eq!(p.counts().opened_elems, 21 + 7);
    }

    #[test]
    fn opening_zero_rows_keeps_the_schema() {
        let mut p = Protocol::new(3, 6);
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("b", DataType::Bool),
        ]);
        let back = SharedRelation::empty(schema).open(&mut p);
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_cols(), 2);
        assert_eq!(back.schema, Schema::ints(&["k", "b"]));
        assert!(back.columns().iter().all(|c| c.as_ints() == Some(&[][..])));
        assert_eq!(p.counts().opened_elems, 0);
    }

    #[test]
    fn from_columnar_shares_whole_columns_and_round_trips() {
        let mut p = Protocol::new(3, 1);
        let rel = demo();
        let columnar = ColumnarRelation::from_rows(&rel);
        let shared = SharedRelation::from_columnar(&columnar, &mut p).unwrap();
        assert_eq!(shared.num_rows(), 3);
        assert_eq!(shared.num_cols(), 2);
        assert_eq!(p.counts().input_elems, 6);
        assert_eq!(shared.open(&mut p).to_rows().rows, rel.rows);
        // Row-wise and column-wise sharing cost the same number of inputs.
        let mut p2 = Protocol::new(3, 1);
        SharedRelation::from_relation(&rel, &mut p2).unwrap();
        assert_eq!(p.counts().input_elems, p2.counts().input_elems);
    }

    #[test]
    fn from_table_shares_from_columns_and_converts_a_row_table_once() {
        let rel = demo();
        // Row-only table: converted to columns once, and every clone reads
        // the cached conversion.
        let mut p = Protocol::new(3, 1);
        let rows_table = Table::from_rows(rel.clone());
        let shared = SharedRelation::from_table(&rows_table, &mut p).unwrap();
        SharedRelation::from_table(&rows_table.clone(), &mut p).unwrap();
        assert_eq!(rows_table.conversion_counts().row_to_columnar, 1);
        assert_eq!(rows_table.conversion_counts().total(), 1);
        assert_eq!(shared.open(&mut p).to_rows().rows, rel.rows);
        // Column-backed table: shares whole columns, converting nothing.
        let mut p2 = Protocol::new(3, 1);
        let cols_table = Table::from_columns(ColumnarRelation::from_rows(&rel));
        let shared2 = SharedRelation::from_table(&cols_table, &mut p2).unwrap();
        assert_eq!(cols_table.conversion_counts().total(), 0);
        assert_eq!(shared2.open(&mut p2).to_rows().rows, rel.rows);
        assert_eq!(p.counts().input_elems, 2 * p2.counts().input_elems);
    }

    #[test]
    fn row_major_ints_lays_out_rows_and_refuses_a_null() {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("b", DataType::Bool),
        ]);
        let rel = Relation::new(
            schema.clone(),
            vec![
                vec![Value::Int(7), Value::Bool(true)],
                vec![Value::Int(-2), Value::Bool(false)],
            ],
        )
        .unwrap();
        let columns = ColumnarRelation::from_rows(&rel);
        assert_eq!(row_major_ints(&columns), Ok(vec![7, 1, -2, 0]));
        let nulled = Relation::new(schema, vec![vec![Value::Null, Value::Bool(true)]]).unwrap();
        assert_eq!(
            row_major_ints(&ColumnarRelation::from_rows(&nulled)),
            Err("cannot share non-integer value NULL".to_string())
        );
    }

    #[test]
    fn from_columnar_rejects_unshareable_data() {
        let mut p = Protocol::new(3, 1);
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rel = Relation::new(schema, vec![vec![Value::Str("x".into())]]).unwrap();
        assert!(SharedRelation::from_columnar(&ColumnarRelation::from_rows(&rel), &mut p).is_err());
        // Null cells cannot be shared either.
        let ints = Schema::ints(&["a"]);
        let nulled = Relation::new(ints, vec![vec![Value::Null]]).unwrap();
        assert!(
            SharedRelation::from_columnar(&ColumnarRelation::from_rows(&nulled), &mut p).is_err()
        );
    }

    #[test]
    fn rejects_non_integer_columns() {
        let mut p = Protocol::new(3, 1);
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rel = Relation::new(schema, vec![vec![Value::Str("x".into())]]).unwrap();
        assert!(SharedRelation::from_relation(&rel, &mut p).is_err());
        let schema2 = Schema::new(vec![ColumnDef::new("f", DataType::Float)]);
        let rel2 = Relation::new(schema2, vec![vec![Value::Float(1.5)]]).unwrap();
        assert!(SharedRelation::from_relation(&rel2, &mut p).is_err());
    }

    #[test]
    fn project_and_concat() {
        let mut p = Protocol::new(3, 2);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let proj = shared.project(&["v".to_string()]).unwrap();
        assert_eq!(proj.num_cols(), 1);
        assert_eq!(
            proj.open(&mut p).column(0).as_ints(),
            Some(&[10, 20, 30][..])
        );
        assert!(shared.project(&["zzz".to_string()]).is_err());

        let cat = SharedRelation::concat(&[&shared, &shared]).unwrap();
        assert_eq!(cat.num_rows(), 6);
        assert!(SharedRelation::concat(&[]).is_err());
        let other = SharedRelation::empty(Schema::ints(&["a"]));
        assert!(SharedRelation::concat(&[&shared, &other]).is_err());
    }

    #[test]
    fn permutation_reorders_rows() {
        let mut p = Protocol::new(3, 3);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let permuted = shared.permute(&[2, 0, 1]);
        let back = permuted.open(&mut p).to_rows();
        assert_eq!(back.rows[0][0], Value::Int(3));
        assert_eq!(back.rows[1][0], Value::Int(1));
        assert!(back.same_rows_unordered(&rel));
    }

    #[test]
    fn bool_columns_are_shareable_and_open_as_ints() {
        let mut p = Protocol::new(2, 4);
        let schema = Schema::new(vec![ColumnDef::new("b", DataType::Bool)]);
        let rel = Relation::new(
            schema,
            vec![vec![Value::Bool(true)], vec![Value::Bool(false)]],
        )
        .unwrap();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let back = shared.open(&mut p);
        assert_eq!(back.schema, Schema::ints(&["b"]));
        assert_eq!(back.column(0).as_ints(), Some(&[1, 0][..]));
    }
}
