//! Scalar expressions used by filters and computed projections.

use crate::error::{IrError, IrResult};
use crate::schema::Schema;
use crate::types::{int_cmp_float, DataType, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators on scalar values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces a float).
    Div,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Returns `true` for comparison or logical operators (boolean result).
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of a single relation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column by name.
    Col(String),
    /// A literal constant.
    Const(Value),
    /// A binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation of a boolean expression.
    Not(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal constant.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Builds a binary expression.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, other)
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, other)
    }

    /// `self && other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinOp::And, self, other)
    }

    /// `self || other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, other)
    }

    // The arithmetic names below intentionally shadow the std operator trait
    // methods: they are fluent builder methods producing `Expr` nodes, and the
    // query-building code reads better as `col.add(other)` chains.
    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, other)
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, other)
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, other)
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, other)
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Names of all columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(name) => out.push(name.clone()),
            Expr::Const(_) => {}
            Expr::Bin { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(inner) => inner.collect_columns(out),
        }
    }

    /// Statically infers the result type of this expression against a schema.
    pub fn infer_type(&self, schema: &Schema) -> IrResult<DataType> {
        match self {
            Expr::Col(name) => {
                schema
                    .column(name)
                    .map(|c| c.dtype)
                    .ok_or_else(|| IrError::UnknownColumn {
                        column: name.clone(),
                        context: "expression".into(),
                    })
            }
            Expr::Const(v) => v
                .data_type()
                .ok_or_else(|| IrError::TypeError("NULL literal has no type".into())),
            Expr::Bin { op, left, right } => {
                let lt = left.infer_type(schema)?;
                let rt = right.infer_type(schema)?;
                if op.is_predicate() {
                    Ok(DataType::Bool)
                } else if *op == BinOp::Div || lt == DataType::Float || rt == DataType::Float {
                    // Division always produces a float (averages, shares).
                    Ok(DataType::Float)
                } else if lt == DataType::Int && rt == DataType::Int {
                    Ok(DataType::Int)
                } else {
                    Err(IrError::TypeError(format!(
                        "cannot apply {op} to {lt} and {rt}"
                    )))
                }
            }
            Expr::Not(inner) => {
                let t = inner.infer_type(schema)?;
                if t == DataType::Bool {
                    Ok(DataType::Bool)
                } else {
                    Err(IrError::TypeError(format!("cannot negate {t}")))
                }
            }
        }
    }

    /// Evaluates the expression against a row described by `schema`.
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> IrResult<Value> {
        match self {
            Expr::Col(name) => {
                let idx = schema.require(name, "expression")?;
                Ok(row[idx].clone())
            }
            Expr::Const(v) => Ok(v.clone()),
            Expr::Bin { op, left, right } => {
                let l = left.eval(schema, row)?;
                let r = right.eval(schema, row)?;
                Ok(apply_binop(*op, &l, &r))
            }
            Expr::Not(inner) => {
                let v = inner.eval(schema, row)?;
                Ok(match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                })
            }
        }
    }

    /// Rough count of arithmetic/comparison operations in the expression,
    /// used by MPC cost models (each non-linear op costs communication).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Col(_) | Expr::Const(_) => 0,
            Expr::Bin { left, right, .. } => 1 + left.op_count() + right.op_count(),
            Expr::Not(inner) => 1 + inner.op_count(),
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized (batch) evaluation.
//
// The columnar engine in `conclave-engine` evaluates expressions one column
// at a time instead of one row at a time. The scalar semantics above remain
// the specification: every fast path below must produce exactly the values
// `Expr::eval` would produce row by row (the differential test suite checks
// this), so the typed loops only engage when coercion rules cannot differ.
// ---------------------------------------------------------------------------

/// A borrowed, typed view of one stored column, handed to [`Expr::eval_batch`]
/// by a [`ColumnSource`].
#[derive(Debug, Clone, Copy)]
pub enum BatchRef<'a> {
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Float(&'a [f64]),
    /// Booleans.
    Bool(&'a [bool]),
    /// UTF-8 strings.
    Str(&'a [String]),
    /// Heterogeneous values (the lossless fallback representation).
    Mixed(&'a [Value]),
}

/// A provider of column batches: implemented by the vectorized engine's
/// windows over columnar storage, so expressions can be evaluated without
/// materializing rows.
pub trait ColumnSource {
    /// Number of rows in every column.
    fn batch_rows(&self) -> usize;
    /// The typed data of the column at `col` (schema index).
    fn batch(&self, col: usize) -> BatchRef<'_>;
    /// Validity mask of the column at `col`: `Some(mask)` where `mask[i]`
    /// is `true` marks a NULL at row `i`; `None` means no nulls.
    fn batch_nulls(&self, col: usize) -> Option<&[bool]>;
}

/// The result of vectorized expression evaluation: one value per input row.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueBatch {
    /// All-integer result.
    Int(Vec<i64>),
    /// All-float result.
    Float(Vec<f64>),
    /// All-boolean result.
    Bool(Vec<bool>),
    /// Generic per-row values (mixed types and/or nulls).
    Values(Vec<Value>),
    /// A constant broadcast over the given number of rows.
    Splat(Value, usize),
}

impl ValueBatch {
    /// Number of rows the batch covers.
    pub fn len(&self) -> usize {
        match self {
            ValueBatch::Int(v) => v.len(),
            ValueBatch::Float(v) => v.len(),
            ValueBatch::Bool(v) => v.len(),
            ValueBatch::Values(v) => v.len(),
            ValueBatch::Splat(_, n) => *n,
        }
    }

    /// Returns `true` if the batch covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (cloned).
    pub fn value(&self, i: usize) -> Value {
        match self {
            ValueBatch::Int(v) => Value::Int(v[i]),
            ValueBatch::Float(v) => Value::Float(v[i]),
            ValueBatch::Bool(v) => Value::Bool(v[i]),
            ValueBatch::Values(v) => v[i].clone(),
            ValueBatch::Splat(v, _) => v.clone(),
        }
    }

    /// Materializes the batch as one `Value` per row.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            ValueBatch::Int(v) => v.into_iter().map(Value::Int).collect(),
            ValueBatch::Float(v) => v.into_iter().map(Value::Float).collect(),
            ValueBatch::Bool(v) => v.into_iter().map(Value::Bool).collect(),
            ValueBatch::Values(v) => v,
            ValueBatch::Splat(v, n) => vec![v; n],
        }
    }

    /// Interprets the batch as a selection mask, with exactly the semantics
    /// the row engine's filter uses: `value.as_bool().unwrap_or(false)`.
    pub fn to_mask(&self) -> Vec<bool> {
        match self {
            ValueBatch::Bool(v) => v.clone(),
            ValueBatch::Int(v) => v.iter().map(|x| *x != 0).collect(),
            ValueBatch::Float(v) => v.iter().map(|x| *x != 0.0).collect(),
            ValueBatch::Values(v) => v.iter().map(|x| x.as_bool().unwrap_or(false)).collect(),
            ValueBatch::Splat(v, n) => vec![v.as_bool().unwrap_or(false); *n],
        }
    }
}

/// Borrowed integer operand: a slice or a broadcast constant.
#[derive(Clone, Copy)]
enum IntView<'a> {
    Slice(&'a [i64]),
    Splat(i64),
}

impl IntView<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            IntView::Slice(v) => v[i],
            IntView::Splat(k) => *k,
        }
    }
}

/// Borrowed float operand: a slice or a constant, possibly int-sourced.
#[derive(Clone, Copy)]
enum FloatView<'a> {
    Floats(&'a [f64]),
    Ints(&'a [i64]),
    Splat(f64),
    IntSplat(i64),
}

impl FloatView<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            FloatView::Floats(v) => v[i],
            FloatView::Ints(v) => v[i] as f64,
            FloatView::Splat(k) => *k,
            FloatView::IntSplat(k) => *k as f64,
        }
    }

    /// The `i`-th operand as an integer, if it is int-sourced.
    #[inline]
    fn int(&self, i: usize) -> Option<i64> {
        match self {
            FloatView::Ints(v) => Some(v[i]),
            FloatView::IntSplat(k) => Some(*k),
            _ => None,
        }
    }
}

/// Orders the `i`-th operands as `Value::cmp` does: floats in their total
/// order, an integer against a float exactly (not through `as f64`, which
/// rounds above 2^53).
#[inline]
fn num_cmp(a: FloatView<'_>, b: FloatView<'_>, i: usize) -> Ordering {
    match (a.int(i), b.int(i)) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(x), None) => int_cmp_float(x, b.get(i)),
        (None, Some(y)) => int_cmp_float(y, a.get(i)).reverse(),
        (None, None) => a.get(i).total_cmp(&b.get(i)),
    }
}

/// Borrowed boolean operand.
#[derive(Clone, Copy)]
enum BoolView<'a> {
    Slice(&'a [bool]),
    Splat(bool),
}

impl BoolView<'_> {
    #[inline]
    fn get(&self, i: usize) -> bool {
        match self {
            BoolView::Slice(v) => v[i],
            BoolView::Splat(k) => *k,
        }
    }
}

/// Views a batch as genuinely-integer operands (`Value::Int` semantics only:
/// booleans and floats follow different coercion rules and are excluded).
fn int_view(b: &ValueBatch) -> Option<IntView<'_>> {
    match b {
        ValueBatch::Int(v) => Some(IntView::Slice(v)),
        ValueBatch::Splat(Value::Int(k), _) => Some(IntView::Splat(*k)),
        _ => None,
    }
}

/// Views a batch as numeric operands for the int/float coercion path. Bools
/// are excluded: `Value`'s comparison order does not coerce them to numbers.
fn float_view(b: &ValueBatch) -> Option<FloatView<'_>> {
    match b {
        ValueBatch::Int(v) => Some(FloatView::Ints(v)),
        ValueBatch::Float(v) => Some(FloatView::Floats(v)),
        ValueBatch::Splat(Value::Int(k), _) => Some(FloatView::IntSplat(*k)),
        ValueBatch::Splat(Value::Float(k), _) => Some(FloatView::Splat(*k)),
        _ => None,
    }
}

fn bool_view(b: &ValueBatch) -> Option<BoolView<'_>> {
    match b {
        ValueBatch::Bool(v) => Some(BoolView::Slice(v)),
        ValueBatch::Splat(Value::Bool(k), _) => Some(BoolView::Splat(*k)),
        _ => None,
    }
}

/// Applies a binary operator over two batches, using tight typed loops where
/// the scalar coercion rules permit and falling back to per-row [`Value`]
/// semantics otherwise.
pub fn apply_binop_batch(op: BinOp, l: &ValueBatch, r: &ValueBatch) -> ValueBatch {
    let n = l.len().max(r.len());
    // Pure-integer fast path (matches `numeric_binop`'s `(Int, Int)` arm and
    // the integer comparison arms of `Value::cmp`).
    if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
        return match op {
            BinOp::Add => {
                ValueBatch::Int((0..n).map(|i| a.get(i).wrapping_add(b.get(i))).collect())
            }
            BinOp::Sub => {
                ValueBatch::Int((0..n).map(|i| a.get(i).wrapping_sub(b.get(i))).collect())
            }
            BinOp::Mul => {
                ValueBatch::Int((0..n).map(|i| a.get(i).wrapping_mul(b.get(i))).collect())
            }
            BinOp::Div => div_batch(
                // Both operands have int views, and every int batch also has
                // a float view, so these cannot fail.
                FloatViewPair(
                    float_view(l).expect("int batches have float views"),
                    float_view(r).expect("int batches have float views"),
                ),
                n,
            ),
            BinOp::Eq => ValueBatch::Bool((0..n).map(|i| a.get(i) == b.get(i)).collect()),
            BinOp::Ne => ValueBatch::Bool((0..n).map(|i| a.get(i) != b.get(i)).collect()),
            BinOp::Lt => ValueBatch::Bool((0..n).map(|i| a.get(i) < b.get(i)).collect()),
            BinOp::Le => ValueBatch::Bool((0..n).map(|i| a.get(i) <= b.get(i)).collect()),
            BinOp::Gt => ValueBatch::Bool((0..n).map(|i| a.get(i) > b.get(i)).collect()),
            BinOp::Ge => ValueBatch::Bool((0..n).map(|i| a.get(i) >= b.get(i)).collect()),
            BinOp::And => {
                ValueBatch::Bool((0..n).map(|i| a.get(i) != 0 && b.get(i) != 0).collect())
            }
            BinOp::Or => ValueBatch::Bool((0..n).map(|i| a.get(i) != 0 || b.get(i) != 0).collect()),
        };
    }
    // Mixed int/float numeric fast path (matches the float arm of
    // `numeric_binop` and `Value::cmp`'s order).
    if let (Some(a), Some(b)) = (float_view(l), float_view(r)) {
        let cmp = |keep: fn(Ordering) -> bool| {
            ValueBatch::Bool((0..n).map(|i| keep(num_cmp(a, b, i))).collect())
        };
        return match op {
            BinOp::Add => ValueBatch::Float((0..n).map(|i| a.get(i) + b.get(i)).collect()),
            BinOp::Sub => ValueBatch::Float((0..n).map(|i| a.get(i) - b.get(i)).collect()),
            BinOp::Mul => ValueBatch::Float((0..n).map(|i| a.get(i) * b.get(i)).collect()),
            BinOp::Div => div_batch(FloatViewPair(a, b), n),
            BinOp::Eq => cmp(Ordering::is_eq),
            BinOp::Ne => cmp(Ordering::is_ne),
            BinOp::Lt => cmp(Ordering::is_lt),
            BinOp::Le => cmp(Ordering::is_le),
            BinOp::Gt => cmp(Ordering::is_gt),
            BinOp::Ge => cmp(Ordering::is_ge),
            BinOp::And => {
                ValueBatch::Bool((0..n).map(|i| a.get(i) != 0.0 && b.get(i) != 0.0).collect())
            }
            BinOp::Or => {
                ValueBatch::Bool((0..n).map(|i| a.get(i) != 0.0 || b.get(i) != 0.0).collect())
            }
        };
    }
    // Boolean logic fast path.
    if let (Some(a), Some(b)) = (bool_view(l), bool_view(r)) {
        match op {
            BinOp::And => return ValueBatch::Bool((0..n).map(|i| a.get(i) && b.get(i)).collect()),
            BinOp::Or => return ValueBatch::Bool((0..n).map(|i| a.get(i) || b.get(i)).collect()),
            BinOp::Eq => return ValueBatch::Bool((0..n).map(|i| a.get(i) == b.get(i)).collect()),
            BinOp::Ne => return ValueBatch::Bool((0..n).map(|i| a.get(i) != b.get(i)).collect()),
            _ => {}
        }
    }
    // Generic fallback: exact scalar semantics per row.
    ValueBatch::Values(
        (0..n)
            .map(|i| apply_binop(op, &l.value(i), &r.value(i)))
            .collect(),
    )
}

struct FloatViewPair<'a>(FloatView<'a>, FloatView<'a>);

/// Division: int/int produces floats, any division by zero produces NULL —
/// exactly `Value::div`. A zero-free denominator keeps the typed float batch.
fn div_batch(views: FloatViewPair<'_>, n: usize) -> ValueBatch {
    let FloatViewPair(a, b) = views;
    if (0..n).any(|i| b.get(i) == 0.0) {
        ValueBatch::Values(
            (0..n)
                .map(|i| {
                    if b.get(i) == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a.get(i) / b.get(i))
                    }
                })
                .collect(),
        )
    } else {
        ValueBatch::Float((0..n).map(|i| a.get(i) / b.get(i)).collect())
    }
}

impl Expr {
    /// Evaluates the expression over whole columns at once.
    ///
    /// Produces exactly the values row-at-a-time [`Expr::eval`] would — the
    /// typed fast paths engage only where the coercion rules are identical —
    /// but runs as tight loops over primitive slices for the common
    /// integer-heavy workloads. Each referenced column is loaded from the
    /// [`ColumnSource`] exactly once per evaluation, no matter how many
    /// `Col` nodes reference it: repeated references borrow the cached batch
    /// and do O(1) extra work.
    pub fn eval_batch(&self, schema: &Schema, src: &dyn ColumnSource) -> IrResult<ValueBatch> {
        // A bare column reference needs no cache machinery: load it once and
        // hand the owned batch straight back.
        if let Expr::Col(name) = self {
            let idx = schema.require(name, "expression")?;
            return Ok(load_column(src, idx));
        }
        // Pre-load every distinct referenced column once; the recursion below
        // borrows from this cache instead of re-materializing per `Col` node.
        let mut indices: Vec<usize> = Vec::new();
        self.collect_column_indices(schema, &mut indices)?;
        let cache: Vec<(usize, ValueBatch)> = indices
            .into_iter()
            .map(|i| (i, load_column(src, i)))
            .collect();
        Ok(self
            .eval_batch_cached(schema, src.batch_rows(), &cache)?
            .into_owned())
    }

    /// Resolves and deduplicates the schema indices of every column the
    /// expression references (erroring on unknown columns, as evaluation
    /// would).
    fn collect_column_indices(&self, schema: &Schema, out: &mut Vec<usize>) -> IrResult<()> {
        match self {
            Expr::Col(name) => {
                let idx = schema.require(name, "expression")?;
                if !out.contains(&idx) {
                    out.push(idx);
                }
                Ok(())
            }
            Expr::Const(_) => Ok(()),
            Expr::Bin { left, right, .. } => {
                left.collect_column_indices(schema, out)?;
                right.collect_column_indices(schema, out)
            }
            Expr::Not(inner) => inner.collect_column_indices(schema, out),
        }
    }

    /// The recursive evaluator behind [`Expr::eval_batch`]: `Col` nodes
    /// borrow their pre-loaded batch from `cache`, so only operator nodes
    /// allocate.
    fn eval_batch_cached<'a>(
        &self,
        schema: &Schema,
        rows: usize,
        cache: &'a [(usize, ValueBatch)],
    ) -> IrResult<Cow<'a, ValueBatch>> {
        match self {
            Expr::Col(name) => {
                let idx = schema.require(name, "expression")?;
                let batch = cache
                    .iter()
                    .find(|(i, _)| *i == idx)
                    .map(|(_, b)| b)
                    .expect("every referenced column is pre-loaded");
                Ok(Cow::Borrowed(batch))
            }
            Expr::Const(v) => Ok(Cow::Owned(ValueBatch::Splat(v.clone(), rows))),
            Expr::Bin { op, left, right } => {
                let l = left.eval_batch_cached(schema, rows, cache)?;
                let r = right.eval_batch_cached(schema, rows, cache)?;
                Ok(Cow::Owned(apply_binop_batch(*op, &l, &r)))
            }
            Expr::Not(inner) => {
                let b = inner.eval_batch_cached(schema, rows, cache)?;
                if let Some(v) = bool_view(&b) {
                    let n = b.len();
                    return Ok(Cow::Owned(ValueBatch::Bool(
                        (0..n).map(|i| !v.get(i)).collect(),
                    )));
                }
                if let Some(v) = int_view(&b) {
                    let n = b.len();
                    return Ok(Cow::Owned(ValueBatch::Bool(
                        (0..n).map(|i| v.get(i) == 0).collect(),
                    )));
                }
                Ok(Cow::Owned(ValueBatch::Values(
                    (0..b.len())
                        .map(|i| match b.value(i).as_bool() {
                            Some(x) => Value::Bool(!x),
                            None => Value::Null,
                        })
                        .collect(),
                )))
            }
        }
    }
}

/// Loads a stored column into an owned batch, demoting to generic values when
/// a null mask is present (typed loops cannot represent NULL).
pub fn load_column(src: &dyn ColumnSource, idx: usize) -> ValueBatch {
    let nulls = src.batch_nulls(idx);
    match (src.batch(idx), nulls) {
        (BatchRef::Int(v), None) => ValueBatch::Int(v.to_vec()),
        (BatchRef::Float(v), None) => ValueBatch::Float(v.to_vec()),
        (BatchRef::Bool(v), None) => ValueBatch::Bool(v.to_vec()),
        (BatchRef::Str(v), None) => {
            ValueBatch::Values(v.iter().map(|s| Value::Str(s.clone())).collect())
        }
        (BatchRef::Mixed(v), None) => ValueBatch::Values(v.to_vec()),
        (data, Some(mask)) => {
            let values = (0..mask.len())
                .map(|i| {
                    if mask[i] {
                        Value::Null
                    } else {
                        match data {
                            BatchRef::Int(v) => Value::Int(v[i]),
                            BatchRef::Float(v) => Value::Float(v[i]),
                            BatchRef::Bool(v) => Value::Bool(v[i]),
                            BatchRef::Str(v) => Value::Str(v[i].clone()),
                            BatchRef::Mixed(v) => v[i].clone(),
                        }
                    }
                })
                .collect();
            ValueBatch::Values(values)
        }
    }
}

/// Applies a binary operator to two runtime values.
pub fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Eq => Value::Bool(l == r),
        BinOp::Ne => Value::Bool(l != r),
        BinOp::Lt => Value::Bool(l < r),
        BinOp::Le => Value::Bool(l <= r),
        BinOp::Gt => Value::Bool(l > r),
        BinOp::Ge => Value::Bool(l >= r),
        BinOp::And => match (l.as_bool(), r.as_bool()) {
            (Some(a), Some(b)) => Value::Bool(a && b),
            _ => Value::Null,
        },
        BinOp::Or => match (l.as_bool(), r.as_bool()) {
            (Some(a), Some(b)) => Value::Bool(a || b),
            _ => Value::Null,
        },
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Bin { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(inner) => write!(f, "!({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
            ColumnDef::new("s", DataType::Str),
        ])
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col("a").add(Expr::col("b")).mul(Expr::col("a"));
        assert_eq!(e.referenced_columns(), vec!["a".to_string(), "b".into()]);
    }

    #[test]
    fn eval_arithmetic_and_compare() {
        let s = schema();
        let row = vec![Value::Int(6), Value::Int(4), Value::Str("x".into())];
        let e = Expr::col("a").add(Expr::col("b"));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Int(10));
        let e = Expr::col("a").div(Expr::col("b"));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Float(1.5));
        let e = Expr::col("a").gt(Expr::lit(5));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Bool(true));
        let e = Expr::col("a")
            .lt(Expr::lit(5))
            .or(Expr::col("b").eq(Expr::lit(4)));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Bool(true));
        let e = Expr::col("a")
            .ge(Expr::lit(6))
            .and(Expr::col("b").le(Expr::lit(3)));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Bool(false));
        let e = Expr::col("a").ne(Expr::lit(6)).not();
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Bool(true));
        let e = Expr::col("a").sub(Expr::lit(1));
        assert_eq!(e.eval(&s, &row).unwrap(), Value::Int(5));
    }

    #[test]
    fn eval_unknown_column_errors() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Int(2), Value::Str("x".into())];
        assert!(Expr::col("zzz").eval(&s, &row).is_err());
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(Expr::col("a").infer_type(&s).unwrap(), DataType::Int);
        assert_eq!(
            Expr::col("a").add(Expr::col("b")).infer_type(&s).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Expr::col("a").div(Expr::col("b")).infer_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            Expr::col("a").gt(Expr::lit(1)).infer_type(&s).unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::lit(1.5).mul(Expr::col("a")).infer_type(&s).unwrap(),
            DataType::Float
        );
        assert!(Expr::col("s").add(Expr::col("a")).infer_type(&s).is_err());
        assert!(Expr::col("a").not().infer_type(&s).is_err());
        assert!(Expr::col("missing").infer_type(&s).is_err());
        assert!(Expr::Const(Value::Null).infer_type(&s).is_err());
    }

    #[test]
    fn op_count_counts_nonlinear_ops() {
        let e = Expr::col("a")
            .add(Expr::col("b"))
            .mul(Expr::lit(2))
            .gt(Expr::lit(100));
        assert_eq!(e.op_count(), 3);
        assert_eq!(Expr::col("a").op_count(), 0);
        assert_eq!(Expr::col("a").eq(Expr::lit(1)).not().op_count(), 2);
    }

    #[test]
    fn display_round_trip_like() {
        let e = Expr::col("a").add(Expr::lit(1)).gt(Expr::col("b"));
        assert_eq!(e.to_string(), "((a + 1) > b)");
        assert_eq!(BinOp::And.to_string(), "&&");
    }

    #[test]
    fn binop_predicate_classification() {
        assert!(BinOp::Eq.is_predicate());
        assert!(BinOp::Or.is_predicate());
        assert!(!BinOp::Add.is_predicate());
        assert!(!BinOp::Div.is_predicate());
    }

    /// A tiny in-memory column source for batch-eval tests.
    struct TestSource {
        ints: Vec<Vec<i64>>,
        nulls: Vec<Option<Vec<bool>>>,
    }

    impl ColumnSource for TestSource {
        fn batch_rows(&self) -> usize {
            self.ints.first().map_or(0, |c| c.len())
        }
        fn batch(&self, col: usize) -> BatchRef<'_> {
            BatchRef::Int(&self.ints[col])
        }
        fn batch_nulls(&self, col: usize) -> Option<&[bool]> {
            self.nulls[col].as_deref()
        }
    }

    /// Batch evaluation must agree with scalar evaluation row by row.
    fn assert_batch_matches_scalar(e: &Expr, s: &Schema, src: &TestSource) {
        let batch = e.eval_batch(s, src).unwrap().into_values();
        for i in 0..src.batch_rows() {
            let row: Vec<Value> = (0..src.ints.len())
                .map(|c| match &src.nulls[c] {
                    Some(mask) if mask[i] => Value::Null,
                    _ => Value::Int(src.ints[c][i]),
                })
                .collect();
            assert_eq!(batch[i], e.eval(s, &row).unwrap(), "row {i} of {e}");
        }
    }

    #[test]
    fn batch_eval_matches_scalar_eval() {
        let s = Schema::ints(&["a", "b"]);
        let src = TestSource {
            ints: vec![vec![6, -3, 0, i64::MAX], vec![4, 0, 7, 2]],
            nulls: vec![None, None],
        };
        for e in [
            Expr::col("a").add(Expr::col("b")),
            Expr::col("a").sub(Expr::lit(1)),
            Expr::col("a").mul(Expr::col("b")),
            Expr::col("a").div(Expr::col("b")), // includes division by zero
            Expr::col("a").div(Expr::lit(2)),
            Expr::col("a").gt(Expr::col("b")),
            Expr::col("a").le(Expr::lit(0)),
            Expr::col("a").eq(Expr::col("b")).not(),
            Expr::col("a")
                .gt(Expr::lit(0))
                .and(Expr::col("b").lt(Expr::lit(5))),
            Expr::col("a").ne(Expr::lit(6)).or(Expr::col("b").not()),
            Expr::lit(1.5).mul(Expr::col("a")),
            Expr::lit(3).add(Expr::lit(4)),
        ] {
            assert_batch_matches_scalar(&e, &s, &src);
        }
    }

    #[test]
    fn batch_eval_handles_nulls_via_generic_path() {
        let s = Schema::ints(&["a", "b"]);
        let src = TestSource {
            ints: vec![vec![1, 2, 3], vec![10, 20, 30]],
            nulls: vec![Some(vec![false, true, false]), None],
        };
        for e in [
            Expr::col("a").add(Expr::col("b")),
            Expr::col("a").gt(Expr::lit(1)),
            Expr::col("a").not(),
        ] {
            assert_batch_matches_scalar(&e, &s, &src);
        }
    }

    /// A column source that counts how many times each column's data is
    /// materialized into a batch.
    struct CountingSource {
        ints: Vec<Vec<i64>>,
        loads: std::cell::RefCell<Vec<usize>>,
    }

    impl CountingSource {
        fn new(ints: Vec<Vec<i64>>) -> Self {
            let n = ints.len();
            CountingSource {
                ints,
                loads: std::cell::RefCell::new(vec![0; n]),
            }
        }
    }

    impl ColumnSource for CountingSource {
        fn batch_rows(&self) -> usize {
            self.ints.first().map_or(0, |c| c.len())
        }
        fn batch(&self, col: usize) -> BatchRef<'_> {
            self.loads.borrow_mut()[col] += 1;
            BatchRef::Int(&self.ints[col])
        }
        fn batch_nulls(&self, _col: usize) -> Option<&[bool]> {
            None
        }
    }

    #[test]
    fn batch_eval_loads_each_referenced_column_exactly_once() {
        let s = Schema::ints(&["a", "b"]);
        let src = CountingSource::new(vec![vec![1, 7, 3], vec![2, 2, 9]]);
        // `a` is referenced three times, `b` twice.
        let e = Expr::col("a")
            .gt(Expr::lit(0))
            .and(Expr::col("a").lt(Expr::col("b")))
            .or(Expr::col("a").eq(Expr::col("b")));
        let out = e.eval_batch(&s, &src).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            *src.loads.borrow(),
            vec![1, 1],
            "each column must be loaded once, not once per Col node"
        );
        // The cached path produces exactly what scalar evaluation produces.
        for i in 0..3 {
            let row = vec![Value::Int(src.ints[0][i]), Value::Int(src.ints[1][i])];
            assert_eq!(out.value(i), e.eval(&s, &row).unwrap());
        }
        // A bare column reference also loads exactly once.
        let src2 = CountingSource::new(vec![vec![5, 6], vec![0, 0]]);
        Expr::col("a").eval_batch(&s, &src2).unwrap();
        assert_eq!(*src2.loads.borrow(), vec![1, 0]);
    }

    #[test]
    fn batch_eval_unknown_column_errors() {
        let s = Schema::ints(&["a"]);
        let src = TestSource {
            ints: vec![vec![1]],
            nulls: vec![None],
        };
        assert!(Expr::col("zzz").eval_batch(&s, &src).is_err());
    }

    #[test]
    fn value_batch_accessors() {
        let b = ValueBatch::Int(vec![1, 0, 2]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.value(1), Value::Int(0));
        assert_eq!(b.to_mask(), vec![true, false, true]);
        let f = ValueBatch::Float(vec![0.0, 2.5]);
        assert_eq!(f.to_mask(), vec![false, true]);
        let s = ValueBatch::Splat(Value::Bool(true), 2);
        assert_eq!(s.to_mask(), vec![true, true]);
        assert_eq!(s.into_values(), vec![Value::Bool(true), Value::Bool(true)]);
        let v = ValueBatch::Values(vec![Value::Null, Value::Int(1)]);
        assert_eq!(v.to_mask(), vec![false, true]);
        assert!(ValueBatch::Bool(vec![]).is_empty());
    }
}
