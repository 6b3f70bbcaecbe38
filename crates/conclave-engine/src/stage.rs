//! Fused stages: a chain of narrow operators, ending in at most one
//! aggregate or distinct, run as one pass over borrowed windows.
//!
//! Spark runs the narrow steps of a stage (filter, map, partial aggregate)
//! inside one task and materializes only what leaves it. [`Pipeline`] does
//! the same for the vectorized engine: a chain of `Filter`, `Project`,
//! `Multiply` and `Divide` steps, ended by at most one `Aggregate` or
//! `Distinct`, goes over its input 4 096-row morsel by morsel, each morsel a
//! borrowed window of the input's columns.
//!
//! * A filter narrows the morsel's selection vector; it copies no column.
//! * A project renames column indices.
//! * A multiply or divide computes one morsel-sized column.
//! * A tail aggregate accumulates straight from the window through the
//!   selection, into one table that lives across morsels. Its `i64` keys
//!   hash with the engine's per-table keyed hasher, as the one-operator
//!   aggregate's did. A tail distinct keeps each first-seen row.
//!
//! Only the stage's output is materialized. Its values, row order and errors
//! are those of running the operators one at a time. A morsel that a filter
//! empties goes no further, so, as an operator run on an empty input, no
//! later step evaluates a predicate or resolves an operand for it. An
//! operator that fails on any input (an unknown column in a project,
//! aggregate or distinct) is found when the stage is compiled, but it fails
//! the stage only after every run, once no earlier step has failed.

use crate::columnar::{Column, ColumnarRelation};
use crate::error::{EngineError, EngineResult};
use crate::exec::{col_idx, key_indices, out_schema};
use crate::table::Table;
use crate::vexec::IntKeys;
use conclave_ir::expr::{
    apply_binop_batch, load_column, BatchRef, BinOp, ColumnSource, Expr, ValueBatch,
};
use conclave_ir::ops::{AggFunc, Operand, Operator};
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Rows per morsel: small enough that a window's columns and the steps'
/// morsel-sized results stay in cache from one step to the next.
const MORSEL_ROWS: usize = 4096;

/// Where an operator can sit in a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageRole {
    /// `Filter`, `Project`, `Multiply` and `Divide`: any number, in front.
    Narrow,
    /// `Aggregate` and `Distinct`: at most one, last.
    Tail,
}

impl StageRole {
    /// The role `op` can take in a stage, if any.
    pub fn of(op: &Operator) -> Option<StageRole> {
        match op {
            Operator::Filter { .. }
            | Operator::Project { .. }
            | Operator::Multiply { .. }
            | Operator::Divide { .. } => Some(StageRole::Narrow),
            Operator::Aggregate { .. } | Operator::Distinct { .. } => Some(StageRole::Tail),
            _ => None,
        }
    }
}

/// What one operator of a stage produced: what a cost model prices the
/// operator from, with its input's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct StepShape {
    /// Output rows.
    pub rows: usize,
    /// Output schema.
    pub schema: Schema,
}

/// What a stage produced: the last operator's output, and the shape of every
/// operator's output, in stage order.
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// The stage's output.
    pub output: Table,
    /// One shape per operator of the stage.
    pub steps: Vec<StepShape>,
}

/// What one run of a [`Pipeline`] over a range of input rows produced.
#[derive(Debug, Clone)]
pub struct StagePart {
    /// The stage's output over the range: for a tail aggregate, the range's
    /// partial result.
    pub output: ColumnarRelation,
    /// `rows[0]` is the range's length; `rows[i + 1]` is what operator `i`
    /// produced over the range.
    pub rows: Vec<usize>,
}

/// A stage compiled against its input's schema.
pub struct Pipeline<'op> {
    steps: Vec<Step<'op>>,
    tail: Option<Tail>,
    /// `schemas[0]` is the input's; `schemas[i + 1]` is operator `i`'s
    /// output's, up to the first operator that fails.
    schemas: Vec<Schema>,
    /// The error of the first operator that fails whatever reaches it; the
    /// steps stop before it.
    failure: Option<EngineError>,
    /// Whether any step filters: if none does, every input row leaves the
    /// narrow steps.
    filters: bool,
}

/// A narrow step, its columns resolved.
enum Step<'op> {
    Filter(&'op Expr),
    Project(Vec<usize>),
    /// `out` is the column the result replaces, or `None` to append it.
    Multiply {
        out: Option<usize>,
        operands: &'op [Operand],
    },
    Divide {
        out: Option<usize>,
        num: &'op Operand,
        den: &'op Operand,
    },
}

/// The stage's last operator, its columns resolved.
enum Tail {
    Aggregate {
        keys: Vec<usize>,
        func: AggFunc,
        over: Option<usize>,
    },
    Distinct(Vec<usize>),
}

impl<'op> Pipeline<'op> {
    /// Compiles `ops` over an input of schema `input`, or `None` if they are
    /// not a stage: narrow operators, then at most one tail.
    pub fn new(ops: &[&'op Operator], input: &Schema) -> Option<Pipeline<'op>> {
        let (last, narrow) = ops.split_last()?;
        if StageRole::of(last).is_none()
            || narrow
                .iter()
                .any(|op| StageRole::of(op) != Some(StageRole::Narrow))
        {
            return None;
        }
        let mut pipeline = Pipeline {
            steps: Vec::with_capacity(ops.len()),
            tail: None,
            schemas: vec![input.clone()],
            failure: None,
            filters: false,
        };
        for &op in ops {
            let schema = pipeline.schemas.last().expect("the input's schema");
            let out = match op {
                Operator::Filter { .. } => schema.clone(),
                _ => out_schema(op, &[schema]),
            };
            match compile(op, schema) {
                Ok(Compiled::Step(step)) => {
                    pipeline.filters |= matches!(step, Step::Filter(_));
                    pipeline.steps.push(step);
                }
                Ok(Compiled::Tail(tail)) => pipeline.tail = Some(tail),
                Err(e) => {
                    pipeline.failure = Some(e);
                    break;
                }
            }
            pipeline.schemas.push(out);
        }
        Some(pipeline)
    }

    /// The error of the first operator that fails on any input, if one does.
    /// Check it after the runs: an earlier step's error, raised only by rows
    /// that reach the step, comes first.
    pub fn check(&self) -> EngineResult<()> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// Every operator's output shape, from a run's row counts.
    pub fn shapes(&self, rows: &[usize]) -> Vec<StepShape> {
        rows.iter()
            .zip(&self.schemas)
            .skip(1)
            .map(|(&rows, schema)| StepShape {
                rows,
                schema: schema.clone(),
            })
            .collect()
    }

    /// Runs the stage over all of `input`, failing as the operators one at a
    /// time would.
    pub fn run_whole(&self, input: &ColumnarRelation) -> EngineResult<StagePart> {
        let part = self.run(input, 0..input.num_rows())?;
        self.check()?;
        Ok(part)
    }

    /// Runs the steps before any failing operator over the input rows
    /// `range`, morsel by morsel (see [`Pipeline::check`]).
    pub fn run(&self, input: &ColumnarRelation, range: Range<usize>) -> EngineResult<StagePart> {
        let mut rows = vec![0; self.schemas.len()];
        rows[0] = range.len();
        let mut sink = Sink::new(self.tail.as_ref(), self.filters);
        for start in range.clone().step_by(MORSEL_ROWS) {
            let mut morsel = Morsel::new(input, start..(start + MORSEL_ROWS).min(range.end));
            if self.advance(&mut morsel, &mut rows)? {
                sink.add(morsel);
            }
        }
        let schema = self.schemas.last().expect("the input's schema").clone();
        let output = sink.finish(schema, input, range)?;
        if self.tail.is_some() {
            *rows.last_mut().expect("one count per schema") = output.num_rows();
        }
        Ok(StagePart { output, rows })
    }

    /// Takes a morsel through the narrow steps, counting the rows each
    /// leaves; `false` if a filter emptied it.
    fn advance(&self, morsel: &mut Morsel<'_>, rows: &mut [usize]) -> EngineResult<bool> {
        for (i, step) in self.steps.iter().enumerate() {
            if morsel.is_empty() {
                return Ok(false);
            }
            morsel.apply(step, &self.schemas[i])?;
            rows[i + 1] += morsel.len();
        }
        Ok(!morsel.is_empty())
    }
}

enum Compiled<'op> {
    Step(Step<'op>),
    Tail(Tail),
}

/// Resolves `op`'s columns in `schema`, failing as the operator does on any
/// input (a filter, multiply or divide fails only on rows, in the morsels).
fn compile<'op>(op: &'op Operator, schema: &Schema) -> EngineResult<Compiled<'op>> {
    Ok(match op {
        Operator::Filter { predicate } => Compiled::Step(Step::Filter(predicate)),
        Operator::Project { columns } => {
            Compiled::Step(Step::Project(key_indices(schema, columns)?))
        }
        Operator::Multiply { out, operands } => Compiled::Step(Step::Multiply {
            out: schema.index_of(out),
            operands,
        }),
        Operator::Divide { out, num, den } => Compiled::Step(Step::Divide {
            out: schema.index_of(out),
            num,
            den,
        }),
        Operator::Aggregate {
            group_by,
            func,
            over,
            ..
        } => {
            let keys = key_indices(schema, group_by)?;
            let over = match over {
                Some(o) => Some(col_idx(schema, o)?),
                None if func.needs_over() => {
                    return Err(EngineError::Eval(format!("{func} requires an over column")))
                }
                None => None,
            };
            Compiled::Tail(Tail::Aggregate {
                keys,
                func: *func,
                over,
            })
        }
        Operator::Distinct { columns } => {
            Compiled::Tail(Tail::Distinct(key_indices(schema, columns)?))
        }
        _ => unreachable!("`Pipeline::new` admits stage operators only"),
    })
}

/// Where a column of the current schema lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// The input's column.
    Input(usize),
    /// The morsel's computed column.
    Computed(usize),
}

/// One morsel on its way through the narrow steps.
struct Morsel<'a> {
    input: &'a ColumnarRelation,
    /// The input rows the morsel covers.
    window: Range<usize>,
    /// The input rows still selected, in order; `None` while all of the
    /// window is.
    selection: Option<Vec<usize>>,
    /// The current schema's columns.
    columns: Vec<Src>,
    /// The columns the steps computed, dense over the selected rows.
    computed: Vec<Column>,
}

impl<'a> Morsel<'a> {
    fn new(input: &'a ColumnarRelation, window: Range<usize>) -> Morsel<'a> {
        Morsel {
            input,
            window,
            selection: None,
            columns: (0..input.num_cols()).map(Src::Input).collect(),
            computed: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.selection.as_ref().map_or(self.window.len(), Vec::len)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of column `c` at the `j`-th selected row.
    fn value(&self, j: usize, c: usize) -> Value {
        match self.columns[c] {
            Src::Input(i) => {
                let row = match &self.selection {
                    Some(rows) => rows[j],
                    None => self.window.start + j,
                };
                self.input.column(i).value(row)
            }
            Src::Computed(k) => self.computed[k].value(j),
        }
    }

    /// Column `c` over the selected rows, if it is a null-free integer one:
    /// borrowed unless a selection has to gather it.
    fn ints(&self, c: usize) -> Option<Cow<'_, [i64]>> {
        match self.columns[c] {
            Src::Input(i) => {
                let all = self.input.column(i).as_ints()?;
                Some(match &self.selection {
                    Some(rows) => Cow::Owned(rows.iter().map(|&r| all[r]).collect()),
                    None => Cow::Borrowed(&all[self.window.clone()]),
                })
            }
            Src::Computed(k) => self.computed[k].as_ints().map(Cow::Borrowed),
        }
    }

    /// Applies one narrow step; `schema` is its input's.
    fn apply(&mut self, step: &Step<'_>, schema: &Schema) -> EngineResult<()> {
        match step {
            Step::Filter(predicate) => {
                let names = predicate.referenced_columns();
                let kept = self.evaluate(schema, names.iter().map(String::as_str), |src| {
                    predicate
                        .eval_batch(schema, src)
                        .map_err(|e| EngineError::Eval(e.to_string()))
                })?;
                let mask = match kept {
                    ValueBatch::Bool(mask) => mask,
                    other => other.to_mask(),
                };
                self.select(&mask);
            }
            Step::Project(idxs) => self.columns = idxs.iter().map(|&i| self.columns[i]).collect(),
            Step::Multiply { out, operands } => {
                let rows = self.len();
                let names = operands.iter().filter_map(Operand::column_name);
                let product = self.evaluate(schema, names, |src| {
                    let mut acc = ValueBatch::Splat(Value::Int(1), rows);
                    for o in operands.iter() {
                        acc = apply_binop_batch(BinOp::Mul, &acc, &operand(schema, src, o)?);
                    }
                    Ok(acc)
                })?;
                self.put(*out, product);
            }
            Step::Divide { out, num, den } => {
                let names = [num, den].into_iter().filter_map(|o| o.column_name());
                let quotient = self.evaluate(schema, names, |src| {
                    let n = operand(schema, src, num)?;
                    let d = operand(schema, src, den)?;
                    Ok(apply_binop_batch(BinOp::Div, &n, &d))
                })?;
                self.put(*out, quotient);
            }
        }
        Ok(())
    }

    /// Runs `f` on a column source over the selected rows that serves the
    /// columns of `schema` named in `names`: windows of the input, gathered
    /// through the selection if there is one, and computed columns.
    fn evaluate<'n, T>(
        &self,
        schema: &Schema,
        names: impl IntoIterator<Item = &'n str>,
        f: impl FnOnce(&dyn ColumnSource) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut wanted: Vec<usize> = Vec::new();
        for c in names.into_iter().filter_map(|n| schema.index_of(n)) {
            if !wanted.contains(&c) {
                wanted.push(c);
            }
        }
        let gathered: Vec<(usize, Column)> = match &self.selection {
            None => Vec::new(),
            Some(rows) => wanted
                .iter()
                .filter_map(|&c| match self.columns[c] {
                    Src::Input(i) => Some((c, self.input.column(i).gather(rows))),
                    Src::Computed(_) => None,
                })
                .collect(),
        };
        let mut columns = vec![None; self.columns.len()];
        for &c in &wanted {
            let gathered = gathered.iter().find(|(g, _)| *g == c).map(|(_, col)| col);
            columns[c] = Some(match (gathered, self.columns[c]) {
                (Some(col), _) => (col, 0..col.len()),
                (None, Src::Input(i)) => (self.input.column(i), self.window.clone()),
                (None, Src::Computed(k)) => (&self.computed[k], 0..self.computed[k].len()),
            });
        }
        f(&Window {
            rows: self.len(),
            columns,
        })
    }

    /// Keeps the selected rows where `mask` is set.
    fn select(&mut self, mask: &[bool]) {
        let selection = match self.selection.take() {
            Some(mut rows) => {
                let mut j = 0;
                rows.retain(|_| {
                    j += 1;
                    mask[j - 1]
                });
                rows
            }
            None => {
                let mut rows = Vec::with_capacity(self.window.len());
                rows.extend(
                    self.window
                        .clone()
                        .zip(mask)
                        .filter(|(_, &keep)| keep)
                        .map(|(r, _)| r),
                );
                rows
            }
        };
        for column in &mut self.computed {
            *column = column.filter(mask);
        }
        self.selection = Some(selection);
    }

    /// Stores a computed column over column `out`, or appends it.
    fn put(&mut self, out: Option<usize>, batch: ValueBatch) {
        self.computed.push(Column::from_batch(batch));
        let src = Src::Computed(self.computed.len() - 1);
        match out {
            Some(i) => self.columns[i] = src,
            None => self.columns.push(src),
        }
    }
}

/// A multiply or divide operand over a morsel, resolved as the one-operator
/// kernels resolve it: a column by name, or a literal broadcast.
fn operand(schema: &Schema, src: &dyn ColumnSource, operand: &Operand) -> EngineResult<ValueBatch> {
    match operand {
        Operand::Col(c) => Ok(load_column(src, col_idx(schema, c)?)),
        Operand::Lit(v) => Ok(ValueBatch::Splat(v.clone(), src.batch_rows())),
    }
}

/// A [`ColumnSource`] over a morsel's selected rows: each column an
/// expression names, as a column and the rows of it to read.
struct Window<'c> {
    rows: usize,
    columns: Vec<Option<(&'c Column, Range<usize>)>>,
}

impl Window<'_> {
    fn slot(&self, col: usize) -> (&Column, Range<usize>) {
        let (column, rows) = self.columns[col]
            .as_ref()
            .expect("every column an expression names is served");
        (column, rows.clone())
    }
}

impl ColumnSource for Window<'_> {
    fn batch_rows(&self) -> usize {
        self.rows
    }

    fn batch(&self, col: usize) -> BatchRef<'_> {
        let (column, rows) = self.slot(col);
        column.window(rows)
    }

    fn batch_nulls(&self, col: usize) -> Option<&[bool]> {
        let (column, rows) = self.slot(col);
        column.window_nulls(rows)
    }
}

/// Where the morsels leaving the narrow steps go.
enum Sink<'t> {
    /// No tail: the stage's output, gathered once at the end.
    Rows {
        /// The selected input rows of every morsel, if any step filters.
        kept: Option<Vec<usize>>,
        /// Every morsel's computed columns, by step.
        computed: Vec<Vec<Column>>,
        /// The output's columns, once a morsel has come through.
        columns: Option<Vec<Src>>,
    },
    /// A scalar aggregate's accumulator, once a row has come through.
    Scalar {
        func: AggFunc,
        over: Option<usize>,
        acc: Option<Value>,
    },
    /// A grouped aggregate's table.
    Groups {
        keys: &'t [usize],
        func: AggFunc,
        over: Option<usize>,
        table: Groups,
    },
    /// A distinct's first-seen rows.
    Distinct {
        columns: &'t [usize],
        seen: HashSet<Vec<Value>>,
        rows: Vec<Vec<Value>>,
    },
}

impl<'t> Sink<'t> {
    fn new(tail: Option<&'t Tail>, filters: bool) -> Sink<'t> {
        match tail {
            None => Sink::Rows {
                kept: filters.then(Vec::new),
                computed: Vec::new(),
                columns: None,
            },
            Some(Tail::Aggregate { keys, func, over }) if keys.is_empty() => Sink::Scalar {
                func: *func,
                over: *over,
                acc: None,
            },
            Some(Tail::Aggregate { keys, func, over }) => Sink::Groups {
                keys,
                func: *func,
                over: *over,
                table: Groups::new(keys),
            },
            Some(Tail::Distinct(columns)) => Sink::Distinct {
                columns,
                seen: HashSet::new(),
                rows: Vec::new(),
            },
        }
    }

    fn add(&mut self, morsel: Morsel<'_>) {
        match self {
            Sink::Rows {
                kept,
                computed,
                columns,
            } => {
                match (kept, &morsel.selection) {
                    (Some(kept), Some(rows)) => kept.extend_from_slice(rows),
                    (Some(kept), None) => kept.extend(morsel.window.clone()),
                    (None, _) => {}
                }
                let used = columns.get_or_insert_with(|| morsel.columns.clone());
                computed.resize_with(morsel.computed.len(), Vec::new);
                for (k, column) in morsel.computed.into_iter().enumerate() {
                    if used.contains(&Src::Computed(k)) {
                        computed[k].push(column);
                    }
                }
            }
            Sink::Scalar { func, over, acc } => scalar_add(acc, &morsel, *func, *over),
            Sink::Groups {
                keys,
                func,
                over,
                table,
            } => table.add(&morsel, keys, *func, *over),
            Sink::Distinct {
                columns,
                seen,
                rows,
            } => {
                for j in 0..morsel.len() {
                    let row: Vec<Value> = columns.iter().map(|&c| morsel.value(j, c)).collect();
                    if !seen.contains(&row) {
                        seen.insert(row.clone());
                        rows.push(row);
                    }
                }
            }
        }
    }

    fn finish(
        self,
        schema: Schema,
        input: &ColumnarRelation,
        range: Range<usize>,
    ) -> EngineResult<ColumnarRelation> {
        let columns = match self {
            Sink::Rows {
                kept,
                computed,
                columns,
            } => {
                let Some(columns) = columns else {
                    return Ok(ColumnarRelation::empty(schema));
                };
                columns
                    .iter()
                    .map(|src| match (*src, &kept) {
                        (Src::Input(i), Some(kept)) => input.column(i).gather(kept),
                        (Src::Input(i), None) => input.column(i).slice(range.start, range.end),
                        (Src::Computed(k), _) => {
                            Column::concat(&computed[k].iter().collect::<Vec<_>>())
                        }
                    })
                    .collect()
            }
            Sink::Scalar { func, acc, .. } => {
                let value = match (acc, func) {
                    (Some(value), _) => value,
                    (None, AggFunc::Count | AggFunc::Sum) => Value::Int(0),
                    (None, AggFunc::Min | AggFunc::Max) => Value::Null,
                };
                vec![Column::from_values(vec![value])]
            }
            Sink::Groups { keys, table, .. } => table.finish(keys.len()),
            Sink::Distinct { columns, rows, .. } => (0..columns.len())
                .map(|c| Column::from_values(rows.iter().map(|row| row[c].clone()).collect()))
                .collect(),
        };
        ColumnarRelation::with_columns(schema, columns)
    }
}

/// Folds a morsel into a scalar aggregate, row by row in the row engine's
/// order and coercions (a sum starts from `Int(0)`; `MIN` keeps the first of
/// equal values, `MAX` the last).
fn scalar_add(acc: &mut Option<Value>, morsel: &Morsel<'_>, func: AggFunc, over: Option<usize>) {
    let rows = morsel.len();
    let column = || over.expect("sum, min and max have an over column");
    match func {
        AggFunc::Count => {
            let counted = match acc {
                Some(Value::Int(n)) => *n,
                _ => 0,
            };
            *acc = Some(Value::Int(counted + rows as i64));
        }
        AggFunc::Sum => {
            let c = column();
            let sum = acc.get_or_insert(Value::Int(0));
            match (&*sum, morsel.ints(c)) {
                // Wrapping integer addition is associative: add the morsel's
                // sum.
                (Value::Int(total), Some(ints)) => {
                    let total = ints.iter().fold(*total, |t, &v| t.wrapping_add(v));
                    *sum = Value::Int(total);
                }
                _ => {
                    for j in 0..rows {
                        *sum = sum.add(&morsel.value(j, c));
                    }
                }
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let c = column();
            let min = func == AggFunc::Min;
            let replaces = |v: &Value, best: &Value| if min { v < best } else { v >= best };
            let mut keep = |v: Value| {
                *acc = Some(match acc.take() {
                    Some(best) if !replaces(&v, &best) => best,
                    _ => v,
                });
            };
            match morsel.ints(c) {
                // Equal integers are identical values: the morsel's extreme
                // stands for every row that holds it.
                Some(ints) if rows > 0 => {
                    let extreme = if min {
                        ints.iter().min()
                    } else {
                        ints.iter().max()
                    };
                    keep(Value::Int(*extreme.expect("a non-empty morsel")));
                }
                _ => {
                    for j in 0..rows {
                        keep(morsel.value(j, c));
                    }
                }
            }
        }
    }
}

/// A grouped aggregate's table, which lives across morsels. Groups keep the
/// order their keys were first seen in.
enum Groups {
    /// One null-free integer key, over a null-free integer column or none:
    /// typed slots, the keys hashed with a key drawn for this table.
    Ints {
        slots: HashMap<i64, usize, IntKeys>,
        keys: Vec<i64>,
        accs: Vec<i64>,
    },
    /// Any other grouping: `Value` keys and accumulators, with the row
    /// engine's coercions (nulls poison sums, floats promote, `NULL` sorts
    /// below everything for min/max).
    Values {
        slots: HashMap<Vec<Value>, usize>,
        keys: Vec<Vec<Value>>,
        accs: Vec<Value>,
    },
}

impl Groups {
    fn new(keys: &[usize]) -> Groups {
        if keys.len() == 1 {
            Groups::Ints {
                slots: HashMap::with_hasher(IntKeys::new()),
                keys: Vec::new(),
                accs: Vec::new(),
            }
        } else {
            Groups::Values {
                slots: HashMap::new(),
                keys: Vec::new(),
                accs: Vec::new(),
            }
        }
    }

    fn add(&mut self, morsel: &Morsel<'_>, key_cols: &[usize], func: AggFunc, over: Option<usize>) {
        if let Groups::Ints { slots, keys, accs } = self {
            let typed = match over.map(|o| morsel.ints(o)) {
                Some(None) => None,
                vals => morsel.ints(key_cols[0]).map(|k| (k, vals.flatten())),
            };
            if let Some((group, vals)) = typed {
                let typed = (slots, keys, accs);
                let vals = vals.as_deref();
                match func {
                    AggFunc::Count => fold_ints(typed, &group, vals, 0, |n, _| n + 1),
                    AggFunc::Sum => fold_ints(typed, &group, vals, 0, i64::wrapping_add),
                    AggFunc::Min => fold_ints(typed, &group, vals, i64::MAX, i64::min),
                    AggFunc::Max => fold_ints(typed, &group, vals, i64::MIN, i64::max),
                }
                return;
            }
            // A morsel the typed slots cannot take: carry the groups so far
            // over to `Value` slots (every typed group has seen a row, so its
            // accumulator is a real value) and go on there.
            let promoted = Groups::Values {
                slots: keys
                    .iter()
                    .enumerate()
                    .map(|(slot, &k)| (vec![Value::Int(k)], slot))
                    .collect(),
                keys: keys.iter().map(|&k| vec![Value::Int(k)]).collect(),
                accs: accs.iter().map(|&a| Value::Int(a)).collect(),
            };
            *self = promoted;
        }
        let Groups::Values { slots, keys, accs } = self else {
            unreachable!("promoted above")
        };
        for j in 0..morsel.len() {
            let key: Vec<Value> = key_cols.iter().map(|&c| morsel.value(j, c)).collect();
            let value = || morsel.value(j, over.expect("sum, min and max have an over column"));
            match slots.get(&key) {
                None => {
                    keys.push(key.clone());
                    slots.insert(key, accs.len());
                    // Each group is seeded from its first row, so min/max
                    // never need a sentinel that could be confused with a
                    // real NULL.
                    accs.push(match func {
                        AggFunc::Count => Value::Int(1),
                        AggFunc::Sum => Value::Int(0).add(&value()),
                        AggFunc::Min | AggFunc::Max => value(),
                    });
                }
                Some(&slot) => match func {
                    AggFunc::Count => {
                        accs[slot] = Value::Int(accs[slot].as_int().unwrap_or(0) + 1);
                    }
                    AggFunc::Sum => accs[slot] = accs[slot].add(&value()),
                    AggFunc::Min | AggFunc::Max => {
                        // Tie-breaking mirrors the row engine's
                        // Iterator::min/max: min keeps the first of equal
                        // elements (strict <), max keeps the last (>=) —
                        // observable when cells compare equal but differ
                        // (e.g. Int(2) vs Float(2.0)).
                        let v = value();
                        let replace = if func == AggFunc::Min {
                            v < accs[slot]
                        } else {
                            v >= accs[slot]
                        };
                        if replace {
                            accs[slot] = v;
                        }
                    }
                },
            }
        }
    }

    /// The key columns, then the aggregate's.
    fn finish(self, key_cols: usize) -> Vec<Column> {
        match self {
            Groups::Ints { keys, accs, .. } => vec![Column::ints(keys), Column::ints(accs)],
            Groups::Values { keys, accs, .. } => {
                let mut columns: Vec<Column> = (0..key_cols)
                    .map(|k| Column::from_values(keys.iter().map(|g| g[k].clone()).collect()))
                    .collect();
                columns.push(Column::from_values(accs));
                columns
            }
        }
    }
}

/// Folds a morsel's integer keys and values into typed slots, a new group
/// starting at `init`; without values (`COUNT`), `fold` sees 0.
fn fold_ints(
    (slots, keys, accs): (
        &mut HashMap<i64, usize, IntKeys>,
        &mut Vec<i64>,
        &mut Vec<i64>,
    ),
    group: &[i64],
    vals: Option<&[i64]>,
    init: i64,
    fold: impl Fn(i64, i64) -> i64,
) {
    let mut add = |k: i64, v: i64| {
        let slot = *slots.entry(k).or_insert_with(|| {
            keys.push(k);
            accs.push(init);
            accs.len() - 1
        });
        accs[slot] = fold(accs[slot], v);
    };
    match vals {
        Some(vals) => group.iter().zip(vals).for_each(|(&k, &v)| add(k, v)),
        None => group.iter().for_each(|&k| add(k, 0)),
    }
}
