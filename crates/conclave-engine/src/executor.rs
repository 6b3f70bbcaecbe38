//! The [`Executor`] trait: operator and stage execution over [`Table`]s.
//!
//! An executor evaluates a relational operator over [`Table`] inputs and
//! produces a [`Table`] output *in its native representation*: the row
//! engine returns row-backed tables, the vectorized engine returns
//! column-backed tables, and so does the data-parallel engine in
//! `conclave-parallel`, whose tasks run the vectorized engine. Because tables
//! convert lazily and cache the result, chaining same-representation
//! executors incurs zero conversions — the property the driver's conversion
//! counter asserts.
//!
//! An executor also runs a *stage* ([`Executor::execute_stage`]): a chain of
//! single-input operators, of which only the last one's output is returned.
//! The row engine runs it one operator at a time; the vectorized and
//! data-parallel engines run a chain of narrow operators ending in at most
//! one aggregate or distinct as one pass ([`crate::stage`]).
//!
//! Executors also estimate the *simulated* wall-clock time of a step, so the
//! driver can charge cluster-like costs regardless of the host machine.

use crate::cost::SequentialCostModel;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::stage::{Pipeline, StageOutput, StepShape};
use crate::table::Table;
use crate::{exec, vexec, EngineMode};
use conclave_ir::ops::Operator;
use conclave_ir::schema::Schema;
use std::time::Duration;

/// Executes relational operators, one at a time or chained as a stage, over
/// the unified [`Table`] data plane. Implemented by the sequential row engine ([`RowExecutor`]), the
/// vectorized columnar engine ([`ColumnarExecutor`]) and `conclave-parallel`'s
/// `ParallelEngine`.
pub trait Executor {
    /// Evaluates one operator over the inputs, producing the output table in
    /// this executor's native representation.
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError>;

    /// Runs a stage: `ops` is a chain of single-input operators, the first
    /// consuming `input` and each later one the output of the one before.
    /// Returns the last operator's output and every operator's output shape,
    /// in chain order. The default runs the operators one at a time; an
    /// executor that fuses a chain must give exactly what that gives, errors
    /// included.
    fn execute_stage(&self, ops: &[&Operator], input: &Table) -> EngineResult<StageOutput> {
        one_at_a_time(self, ops, input)
    }

    /// Simulated wall-clock time of the step, from cardinalities. `row_bytes`
    /// is the (maximum) serialized row width of the inputs, which cluster
    /// cost models use to price shuffles.
    fn estimate(
        &self,
        op: &Operator,
        input_rows: u64,
        output_rows: u64,
        row_bytes: u64,
    ) -> Duration;

    /// [`Executor::estimate`] with the cardinality/row-width preamble derived
    /// from the inputs' row counts and schemas — the one place that
    /// heuristic lives.
    fn estimate_shapes(
        &self,
        op: &Operator,
        inputs: &[(usize, &Schema)],
        output_rows: u64,
    ) -> Duration {
        let input_rows: u64 = inputs.iter().map(|&(rows, _)| rows as u64).sum();
        let row_bytes = inputs
            .iter()
            .map(|(_, schema)| schema.row_byte_size() as u64)
            .max()
            .unwrap_or(16);
        self.estimate(op, input_rows, output_rows, row_bytes)
    }

    /// [`Executor::estimate_shapes`] of the input tables themselves.
    fn estimate_tables(&self, op: &Operator, inputs: &[&Table], output_rows: u64) -> Duration {
        let shapes: Vec<(usize, &Schema)> =
            inputs.iter().map(|t| (t.num_rows(), t.schema())).collect();
        self.estimate_shapes(op, &shapes, output_rows)
    }

    /// Short human-readable name for reports and logs.
    fn name(&self) -> &'static str;
}

/// Runs a stage one operator at a time through `exec`'s
/// [`Executor::execute`]: [`Executor::execute_stage`]'s default, and what a
/// fused stage is held to.
pub fn one_at_a_time<E: Executor + ?Sized>(
    exec: &E,
    ops: &[&Operator],
    input: &Table,
) -> EngineResult<StageOutput> {
    let mut output = input.clone();
    let mut steps = Vec::with_capacity(ops.len());
    for op in ops {
        output = exec.execute(op, &[&output])?;
        steps.push(StepShape {
            rows: output.num_rows(),
            schema: output.schema().clone(),
        });
    }
    Ok(StageOutput { output, steps })
}

/// The sequential row-at-a-time executor (the paper's "sequential Python"
/// stand-in): operators evaluate over `Vec<Vec<Value>>` rows.
#[derive(Debug, Clone, Default)]
pub struct RowExecutor {
    cost: SequentialCostModel,
}

impl RowExecutor {
    /// Creates a row executor with the default sequential cost model.
    pub fn new() -> Self {
        RowExecutor::default()
    }
}

impl Executor for RowExecutor {
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> EngineResult<Table> {
        let rows: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
        exec::execute(op, &rows).map(Table::from_rows)
    }

    fn estimate(
        &self,
        op: &Operator,
        input_rows: u64,
        output_rows: u64,
        _row_bytes: u64,
    ) -> Duration {
        self.cost.estimate(op, input_rows, output_rows)
    }

    fn name(&self) -> &'static str {
        "sequential-row"
    }
}

/// The sequential vectorized executor: operators evaluate one typed column
/// at a time and results stay columnar; a stage runs as one pass
/// ([`Pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct ColumnarExecutor {
    cost: SequentialCostModel,
}

impl ColumnarExecutor {
    /// Creates a columnar executor with the default sequential cost model.
    pub fn new() -> Self {
        ColumnarExecutor::default()
    }
}

impl Executor for ColumnarExecutor {
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> EngineResult<Table> {
        let cols: Vec<&crate::columnar::ColumnarRelation> =
            inputs.iter().map(|t| t.as_columns()).collect();
        vexec::execute_columnar(op, &cols).map(Table::from_columns)
    }

    fn execute_stage(&self, ops: &[&Operator], input: &Table) -> EngineResult<StageOutput> {
        let columns = input.as_columns();
        let Some(pipeline) = Pipeline::new(ops, &columns.schema) else {
            return one_at_a_time(self, ops, input);
        };
        let part = pipeline.run_whole(columns)?;
        Ok(StageOutput {
            steps: pipeline.shapes(&part.rows),
            output: Table::from_columns(part.output),
        })
    }

    fn estimate(
        &self,
        op: &Operator,
        input_rows: u64,
        output_rows: u64,
        _row_bytes: u64,
    ) -> Duration {
        self.cost.estimate(op, input_rows, output_rows)
    }

    fn name(&self) -> &'static str {
        "sequential-columnar"
    }
}

/// The sequential executor matching an [`EngineMode`].
pub fn sequential_executor(mode: EngineMode) -> Box<dyn Executor + Send + Sync> {
    match mode {
        EngineMode::Row => Box::new(RowExecutor::new()),
        EngineMode::Columnar => Box::new(ColumnarExecutor::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::AggFunc;

    fn table() -> Table {
        Table::from_rows(Relation::from_ints(
            &["k", "v"],
            &[vec![1, 10], vec![2, 0], vec![1, 5]],
        ))
    }

    fn ops() -> Vec<Operator> {
        vec![
            Operator::Filter {
                predicate: Expr::col("v").gt(Expr::lit(0)),
            },
            Operator::Aggregate {
                group_by: vec!["k".into()],
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
            },
            Operator::Project {
                columns: vec!["v".into()],
            },
        ]
    }

    #[test]
    fn row_and_columnar_executors_agree_and_keep_native_layout() {
        let t = table();
        let row_exec = RowExecutor::new();
        let col_exec = ColumnarExecutor::new();
        for op in ops() {
            let r = row_exec.execute(&op, &[&t]).unwrap();
            let c = col_exec.execute(&op, &[&t]).unwrap();
            assert!(r.has_rows() && !r.has_columns(), "{op}: row-native output");
            assert!(
                c.has_columns() && !c.has_rows(),
                "{op}: columnar-native output"
            );
            assert!(
                r.as_rows().same_rows_unordered(c.as_rows()),
                "{op}: engines disagree"
            );
        }
    }

    #[test]
    fn chained_columnar_execution_converts_only_at_the_input() {
        let t = table();
        let exec = ColumnarExecutor::new();
        let filtered = exec.execute(&ops()[0], &[&t]).unwrap();
        let aggregated = exec.execute(&ops()[1], &[&filtered]).unwrap();
        // The input table converted once; intermediates never did.
        assert_eq!(t.conversion_counts().row_to_columnar, 1);
        assert_eq!(filtered.conversion_counts().total(), 0);
        assert_eq!(aggregated.conversion_counts().total(), 0);
    }

    #[test]
    fn estimates_and_names() {
        let row_exec = sequential_executor(EngineMode::Row);
        let col_exec = sequential_executor(EngineMode::Columnar);
        assert_eq!(row_exec.name(), "sequential-row");
        assert_eq!(col_exec.name(), "sequential-columnar");
        let op = &ops()[1];
        assert!(row_exec.estimate(op, 10_000, 50, 16) > Duration::ZERO);
        assert_eq!(
            row_exec.estimate(op, 10_000, 50, 16),
            col_exec.estimate(op, 10_000, 50, 16)
        );
    }

    #[test]
    fn errors_surface_through_the_trait() {
        let t = table();
        let exec = RowExecutor::new();
        let bad = Operator::Project {
            columns: vec!["zzz".into()],
        };
        assert!(matches!(
            exec.execute(&bad, &[&t]),
            Err(EngineError::UnknownColumn(_))
        ));
    }
}
