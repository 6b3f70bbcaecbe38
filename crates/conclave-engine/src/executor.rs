//! The [`Executor`] trait: one operator-at-a-time execution over [`Table`]s.
//!
//! An executor evaluates a single relational operator over [`Table`] inputs
//! and produces a [`Table`] output *in its native representation*: the row
//! engine returns row-backed tables, the vectorized engine returns
//! column-backed tables, and so does the data-parallel engine in
//! `conclave-parallel`, whose tasks run the vectorized engine. Because tables
//! convert lazily and cache the result, chaining same-representation
//! executors incurs zero conversions — the property the driver's conversion
//! counter asserts.
//!
//! Executors also estimate the *simulated* wall-clock time of a step, so the
//! driver can charge cluster-like costs regardless of the host machine.

use crate::cost::SequentialCostModel;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::table::Table;
use crate::{exec, vexec, EngineMode};
use conclave_ir::ops::Operator;
use std::time::Duration;

/// Executes single relational operators over the unified [`Table`] data
/// plane. Implemented by the sequential row engine ([`RowExecutor`]), the
/// vectorized columnar engine ([`ColumnarExecutor`]) and `conclave-parallel`'s
/// `ParallelEngine`.
pub trait Executor {
    /// Evaluates one operator over the inputs, producing the output table in
    /// this executor's native representation.
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError>;

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
    /// from the input tables themselves — the one place that heuristic lives.
    fn estimate_tables(&self, op: &Operator, inputs: &[&Table], output_rows: u64) -> Duration {
        let input_rows: u64 = inputs.iter().map(|t| t.num_rows() as u64).sum();
        let row_bytes = inputs
            .iter()
            .map(|t| t.schema().row_byte_size() as u64)
            .max()
            .unwrap_or(16);
        self.estimate(op, input_rows, output_rows, row_bytes)
    }

    /// Short human-readable name for reports and logs.
    fn name(&self) -> &'static str;
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
/// at a time and results stay columnar.
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
