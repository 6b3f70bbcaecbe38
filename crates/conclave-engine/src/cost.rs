//! Cost model for the sequential cleartext backend.
//!
//! The paper's experiments compare end-to-end runtimes of backends that we
//! cannot run here (multi-VM Spark clusters, Sharemind deployments). Every
//! engine crate therefore exposes a *cost model* that converts operator
//! cardinalities into simulated wall-clock time. The models are calibrated
//! against datapoints reported in the paper (§2.3 and §7) so that the
//! reproduced figures preserve the original shapes and crossovers.
//!
//! The sequential model corresponds to the prototype's fallback "sequential
//! Python" backend: roughly interpreter-speed row-at-a-time processing with
//! no job-startup overhead.

use conclave_ir::ops::Operator;
use std::time::Duration;

/// Cost model for single-threaded, interpreted cleartext execution.
#[derive(Debug, Clone)]
pub struct SequentialCostModel {
    /// Seconds of CPU time per row per simple operator (project, filter,
    /// arithmetic). Interpreted Python processes roughly 200k–500k rows/s per
    /// operator; we use 2.5 µs/row.
    pub per_row_simple: f64,
    /// Seconds per row for hash-based operators (join build/probe, group-by).
    pub per_row_hash: f64,
    /// Seconds per row for sorts (per comparison ~ log n factored in by the
    /// caller through `rows * log2(rows)`).
    pub per_row_sort: f64,
    /// Fixed per-operator startup overhead in seconds (process dispatch,
    /// file handling).
    pub op_overhead: f64,
}

impl Default for SequentialCostModel {
    fn default() -> Self {
        SequentialCostModel {
            per_row_simple: 2.5e-6,
            per_row_hash: 6.0e-6,
            per_row_sort: 1.0e-6,
            op_overhead: 0.05,
        }
    }
}

impl SequentialCostModel {
    /// Estimates the runtime of `op` given total input rows and output rows.
    pub fn estimate(&self, op: &Operator, input_rows: u64, output_rows: u64) -> Duration {
        let n = input_rows as f64;
        let m = output_rows as f64;
        let secs = match op {
            Operator::Project { .. }
            | Operator::Filter { .. }
            | Operator::Multiply { .. }
            | Operator::Divide { .. }
            | Operator::Concat
            | Operator::Limit { .. }
            | Operator::Enumerate { .. }
            | Operator::Shuffle
            | Operator::RevealTo { .. }
            | Operator::CloseTo
            | Operator::Open { .. }
            | Operator::Collect { .. }
            | Operator::ObliviousSelect { .. } => n * self.per_row_simple,
            Operator::Join { .. } | Operator::PublicJoin { .. } | Operator::HybridJoin { .. } => {
                (n + m) * self.per_row_hash
            }
            Operator::Aggregate { .. }
            | Operator::HybridAggregate { .. }
            | Operator::Distinct { .. }
            | Operator::DistinctCount { .. } => n * self.per_row_hash,
            Operator::SortBy { .. } | Operator::Merge { .. } => {
                n * self.per_row_sort * (n.max(2.0)).log2()
            }
            Operator::Input { .. } => 0.0,
        };
        Duration::from_secs_f64(secs + self.op_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::expr::Expr;

    fn model() -> SequentialCostModel {
        SequentialCostModel::default()
    }

    #[test]
    fn simple_ops_scale_linearly() {
        let m = model();
        let op = Operator::Project {
            columns: vec!["a".into()],
        };
        let t1 = m.estimate(&op, 100_000, 100_000);
        let t2 = m.estimate(&op, 1_000_000, 1_000_000);
        assert!(t2 > t1);
        // Linear in rows (minus fixed overhead).
        let d1 = t1.as_secs_f64() - m.op_overhead;
        let d2 = t2.as_secs_f64() - m.op_overhead;
        assert!((d2 / d1 - 10.0).abs() < 0.5);
    }

    #[test]
    fn joins_cost_more_than_projections() {
        let m = model();
        let p = m.estimate(
            &Operator::Project {
                columns: vec!["a".into()],
            },
            1_000_000,
            1_000_000,
        );
        let j = m.estimate(
            &Operator::Join {
                left_keys: vec!["a".into()],
                right_keys: vec!["a".into()],
                kind: conclave_ir::ops::JoinKind::Inner,
            },
            1_000_000,
            1_000_000,
        );
        assert!(j > p);
    }

    #[test]
    fn sorts_are_superlinear() {
        let m = model();
        let op = Operator::SortBy {
            column: "a".into(),
            ascending: true,
        };
        let t1 = m.estimate(&op, 1 << 20, 1 << 20).as_secs_f64() - m.op_overhead;
        let t2 = m.estimate(&op, 1 << 21, 1 << 21).as_secs_f64() - m.op_overhead;
        assert!(t2 / t1 > 2.0);
    }

    #[test]
    fn python_scale_anchor() {
        // Interpreted processing of 10 M rows through a filter should take on
        // the order of tens of seconds (not milliseconds, not hours).
        let m = model();
        let t = m.estimate(
            &Operator::Filter {
                predicate: Expr::col("a").gt(Expr::lit(0)),
            },
            10_000_000,
            10_000_000,
        );
        assert!(t.as_secs_f64() > 5.0 && t.as_secs_f64() < 300.0);
    }

    #[test]
    fn input_costs_only_overhead() {
        let m = model();
        let t = m.estimate(
            &Operator::Input {
                name: "t".into(),
                party: 1,
            },
            1_000_000,
            1_000_000,
        );
        assert!((t.as_secs_f64() - m.op_overhead).abs() < 1e-9);
    }
}
