//! Cost model for the Spark-like data-parallel backend.
//!
//! Calibration anchors (Figure 1 and Figure 4 of the paper):
//!
//! * Spark runs single relational operators over tens of millions of records
//!   "in seconds" (Figure 1) — per-core throughput of roughly one million
//!   simple row operations per second plus fixed job overhead.
//! * Even on 10-row inputs, Spark jobs take a few seconds: scheduling,
//!   executor launch and stage setup dominate (the flat left-hand side of
//!   every Spark curve).
//! * In Figure 4 the insecure 9-node baseline completes the full market-
//!   concentration query over 1.3 billion records in roughly 15–20 minutes,
//!   i.e. ≈1.2–1.5 M rows/s across the cluster for a multi-operator query.

use crate::cluster::ClusterSpec;
use conclave_ir::ops::Operator;
use std::time::Duration;

/// Converts operator cardinalities into simulated cluster runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCostModel {
    /// Seconds of fixed overhead per job (driver/executor startup).
    pub job_overhead: f64,
    /// Seconds of fixed overhead per stage (scheduling a wave of tasks).
    pub stage_overhead: f64,
    /// Seconds per row per core for narrow transformations.
    pub per_row_narrow: f64,
    /// Seconds per row per core for wide transformations (hashing, shuffle
    /// serialization).
    pub per_row_wide: f64,
    /// Effective shuffle bandwidth of the whole cluster, bytes per second.
    pub shuffle_bandwidth_bps: f64,
}

impl Default for ClusterCostModel {
    fn default() -> Self {
        ClusterCostModel {
            job_overhead: 4.0,
            stage_overhead: 0.5,
            per_row_narrow: 0.8e-6,
            per_row_wide: 2.5e-6,
            shuffle_bandwidth_bps: 250.0e6,
        }
    }
}

impl ClusterCostModel {
    /// Estimates the runtime of one operator over `input_rows` rows of
    /// `row_bytes`-wide rows on the given cluster.
    pub fn estimate(
        &self,
        cluster: &ClusterSpec,
        op: &Operator,
        input_rows: u64,
        output_rows: u64,
        row_bytes: u64,
    ) -> Duration {
        let cores = f64::from(cluster.total_cores());
        let n = input_rows as f64;
        let m = output_rows as f64;
        let secs = match op {
            // Narrow transformations: one stage, no shuffle.
            Operator::Project { .. }
            | Operator::Filter { .. }
            | Operator::Multiply { .. }
            | Operator::Divide { .. }
            | Operator::Concat
            | Operator::Limit { .. }
            | Operator::Enumerate { .. }
            | Operator::Collect { .. } => self.stage_overhead + n * self.per_row_narrow / cores,
            // Wide transformations: shuffle the input by key, then reduce.
            Operator::Join { .. }
            | Operator::PublicJoin { .. }
            | Operator::HybridJoin { .. }
            | Operator::Aggregate { .. }
            | Operator::HybridAggregate { .. }
            | Operator::Distinct { .. }
            | Operator::DistinctCount { .. }
            | Operator::SortBy { .. } => {
                let shuffle_bytes = (n + m) * row_bytes as f64;
                2.0 * self.stage_overhead
                    + (n + m) * self.per_row_wide / cores
                    + shuffle_bytes / self.shuffle_bandwidth_bps
            }
            Operator::Input { .. } => 0.0,
        };
        Duration::from_secs_f64(secs)
    }

    /// Estimates a whole local job: fixed job overhead plus the sum of its
    /// operator stages.
    pub fn estimate_job(
        &self,
        cluster: &ClusterSpec,
        steps: &[(Operator, u64, u64, u64)],
    ) -> Duration {
        let stages: f64 = steps
            .iter()
            .map(|(op, i, o, w)| self.estimate(cluster, op, *i, *o, *w).as_secs_f64())
            .sum();
        Duration::from_secs_f64(self.job_overhead + stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::AggFunc;

    fn agg() -> Operator {
        Operator::Aggregate {
            group_by: vec!["k".into()],
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        }
    }

    #[test]
    fn small_jobs_are_dominated_by_overhead() {
        let m = ClusterCostModel::default();
        let c = ClusterSpec::paper_party_cluster();
        let t = m.estimate_job(&c, &[(agg(), 10, 5, 16)]);
        // Figure 1: Spark takes a few seconds even on ten rows.
        assert!(t.as_secs_f64() > 2.0 && t.as_secs_f64() < 30.0);
    }

    #[test]
    fn ten_million_row_operator_runs_in_seconds_not_minutes() {
        let m = ClusterCostModel::default();
        let c = ClusterSpec::paper_party_cluster();
        let t = m.estimate_job(&c, &[(agg(), 10_000_000, 100_000, 16)]);
        assert!(
            t.as_secs_f64() < 120.0,
            "Spark should handle 10 M rows quickly, got {:.0} s",
            t.as_secs_f64()
        );
    }

    #[test]
    fn figure4_insecure_baseline_anchor() {
        // The full market-concentration query over 1.3 B records on the joint
        // 9-node cluster finishes in roughly 900–1500 s.
        let m = ClusterCostModel::default();
        let c = ClusterSpec::paper_insecure_cluster();
        let filter = Operator::Filter {
            predicate: Expr::col("price").gt(Expr::lit(0)),
        };
        let proj = Operator::Project {
            columns: vec!["companyID".into(), "price".into()],
        };
        let n: u64 = 1_300_000_000;
        let t = m.estimate_job(
            &c,
            &[(filter, n, n, 24), (proj, n, n, 16), (agg(), n, 1_000, 16)],
        );
        let secs = t.as_secs_f64();
        assert!(
            (300.0..3_000.0).contains(&secs),
            "insecure baseline at 1.3 B rows should take tens of minutes, got {secs:.0} s"
        );
    }

    #[test]
    fn more_cores_reduce_runtime() {
        let m = ClusterCostModel::default();
        let small = ClusterSpec::new(1, 2);
        let big = ClusterSpec::new(9, 2);
        let t_small = m.estimate(&big.clone(), &agg(), 50_000_000, 1_000, 16);
        let t_big = m.estimate(&small, &agg(), 50_000_000, 1_000, 16);
        assert!(t_small < t_big);
    }

    #[test]
    fn wide_ops_cost_more_than_narrow() {
        let m = ClusterCostModel::default();
        let c = ClusterSpec::default();
        let narrow = m.estimate(
            &c,
            &Operator::Project {
                columns: vec!["a".into()],
            },
            1_000_000,
            1_000_000,
            16,
        );
        let wide = m.estimate(&c, &agg(), 1_000_000, 1_000, 16);
        assert!(wide > narrow);
        let input = m.estimate(
            &c,
            &Operator::Input {
                name: "t".into(),
                party: 1,
            },
            1_000_000,
            1_000_000,
            16,
        );
        assert_eq!(input, Duration::ZERO);
    }
}
