//! A minimal SMCQL-style planner.
//!
//! SMCQL classifies each operator as *plain* (all inputs public or
//! single-party), *sliced* (partitionable on a public key) or *secure*
//! (everything else, run under the garbled-circuit backend). This planner
//! reproduces that classification and the resulting cost structure for the
//! two-party queries §7.4 benchmarks. It is intentionally simpler than the
//! Conclave compiler — that difference (no hybrid operators, no
//! secret-sharing backend, no sort elimination) is exactly what Figure 7
//! measures.

use conclave_ir::ops::{AggFunc, Operator};
use conclave_mpc::backend::{MpcBackendConfig, MpcEngine, MpcResult, MpcStepStats};
use std::time::Duration;

/// Configuration of the SMCQL baseline.
#[derive(Debug, Clone, Copy)]
pub struct SmcqlConfig {
    /// The garbled-circuit backend model (ObliVM by default).
    pub backend: MpcBackendConfig,
    /// Whether sliced execution is enabled (it is in the paper's SMCQL runs).
    pub use_slicing: bool,
}

impl Default for SmcqlConfig {
    fn default() -> Self {
        SmcqlConfig {
            backend: MpcBackendConfig::obliv_vm(),
            use_slicing: true,
        }
    }
}

/// Execution-mode classification for an SMCQL operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmcqlMode {
    /// Runs at one party in the clear.
    Plain,
    /// Runs per-slice: single-party slices in the clear, shared slices secure.
    Sliced,
    /// Runs entirely under the garbled-circuit backend.
    Secure,
}

/// The SMCQL baseline planner / cost estimator.
#[derive(Debug)]
pub struct SmcqlPlanner {
    config: SmcqlConfig,
    engine: MpcEngine,
}

impl SmcqlPlanner {
    /// Creates a planner with the given configuration.
    pub fn new(config: SmcqlConfig) -> Self {
        SmcqlPlanner {
            engine: MpcEngine::new(config.backend),
            config,
        }
    }

    /// Creates the default (ObliVM-backed, slicing enabled) planner.
    pub fn default_paper_setup() -> Self {
        Self::new(SmcqlConfig::default())
    }

    /// The planner's configuration.
    pub fn config(&self) -> &SmcqlConfig {
        &self.config
    }

    /// Access to the underlying garbled-circuit engine.
    pub fn engine(&mut self) -> &mut MpcEngine {
        &mut self.engine
    }

    /// Classifies a join on a key column: sliced if the key is public and
    /// slicing is enabled, secure otherwise.
    pub fn classify_join(&self, key_is_public: bool) -> SmcqlMode {
        if key_is_public && self.config.use_slicing {
            SmcqlMode::Sliced
        } else {
            SmcqlMode::Secure
        }
    }

    /// Classifies an aggregation on a private group-by column: SMCQL splits
    /// it into local partials plus a secure merge, so the secure part always
    /// remains.
    pub fn classify_aggregation(&self) -> SmcqlMode {
        SmcqlMode::Secure
    }

    /// Simulated time for a secure (garbled-circuit) join over `n × m` rows.
    /// SMCQL's per-slice joins are quadratic in the slice size.
    pub fn secure_join_time(&self, n: u64, m: u64, payload_cols: u64) -> MpcResult<Duration> {
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let stats = self
            .engine
            .estimate_op(&join, &[n, m], &[payload_cols, payload_cols], 0)?;
        Ok(stats.simulated_time)
    }

    /// Simulated time for a secure aggregation (bitonic sort + scan) over `n`
    /// rows.
    pub fn secure_aggregation_time(&self, n: u64) -> MpcResult<Duration> {
        let aggregate = Operator::Aggregate {
            group_by: vec!["k".into()],
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        };
        Ok(self
            .engine
            .estimate_op(&aggregate, &[n], &[2], 0)?
            .simulated_time)
    }

    /// Simulated time for a secure distinct / order-by over `n` rows.
    pub fn secure_sort_time(&self, n: u64) -> MpcResult<Duration> {
        self.secure_aggregation_time(n)
    }

    /// Executes an operator under the garbled-circuit backend for real (used
    /// by correctness tests at small scale).
    pub fn execute_secure(
        &mut self,
        op: &Operator,
        inputs: &[&conclave_engine::Relation],
    ) -> MpcResult<(conclave_engine::Relation, MpcStepStats)> {
        self.engine.execute_op(op, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_mpc::backend::{BackendKind, MpcError};
    use conclave_mpc::cost::GarbledCostModel;

    #[test]
    fn default_setup_uses_oblivm_and_slicing() {
        let p = SmcqlPlanner::default_paper_setup();
        assert_eq!(p.config().backend.kind, BackendKind::Garbled);
        assert_eq!(p.config().backend.gc_cost, GarbledCostModel::obliv_vm());
        assert!(p.config().use_slicing);
    }

    #[test]
    fn classification_rules() {
        let p = SmcqlPlanner::default_paper_setup();
        assert_eq!(p.classify_join(true), SmcqlMode::Sliced);
        assert_eq!(p.classify_join(false), SmcqlMode::Secure);
        assert_eq!(p.classify_aggregation(), SmcqlMode::Secure);
        let no_slicing = SmcqlPlanner::new(SmcqlConfig {
            use_slicing: false,
            ..Default::default()
        });
        assert_eq!(no_slicing.classify_join(true), SmcqlMode::Secure);
    }

    #[test]
    fn secure_join_is_quadratic_and_eventually_ooms() {
        let mut p = SmcqlPlanner::default_paper_setup();
        let t1 = p.secure_join_time(1_000, 1_000, 1).unwrap();
        let t2 = p.secure_join_time(2_000, 2_000, 1).unwrap();
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!(ratio > 3.0, "quadratic growth, got ratio {ratio}");
        // ObliVM's 32 GB VMs push the OOM point out, but it still exists —
        // and it is `estimate_op`'s cliff, not a second check kept here.
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let oom = p
            .engine()
            .estimate_op(&join, &[1_000_000, 1_000_000], &[1, 1], 0)
            .unwrap_err();
        assert!(matches!(oom, MpcError::OutOfMemory { needed, limit } if needed > limit));
        assert_eq!(p.secure_join_time(1_000_000, 1_000_000, 1), Err(oom));
    }

    #[test]
    fn secure_aggregation_slower_than_sharemind_equivalent() {
        // §7.4 (comorbidity): with the same pre-aggregation optimization, the
        // backend difference decides the gap; ObliVM is slower.
        let p = SmcqlPlanner::default_paper_setup();
        let n = 20_000u64;
        let oblivm = p.secure_aggregation_time(n).unwrap();
        let sharemind_engine = MpcEngine::new(MpcBackendConfig::sharemind());
        let sm = sharemind_engine
            .estimate_op(
                &conclave_ir::ops::Operator::Aggregate {
                    group_by: vec!["k".into()],
                    func: conclave_ir::ops::AggFunc::Sum,
                    over: Some("v".into()),
                    out: "s".into(),
                },
                &[n],
                &[2],
                n / 10,
            )
            .unwrap()
            .simulated_time;
        assert!(
            oblivm > sm,
            "ObliVM {:?} should be slower than Sharemind {:?}",
            oblivm,
            sm
        );
    }

    #[test]
    fn execute_secure_produces_correct_results() {
        let mut p = SmcqlPlanner::default_paper_setup();
        let rel = conclave_engine::Relation::from_ints(
            &["k", "v"],
            &[vec![1, 2], vec![1, 3], vec![2, 5]],
        );
        let op = conclave_ir::ops::Operator::Aggregate {
            group_by: vec!["k".into()],
            func: conclave_ir::ops::AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        };
        let (out, stats) = p.execute_secure(&op, &[&rel]).unwrap();
        let expected = conclave_engine::execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert!(stats.circuit.and_gates > 0);
    }
}
