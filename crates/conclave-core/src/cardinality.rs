//! Cardinality propagation and analytic runtime estimation.
//!
//! The paper's figures sweep input sizes from ten records to 1.3 billion.
//! Executing a billion-row query in-process is not possible, so the benchmark
//! harness uses this module instead: it propagates estimated row counts
//! through the *compiled* plan (so every rewrite — push-down, hybrid
//! operators, sort elimination — changes the estimate exactly as it changes
//! real execution) and converts per-node work into modeled time. Every MPC
//! figure comes from the one price list, `MpcEngine::estimate_op_presorted`;
//! this module only walks the plan and adds the cleartext models for local
//! and STP steps. The result is a [`Modeled`], the struct a
//! [`crate::report::RunReport`] carries for an executed run.

use crate::config::{ConclaveConfig, LocalBackend};
use crate::plan::PhysicalPlan;
use crate::report::Modeled;
use conclave_engine::SequentialCostModel;
use conclave_ir::dag::NodeId;
use conclave_ir::error::{IrError, IrResult};
use conclave_ir::ops::{ExecSite, Operator};
use conclave_mpc::backend::MpcEngine;
use conclave_parallel::ClusterCostModel;
use std::collections::HashMap;
use std::time::Duration;

/// Statistical knobs describing the workload, used to estimate intermediate
/// cardinalities.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadStats {
    /// Fraction of rows that survive a filter.
    pub filter_selectivity: f64,
    /// Output rows of a join as a fraction of the smaller input.
    pub join_selectivity: f64,
    /// Number of distinct group-by keys as a fraction of the input rows
    /// (capped at 1.0); determines aggregation output sizes.
    pub distinct_key_ratio: f64,
    /// Absolute cap on the number of distinct group-by keys, if known (e.g.
    /// the number of companies or ZIP codes).
    pub max_groups: Option<u64>,
}

impl Default for WorkloadStats {
    fn default() -> Self {
        WorkloadStats {
            filter_selectivity: 0.9,
            join_selectivity: 1.0,
            distinct_key_ratio: 0.1,
            max_groups: None,
        }
    }
}

impl WorkloadStats {
    fn groups_for(&self, rows: u64) -> u64 {
        let by_ratio = ((rows as f64) * self.distinct_key_ratio).ceil().max(1.0) as u64;
        match self.max_groups {
            Some(cap) => by_ratio.min(cap).max(1),
            None => by_ratio,
        }
    }
}

/// An analytic end-to-end runtime estimate for one plan and input size.
#[derive(Debug, Clone, Default)]
pub struct RuntimeEstimate {
    /// What the cost model charges for the estimated cardinalities.
    pub modeled: Modeled,
    /// Estimated rows per node.
    pub rows: HashMap<NodeId, u64>,
    /// Whether the MPC backend would fail (garbled-circuit out-of-memory),
    /// and at which node.
    pub failure: Option<(NodeId, String)>,
}

impl RuntimeEstimate {
    /// Returns `true` if the estimated execution would not complete (backend
    /// failure such as out-of-memory).
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Propagates cardinalities through a compiled plan and estimates runtime.
#[derive(Debug)]
pub struct CardinalityEstimator {
    config: ConclaveConfig,
    stats: WorkloadStats,
    mpc: MpcEngine,
    cluster_cost: ClusterCostModel,
    sequential_cost: SequentialCostModel,
}

impl CardinalityEstimator {
    /// Creates an estimator for a configuration and workload description.
    pub fn new(config: ConclaveConfig, stats: WorkloadStats) -> Self {
        let mpc = MpcEngine::new(config.mpc);
        CardinalityEstimator {
            config,
            stats,
            mpc,
            cluster_cost: ClusterCostModel::default(),
            sequential_cost: SequentialCostModel::default(),
        }
    }

    /// Estimates the output cardinality of one operator.
    fn output_rows(&self, op: &Operator, input_rows: &[u64]) -> u64 {
        let n: u64 = input_rows.iter().sum();
        match op {
            Operator::Input { .. } => n,
            Operator::Filter { .. } => ((n as f64) * self.stats.filter_selectivity).ceil() as u64,
            Operator::Join { .. } | Operator::HybridJoin { .. } | Operator::PublicJoin { .. } => {
                let smaller = input_rows.iter().copied().min().unwrap_or(0);
                ((smaller as f64) * self.stats.join_selectivity).ceil() as u64
            }
            Operator::Aggregate { group_by, .. } | Operator::HybridAggregate { group_by, .. } => {
                if group_by.is_empty() {
                    1
                } else {
                    self.stats.groups_for(n)
                }
            }
            Operator::Distinct { .. } => self.stats.groups_for(n),
            Operator::DistinctCount { .. } => 1,
            Operator::Limit { n: limit } => n.min(*limit as u64),
            _ => n,
        }
    }

    /// Estimates the end-to-end runtime of a plan given per-input row counts
    /// (keyed by the input relation names of the query). An input the map
    /// does not name is an error, not zero rows.
    pub fn estimate(
        &self,
        plan: &PhysicalPlan,
        input_rows: &HashMap<String, u64>,
    ) -> IrResult<RuntimeEstimate> {
        let mut est = RuntimeEstimate::default();
        let order = plan.dag.topo_order()?;
        let mut has_mpc_job = false;
        // Sibling hybrid aggregations are one call, priced at its head; the
        // other members' inputs and work are the head's.
        let hybrid_groups = plan.hybrid_aggregate_groups()?;
        let priced_at_head: Vec<NodeId> = hybrid_groups
            .values()
            .flat_map(|group| group.members[1..].iter().copied())
            .collect();
        for id in order {
            let node = plan.dag.node(id)?;
            let in_rows: Vec<u64> = node
                .inputs
                .iter()
                .map(|i| est.rows.get(i).copied().unwrap_or(0))
                .collect();
            let in_cols: Vec<u64> = node
                .inputs
                .iter()
                .filter_map(|i| plan.dag.node(*i).ok())
                .map(|n| n.schema.len() as u64)
                .collect();
            let out_rows = match &node.op {
                Operator::Input { name, .. } => *input_rows
                    .get(name)
                    .ok_or_else(|| IrError::UnboundInput(name.clone()))?,
                op => self.output_rows(op, &in_rows),
            };
            est.rows.insert(id, out_rows);
            if est.failure.is_some() {
                continue;
            }
            let n_in: u64 = in_rows.iter().sum();
            if priced_at_head.contains(&id) {
                continue;
            }

            match node.site {
                ExecSite::Local(party) => {
                    let row_bytes = node.schema.row_byte_size() as u64;
                    let t = self.local_time(&node.op, n_in, out_rows, row_bytes);
                    *est.modeled.local_time.entry(party).or_default() += t;
                }
                ExecSite::Mpc => {
                    has_mpc_job = true;
                    let presorted = plan.aggregate_is_presorted(id);
                    let priced = match (&node.op, hybrid_groups.get(&id)) {
                        (Operator::HybridAggregate { group_by, .. }, Some(group)) => Ok(self
                            .mpc
                            .estimate_hybrid_aggregate(group_by, &group.lanes, n_in, out_rows)),
                        (op, _) => self
                            .mpc
                            .estimate_op_presorted(op, &in_rows, &in_cols, out_rows, presorted),
                    };
                    match priced {
                        Ok(stats) => {
                            est.modeled.charge_mpc(&stats);
                            est.modeled.stp_time += self.stp_time(&node.op, n_in, out_rows);
                        }
                        // E.g. the garbled-circuit out-of-memory cliff.
                        Err(e) => est.failure = Some((id, e.to_string())),
                    }
                }
                ExecSite::Undecided => {}
            }

            // Data crossing the MPC frontier pays sharing / opening costs. A
            // hybrid protocol shares its inputs itself, as its price says,
            // and a public join's helper computes its result in the clear,
            // so nothing is opened when a cleartext node reads it.
            for (idx, &input) in node.inputs.iter().enumerate() {
                let parent = plan.dag.node(input)?;
                let cols = parent.schema.len() as u64;
                if node.site.is_mpc() && parent.site.is_cleartext() && !node.op.is_hybrid() {
                    let stats = self.mpc.estimate_input(in_rows[idx], cols);
                    est.modeled.charge_mpc(&stats);
                } else if node.site.is_cleartext()
                    && parent.site.is_mpc()
                    && !matches!(parent.op, Operator::PublicJoin { .. })
                {
                    let stats = self.mpc.estimate_open(in_rows[idx], cols);
                    est.modeled.charge_mpc(&stats);
                }
            }
        }
        // Fixed per-job overheads: one MPC session plus (for the parallel
        // backend) one cluster job per party that does local work.
        if has_mpc_job {
            est.modeled.mpc_time += Duration::from_secs_f64(self.config.mpc.ss_cost.job_overhead);
        }
        if self.config.local_backend == LocalBackend::Parallel {
            for t in est.modeled.local_time.values_mut() {
                *t += Duration::from_secs_f64(self.cluster_cost.job_overhead);
            }
        }
        Ok(est)
    }

    fn local_time(&self, op: &Operator, in_rows: u64, out_rows: u64, row_bytes: u64) -> Duration {
        match self.config.local_backend {
            LocalBackend::Parallel => {
                self.cluster_cost
                    .estimate(&self.config.cluster, op, in_rows, out_rows, row_bytes)
            }
            LocalBackend::Sequential => self.sequential_cost.estimate(op, in_rows, out_rows),
        }
    }

    /// The cleartext step a hybrid protocol hands to its STP / helper.
    fn stp_time(&self, op: &Operator, in_rows: u64, out_rows: u64) -> Duration {
        let join_on_key = || Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        match op {
            // The STP joins the revealed key columns in the clear.
            Operator::HybridJoin { .. } => {
                self.sequential_cost
                    .estimate(&join_on_key(), in_rows, out_rows)
            }
            // The helper joins the exchanged key columns on its own backend.
            Operator::PublicJoin { .. } => self.local_time(&join_on_key(), in_rows, out_rows, 16),
            // The STP sorts in the clear, once per revealed group-by column.
            Operator::HybridAggregate { group_by, .. } => {
                let sort = Operator::SortBy {
                    column: "k".into(),
                    ascending: true,
                };
                self.sequential_cost.estimate(&sort, in_rows, in_rows) * group_by.len() as u32
            }
            _ => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

    fn market_query() -> conclave_ir::builder::Query {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let pc = Party::new(3, "c");
        let schema = Schema::ints(&["companyID", "price"]);
        let mut q = QueryBuilder::new();
        let a = q.input("inputA", schema.clone(), pa.clone());
        let b = q.input("inputB", schema.clone(), pb);
        let c = q.input("inputC", schema, pc);
        let taxi = q.concat(&[a, b, c]);
        let proj = q.project(taxi, &["companyID", "price"]);
        let rev = q.aggregate(proj, "local_rev", AggFunc::Sum, &["companyID"], "price");
        q.collect(rev, &[pa]);
        q.build().unwrap()
    }

    fn inputs(n: u64) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        m.insert("inputA".to_string(), n / 3);
        m.insert("inputB".to_string(), n / 3);
        m.insert("inputC".to_string(), n - 2 * (n / 3));
        m
    }

    fn stats() -> WorkloadStats {
        WorkloadStats {
            max_groups: Some(12),
            ..Default::default()
        }
    }

    #[test]
    fn conclave_scales_where_mpc_only_does_not() {
        // Figure 4's shape: at 100 k records the MPC-only plan already takes
        // hours, while Conclave stays in the minutes range even at 100 M.
        let query = market_query();
        let conclave_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let conclave = CardinalityEstimator::new(ConclaveConfig::standard(), stats());
        let mpc_only = CardinalityEstimator::new(ConclaveConfig::mpc_only(), stats());

        let c_100m = conclave
            .estimate(&conclave_plan, &inputs(100_000_000))
            .unwrap();
        assert!(!c_100m.failed());
        assert!(
            c_100m.modeled.total_time().as_secs_f64() < 1_800.0,
            "Conclave at 100 M rows should stay under 30 min, got {:.0} s",
            c_100m.modeled.total_time().as_secs_f64()
        );

        let m_100k = mpc_only.estimate(&mpc_plan, &inputs(100_000)).unwrap();
        assert!(
            m_100k.modeled.total_time().as_secs_f64() > 900.0,
            "MPC-only at 100 k rows should be far beyond Figure 4's plotted range, got {:.0} s",
            m_100k.modeled.total_time().as_secs_f64()
        );
        let m_1m = mpc_only.estimate(&mpc_plan, &inputs(1_000_000)).unwrap();
        assert!(
            m_1m.modeled.total_time().as_secs_f64() > 2.0 * 3_600.0,
            "MPC-only at 1 M rows should exceed the two-hour cutoff, got {:.0} s",
            m_1m.modeled.total_time().as_secs_f64()
        );
        // And the gap at the same size is enormous.
        let c_100k = conclave.estimate(&conclave_plan, &inputs(100_000)).unwrap();
        assert!(m_100k.modeled.total_time() > c_100k.modeled.total_time() * 10);
    }

    #[test]
    fn estimates_grow_monotonically_with_input_size() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let est = CardinalityEstimator::new(ConclaveConfig::standard(), stats());
        let mut last = Duration::ZERO;
        for n in [1_000u64, 100_000, 10_000_000, 1_000_000_000] {
            let e = est.estimate(&plan, &inputs(n)).unwrap();
            assert!(
                e.modeled.total_time() >= last,
                "estimate should grow with n"
            );
            last = e.modeled.total_time();
        }
        // Even at 1 B rows the Conclave plan finishes within ~20 minutes
        // (Figure 4's headline result).
        assert!(
            last.as_secs_f64() < 2_400.0,
            "1 B rows should stay under ~40 min, got {:.0} s",
            last.as_secs_f64()
        );
    }

    #[test]
    fn hybrid_credit_plan_beats_mpc_only_estimate() {
        let regulator = Party::new(1, "gov");
        let bank_a = Party::new(2, "a");
        let bank_b = Party::new(3, "b");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
        ]);
        let bank = Schema::new(vec![
            ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
            ColumnDef::new("score", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let demographics = q.input("demographics", demo, regulator.clone());
        let s1 = q.input("scores1", bank.clone(), bank_a);
        let s2 = q.input("scores2", bank, bank_b);
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        q.collect(total, &[regulator]);
        let query = q.build().unwrap();

        let mut rows = HashMap::new();
        rows.insert("demographics".to_string(), 100_000u64);
        rows.insert("scores1".to_string(), 50_000);
        rows.insert("scores2".to_string(), 50_000);

        let wstats = WorkloadStats {
            max_groups: Some(100),
            ..Default::default()
        };
        let hybrid_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let hybrid = CardinalityEstimator::new(ConclaveConfig::standard(), wstats)
            .estimate(&hybrid_plan, &rows)
            .unwrap();
        let full = CardinalityEstimator::new(ConclaveConfig::mpc_only(), wstats)
            .estimate(&mpc_plan, &rows)
            .unwrap();
        assert!(
            hybrid.modeled.total_time() * 5 < full.modeled.total_time(),
            "hybrid {:.0} s vs full MPC {:.0} s",
            hybrid.modeled.total_time().as_secs_f64(),
            full.modeled.total_time().as_secs_f64()
        );
    }

    #[test]
    fn garbled_backend_reports_oom_at_scale() {
        let query = market_query();
        let config =
            ConclaveConfig::mpc_only().with_mpc(conclave_mpc::backend::MpcBackendConfig::obliv_c());
        let plan = compile(&query, &config).unwrap();
        let est = CardinalityEstimator::new(config, stats());
        let e = est.estimate(&plan, &inputs(10_000_000)).unwrap();
        assert!(e.failed(), "10 M rows should exceed the GC memory limit");
        assert!(e.failure.as_ref().unwrap().1.contains("memory"));
    }

    #[test]
    fn an_input_without_a_row_count_is_an_error_not_zero_rows() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let est = CardinalityEstimator::new(ConclaveConfig::standard(), stats());
        assert!(est.estimate(&plan, &inputs(3_000)).is_ok());
        let mut misspelt = inputs(3_000);
        let rows = misspelt.remove("inputB").unwrap();
        misspelt.insert("inputb".to_string(), rows);
        assert_eq!(
            est.estimate(&plan, &misspelt).unwrap_err(),
            IrError::UnboundInput("inputB".into())
        );
    }

    #[test]
    fn presorted_aggregation_is_priced_without_its_sort() {
        // sort → filter → aggregate on the sort key, all under MPC: the
        // compiler marks the aggregation's input sorted, and the estimate
        // drops exactly what `estimate_op` charges for the sort.
        let (pa, pb) = (Party::new(1, "a"), Party::new(2, "b"));
        let schema = Schema::ints(&["k", "v"]);
        let mut q = QueryBuilder::new();
        let a = q.input("ta", schema.clone(), pa.clone());
        let b = q.input("tb", schema, pb);
        let both = q.concat(&[a, b]);
        let sorted = q.sort_by(both, "k", true);
        let agg = q.aggregate(sorted, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        let query = q.build().unwrap();
        let mut config = ConclaveConfig::mpc_only();
        let unsorted_plan = compile(&query, &config).unwrap();
        config.use_sort_elimination = true;
        let plan = compile(&query, &config).unwrap();
        let agg_id = |p: &PhysicalPlan| {
            p.dag
                .iter()
                .find(|n| matches!(n.op, Operator::Aggregate { .. }))
                .unwrap()
                .id
        };
        assert!(plan.aggregate_is_presorted(agg_id(&plan)));
        assert!(!unsorted_plan.aggregate_is_presorted(agg_id(&unsorted_plan)));

        let rows: HashMap<String, u64> = [("ta".to_string(), 600), ("tb".to_string(), 400)].into();
        let est = CardinalityEstimator::new(config, stats());
        let with = est.estimate(&plan, &rows).unwrap().modeled;
        let without = est.estimate(&unsorted_plan, &rows).unwrap().modeled;
        let op = plan.dag.node(agg_id(&plan)).unwrap().op.clone();
        let price = |presorted| {
            est.mpc
                .estimate_op_presorted(&op, &[1_000], &[2], 12, presorted)
                .unwrap()
        };
        assert_eq!(
            without.mpc_time - with.mpc_time,
            price(false).simulated_time - price(true).simulated_time
        );
        assert_eq!(
            without.bytes - with.bytes,
            price(false).counts.bytes() - price(true).counts.bytes()
        );
    }

    #[test]
    fn an_aggregation_over_several_keys_is_never_presorted() {
        // Sorted by its first group-by key only, the input is not grouped by
        // (k, j): the aggregation keeps its lexicographic sort.
        let (pa, pb) = (Party::new(1, "a"), Party::new(2, "b"));
        let schema = Schema::ints(&["k", "j", "v"]);
        let mut q = QueryBuilder::new();
        let a = q.input("ta", schema.clone(), pa.clone());
        let b = q.input("tb", schema, pb);
        let both = q.concat(&[a, b]);
        let sorted = q.sort_by(both, "k", true);
        let agg = q.aggregate(sorted, "s", AggFunc::Sum, &["k", "j"], "v");
        q.collect(agg, &[pa]);
        let mut config = ConclaveConfig::mpc_only();
        config.use_sort_elimination = true;
        let plan = compile(&q.build().unwrap(), &config).unwrap();
        let agg = plan
            .dag
            .iter()
            .find(|n| matches!(n.op, Operator::Aggregate { .. }))
            .unwrap();
        let input = plan.dag.node(agg.inputs[0]).unwrap();
        assert_eq!(input.sorted_by.as_deref(), Some("k"));
        assert!(!plan.aggregate_is_presorted(agg.id));
    }

    #[test]
    fn workload_stats_group_cap() {
        let s = WorkloadStats {
            distinct_key_ratio: 0.5,
            max_groups: Some(10),
            ..Default::default()
        };
        assert_eq!(s.groups_for(1_000), 10);
        let s2 = WorkloadStats {
            distinct_key_ratio: 0.5,
            max_groups: None,
            ..Default::default()
        };
        assert_eq!(s2.groups_for(1_000), 500);
        assert_eq!(s2.groups_for(0), 1);
    }
}
