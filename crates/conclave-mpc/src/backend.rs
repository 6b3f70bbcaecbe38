//! The MPC backend's price list and its garbled-circuit executor.
//!
//! [`MpcEngine`] prices relational operators under one configured backend —
//! secret sharing (Sharemind-like) or garbled circuits (Obliv-C / ObliVM) —
//! into [`MpcStepStats`]: from executed primitive counts
//! ([`MpcEngine::stats_from_counts`]) or, by the *analytic estimators*, from
//! cardinalities alone, which reproduces the paper's figures at scales that
//! cannot run in-process (up to 10⁹ records). The estimators read each
//! oblivious operator's own count function in [`crate::operators`], so at
//! the executed output size an estimate equals the executed counts, as the
//! table test `estimates_equal_executed_counts` pins. It executes garbled
//! operators over cleartext inputs but no secret-sharing job: those run as
//! steps of `conclave_core`'s party runtime. The hybrid protocols borrow its
//! [`Protocol`].

use crate::cost::{
    gates, CircuitStats, GarbledCostModel, PrimitiveCounts, SecretShareCostModel,
    DIVIDE_COMPARISONS_PER_ROW,
};
use crate::engine::OpError;
use crate::operators::{self, lanes_read, AggLane};
use crate::protocol::Protocol;
use crate::relation::SharedRelation;
use conclave_engine::Relation;
use conclave_ir::ops::Operator;
use conclave_net::NetworkModel;
use std::fmt;
use std::time::Duration;

/// Which MPC framework the backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// Three-party additive secret sharing (Sharemind-like).
    SharemindLike,
    /// Two-party garbled circuits, as a cost model. Which framework it is
    /// calibrated to (Obliv-C, ObliVM) is [`MpcBackendConfig::gc_cost`].
    Garbled,
}

impl BackendKind {
    /// Number of computing parties the framework supports.
    pub fn parties(self) -> u32 {
        match self {
            BackendKind::SharemindLike => 3,
            BackendKind::Garbled => 2,
        }
    }

    /// Returns `true` for secret-sharing backends.
    pub fn is_secret_sharing(self) -> bool {
        matches!(self, BackendKind::SharemindLike)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendKind::SharemindLike => "sharemind-like",
            BackendKind::Garbled => "garbled-circuit",
        };
        f.write_str(s)
    }
}

/// Configuration of an MPC backend instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcBackendConfig {
    /// Framework being modelled.
    pub kind: BackendKind,
    /// Network model between the parties.
    pub network: NetworkModel,
    /// RNG seed for the sharing layer (determinism in tests and benches).
    pub seed: u64,
    /// Secret-sharing cost calibration.
    pub ss_cost: SecretShareCostModel,
    /// Garbled-circuit cost calibration.
    pub gc_cost: GarbledCostModel,
}

impl MpcBackendConfig {
    /// Default configuration for the given kind (a garbled one is priced as
    /// Obliv-C; see [`MpcBackendConfig::obliv_vm`] for the other calibration).
    pub fn new(kind: BackendKind) -> Self {
        MpcBackendConfig {
            kind,
            network: NetworkModel::lan(),
            seed: 0xC0C1A7E,
            ss_cost: SecretShareCostModel::default(),
            gc_cost: GarbledCostModel::obliv_c(),
        }
    }

    /// Sharemind-like defaults.
    pub fn sharemind() -> Self {
        Self::new(BackendKind::SharemindLike)
    }

    /// Obliv-C-like defaults.
    pub fn obliv_c() -> Self {
        Self::new(BackendKind::Garbled)
    }

    /// ObliVM-like defaults: the heavier runtime of the SMCQL comparison.
    pub fn obliv_vm() -> Self {
        MpcBackendConfig {
            gc_cost: GarbledCostModel::obliv_vm(),
            ..Self::new(BackendKind::Garbled)
        }
    }
}

impl Default for MpcBackendConfig {
    fn default() -> Self {
        MpcBackendConfig::sharemind()
    }
}

/// Statistics for one MPC step (one operator, or one whole MPC job).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpcStepStats {
    /// Simulated wall-clock time of the step.
    pub simulated_time: Duration,
    /// Secret-sharing primitive counts (zero for garbled-circuit backends).
    pub counts: PrimitiveCounts,
    /// Garbled-circuit gate counts (zero for secret-sharing backends).
    pub circuit: CircuitStats,
    /// Peak additional memory the step needs, in bytes (garbled backends).
    pub memory_bytes: f64,
    /// Total input rows processed.
    pub input_rows: u64,
    /// Output rows produced.
    pub output_rows: u64,
}

impl MpcStepStats {
    /// Merges another step's statistics (times add; the memory peak is the max).
    pub fn merge(&mut self, other: &MpcStepStats) {
        self.simulated_time += other.simulated_time;
        self.counts.merge(&other.counts);
        self.circuit.merge(&other.circuit);
        self.memory_bytes = self.memory_bytes.max(other.memory_bytes);
        self.input_rows += other.input_rows;
        self.output_rows = other.output_rows;
    }
}

/// Errors from the MPC engine.
#[derive(Debug, Clone, PartialEq)]
pub enum MpcError {
    /// The operator is not executable under this backend.
    Unsupported(String),
    /// The garbled-circuit backend exceeded its memory limit (the OOM cliffs
    /// of Figure 1).
    OutOfMemory {
        /// Bytes the computation would need.
        needed: f64,
        /// The backend's limit.
        limit: f64,
    },
    /// Execution failed (bad column, arity, etc.).
    Exec(String),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::Unsupported(s) => write!(f, "unsupported under MPC: {s}"),
            MpcError::OutOfMemory { needed, limit } => write!(
                f,
                "garbled-circuit backend out of memory: needs {:.1} GB, limit {:.1} GB",
                needed / 1e9,
                limit / 1e9
            ),
            MpcError::Exec(s) => write!(f, "MPC execution failed: {s}"),
        }
    }
}

impl std::error::Error for MpcError {}

impl From<OpError> for MpcError {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Invalid(s) => MpcError::Exec(s),
            OpError::Unsupported(s) => MpcError::Unsupported(s),
        }
    }
}

/// Result alias for MPC operations.
pub type MpcResult<T> = Result<T, MpcError>;

/// Prices relational operators under an MPC backend and executes garbled
/// ones.
#[derive(Debug)]
pub struct MpcEngine {
    config: MpcBackendConfig,
    proto: Protocol,
}

impl MpcEngine {
    /// Creates an engine for the given configuration.
    pub fn new(config: MpcBackendConfig) -> Self {
        let proto = Protocol::new(config.kind.parties() as usize, config.seed);
        MpcEngine { config, proto }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MpcBackendConfig {
        &self.config
    }

    /// Mutable access to the underlying secret-sharing protocol (used by the
    /// driver to run hybrid protocols that interleave MPC and STP steps).
    pub fn protocol(&mut self) -> &mut Protocol {
        &mut self.proto
    }

    /// Secret-shares a cleartext relation into the engine.
    pub fn share(&mut self, rel: &Relation) -> MpcResult<SharedRelation> {
        SharedRelation::from_relation(rel, &mut self.proto).map_err(MpcError::Exec)
    }

    /// Secret-shares a [`conclave_engine::Table`], picking the
    /// column-at-a-time path whenever its columnar representation is already
    /// materialized (see [`SharedRelation::from_table`]).
    pub fn share_table(&mut self, table: &conclave_engine::Table) -> MpcResult<SharedRelation> {
        SharedRelation::from_table(table, &mut self.proto).map_err(MpcError::Exec)
    }

    /// Converts the protocol's current primitive counters into step stats and
    /// resets them.
    pub fn drain_stats(&mut self, input_rows: u64, output_rows: u64) -> MpcStepStats {
        let counts = self.proto.counts();
        self.proto.reset_counts();
        self.stats_from_counts(counts, input_rows, output_rows)
    }

    /// Executes one operator under the garbled-circuit backend: priced from
    /// its cardinalities first (past the memory limit nothing executes), then
    /// computed by the cleartext engine — the backend is a cost model and
    /// builds no circuit. A secret-sharing configuration gets
    /// [`MpcError::Unsupported`]: its operators run as plan steps of the
    /// party runtime, never as a standalone job.
    pub fn execute_op(
        &mut self,
        op: &Operator,
        inputs: &[&Relation],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        if self.config.kind.is_secret_sharing() {
            return Err(MpcError::Unsupported(format!(
                "{} as a standalone secret-sharing job (it runs as a plan step)",
                op.name()
            )));
        }
        let rows: Vec<u64> = inputs.iter().map(|r| r.num_rows() as u64).collect();
        let cols: Vec<u64> = inputs.iter().map(|r| r.num_cols() as u64).collect();
        let mut stats = self.garbled_stats(op, &rows, &cols, 0)?;
        let out =
            conclave_engine::execute(op, inputs).map_err(|e| MpcError::Exec(e.to_string()))?;
        stats.output_rows = out.num_rows() as u64;
        Ok((out, stats))
    }

    /// [`MpcEngine::execute_op`] over [`conclave_engine::Table`]s: a garbled
    /// step reads rows, the unavoidable share boundary for that substrate.
    pub fn execute_op_tables(
        &mut self,
        op: &Operator,
        inputs: &[&conclave_engine::Table],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let rows: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
        self.execute_op(op, &rows)
    }

    // ------------------------------------------------------------------
    // Garbled-circuit pricing (gate counting + memory model).
    // ------------------------------------------------------------------

    /// AND gates and peak state of `op` under garbled circuits, from
    /// cardinalities alone — the one gate/memory table, which both the
    /// executed path and [`MpcEngine::estimate_op`] price, so a small run
    /// and the paper-scale estimate of the same operator cannot disagree.
    fn garbled_cost(&self, op: &Operator, input_rows: &[u64], input_cols: &[u64]) -> (u64, f64) {
        let n: u64 = input_rows.iter().sum();
        let cols: u64 = input_cols.iter().copied().max().unwrap_or(1);
        // State retained per input record, in multiples of the model's
        // per-record footprint: a join keeps comparison state for its
        // nested loop, a sort its network.
        let (and_gates, state) = match op {
            Operator::Join { left_keys, .. } => (
                gates::join(
                    input_rows.first().copied().unwrap_or(0),
                    input_rows.get(1).copied().unwrap_or(0),
                    left_keys.len() as u64,
                    cols,
                ),
                10.0,
            ),
            Operator::Aggregate { group_by, .. } => {
                (gates::aggregate(n, group_by.len() as u64), 3.0)
            }
            Operator::Distinct { .. }
            | Operator::DistinctCount { .. }
            | Operator::SortBy { .. } => (gates::distinct(n), 3.0),
            Operator::Filter { predicate } => (n * predicate.op_count() as u64 * 64, 1.0),
            // One 64×64-gate multiplier per factor after the first.
            Operator::Multiply { operands, .. } => {
                (n * operands.len().saturating_sub(1) as u64 * 64 * 64, 1.0)
            }
            _ => (gates::project(n, cols), 1.0),
        };
        let per_record = self.config.gc_cost.state_bytes_per_record;
        (and_gates, n as f64 * per_record * state)
    }

    /// Step statistics of `op` under garbled circuits, or the out-of-memory
    /// cliff of Figure 1 when its state outgrows the model's limit.
    fn garbled_stats(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
    ) -> MpcResult<MpcStepStats> {
        let (and_gates, memory) = self.garbled_cost(op, input_rows, input_cols);
        if self.config.gc_cost.exceeds_memory(memory) {
            return Err(MpcError::OutOfMemory {
                needed: memory,
                limit: self.config.gc_cost.memory_limit_bytes,
            });
        }
        Ok(MpcStepStats {
            simulated_time: self.config.gc_cost.time(and_gates, &self.config.network),
            counts: PrimitiveCounts::default(),
            circuit: CircuitStats { and_gates },
            memory_bytes: memory,
            input_rows: input_rows.iter().sum(),
            output_rows,
        })
    }

    // ------------------------------------------------------------------
    // Analytic estimators (for paper-scale cardinalities).
    // ------------------------------------------------------------------

    /// Estimates the cost of secret-sharing `rows × cols` elements into the MPC.
    pub fn estimate_input(&self, rows: u64, cols: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            input_elems: rows * cols,
            ..Default::default()
        };
        self.stats_from_counts(counts, rows, rows)
    }

    /// Estimates the cost of opening `rows × cols` elements out of the MPC.
    pub fn estimate_open(&self, rows: u64, cols: u64) -> MpcStepStats {
        let counts = PrimitiveCounts {
            opened_elems: rows * cols,
            ..Default::default()
        };
        self.stats_from_counts(counts, rows, rows)
    }

    /// Estimates the cost of one operator from cardinalities alone — the
    /// one place a modeled MPC cost is written: the estimator, the SMCQL
    /// baseline and the figures all price from here.
    ///
    /// `input_rows`/`input_cols` describe each input; `output_rows` is the
    /// (estimated) result cardinality. A secret-shared operator is priced
    /// from [`operators::counts`], the closed form of what
    /// [`operators::execute_op`] charges, so at a given output size an
    /// estimate equals the executed counts (`estimates_equal_executed_counts`
    /// pins it, field by field); under garbled circuits execution and
    /// estimate are the same table and agree exactly.
    pub fn estimate_op(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
    ) -> MpcResult<MpcStepStats> {
        self.estimate_op_presorted(op, input_rows, input_cols, output_rows, false)
    }

    /// [`MpcEngine::estimate_op`] with the dispatcher's `presorted` argument
    /// (the one [`operators::execute_op`] takes): a grouped aggregation over
    /// an input already sorted by its key skips the oblivious sort (§5.4) and
    /// pays only the linear scan.
    pub fn estimate_op_presorted(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
        presorted: bool,
    ) -> MpcResult<MpcStepStats> {
        let n: u64 = input_rows.iter().sum();
        let side = |sizes: &[u64], i: usize| sizes.get(i).copied().unwrap_or(0);
        let counts = match op {
            // The §5.3 hybrid protocols first: their MPC half is
            // secret-shared whatever the configured kind, and they share
            // their inputs themselves. Their result's open is priced where
            // it crosses the frontier, as for every operator.
            //
            // Hybrid join (Figure 3): both inputs shared and shuffled, their
            // keys opened to the STP, the index relations shared back in and
            // opened by two oblivious selects, the result shuffled.
            Operator::HybridJoin { left_keys, .. } => {
                let (left, right) = (side(input_rows, 0), side(input_rows, 1));
                let (left_cols, right_cols) = (side(input_cols, 0), side(input_cols, 1));
                let keys = left_keys.len() as u64;
                let shared = left * left_cols + right * right_cols;
                let select =
                    |rows, cols| operators::oblivious_select_charge(rows, cols, output_rows);
                PrimitiveCounts {
                    input_elems: shared + 2 * output_rows,
                    shuffled_elems: shared
                        + output_rows * (left_cols + right_cols.saturating_sub(keys)),
                    opened_elems: n * keys + 2 * output_rows,
                    ..Default::default()
                } + select(left, left_cols)
                    + select(right, right_cols)
            }
            Operator::HybridAggregate { group_by, .. } => {
                let lane = AggLane::of(op).expect("a hybrid aggregation has one lane");
                return Ok(self.estimate_hybrid_aggregate(group_by, &[lane], n, output_rows));
            }
            // Public join: no MPC at all. The parties exchange key columns
            // in the clear and the helper joins locally, so the only cost
            // charged here is that data movement.
            Operator::PublicJoin { .. } => {
                return Ok(MpcStepStats {
                    simulated_time: self.config.network.transfer_time((n + output_rows) * 8),
                    input_rows: n,
                    output_rows,
                    ..Default::default()
                })
            }
            _ if !self.config.kind.is_secret_sharing() => {
                return self.garbled_stats(op, input_rows, input_cols, output_rows)
            }
            // The driver's substitute for an oblivious fixed-point division:
            // the inputs taken in, the division's comparisons, the result
            // opened.
            Operator::Divide { .. } => PrimitiveCounts {
                comparisons: DIVIDE_COMPARISONS_PER_ROW * n,
                input_elems: n,
                opened_elems: output_rows,
                ..Default::default()
            },
            _ => operators::counts(op, input_rows, input_cols, presorted)?,
        };
        Ok(self.stats_from_counts(counts, n, output_rows))
    }

    /// Estimates one k-output hybrid aggregation (§5.3), as
    /// `conclave_core::hybrid_exec` runs it: the sibling aggregations `lanes`
    /// of one relation of `input_rows` rows by `group_by`, run as one call —
    /// [`MpcEngine::estimate_op`]'s `HybridAggregate` arm is its one-lane
    /// case. The columns the lanes read are shared and shuffled once, the
    /// keys opened to the STP, then one k-lane scan runs over its order. The
    /// result's open is priced where it crosses the frontier.
    pub fn estimate_hybrid_aggregate(
        &self,
        group_by: &[String],
        lanes: &[AggLane],
        input_rows: u64,
        output_rows: u64,
    ) -> MpcStepStats {
        let (read, keys) = (
            lanes_read(group_by, lanes).len() as u64,
            group_by.len() as u64,
        );
        let counts = PrimitiveCounts {
            input_elems: input_rows * read,
            shuffled_elems: input_rows * read,
            opened_elems: input_rows * keys,
            ..Default::default()
        } + operators::aggregate_sorted_lanes_counts(input_rows, keys, lanes);
        self.stats_from_counts(counts, input_rows, output_rows)
    }

    /// Builds step statistics from primitive counts, without the per-job
    /// overhead (a plan is one MPC job however many steps it has). The entry
    /// point for executed counts: every party runtime reports its steps'
    /// counters here, so one price applies whichever engine ran them.
    pub fn stats_from_counts(
        &self,
        counts: PrimitiveCounts,
        input_rows: u64,
        output_rows: u64,
    ) -> MpcStepStats {
        MpcStepStats {
            simulated_time: self
                .config
                .ss_cost
                .time_no_overhead(&counts, &self.config.network),
            counts,
            circuit: CircuitStats::default(),
            memory_bytes: 0.0,
            input_rows,
            output_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators;
    use conclave_engine::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, Operand};

    fn sharemind() -> MpcEngine {
        MpcEngine::new(MpcBackendConfig::sharemind())
    }

    fn sales() -> Relation {
        Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        )
    }

    #[test]
    fn backend_kind_properties() {
        assert_eq!(BackendKind::SharemindLike.parties(), 3);
        assert_eq!(BackendKind::Garbled.parties(), 2);
        assert!(BackendKind::SharemindLike.is_secret_sharing());
        assert!(!BackendKind::Garbled.is_secret_sharing());
        assert_eq!(BackendKind::SharemindLike.to_string(), "sharemind-like");
    }

    /// One secret-shared operator on the counting engine: the inputs shared,
    /// the operator run, its result opened, and the counts all that charged.
    fn run_shared(op: &Operator, inputs: &[&Relation]) -> MpcResult<(Relation, PrimitiveCounts)> {
        let mut proto = Protocol::new(3, 7);
        let shared = inputs
            .iter()
            .map(|r| SharedRelation::from_relation(r, &mut proto).map_err(MpcError::Exec))
            .collect::<MpcResult<Vec<_>>>()?;
        let refs: Vec<&SharedRelation> = shared.iter().collect();
        let out = operators::execute_op(&mut proto, op, &refs, false)?;
        Ok((out.open(&mut proto).to_rows(), proto.counts()))
    }

    #[test]
    fn sharemind_aggregate_matches_cleartext() {
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, counts) = run_shared(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert!(counts.comparisons > 0);
        assert_eq!(counts.input_elems, 10);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn sharemind_join_matches_cleartext_and_counts_quadratic_equalities() {
        let left = Relation::from_ints(&["k", "a"], &[vec![1, 1], vec![2, 2], vec![3, 3]]);
        let right = Relation::from_ints(&["k", "b"], &[vec![2, 20], vec![3, 30], vec![4, 40]]);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let (out, counts) = run_shared(&op, &[&left, &right]).unwrap();
        let expected = execute(&op, &[&left, &right]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert_eq!(counts.equalities, 9);
    }

    #[test]
    fn sharemind_filter_multiply_sort_limit() {
        let rel = sales();
        let filter = Operator::Filter {
            predicate: Expr::col("price").gt(Expr::lit(6)),
        };
        let (out, _) = run_shared(&filter, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&execute(&filter, &[&rel]).unwrap()));

        let mul = Operator::Multiply {
            out: "sq".into(),
            operands: vec![
                Operand::col("price"),
                Operand::col("price"),
                Operand::lit(2),
            ],
        };
        let (out, _) = run_shared(&mul, &[&rel]).unwrap();
        assert_eq!(
            out.column_values("sq").unwrap()[0],
            conclave_ir::types::Value::Int(200)
        );

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let (out, _) = run_shared(&sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));

        let limit = Operator::Limit { n: 2 };
        let (out, _) = run_shared(&limit, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn sharemind_distinct_and_distinct_count() {
        let rel = sales();
        let d = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let (out, _) = run_shared(&d, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 3);
        let dc = Operator::DistinctCount {
            column: "price".into(),
            out: "n".into(),
        };
        let (out, _) = run_shared(&dc, &[&rel]).unwrap();
        assert_eq!(out.scalar(), Some(&conclave_ir::types::Value::Int(4)));
    }

    #[test]
    fn complex_predicates_under_mpc() {
        let rel = sales();
        let pred = Expr::col("price")
            .ge(Expr::lit(5))
            .and(Expr::col("companyID").ne(Expr::lit(3)))
            .or(Expr::col("price").eq(Expr::lit(7)));
        let op = Operator::Filter {
            predicate: pred.clone(),
        };
        let (out, _) = run_shared(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        // An arithmetic predicate is rejected.
        let bad = Operator::Filter {
            predicate: Expr::col("price").add(Expr::lit(1)),
        };
        assert!(matches!(
            run_shared(&bad, &[&rel]),
            Err(MpcError::Unsupported(_))
        ));
    }

    #[test]
    fn unsupported_operators() {
        let rel = sales();
        let divide = Operator::Divide {
            out: "x".into(),
            num: Operand::col("price"),
            den: Operand::lit(2),
        };
        assert!(matches!(
            run_shared(&divide, &[&rel]),
            Err(MpcError::Unsupported(_))
        ));
        let hybrid = Operator::HybridJoin {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
            stp: 1,
        };
        assert!(run_shared(&hybrid, &[&rel, &rel]).is_err());
        // The engine runs no standalone secret-sharing job, whatever the
        // operator: those are plan steps.
        let limit = Operator::Limit { n: 2 };
        assert!(matches!(
            sharemind().execute_op(&limit, &[&rel]),
            Err(MpcError::Unsupported(_))
        ));
    }

    #[test]
    fn multi_column_group_by_matches_cleartext() {
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into(), "price".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        let (out, _) = run_shared(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert_eq!(expected.num_rows(), 4, "(2, 5) appears twice");
        assert!(out.same_rows_unordered(&expected));
    }

    #[test]
    fn share_table_goes_column_at_a_time_without_conversions() {
        let rel = sales();
        let mut eng = sharemind();
        let by_rows = eng.share(&rel).unwrap();
        let row_inputs = eng.protocol().counts().input_elems;
        // Columnar-backed table: shared column-at-a-time, zero conversions,
        // the same cells and the same input charge as the row path.
        let mut eng2 = sharemind();
        let table = conclave_engine::Table::from_columns(
            conclave_engine::ColumnarRelation::from_rows(&rel),
        );
        let by_columns = eng2.share_table(&table).unwrap();
        assert_eq!(table.conversion_counts().total(), 0);
        assert_eq!(eng2.protocol().counts().input_elems, row_inputs);
        assert_eq!(
            by_columns.open(eng2.protocol()),
            by_rows.open(eng.protocol())
        );
        // Garbled backends take the row path through the table entry point.
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let mut gc = MpcEngine::new(MpcBackendConfig::obliv_c());
        let rows_table = conclave_engine::Table::from_rows(rel.clone());
        let (gc_out, gc_stats) = gc.execute_op_tables(&op, &[&rows_table]).unwrap();
        assert!(gc_out.same_rows_unordered(&execute(&op, &[&rel]).unwrap()));
        assert!(gc_stats.circuit.and_gates > 0);
    }

    #[test]
    fn garbled_backend_executes_and_counts_gates() {
        let mut eng = MpcEngine::new(MpcBackendConfig::obliv_c());
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, stats) = eng.execute_op(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&execute(&op, &[&rel]).unwrap()));
        assert!(stats.circuit.and_gates > 0);
        assert_eq!(stats.counts, PrimitiveCounts::default());
    }

    /// One gate/memory table: what a garbled run reports is what the
    /// estimator predicts for the same cardinalities, operator by operator.
    #[test]
    fn garbled_execution_and_estimate_agree_on_gates_and_memory() {
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 10, i]).collect();
        let rel = Relation::from_ints(&["k", "v"], &rows);
        let cases: Vec<(Operator, Vec<&Relation>)> = vec![
            (
                Operator::Join {
                    left_keys: vec!["k".into()],
                    right_keys: vec!["k".into()],
                },
                vec![&rel, &rel],
            ),
            (
                Operator::Aggregate {
                    group_by: vec!["k".into()],
                    func: AggFunc::Sum,
                    over: Some("v".into()),
                    out: "s".into(),
                },
                vec![&rel],
            ),
            (
                Operator::Distinct {
                    columns: vec!["k".into()],
                },
                vec![&rel],
            ),
            (
                Operator::Filter {
                    predicate: Expr::col("v").gt(Expr::lit(6)),
                },
                vec![&rel],
            ),
            (
                Operator::Multiply {
                    out: "p".into(),
                    operands: vec![Operand::col("k"), Operand::col("v")],
                },
                vec![&rel],
            ),
            (
                Operator::Project {
                    columns: vec!["v".into()],
                },
                vec![&rel],
            ),
        ];
        for config in [MpcBackendConfig::obliv_c(), MpcBackendConfig::obliv_vm()] {
            let mut eng = MpcEngine::new(config);
            for (op, inputs) in &cases {
                let (out, ran) = eng.execute_op(op, inputs).unwrap();
                let in_rows: Vec<u64> = inputs.iter().map(|r| r.num_rows() as u64).collect();
                let in_cols: Vec<u64> = inputs.iter().map(|r| r.num_cols() as u64).collect();
                let est = eng
                    .estimate_op(op, &in_rows, &in_cols, out.num_rows() as u64)
                    .unwrap();
                // Gates, memory and the time priced from them, all at once.
                assert_eq!(ran, est, "{}", op.name());
            }
        }
    }

    #[test]
    fn garbled_join_hits_out_of_memory_at_figure_1_scale() {
        let mut eng = MpcEngine::new(MpcBackendConfig::obliv_c());
        let n = 20_000usize;
        let rows: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![i, i]).collect();
        let big = Relation::from_ints(&["k", "v"], &rows);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        match eng.execute_op(&op, &[&big, &big]) {
            Err(MpcError::OutOfMemory { needed, limit }) => {
                assert!(needed > limit);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // Estimates hit the same wall.
        assert!(matches!(
            eng.estimate_op(&op, &[40_000, 40_000], &[2, 2], 40_000),
            Err(MpcError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn estimates_track_paper_asymptotics() {
        let eng = sharemind();
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let t1 = eng
            .estimate_op(&join, &[1_000, 1_000], &[2, 2], 1_000)
            .unwrap()
            .simulated_time
            .as_secs_f64();
        let t2 = eng
            .estimate_op(&join, &[2_000, 2_000], &[2, 2], 2_000)
            .unwrap()
            .simulated_time
            .as_secs_f64();
        assert!((t2 / t1 - 4.0).abs() < 0.5, "MPC join should be quadratic");

        // Hybrid join is asymptotically better than the MPC join at scale.
        let time = |op: &Operator, rows: &[u64], out| {
            let cols = vec![2; rows.len()];
            eng.estimate_op(op, rows, &cols, out)
                .unwrap()
                .simulated_time
        };
        let (keys, agg_keys) = (vec!["k".to_string()], vec!["k".to_string()]);
        let hybrid_join = Operator::HybridJoin {
            left_keys: keys.clone(),
            right_keys: keys.clone(),
            stp: 1,
        };
        let hybrid = time(&hybrid_join, &[100_000, 100_000], 100_000);
        assert!(hybrid < time(&join, &[100_000, 100_000], 100_000) / 10);

        // Public join is cheaper still.
        let public_join = Operator::PublicJoin {
            left_keys: keys.clone(),
            right_keys: keys,
            helper: 1,
        };
        assert!(time(&public_join, &[100_000, 100_000], 100_000) < hybrid);

        // Hybrid aggregation beats the sort-based MPC aggregation.
        let agg = Operator::Aggregate {
            group_by: agg_keys.clone(),
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        };
        let hybrid_agg = Operator::HybridAggregate {
            group_by: agg_keys,
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
            stp: 1,
        };
        assert!(time(&hybrid_agg, &[100_000], 10_000) < time(&agg, &[100_000], 10_000));
        // It opens every group-by key column to the STP, then the flags.
        for keys in [1, 3] {
            let op = Operator::HybridAggregate {
                group_by: (0..keys).map(|i| format!("k{i}")).collect(),
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
                stp: 1,
            };
            let counts = eng.estimate_op(&op, &[1_000], &[4], 100).unwrap().counts;
            assert_eq!(counts.opened_elems, (keys + 1) * 1_000);
        }

        // The hybrids are priced the same under a garbled configuration:
        // their MPC half is secret-shared whatever the configured kind.
        let gc = MpcEngine::new(MpcBackendConfig::obliv_c());
        for op in [&hybrid_join, &public_join] {
            assert_eq!(
                gc.estimate_op(op, &[1_000, 1_000], &[2, 2], 1_000).unwrap(),
                eng.estimate_op(op, &[1_000, 1_000], &[2, 2], 1_000)
                    .unwrap()
            );
        }
    }

    /// What `op` charges on the counting engine over shares of `inputs` —
    /// their sharing and the result's open aside — and its output rows.
    fn executed(op: &Operator, inputs: &[&Relation], presorted: bool) -> (PrimitiveCounts, u64) {
        let mut proto = Protocol::new(3, 11);
        let shared: Vec<SharedRelation> = inputs
            .iter()
            .map(|r| SharedRelation::from_relation(r, &mut proto).unwrap())
            .collect();
        let before = proto.counts();
        let refs: Vec<&SharedRelation> = shared.iter().collect();
        let out = operators::execute_op(&mut proto, op, &refs, presorted).unwrap();
        (proto.counts().since(&before), out.num_rows() as u64)
    }

    /// The price list is what runs: for every secret-sharing arm of the
    /// dispatcher, the estimate at the executed output size equals the
    /// executed counts, field by field.
    #[test]
    fn estimates_equal_executed_counts() {
        let eng = sharemind();
        let check = |op: &Operator, inputs: &[&Relation], presorted: bool| {
            let (ran, out) = executed(op, inputs, presorted);
            let rows: Vec<u64> = inputs.iter().map(|r| r.num_rows() as u64).collect();
            let cols: Vec<u64> = inputs.iter().map(|r| r.num_cols() as u64).collect();
            let priced = eng
                .estimate_op_presorted(op, &rows, &cols, out, presorted)
                .unwrap();
            assert_eq!(
                priced.counts, ran,
                "{op:?} over {rows:?} rows, presorted {presorted}"
            );
        };
        let names = |cols: &[&str]| cols.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        let keys = ["k0", "k1", "k2"];
        let relation = |rows: i64| {
            let data: Vec<Vec<i64>> = (0..rows)
                .map(|i| vec![i % 3, (i * 7) % 4, (i * 5) % 2, (i * 37) % 23 - 11])
                .collect();
            Relation::from_ints(&["k0", "k1", "k2", "v"], &data)
        };
        let (k0, v) = (|| Expr::col("k0"), || Expr::col("v"));
        let predicates = [
            v().lt(k0()),
            k0().eq(Expr::col("k1")),
            v().ge(Expr::lit(3)),
            k0().ne(Expr::lit(1)),
            v().gt(Expr::lit(-4)).and(k0().le(Expr::col("k2"))),
            v().lt(Expr::lit(0)).or(k0().eq(Expr::lit(2))),
            v().lt(k0()).or(Expr::col("k1").eq(Expr::lit(0))).not(),
        ];
        for rows in [0, 1, 2, 3, 7, 40, 129] {
            let rel = relation(rows);
            for width in 1..=3 {
                for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
                    for group_by in [&keys[..width], &[]] {
                        let op = Operator::Aggregate {
                            group_by: names(group_by),
                            func,
                            over: func.needs_over().then(|| "v".into()),
                            out: "a".into(),
                        };
                        for presorted in [false, true] {
                            check(&op, &[&rel], presorted);
                        }
                    }
                }
                for op in [
                    Operator::Distinct {
                        columns: names(&keys[..width]),
                    },
                    Operator::SortBy {
                        column: keys[width - 1].into(),
                        ascending: width != 2,
                    },
                ] {
                    check(&op, &[&rel], false);
                }
            }
            let (v, k0, three) = (Operand::col("v"), Operand::col("k0"), Operand::lit(3));
            for operands in [
                vec![v.clone()],
                vec![v.clone(), k0.clone()],
                vec![v.clone(), three.clone(), k0],
                vec![three, v],
            ] {
                check(
                    &Operator::Multiply {
                        out: "m".into(),
                        operands,
                    },
                    &[&rel],
                    false,
                );
            }
            for predicate in &predicates {
                let op = Operator::Filter {
                    predicate: predicate.clone(),
                };
                check(&op, &[&rel], false);
            }
            for op in [
                Operator::DistinctCount {
                    column: "v".into(),
                    out: "n".into(),
                },
                Operator::Project {
                    columns: names(&["v"]),
                },
                Operator::Limit { n: 2 },
                Operator::Enumerate { out: "i".into() },
            ] {
                check(&op, &[&rel], false);
            }
        }
        for left in [0, 1, 3, 7, 12].map(relation) {
            for right in [0, 1, 2, 5, 9].map(relation) {
                for width in 1..=2 {
                    let op = Operator::Join {
                        left_keys: names(&keys[..width]),
                        right_keys: names(&keys[..width]),
                    };
                    check(&op, &[&left, &right], false);
                }
                check(&Operator::Concat, &[&left, &right], false);
            }
        }
    }

    #[test]
    fn presorted_estimate_drops_exactly_the_sort() {
        let eng = sharemind();
        let agg = |group_by: &[&str]| Operator::Aggregate {
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "s".into(),
        };
        let (n, cols) = (10_000, 3);
        let counts = |op: &Operator, presorted| {
            eng.estimate_op_presorted(op, &[n], &[cols], n / 10, presorted)
                .unwrap()
                .counts
        };
        let grouped = agg(&["k"]);
        let sort = Operator::SortBy {
            column: "k".into(),
            ascending: true,
        };
        let sorted = eng.estimate_op(&sort, &[n], &[cols], n).unwrap().counts;
        assert_eq!(
            counts(&grouped, false).since(&counts(&grouped, true)),
            sorted
        );
        // Each extra group-by key adds, per compare-exchange, one comparison,
        // one equality and one multiplication; per adjacent pair of the scan
        // one equality and one multiplication; and per row a shuffled key.
        let two_keys = agg(&["k", "j"]);
        let (comparators, pairs) = (sorted.comparisons, n - 1);
        assert_eq!(
            counts(&two_keys, false).since(&counts(&grouped, false)),
            PrimitiveCounts {
                comparisons: comparators,
                equalities: comparators + pairs,
                mults: comparators + pairs,
                shuffled_elems: n,
                ..Default::default()
            }
        );
        assert_eq!(
            eng.estimate_op(&grouped, &[n], &[cols], n / 10).unwrap(),
            eng.estimate_op_presorted(&grouped, &[n], &[cols], n / 10, false)
                .unwrap()
        );
        // A scalar aggregation never sorts, so the flag changes nothing, and
        // a scalar SUM adds locally: it charges nothing at all.
        assert_eq!(counts(&agg(&[]), true), counts(&agg(&[]), false));
        assert_eq!(counts(&agg(&[]), false), PrimitiveCounts::default());
    }

    #[test]
    fn secret_shared_divide_charges_thirty_comparisons_per_row() {
        let divide = Operator::Divide {
            out: "x".into(),
            num: Operand::col("a"),
            den: Operand::col("b"),
        };
        let stats = sharemind()
            .estimate_op(&divide, &[1_000], &[2], 1_000)
            .unwrap();
        // The driver's substitute: the inputs taken in, thirty comparisons a
        // row, the result opened.
        assert_eq!(
            stats.counts,
            PrimitiveCounts {
                comparisons: 30_000,
                input_elems: 1_000,
                opened_elems: 1_000,
                ..Default::default()
            }
        );
        // Under garbled circuits it stays a per-bit rewiring like a project.
        let gc = MpcEngine::new(MpcBackendConfig::obliv_c())
            .estimate_op(&divide, &[1_000], &[2], 1_000)
            .unwrap();
        assert_eq!(gc.circuit.and_gates, gates::project(1_000, 2));
    }

    #[test]
    fn estimate_input_and_open_scale_linearly() {
        let eng = sharemind();
        let a = eng.estimate_input(1_000, 2).simulated_time.as_secs_f64();
        let b = eng.estimate_input(10_000, 2).simulated_time.as_secs_f64();
        assert!((b / a - 10.0).abs() < 0.5);
        assert!(eng.estimate_open(1_000, 2).simulated_time > Duration::ZERO);
    }

    #[test]
    fn step_stats_merge() {
        let mut a = MpcStepStats {
            simulated_time: Duration::from_secs(1),
            memory_bytes: 10.0,
            input_rows: 5,
            output_rows: 5,
            ..Default::default()
        };
        let b = MpcStepStats {
            simulated_time: Duration::from_secs(2),
            memory_bytes: 3.0,
            input_rows: 7,
            output_rows: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.simulated_time, Duration::from_secs(3));
        assert_eq!(a.memory_bytes, 10.0);
        assert_eq!(a.input_rows, 12);
        assert_eq!(a.output_rows, 2);
    }

    #[test]
    fn error_display() {
        assert!(MpcError::Unsupported("x".into()).to_string().contains('x'));
        assert!(MpcError::OutOfMemory {
            needed: 5e9,
            limit: 4e9
        }
        .to_string()
        .contains("out of memory"));
        assert!(MpcError::Exec("boom".into()).to_string().contains("boom"));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(MpcBackendConfig::default().kind, BackendKind::SharemindLike);
        // The two garbled frameworks are one kind under two calibrations.
        let (c, vm) = (MpcBackendConfig::obliv_c(), MpcBackendConfig::obliv_vm());
        assert_eq!(
            (c.kind, vm.kind),
            (BackendKind::Garbled, BackendKind::Garbled)
        );
        assert_eq!(c.gc_cost, GarbledCostModel::obliv_c());
        assert_eq!(vm.gc_cost, GarbledCostModel::obliv_vm());
        assert_eq!(MpcBackendConfig::new(BackendKind::Garbled), c);
        let eng = MpcEngine::new(c);
        assert_eq!(eng.config().kind, BackendKind::Garbled);
    }
}
