//! Unified MPC backend engine.
//!
//! [`MpcEngine`] executes individual relational operators under a configured
//! backend — secret sharing (Sharemind-like) or garbled circuits (Obliv-C /
//! ObliVM-like) — over cleartext inputs, returning the result together with
//! [`MpcStepStats`] (simulated runtime, primitive/gate counts, traffic and
//! memory). It also provides *analytic estimators* that produce the same
//! statistics from cardinalities alone, which the benchmark harness uses to
//! reproduce the paper's figures at scales that cannot be executed in-process
//! (up to 10⁹ records).

use crate::cost::{
    gates, CircuitStats, GarbledCostModel, PrimitiveCounts, SecretShareCostModel,
    DIVIDE_COMPARISONS_PER_ROW,
};
use crate::engine::OpError;
use crate::operators;
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

/// Executes relational operators under a simulated MPC backend.
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

    /// Opens a shared relation back to cleartext.
    pub fn reconstruct(&mut self, rel: &SharedRelation) -> Relation {
        rel.reconstruct(&mut self.proto)
    }

    /// Converts the protocol's current primitive counters into step stats and
    /// resets them.
    pub fn drain_stats(&mut self, input_rows: u64, output_rows: u64) -> MpcStepStats {
        let counts = self.proto.counts();
        self.proto.reset_counts();
        self.stats_from_counts(counts, input_rows, output_rows)
    }

    /// Executes one operator on cleartext inputs: shares them, runs the
    /// oblivious protocol, reconstructs the result, and reports statistics
    /// (including the sharing/opening cost, as a standalone MPC job would pay).
    pub fn execute_op(
        &mut self,
        op: &Operator,
        inputs: &[&Relation],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let input_rows: u64 = inputs.iter().map(|r| r.num_rows() as u64).sum();
        if !self.config.kind.is_secret_sharing() {
            return self.execute_garbled(op, inputs);
        }
        self.proto.reset_counts();
        let shared_inputs = inputs
            .iter()
            .map(|r| self.share(r))
            .collect::<MpcResult<_>>()?;
        self.execute_and_open(op, shared_inputs, input_rows, false)
    }

    /// [`MpcEngine::execute_op`] over the unified [`conclave_engine::Table`]
    /// data plane. Secret-sharing backends share each input in whatever
    /// representation it already holds (columnar tables go column-at-a-time
    /// with no conversion); garbled backends materialize rows, which is the
    /// unavoidable share boundary for that substrate.
    pub fn execute_op_tables(
        &mut self,
        op: &Operator,
        inputs: &[&conclave_engine::Table],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        self.execute_op_presorted(op, inputs, false)
    }

    /// [`MpcEngine::execute_op_tables`] with the dispatcher's `presorted`
    /// argument: a grouped aggregation whose input is already sorted by its
    /// key skips the oblivious sort (§5.4) and is otherwise an MPC job like
    /// any other.
    pub fn execute_op_presorted(
        &mut self,
        op: &Operator,
        inputs: &[&conclave_engine::Table],
        presorted: bool,
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let input_rows: u64 = inputs.iter().map(|t| t.num_rows() as u64).sum();
        if !self.config.kind.is_secret_sharing() {
            let rows: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
            return self.execute_garbled(op, &rows);
        }
        self.proto.reset_counts();
        let shared_inputs = inputs
            .iter()
            .map(|t| self.share_table(t))
            .collect::<MpcResult<_>>()?;
        self.execute_and_open(op, shared_inputs, input_rows, presorted)
    }

    /// Shared tail of the secret-sharing execution paths: run the oblivious
    /// operator over already-shared inputs on the in-process engine, open the
    /// result and charge the standalone-job overhead.
    fn execute_and_open(
        &mut self,
        op: &Operator,
        shared_inputs: Vec<SharedRelation>,
        input_rows: u64,
        presorted: bool,
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let refs: Vec<&SharedRelation> = shared_inputs.iter().collect();
        let shared_out = operators::execute_op(&mut self.proto, op, &refs, presorted)?;
        let out = self.reconstruct(&shared_out);
        let mut stats = self.drain_stats(input_rows, out.num_rows() as u64);
        stats.simulated_time += Duration::from_secs_f64(self.config.ss_cost.job_overhead);
        Ok((out, stats))
    }

    // ------------------------------------------------------------------
    // Garbled-circuit execution (gate counting + memory model).
    // ------------------------------------------------------------------

    fn execute_garbled(
        &mut self,
        op: &Operator,
        inputs: &[&Relation],
    ) -> MpcResult<(Relation, MpcStepStats)> {
        let rows: Vec<u64> = inputs.iter().map(|r| r.num_rows() as u64).collect();
        let cols: Vec<u64> = inputs.iter().map(|r| r.num_cols() as u64).collect();
        // Priced first: past the memory limit nothing executes.
        let mut stats = self.garbled_stats(op, &rows, &cols, 0)?;
        let out =
            conclave_engine::execute(op, inputs).map_err(|e| MpcError::Exec(e.to_string()))?;
        stats.output_rows = out.num_rows() as u64;
        Ok((out, stats))
    }

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
    /// (estimated) result cardinality. The same primitive-count formulas as
    /// the real execution path are used, so estimates and measurements agree
    /// asymptotically; under garbled circuits they are the same table and
    /// agree exactly.
    pub fn estimate_op(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
    ) -> MpcResult<MpcStepStats> {
        self.estimate_op_presorted(op, input_rows, input_cols, output_rows, false)
    }

    /// [`MpcEngine::estimate_op`] with the dispatcher's `presorted` argument,
    /// as [`MpcEngine::execute_op_presorted`] sits beside `execute_op`: a
    /// grouped aggregation over an input already sorted by its key skips the
    /// oblivious sort (§5.4) and pays only the linear scan.
    pub fn estimate_op_presorted(
        &self,
        op: &Operator,
        input_rows: &[u64],
        input_cols: &[u64],
        output_rows: u64,
        presorted: bool,
    ) -> MpcResult<MpcStepStats> {
        let n: u64 = input_rows.iter().sum();
        let cols: u64 = input_cols.iter().copied().max().unwrap_or(1);
        let left = input_rows.first().copied().unwrap_or(0);
        let right = input_rows.get(1).copied().unwrap_or(0);
        let counts = match op {
            // The §5.3 hybrid protocols first: their MPC half is
            // secret-shared whatever the configured kind.
            //
            // Hybrid join (Figure 3): oblivious shuffles of both inputs, the
            // key columns revealed to the STP, the index relations shared
            // back in, two oblivious selects, a final shuffle of the result.
            Operator::HybridJoin { .. } => {
                let total = (n + output_rows).max(2);
                PrimitiveCounts {
                    shuffled_elems: n * cols + output_rows * 2 * cols,
                    opened_elems: n,
                    input_elems: 2 * output_rows,
                    mults: total * log2(total) * cols,
                    ..Default::default()
                }
            }
            // Hybrid aggregation: a shuffle, the group-by column revealed,
            // the STP's equality flags shared back, a linear accumulation
            // scan of muxes, a final shuffle-and-reveal of the flags.
            Operator::HybridAggregate { .. } => PrimitiveCounts {
                shuffled_elems: 2 * n * cols,
                opened_elems: 2 * n,
                input_elems: n,
                mults: 2 * n,
                ..Default::default()
            },
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
            Operator::Join { left_keys, .. } => PrimitiveCounts {
                equalities: left * right * left_keys.len() as u64,
                ..Default::default()
            },
            Operator::Aggregate { group_by, .. } => {
                let mut c = if group_by.is_empty() || presorted {
                    PrimitiveCounts::default()
                } else {
                    sort_counts(n, cols)
                };
                c.merge(&PrimitiveCounts {
                    equalities: n,
                    mults: 2 * n,
                    shuffled_elems: n * (cols + 1),
                    opened_elems: n,
                    ..Default::default()
                });
                c
            }
            Operator::SortBy { .. }
            | Operator::Distinct { .. }
            | Operator::DistinctCount { .. } => {
                let mut c = sort_counts(n, cols);
                c.merge(&PrimitiveCounts {
                    equalities: n,
                    opened_elems: n,
                    ..Default::default()
                });
                c
            }
            Operator::Merge { .. } => PrimitiveCounts {
                comparisons: n * log2(n),
                mults: 2 * n * log2(n) * cols,
                ..Default::default()
            },
            Operator::Filter { predicate } => PrimitiveCounts {
                comparisons: n * predicate.op_count() as u64,
                shuffled_elems: n * cols,
                opened_elems: n,
                ..Default::default()
            },
            Operator::Multiply { operands, .. } => PrimitiveCounts {
                mults: n * operands.len().saturating_sub(1) as u64,
                ..Default::default()
            },
            Operator::Divide { .. } => PrimitiveCounts {
                comparisons: DIVIDE_COMPARISONS_PER_ROW * n,
                ..Default::default()
            },
            Operator::Shuffle => PrimitiveCounts {
                shuffled_elems: n * cols,
                ..Default::default()
            },
            Operator::ObliviousSelect { .. } => PrimitiveCounts {
                mults: (n + output_rows) * log2(n + output_rows) * cols,
                ..Default::default()
            },
            Operator::Project { .. }
            | Operator::Concat
            | Operator::Limit { .. }
            | Operator::Enumerate { .. }
            | Operator::RevealTo { .. }
            | Operator::CloseTo
            | Operator::Open { .. }
            | Operator::Collect { .. } => PrimitiveCounts::default(),
            other => {
                return Err(MpcError::Unsupported(format!(
                    "no secret-sharing estimate for {}",
                    other.name()
                )))
            }
        };
        Ok(self.stats_from_counts(counts, n, output_rows))
    }

    /// Builds step statistics from primitive counts. Also the entry point
    /// for externally-measured counts: the distributed party runtime
    /// executes operators itself and reports its counters here so
    /// simulated-time accounting stays uniform across both modes.
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

/// Primitive counts of a Batcher sort of `n` rows of `cols` columns.
fn sort_counts(n: u64, cols: u64) -> PrimitiveCounts {
    let n = n.max(2);
    let log = log2(n);
    let compare_exchanges = n * log * log / 4;
    PrimitiveCounts {
        comparisons: compare_exchanges,
        mults: 2 * compare_exchanges * cols,
        ..Default::default()
    }
}

fn log2(n: u64) -> u64 {
    64 - n.max(2).leading_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, JoinKind, Operand};

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

    #[test]
    fn sharemind_aggregate_matches_cleartext() {
        let mut eng = sharemind();
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, stats) = eng.execute_op(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert!(stats.counts.comparisons > 0);
        assert!(
            stats.simulated_time > Duration::from_secs(1),
            "includes job overhead"
        );
        assert_eq!(stats.input_rows, 5);
        assert_eq!(stats.output_rows, 3);
    }

    #[test]
    fn sharemind_join_matches_cleartext_and_counts_quadratic_equalities() {
        let mut eng = sharemind();
        let left = Relation::from_ints(&["k", "a"], &[vec![1, 1], vec![2, 2], vec![3, 3]]);
        let right = Relation::from_ints(&["k", "b"], &[vec![2, 20], vec![3, 30], vec![4, 40]]);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        let (out, stats) = eng.execute_op(&op, &[&left, &right]).unwrap();
        let expected = execute(&op, &[&left, &right]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert_eq!(stats.counts.equalities, 9);
    }

    #[test]
    fn sharemind_filter_multiply_sort_limit() {
        let mut eng = sharemind();
        let rel = sales();
        let filter = Operator::Filter {
            predicate: Expr::col("price").gt(Expr::lit(6)),
        };
        let (out, _) = eng.execute_op(&filter, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&execute(&filter, &[&rel]).unwrap()));

        let mul = Operator::Multiply {
            out: "sq".into(),
            operands: vec![
                Operand::col("price"),
                Operand::col("price"),
                Operand::lit(2),
            ],
        };
        let (out, _) = eng.execute_op(&mul, &[&rel]).unwrap();
        assert_eq!(
            out.column_values("sq").unwrap()[0],
            conclave_ir::types::Value::Int(200)
        );

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let (out, _) = eng.execute_op(&sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));

        let limit = Operator::Limit { n: 2 };
        let (out, _) = eng.execute_op(&limit, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn sharemind_distinct_and_distinct_count() {
        let mut eng = sharemind();
        let rel = sales();
        let d = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let (out, _) = eng.execute_op(&d, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 3);
        let dc = Operator::DistinctCount {
            column: "price".into(),
            out: "n".into(),
        };
        let (out, _) = eng.execute_op(&dc, &[&rel]).unwrap();
        assert_eq!(out.scalar(), Some(&conclave_ir::types::Value::Int(4)));
    }

    #[test]
    fn complex_predicates_under_mpc() {
        let mut eng = sharemind();
        let rel = sales();
        let pred = Expr::col("price")
            .ge(Expr::lit(5))
            .and(Expr::col("companyID").ne(Expr::lit(3)))
            .or(Expr::col("price").eq(Expr::lit(7)));
        let op = Operator::Filter {
            predicate: pred.clone(),
        };
        let (out, _) = eng.execute_op(&op, &[&rel]).unwrap();
        let expected = execute(&op, &[&rel]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        // An arithmetic predicate is rejected.
        let bad = Operator::Filter {
            predicate: Expr::col("price").add(Expr::lit(1)),
        };
        assert!(matches!(
            eng.execute_op(&bad, &[&rel]),
            Err(MpcError::Unsupported(_))
        ));
    }

    #[test]
    fn unsupported_operators() {
        let mut eng = sharemind();
        let rel = sales();
        assert!(matches!(
            eng.execute_op(
                &Operator::Divide {
                    out: "x".into(),
                    num: Operand::col("price"),
                    den: Operand::lit(2)
                },
                &[&rel]
            ),
            Err(MpcError::Unsupported(_))
        ));
        assert!(eng
            .execute_op(
                &Operator::HybridJoin {
                    left_keys: vec!["companyID".into()],
                    right_keys: vec!["companyID".into()],
                    stp: 1
                },
                &[&rel, &rel]
            )
            .is_err());
        // Multi-column group-by is not supported under MPC.
        assert!(eng
            .execute_op(
                &Operator::Aggregate {
                    group_by: vec!["companyID".into(), "price".into()],
                    func: AggFunc::Count,
                    over: None,
                    out: "n".into()
                },
                &[&rel]
            )
            .is_err());
    }

    #[test]
    fn execute_op_tables_matches_execute_op_and_avoids_conversions() {
        let rel = sales();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let mut eng = sharemind();
        let (expected, row_stats) = eng.execute_op(&op, &[&rel]).unwrap();
        // Columnar-backed table: shared column-at-a-time, zero conversions.
        let mut eng2 = sharemind();
        let table = conclave_engine::Table::from_columns(
            conclave_engine::ColumnarRelation::from_rows(&rel),
        );
        let (out, stats) = eng2.execute_op_tables(&op, &[&table]).unwrap();
        assert!(out.same_rows_unordered(&expected));
        assert_eq!(table.conversion_counts().total(), 0);
        assert_eq!(stats.counts.input_elems, row_stats.counts.input_elems);
        // Garbled backends take the row path through the same entry point.
        let mut gc = MpcEngine::new(MpcBackendConfig::obliv_c());
        let rows_table = conclave_engine::Table::from_rows(rel.clone());
        let (gc_out, gc_stats) = gc.execute_op_tables(&op, &[&rows_table]).unwrap();
        assert!(gc_out.same_rows_unordered(&expected));
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
                    kind: JoinKind::Inner,
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
            kind: JoinKind::Inner,
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
            kind: JoinKind::Inner,
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
        assert_eq!(
            counts(&grouped, false).since(&counts(&grouped, true)),
            sort_counts(n, cols)
        );
        assert_eq!(
            eng.estimate_op(&grouped, &[n], &[cols], n / 10).unwrap(),
            eng.estimate_op_presorted(&grouped, &[n], &[cols], n / 10, false)
                .unwrap()
        );
        // A scalar aggregation never sorts, so the flag changes nothing.
        assert_eq!(counts(&agg(&[]), true), counts(&agg(&[]), false));
        assert_eq!(counts(&agg(&[]), false), counts(&grouped, true));
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
        assert_eq!(
            stats.counts,
            PrimitiveCounts {
                comparisons: 30_000,
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
