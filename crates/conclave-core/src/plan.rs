//! Query compilation: running the analysis and rewrite passes, partitioning
//! the DAG into execution stages, and producing a [`PhysicalPlan`].

use crate::analysis;
use crate::config::ConclaveConfig;
use crate::passes;
use crate::passes::leakage::{LeakageReport, LeakageViolation};
use conclave_ir::builder::Query;
use conclave_ir::dag::{NodeId, OpDag};
use conclave_ir::error::IrError;
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::PartySet;
use std::fmt;

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An IR-level error (unknown column, malformed DAG).
    Ir(IrError),
    /// The query cannot be compiled under the given configuration.
    Unsupported(String),
    /// The leakage linter proved the plan would disclose a column to a party
    /// outside its trust set.
    Leakage(LeakageViolation),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "compilation failed: {e}"),
            CompileError::Unsupported(s) => write!(f, "unsupported query: {s}"),
            CompileError::Leakage(v) => write!(f, "leakage check failed: {v}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

/// Result alias for compilation.
pub type CompileResult<T> = Result<T, CompileError>;

/// One execution stage of the compiled plan: a maximal set of consecutive
/// (topologically ordered) nodes that run at the same site.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Where this stage executes.
    pub site: ExecSite,
    /// Node ids in topological order.
    pub nodes: Vec<NodeId>,
}

/// The compiled query plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The rewritten operator DAG with all annotations filled in.
    pub dag: OpDag,
    /// All parties participating in the query.
    pub parties: PartySet,
    /// Human-readable log of the transformations the compiler applied.
    pub transformations: Vec<String>,
    /// The compiler configuration used.
    pub config: ConclaveConfig,
    /// The statically certified per-party leakage account of the plan,
    /// produced by the mandatory [`passes::leakage`] pass.
    pub leakage: LeakageReport,
}

impl PhysicalPlan {
    /// Partitions the DAG into stages by walking it in topological order and
    /// starting a new stage at every site transition.
    pub fn stages(&self) -> Vec<Stage> {
        let mut stages: Vec<Stage> = Vec::new();
        let Ok(order) = self.dag.topo_order() else {
            return stages;
        };
        for id in order {
            let Ok(node) = self.dag.node(id) else {
                continue;
            };
            match stages.last_mut() {
                Some(stage) if stage.site == node.site => stage.nodes.push(id),
                _ => stages.push(Stage {
                    site: node.site,
                    nodes: vec![id],
                }),
            }
        }
        stages
    }

    /// Number of nodes executing under MPC.
    pub fn mpc_node_count(&self) -> usize {
        passes::sites::mpc_node_count(&self.dag)
    }

    /// Number of hybrid operators in the plan.
    pub fn hybrid_node_count(&self) -> usize {
        self.dag.iter().filter(|n| n.op.is_hybrid()).count()
    }

    /// Whether node `id` is a grouped aggregation whose input is already
    /// sorted by its group-by key, so under MPC the oblivious sort can be
    /// skipped (§5.4): the driver executes by this answer and the estimator
    /// prices by it. Only the sort-elimination pass writes `sorted_by`, so a
    /// plan compiled without it answers `false` everywhere.
    pub fn aggregate_is_presorted(&self, id: NodeId) -> bool {
        let presorted = || {
            let node = self.dag.node(id).ok()?;
            let Operator::Aggregate { group_by, .. } = &node.op else {
                return None;
            };
            let input = self.dag.node(*node.inputs.first()?).ok()?;
            Some(input.sorted_by.as_deref()? == group_by.first()?.as_str())
        };
        presorted().unwrap_or(false)
    }

    /// Renders the plan as text (one node per line, grouped implicitly by the
    /// site annotations), matching the format of Figure 2's discussion.
    pub fn render(&self) -> String {
        conclave_ir::display::render_text(&self.dag)
    }
}

/// Compiles a query under a configuration, running every enabled pass in the
/// order the paper describes (§5, stages 1–6).
pub fn compile(query: &Query, config: &ConclaveConfig) -> CompileResult<PhysicalPlan> {
    let mut dag = query.dag.clone();
    let universe = query.party_set();
    let mut transformations = Vec::new();

    // Stage 1: propagate input/output locations (ownership).
    analysis::propagate_ownership(&mut dag)?;

    // Stage 2: MPC frontier push-down.
    if config.use_pushdown {
        let log = passes::pushdown::run(&mut dag, config)?;
        transformations.extend(log);
        dag.recompute_schemas()?;
        analysis::propagate_ownership(&mut dag)?;
    }

    // Stage 3: propagate trust annotations through the (rewritten) DAG.
    analysis::propagate_trust(&mut dag)?;

    // Site assignment for the remaining operators.
    passes::sites::run(&mut dag)?;

    // Stage 4: hybrid operator insertion.
    if config.use_hybrid_operators || config.use_public_join {
        let log = passes::hybrid::run(&mut dag, &universe, config)?;
        transformations.extend(log);
    }

    // MPC frontier push-up (reversible leaf operators).
    if config.use_pushup {
        let log = passes::pushup::run(&mut dag)?;
        transformations.extend(log);
    }

    // Stage 5: oblivious sort tracking / elimination.
    if config.use_sort_elimination {
        let log = passes::sort_elim::run(&mut dag)?;
        transformations.extend(log);
    }

    dag.validate()?;

    // Stage 6 (mandatory): the leakage linter. Every plan the pipeline emits
    // carries a static proof that its cleartext placements and reveals honor
    // the trust annotations — or compilation fails here.
    let leakage = passes::leakage::run(&dag, &universe)?;

    Ok(PhysicalPlan {
        dag,
        parties: universe,
        transformations,
        config: config.clone(),
        leakage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

    /// The market-concentration query (Listing 2), minus the final division
    /// chain which the IR-level test in `conclave-ir` already covers.
    fn market_query() -> Query {
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
        let total = q.aggregate_scalar(rev, "total_rev", AggFunc::Sum, "local_rev");
        q.collect(total, &[pa]);
        q.build().unwrap()
    }

    fn credit_query() -> Query {
        let regulator = Party::new(1, "gov");
        let bank_a = Party::new(2, "a");
        let bank_b = Party::new(3, "b");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::new("zip", DataType::Int),
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
        q.build().unwrap()
    }

    #[test]
    fn market_query_pushdown_shrinks_the_mpc() {
        let query = market_query();
        let optimized = compile(&query, &ConclaveConfig::standard()).unwrap();
        let baseline = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        assert!(
            optimized.mpc_node_count() < baseline.mpc_node_count(),
            "push-down must reduce MPC work: {} vs {}",
            optimized.mpc_node_count(),
            baseline.mpc_node_count()
        );
        assert!(!optimized.transformations.is_empty());
        assert!(optimized.render().contains("aggregate"));
        // The per-party pre-aggregations run locally.
        let local_aggs = optimized
            .dag
            .iter()
            .filter(|n| matches!(n.op, Operator::Aggregate { .. }) && n.site.is_cleartext())
            .count();
        assert_eq!(local_aggs, 3);
    }

    #[test]
    fn credit_query_uses_hybrid_operators_when_annotated() {
        let query = credit_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        assert_eq!(plan.hybrid_node_count(), 2, "{}", plan.render());
        let without = compile(&query, &ConclaveConfig::without_hybrid()).unwrap();
        assert_eq!(without.hybrid_node_count(), 0);
    }

    #[test]
    fn stages_alternate_between_local_and_mpc() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let stages = plan.stages();
        assert!(stages.len() >= 2);
        let all_nodes: usize = stages.iter().map(|s| s.nodes.len()).sum();
        assert_eq!(all_nodes, plan.dag.node_count());
        // There is at least one local stage and at least one MPC stage.
        assert!(stages.iter().any(|s| s.site.is_mpc()));
        assert!(stages.iter().any(|s| s.site.is_cleartext()));
    }

    #[test]
    fn mpc_only_configuration_keeps_everything_under_mpc() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        // Only inputs and the final collect run in the clear.
        for node in plan.dag.iter() {
            if node.op.is_input() || matches!(node.op, Operator::Collect { .. }) {
                assert!(node.site.is_cleartext());
            } else {
                assert!(node.site.is_mpc(), "{} should be MPC", node.op);
            }
        }
    }

    #[test]
    fn compile_error_display() {
        let e = CompileError::Unsupported("window aggregates".into());
        assert!(e.to_string().contains("window"));
        let e: CompileError = IrError::NoOutput.into();
        assert!(e.to_string().contains("output"));
    }
}
