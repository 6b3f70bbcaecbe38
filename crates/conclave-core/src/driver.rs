//! The multi-party driver: executes a compiled [`PhysicalPlan`].
//!
//! The driver plays the role of the per-party Conclave agents (§4.1): it
//! walks the compiled DAG in topological order and dispatches every node to
//! the engine its execution site calls for — a cleartext [`Executor`]
//! (sequential or data-parallel, row or columnar) for local and STP steps,
//! the MPC engine for operators inside the MPC frontier, and the dedicated
//! hybrid-protocol implementations for the operators §5.3 introduces.
//!
//! All intermediate results move through the unified [`Table`] data plane:
//! the result store is a `HashMap<NodeId, Table>`, executors produce tables
//! in their native representation, and row↔columnar conversion happens only
//! where data genuinely changes domain (input binding, secret-share reveals,
//! result collection). The per-run conversion tally lands in
//! [`RunReport::conversions`]. Along the way the driver accumulates the
//! modeled account of the run ([`crate::report::Modeled`]: per-party
//! runtimes, MPC and STP time, modeled bytes), MPC statistics, the traffic a
//! party mesh measured ([`RunReport::net`], kept apart from the modeled
//! bytes), and the *leakage log*: before handing cleartext to a party the
//! driver looks the reveal up in the plan's [`LeakageReport`] (the linter's
//! certificate, re-derived at the top of every run), refuses it if absent and
//! logs the matched [`Disclosure`] — so [`RunReport::leakage`] is a subset of
//! [`RunReport::static_leakage`] by construction.

use crate::config::{ConclaveConfig, LocalBackend};
use crate::hybrid_exec;
use crate::party_exec;
use crate::passes::leakage::{Disclosure, LeakageReport};
use crate::plan::PhysicalPlan;
use crate::report::RunReport;
use conclave_engine::{
    execute, sequential_executor, ConversionCounts, EngineError, Executor, Relation, Table,
};
use conclave_ir::dag::NodeId;
use conclave_ir::error::IrError;
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::PartyId;
use conclave_mpc::backend::{MpcEngine, MpcError};
use conclave_mpc::cost::DIVIDE_COMPARISONS_PER_ROW;
use conclave_parallel::ParallelEngine;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Errors raised during plan execution.
#[derive(Debug)]
pub enum DriverError {
    /// An input relation named by the query was not bound to data.
    MissingInput(String),
    /// The plan failed the pre-execution re-verification for a reason other
    /// than a leakage violation.
    Compile(crate::plan::CompileError),
    /// A cleartext engine error (typed; the source chain is preserved).
    Engine(EngineError),
    /// An MPC backend error (including garbled-circuit out-of-memory).
    Mpc(MpcError),
    /// An IR-level error.
    Ir(IrError),
    /// A transport failure in the distributed party runtime (timeout,
    /// disconnect, socket I/O).
    Transport(conclave_net::TransportError),
    /// The plan would reveal data to a party that the leakage linter does not
    /// certify — the driver refuses to execute it.
    UnauthorizedReveal {
        /// Offending node.
        node: NodeId,
        /// Party that would receive the data.
        to_party: PartyId,
        /// Description of the data.
        what: String,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::MissingInput(n) => write!(f, "no data bound for input relation `{n}`"),
            DriverError::Compile(e) => write!(f, "compilation error: {e}"),
            DriverError::Engine(e) => write!(f, "cleartext engine error: {e}"),
            DriverError::Mpc(e) => write!(f, "MPC error: {e}"),
            DriverError::Ir(e) => write!(f, "IR error: {e}"),
            DriverError::Transport(e) => write!(f, "party-runtime transport error: {e}"),
            DriverError::UnauthorizedReveal {
                node,
                to_party,
                what,
            } => write!(
                f,
                "refusing to reveal {what} of node #{node} to unauthorized party P{to_party}"
            ),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Engine(e) => Some(e),
            DriverError::Mpc(e) => Some(e),
            DriverError::Ir(e) => Some(e),
            DriverError::Transport(e) => Some(e),
            DriverError::Compile(e) => Some(e),
            DriverError::MissingInput(_) | DriverError::UnauthorizedReveal { .. } => None,
        }
    }
}

impl From<EngineError> for DriverError {
    fn from(e: EngineError) -> Self {
        DriverError::Engine(e)
    }
}

impl From<MpcError> for DriverError {
    fn from(e: MpcError) -> Self {
        DriverError::Mpc(e)
    }
}

impl From<IrError> for DriverError {
    fn from(e: IrError) -> Self {
        DriverError::Ir(e)
    }
}

/// Executes compiled plans over bound input data.
///
/// In a distributed [`crate::config::PartyRuntime`] mode the driver **keeps
/// its party mesh between runs**: the first MPC-bearing plan builds it, and
/// every such plan — first included — is one
/// [`begin_query`](party_exec::PartyMeshRuntime::begin_query) …
/// [`end_query`](party_exec::PartyMeshRuntime::end_query) on it, so a driver
/// run twice reuses one set of workers, sessions and MAC key
/// ([`RunReport::mesh_builds`] 1, then 0; a [`crate::config::DealerMode::File`]
/// stock is not reloaded, so it must cover every run) and each report carries
/// only its own run's traffic. The mesh lives exactly as long as its owner:
/// per-run isolation is [`crate::session::Session`], which builds a driver
/// per run and drops it; [`crate::session::PersistentSession`] keeps its
/// driver. A failed run drops the mesh, so a failed query can never leave
/// stale shares or a desynchronized work queue behind.
pub struct Driver {
    config: ConclaveConfig,
    mpc: MpcEngine,
    /// Executor for local per-party cleartext steps (site-selected backend).
    local_exec: Box<dyn Executor + Send + Sync>,
    /// Executor for STP/helper steps of hybrid protocols (always sequential:
    /// the trusted party runs them single-site).
    stp_exec: Box<dyn Executor + Send + Sync>,
    /// The party mesh, once a run has needed one. [`Driver::run_tables`]
    /// takes it out while a plan runs and puts it back on success.
    mesh: Option<party_exec::PartyMeshRuntime>,
}

impl Driver {
    /// Creates a driver for the given configuration.
    pub fn new(config: ConclaveConfig) -> Self {
        let mpc = MpcEngine::new(config.mpc);
        let local_exec: Box<dyn Executor + Send + Sync> = match config.local_backend {
            LocalBackend::Parallel => {
                Box::new(ParallelEngine::new(config.cluster).with_mode(config.engine_mode))
            }
            LocalBackend::Sequential => sequential_executor(config.engine_mode),
        };
        let stp_exec = sequential_executor(config.engine_mode);
        Driver {
            config,
            mpc,
            local_exec,
            stp_exec,
            mesh: None,
        }
    }

    /// Drops the party mesh (if any), joining its workers. The next run
    /// builds a fresh one.
    pub fn reset_mesh(&mut self) {
        self.mesh = None;
    }

    /// Whether a party mesh is currently alive from an earlier run.
    pub fn has_live_mesh(&self) -> bool {
        self.mesh.is_some()
    }

    /// The executor used for local cleartext steps.
    pub fn local_executor(&self) -> &dyn Executor {
        &*self.local_exec
    }

    /// Executes a plan. `inputs` binds every `input` relation name to a
    /// [`Table`]; binding column-backed tables lets a columnar-mode plan run
    /// with zero row↔columnar conversions before the reveal boundary.
    pub fn run_tables(
        &mut self,
        plan: &PhysicalPlan,
        inputs: &HashMap<String, Table>,
    ) -> Result<RunReport, DriverError> {
        // Re-verify the plan before executing a single node: even a plan
        // tampered with after compilation (or built by hand) must pass the
        // static leakage linter. Its report is this run's certificate: the
        // only authority `reveal` consults below.
        let certificate =
            crate::passes::leakage::run(&plan.dag, &plan.parties).map_err(|e| match e {
                crate::plan::CompileError::Leakage(v) => DriverError::UnauthorizedReveal {
                    node: v.node,
                    to_party: v.party,
                    what: format!("column `{}`", v.column),
                },
                other => DriverError::Compile(other),
            })?;
        let mut report = RunReport::default();
        let mut results: HashMap<NodeId, Table> = HashMap::new();
        // Every table that enters the result store, with its conversion
        // counter at insertion time: the per-run conversion tally is the sum
        // of the deltas (tables bound by the caller may carry pre-run
        // conversions that must not be charged to this run).
        let mut tracked: Vec<(Table, ConversionCounts)> = Vec::new();
        let order = plan.dag.topo_order()?;

        // Distributed party runtime: one mesh and one set of party workers,
        // created lazily at the first MPC step of the first plan that has
        // one. Steps are enqueued without waiting; their intermediate results
        // stay resident on the workers as shares and are opened only at
        // reveal boundaries.
        let distributed = self.config.party_runtime.is_distributed()
            && self.mpc.config().kind.is_secret_sharing();
        // The mesh is taken (not borrowed): if this run errors out anywhere
        // below, the mesh is dropped with it and the driver is back in a
        // defined, mesh-less state.
        let mut mesh_rt: Option<party_exec::PartyMeshRuntime> = self.mesh.take();
        // Node → enqueued step id, for wiring resident inputs and reveals.
        // Non-empty iff this plan opened a query on the mesh.
        let mut mpc_steps: HashMap<NodeId, u32> = HashMap::new();
        // Step id → index into `report.per_node` whose duration is patched
        // once the step's primitive counts arrive at finish.
        let mut step_nodes: HashMap<u32, usize> = HashMap::new();
        let pipelined = |node: &conclave_ir::dag::DagNode| {
            distributed && node.site.is_mpc() && party_exec::op_is_party_capable(&node.op)
        };
        // Which nodes consume each node's output: a step must be revealed iff
        // some consumer runs outside the party pipeline (or nothing consumes
        // it, so the result would otherwise be lost).
        let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for node in plan.dag.iter() {
            for &i in &node.inputs {
                consumers.entry(i).or_default().push(node.id);
            }
        }

        for id in order {
            let node = plan.dag.node(id)?;
            if pipelined(node) {
                let rt = match &mut mesh_rt {
                    Some(rt) => rt,
                    None => mesh_rt.insert(party_exec::PartyMeshRuntime::with_dealer(
                        self.mpc.config().kind.parties(),
                        self.config.mpc.seed,
                        self.config.party_runtime,
                        &self.config.dealer,
                    )?),
                };
                if mpc_steps.is_empty() {
                    rt.begin_query()?;
                }
                let reveal = consumers.get(&id).is_none_or(|cs| {
                    cs.iter()
                        .any(|&c| plan.dag.node(c).map(|cn| !pipelined(cn)).unwrap_or(true))
                });
                let step_inputs: Vec<party_exec::StepInput> = node
                    .inputs
                    .iter()
                    .map(|i| match mpc_steps.get(i) {
                        Some(&s) => party_exec::StepInput::Resident(s),
                        None => party_exec::StepInput::Table(
                            results.get(i).expect("topological order").as_rows().clone(),
                        ),
                    })
                    .collect();
                let presorted = plan.aggregate_is_presorted(id);
                let step = rt.enqueue(&node.op, step_inputs, presorted, reveal)?;
                mpc_steps.insert(id, step);
                step_nodes.insert(step, report.per_node.len());
                report.per_node.push((id, node.site, Duration::ZERO));
                continue;
            }
            // A cleartext step consuming an MPC-produced relation has that
            // relation revealed to its executing party: certify it before
            // anything is opened.
            if let ExecSite::Local(party) | ExecSite::Stp(party) = node.site {
                for &input in &node.inputs {
                    let parent = plan.dag.node(input)?;
                    if parent.site.is_mpc() && !parent.op.is_output() {
                        reveal(&certificate, &mut report.leakage, input, id, party)?;
                    }
                }
            }
            // This node runs outside the party pipeline: any MPC-resident
            // input it consumes crosses a reveal boundary here, so block
            // until the opened (and cross-party-checked) relation arrives.
            // (An MPC-site consumer gets here too — the cleartext `Divide`
            // substitute of `run_mpc_op` — and the certificate does not cover
            // that open: docs/SECURITY.md, "Fidelity substitutions".)
            for &i in &node.inputs {
                if let Some(&s) = mpc_steps.get(&i) {
                    if let std::collections::hash_map::Entry::Vacant(e) = results.entry(i) {
                        let rt = mesh_rt.as_mut().expect("enqueued steps imply a runtime");
                        let table = Table::from_rows(rt.wait_opened(s)?);
                        tracked.push((table.clone(), table.conversion_counts()));
                        e.insert(table);
                    }
                }
            }
            let input_tables: Vec<&Table> = node
                .inputs
                .iter()
                .map(|i| results.get(i).expect("topological order"))
                .collect();
            let (result, elapsed) = match (&node.op, node.site) {
                (Operator::Input { name, .. }, _) => {
                    let table = inputs
                        .get(name)
                        .cloned()
                        .ok_or_else(|| DriverError::MissingInput(name.clone()))?;
                    (table, Duration::ZERO)
                }
                (Operator::Collect { recipients }, _) => {
                    let table = input_tables[0].clone();
                    for r in recipients.iter() {
                        reveal(&certificate, &mut report.leakage, id, id, r)?;
                        report.outputs.insert(r, table.as_rows().clone());
                    }
                    (table, Duration::ZERO)
                }
                (
                    Operator::HybridJoin {
                        left_keys,
                        right_keys,
                        stp,
                    },
                    _,
                ) => {
                    reveal(&certificate, &mut report.leakage, id, id, *stp)?;
                    let outcome = hybrid_exec::hybrid_join(
                        &mut self.mpc,
                        &*self.stp_exec,
                        input_tables[0],
                        input_tables[1],
                        left_keys,
                        right_keys,
                        *stp,
                    )?;
                    self.absorb_hybrid(&mut report, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (
                    Operator::PublicJoin {
                        left_keys,
                        right_keys,
                        helper,
                    },
                    _,
                ) => {
                    reveal(&certificate, &mut report.leakage, id, id, *helper)?;
                    let outcome = hybrid_exec::public_join(
                        &*self.stp_exec,
                        input_tables[0],
                        input_tables[1],
                        left_keys,
                        right_keys,
                        *helper,
                    )?;
                    self.absorb_hybrid(&mut report, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (
                    Operator::HybridAggregate {
                        group_by,
                        func,
                        over,
                        out,
                        stp,
                    },
                    _,
                ) => {
                    reveal(&certificate, &mut report.leakage, id, id, *stp)?;
                    let outcome = hybrid_exec::hybrid_aggregate(
                        &mut self.mpc,
                        &*self.stp_exec,
                        input_tables[0],
                        group_by,
                        *func,
                        over.as_deref(),
                        out,
                        *stp,
                    )?;
                    self.absorb_hybrid(&mut report, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (op, ExecSite::Mpc) => {
                    // In distributed mode only the operators the party
                    // drivers cannot run (the simulated `Divide` path) reach
                    // here; everything else was enqueued on the mesh above.
                    let presorted = plan.aggregate_is_presorted(id);
                    let (table, stats) = self.run_mpc_op(op, &input_tables, presorted)?;
                    report.modeled.charge_mpc(&stats);
                    report.mpc_stats.merge(&stats);
                    (table, stats.simulated_time)
                }
                (op, ExecSite::Local(party)) | (op, ExecSite::Stp(party)) => {
                    let (table, time) = self.run_local_op(op, &input_tables)?;
                    *report.modeled.local_time.entry(party).or_default() += time;
                    (table, time)
                }
                (op, ExecSite::Undecided) => {
                    // Uncompiled DAGs (unit tests, direct execution) run in
                    // the clear sequentially.
                    let (table, time) = self.run_local_op(op, &input_tables)?;
                    (table, time)
                }
            };
            report.per_node.push((id, node.site, elapsed));
            tracked.push((result.clone(), result.conversion_counts()));
            results.insert(id, result);
        }
        // End the query on the party mesh: flush in-flight opens, collect
        // every step's primitive counts (pricing them into the modeled time
        // and patching the per-node duration placeholders), and record the
        // observed wire traffic — in `net`, never in `modeled.bytes`.
        // A plan that never touched the mesh puts it back as it found it.
        if let Some(mut rt) = mesh_rt {
            if !mpc_steps.is_empty() {
                let summary = rt.end_query()?;
                for outcome in &summary.steps {
                    let stats = self.mpc.stats_from_counts(
                        outcome.counts,
                        outcome.input_rows,
                        outcome.output_rows,
                    );
                    report.modeled.mpc_time += stats.simulated_time;
                    report.mpc_stats.merge(&stats);
                    if let Some(&idx) = step_nodes.get(&outcome.step) {
                        report.per_node[idx].2 = stats.simulated_time;
                    }
                }
                report.net.merge(&summary.net);
                report.dealer_net = summary.dealer_net;
            }
            self.mesh = Some(rt);
        }
        // Tally per-run conversions. Clones share one counter, so count each
        // distinct cache once, from its earliest baseline.
        let mut seen: Vec<&Table> = Vec::new();
        for (table, baseline) in &tracked {
            if seen.iter().any(|s| s.shares_cache_with(table)) {
                continue;
            }
            seen.push(table);
            report
                .conversions
                .merge(&table.conversion_counts().since(baseline));
        }
        report.static_leakage = Some(certificate);
        Ok(report)
    }

    fn absorb_hybrid(&self, report: &mut RunReport, outcome: &hybrid_exec::HybridOutcome) {
        report.modeled.charge_mpc(&outcome.mpc_stats);
        report.modeled.stp_time += outcome.stp_time;
        report.mpc_stats.merge(&outcome.mpc_stats);
        // Conversions on the protocol's internal tables (revealed keys,
        // enumerations, index relations) never enter the result store, so
        // they are tallied here instead of by the end-of-run sweep.
        report.conversions.merge(&outcome.conversions);
    }

    fn run_local_op(
        &self,
        op: &Operator,
        inputs: &[&Table],
    ) -> Result<(Table, Duration), DriverError> {
        let table = self
            .local_exec
            .execute(op, inputs)
            .map_err(DriverError::Engine)?;
        let time = self
            .local_exec
            .estimate_tables(op, inputs, table.num_rows() as u64);
        Ok((table, time))
    }

    fn run_mpc_op(
        &mut self,
        op: &Operator,
        inputs: &[&Table],
        presorted: bool,
    ) -> Result<(Table, conclave_mpc::backend::MpcStepStats), DriverError> {
        // Division under MPC: Sharemind supports fixed-point division, but our
        // secret-sharing layer stays integer-only. The result is computed by
        // the simulator while the cost of an oblivious division protocol is
        // charged, so the "whole query under MPC" baselines of Figures 4 and 6
        // remain runnable. This holds in every party-runtime mode.
        if matches!(op, Operator::Divide { .. }) && self.mpc.config().kind.is_secret_sharing() {
            let rows: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
            let rel = execute(op, &rows).map_err(DriverError::Engine)?;
            let n: u64 = inputs.iter().map(|t| t.num_rows() as u64).sum();
            let counts = conclave_mpc::cost::PrimitiveCounts {
                comparisons: DIVIDE_COMPARISONS_PER_ROW * n,
                input_elems: n,
                opened_elems: rel.num_rows() as u64,
                ..Default::default()
            };
            let stats = self.mpc.stats_from_counts(counts, n, rel.num_rows() as u64);
            return Ok((Table::from_rows(rel), stats));
        }
        // Sort-elimination pay-off: an MPC aggregation whose input is already
        // sorted by its group-by key skips the oblivious sort (§5.4).
        self.mpc
            .execute_op_presorted(op, inputs, presorted)
            .map(|(rel, stats)| (Table::from_rows(rel), stats))
            .map_err(DriverError::from)
    }
}

/// The driver's one authorization: `party` may be handed the output of `node`
/// at `at_node` only if the run's certificate holds a [`Disclosure`] saying
/// so, which is then logged (once) as exercised. Anything else fails closed.
fn reveal(
    certificate: &LeakageReport,
    log: &mut Vec<Disclosure>,
    node: NodeId,
    at_node: NodeId,
    party: PartyId,
) -> Result<(), DriverError> {
    let disclosure = certificate
        .disclosure(node, at_node, party)
        .ok_or_else(|| DriverError::UnauthorizedReveal {
            node,
            to_party: party,
            what: format!("an output the leakage certificate does not cover (at node #{at_node})"),
        })?;
    if !log.contains(disclosure) {
        log.push(disclosure.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::leakage::DisclosureKind;
    use crate::plan::compile;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::{DataType, Value};

    fn market_inputs() -> HashMap<String, Table> {
        let mut m = HashMap::new();
        m.insert(
            "inputA".to_string(),
            Relation::from_ints(
                &["companyID", "price"],
                &[vec![1, 10], vec![2, 0], vec![1, 5]],
            )
            .into(),
        );
        m.insert(
            "inputB".to_string(),
            Relation::from_ints(&["companyID", "price"], &[vec![2, 7], vec![3, 9]]).into(),
        );
        m.insert(
            "inputC".to_string(),
            Relation::from_ints(&["companyID", "price"], &[vec![1, 3], vec![3, 4]]).into(),
        );
        m
    }

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
        let filtered = q.filter(taxi, Expr::col("price").gt(Expr::lit(0)));
        let rev = q.aggregate(filtered, "local_rev", AggFunc::Sum, &["companyID"], "price");
        q.collect(rev, &[pa]);
        q.build().unwrap()
    }

    /// Expected per-company revenue for `market_inputs` (zero fares removed).
    fn expected_market_result() -> Relation {
        Relation::from_ints(
            &["companyID", "local_rev"],
            &[vec![1, 18], vec![2, 7], vec![3, 13]],
        )
    }

    #[test]
    fn end_to_end_market_query_matches_cleartext_reference() {
        let query = market_query();
        for config in [
            ConclaveConfig::standard(),
            ConclaveConfig::standard().with_sequential_local(),
            ConclaveConfig::mpc_only(),
        ] {
            let plan = compile(&query, &config).unwrap();
            let mut driver = Driver::new(config);
            let report = driver.run_tables(&plan, &market_inputs()).unwrap();
            let out = report.output_for(1).expect("party 1 receives the result");
            assert!(
                out.same_rows_unordered(&expected_market_result()),
                "wrong result:\n{out}"
            );
            assert!(report.modeled.total_time() > Duration::ZERO);
        }
    }

    #[test]
    fn optimized_plan_is_faster_than_mpc_only_plan() {
        let query = market_query();
        let optimized_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let baseline_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let optimized = d1.run_tables(&optimized_plan, &market_inputs()).unwrap();
        let baseline = d2.run_tables(&baseline_plan, &market_inputs()).unwrap();
        assert!(
            optimized.modeled.mpc_time < baseline.modeled.mpc_time,
            "optimized MPC time {:?} should be below baseline {:?}",
            optimized.modeled.mpc_time,
            baseline.modeled.mpc_time
        );
    }

    #[test]
    fn missing_input_is_reported() {
        let query = market_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mut driver = Driver::new(ConclaveConfig::standard());
        let mut inputs = market_inputs();
        inputs.remove("inputB");
        match driver.run_tables(&plan, &inputs) {
            Err(DriverError::MissingInput(name)) => assert_eq!(name, "inputB"),
            other => panic!("expected MissingInput, got {other:?}"),
        }
    }

    fn credit_query() -> conclave_ir::builder::Query {
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
        q.build().unwrap()
    }

    fn credit_inputs() -> HashMap<String, Table> {
        let mut m = HashMap::new();
        m.insert(
            "demographics".to_string(),
            Relation::from_ints(
                &["ssn", "zip"],
                &[vec![1, 10], vec![2, 20], vec![3, 10], vec![4, 30]],
            )
            .into(),
        );
        m.insert(
            "scores1".to_string(),
            Relation::from_ints(&["ssn", "score"], &[vec![1, 700], vec![3, 650]]).into(),
        );
        m.insert(
            "scores2".to_string(),
            Relation::from_ints(&["ssn", "score"], &[vec![2, 600], vec![3, 640], vec![9, 1]])
                .into(),
        );
        m
    }

    #[test]
    fn credit_query_with_hybrid_operators_is_correct_and_audited() {
        use crate::config::PartyRuntime;
        let query = credit_query();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        assert_eq!(plan.hybrid_node_count(), 2);
        for runtime in [PartyRuntime::Simulated, PartyRuntime::Channel] {
            let config = ConclaveConfig::standard()
                .with_sequential_local()
                .with_party_runtime(runtime);
            let report = Driver::new(config)
                .run_tables(&plan, &credit_inputs())
                .unwrap();
            let out = report.output_for(1).unwrap();
            // zip 10: scores 700 + 650 + 640 = 1990; zip 20: 600.
            let expected = Relation::from_ints(&["zip", "total"], &[vec![10, 1990], vec![20, 600]]);
            assert!(out.same_rows_unordered(&expected), "got\n{out}");
            // The log is made of the certificate's own disclosures, and shows
            // reveals to the STP (party 1) only: the hybrid operators' keys,
            // the aggregate opened for the collect, and the query output.
            let certified = &report.static_leakage.as_ref().unwrap().disclosures;
            assert!(report.leakage.iter().all(|d| certified.contains(d)));
            assert!(report.leakage.iter().all(|d| d.to_party == 1));
            for kind in [
                DisclosureKind::StpKeys,
                DisclosureKind::CleartextOpen,
                DisclosureKind::QueryOutput,
            ] {
                assert!(
                    report.leakage.iter().any(|d| d.kind == kind),
                    "{runtime:?}: no {kind} entry in {:?}",
                    report.leakage
                );
            }
            assert!(report.modeled.stp_time > Duration::ZERO);
        }
    }

    #[test]
    fn reveal_fails_closed_without_a_matching_disclosure() {
        let mut log = Vec::new();
        match reveal(&LeakageReport::default(), &mut log, 3, 4, 2) {
            Err(DriverError::UnauthorizedReveal {
                node: 3,
                to_party: 2,
                ..
            }) => {}
            other => panic!("expected UnauthorizedReveal for node 3 / P2, got {other:?}"),
        }
        assert!(log.is_empty());
    }

    #[test]
    fn public_join_helper_reveal_is_certified_and_logged() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let schema = Schema::new(vec![
            ColumnDef::public("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let a = q.input("a", schema.clone(), pa.clone());
        let b = q.input("b", schema, pb);
        let joined = q.join(a, b, &["k"], &["k"]);
        q.collect(joined, &[pa]);
        let plan = compile(&q.build().unwrap(), &ConclaveConfig::standard()).unwrap();
        let (join_id, helper) = plan
            .dag
            .iter()
            .find_map(|n| match n.op {
                Operator::PublicJoin { helper, .. } => Some((n.id, helper)),
                _ => None,
            })
            .expect("public keys compile to a public join");
        let mut inputs = HashMap::new();
        inputs.insert(
            "a".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![1, 2], vec![2, 3]]).into(),
        );
        inputs.insert(
            "b".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![2, 5]]).into(),
        );
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let report = driver.run_tables(&plan, &inputs).unwrap();
        assert_eq!(report.output_for(1).unwrap().num_rows(), 1);
        assert!(report.leakage.iter().any(|d| d.node == join_id
            && d.to_party == helper
            && d.kind == DisclosureKind::StpKeys
            && d.columns == ["k"]));
    }

    #[test]
    fn hybrid_and_mpc_only_plans_agree_on_results() {
        let query = credit_query();
        // Use a somewhat larger input so the asymptotic advantage of the
        // hybrid operators is visible (at a handful of rows the oblivious
        // indexing overhead dominates).
        let mut inputs = HashMap::new();
        let demo: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
        let s1: Vec<Vec<i64>> = (0..30).map(|i| vec![i * 2, 500 + i]).collect();
        let s2: Vec<Vec<i64>> = (0..30).map(|i| vec![i * 2 + 1, 600 + i]).collect();
        inputs.insert(
            "demographics".to_string(),
            Relation::from_ints(&["ssn", "zip"], &demo).into(),
        );
        inputs.insert(
            "scores1".to_string(),
            Relation::from_ints(&["ssn", "score"], &s1).into(),
        );
        inputs.insert(
            "scores2".to_string(),
            Relation::from_ints(&["ssn", "score"], &s2).into(),
        );
        let hybrid_plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mpc_plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let a = d1.run_tables(&hybrid_plan, &inputs).unwrap();
        let b = d2.run_tables(&mpc_plan, &inputs).unwrap();
        assert!(a
            .output_for(1)
            .unwrap()
            .same_rows_unordered(b.output_for(1).unwrap()));
        // Hybrid execution needs fewer non-linear MPC operations.
        assert!(
            a.mpc_stats.counts.nonlinear_ops() < b.mpc_stats.counts.nonlinear_ops(),
            "{} vs {}",
            a.mpc_stats.counts.nonlinear_ops(),
            b.mpc_stats.counts.nonlinear_ops()
        );
    }

    #[test]
    fn driver_refuses_unauthorized_hybrid_reveals() {
        // Build a plan where the hybrid join's STP is NOT in the key columns'
        // trust sets by tampering with the compiled plan.
        let query = credit_query();
        let mut plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let join_id = plan
            .dag
            .iter()
            .find(|n| matches!(n.op, Operator::HybridJoin { .. }))
            .unwrap()
            .id;
        if let Operator::HybridJoin { ref mut stp, .. } = plan.dag.node_mut(join_id).unwrap().op {
            *stp = 2; // bank A is not trusted with the regulator's SSN column
        }
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        match driver.run_tables(&plan, &credit_inputs()) {
            Err(DriverError::UnauthorizedReveal { to_party, .. }) => assert_eq!(to_party, 2),
            other => panic!("expected UnauthorizedReveal, got {other:?}"),
        }
    }

    #[test]
    fn distributed_party_runtime_matches_the_simulated_oracle_end_to_end() {
        use crate::config::PartyRuntime;
        let query = market_query();
        let inputs = market_inputs();
        // Oracle: the default simulated in-process path.
        let plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        let mut oracle = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let expected = oracle.run_tables(&plan, &inputs).unwrap();
        // The oracle saw no wire: everything it reports is modeled.
        assert_eq!(expected.net.total_bytes(), 0);
        assert!(expected.modeled.bytes > 0);
        assert!(!expected.to_string().contains("measured"));
        for runtime in [PartyRuntime::Channel, PartyRuntime::Tcp] {
            let config = ConclaveConfig::mpc_only()
                .with_sequential_local()
                .with_party_runtime(runtime);
            let plan = compile(&query, &config).unwrap();
            let mut driver = Driver::new(config);
            let report = driver.run_tables(&plan, &inputs).unwrap();
            let out = report.output_for(1).unwrap();
            assert!(
                out.same_rows_unordered(expected.output_for(1).unwrap()),
                "{runtime:?} runtime diverged from the oracle:\n{out}"
            );
            assert!(report.net.total_bytes() > 0);
            assert!(report.net.rounds > 0);
            // Every MPC step ran on the mesh: nothing is modeled as bytes,
            // and the modeled time prices the counts the mesh reported.
            assert_eq!(report.modeled.bytes, 0);
            assert!(report.modeled.mpc_time > Duration::ZERO);
            let shown = report.to_string();
            assert!(shown.contains("measured (party transports)"));
            assert!(shown.contains("link P0 -> P1"));
        }
    }

    #[test]
    fn collect_outputs_are_recorded_per_recipient() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "v"]), pb.clone());
        let cat = q.concat(&[a, b]);
        let agg = q.aggregate(cat, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa, pb]);
        let query = q.build().unwrap();
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut inputs = HashMap::new();
        inputs.insert(
            "a".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![1, 2]]).into(),
        );
        inputs.insert(
            "b".to_string(),
            Relation::from_ints(&["k", "v"], &[vec![1, 3]]).into(),
        );
        let report = driver.run_tables(&plan, &inputs).unwrap();
        assert!(report.output_for(1).is_some());
        assert!(report.output_for(2).is_some());
        assert_eq!(
            report.output_for(1).unwrap().rows[0],
            vec![Value::Int(1), Value::Int(5)]
        );
        let shown = report.to_string();
        assert!(shown.contains("modeled (cost model × primitive counts)"));
    }
}
