//! The multi-party driver: executes a compiled [`PhysicalPlan`].
//!
//! The driver plays the role of the per-party Conclave agents (§4.1): it
//! walks the compiled DAG in topological order and dispatches every node to
//! the engine its execution site calls for — a cleartext [`Executor`]
//! (sequential or data-parallel, row or columnar, as configured) for local
//! steps, each chain of narrow local steps (ending in at most one aggregate
//! or distinct) run as one fused stage, the party runtime of [`party_exec`] for secret-sharing operators
//! inside the MPC frontier, and the dedicated hybrid-protocol
//! implementations for the operators §5.3 introduces, whose STP steps always
//! run on the sequential vectorized engine; sibling hybrid aggregations
//! (one input, one key list, one STP) run as one k-output call
//! ([`PhysicalPlan::hybrid_aggregate_groups`]).
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
    execute, sequential_executor, ColumnarExecutor, ConversionCounts, EngineError, Executor,
    Relation, StageRole, Table,
};
use conclave_ir::dag::{DagNode, NodeId};
use conclave_ir::error::IrError;
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::PartyId;
use conclave_mpc::backend::{MpcEngine, MpcError};
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
/// The driver **keeps its party runtime between runs** (under `Simulated`,
/// one in-process engine): the first MPC-bearing plan builds it, and every
/// such plan — first included — is one
/// [`begin_query`](party_exec::PartyMeshRuntime::begin_query) …
/// [`end_query`](party_exec::PartyMeshRuntime::end_query) on it, so a driver
/// run twice on a mesh reuses one set of workers, sessions and MAC key
/// ([`RunReport::mesh_builds`] 1, then 0; a [`crate::config::DealerMode::File`]
/// stock is not reloaded, so it must cover every run) and each report carries
/// only its own run's traffic. The runtime lives exactly as long as its owner:
/// per-run isolation is [`crate::session::Session`], which builds a driver
/// per run and drops it; [`crate::session::PersistentSession`] keeps its
/// driver. A failed run drops the mesh, so a failed query can never leave
/// stale shares or a desynchronized work queue behind.
pub struct Driver {
    config: ConclaveConfig,
    mpc: MpcEngine,
    /// Executor for local per-party cleartext steps (site-selected backend).
    local_exec: Box<dyn Executor + Send + Sync>,
    /// Executor for STP/helper steps of hybrid protocols: always the
    /// sequential vectorized engine, whatever the local backend (the trusted
    /// party runs them single-site, on the integer columns the hybrid
    /// protocols open).
    stp_exec: ColumnarExecutor,
    /// The party runtime, once a run has needed one. [`Driver::run_tables`]
    /// takes it out while a plan runs and puts it back on success.
    mesh: Option<party_exec::PartyMeshRuntime>,
}

impl Driver {
    /// Creates a driver for the given configuration.
    pub fn new(config: ConclaveConfig) -> Self {
        let mpc = MpcEngine::new(config.mpc);
        let local_exec: Box<dyn Executor + Send + Sync> = match config.local_backend {
            LocalBackend::Parallel => Box::new(ParallelEngine::new(config.cluster)),
            LocalBackend::Sequential => sequential_executor(config.engine_mode),
        };
        Driver {
            config,
            mpc,
            local_exec,
            stp_exec: ColumnarExecutor::new(),
            mesh: None,
        }
    }

    /// Drops the party runtime (if any), joining its workers. The next run
    /// builds a fresh one.
    pub fn reset_mesh(&mut self) {
        self.mesh = None;
    }

    /// Whether a party runtime is currently alive from an earlier run.
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
        // Every node must have a site before any runs: an unsited one would
        // run in the clear and open its MPC inputs without a certificate
        // lookup, and an MPC step feeding it would start that open at once.
        if let Some(n) = plan.dag.iter().find(|n| n.site == ExecSite::Undecided) {
            return Err(DriverError::Ir(IrError::MalformedDag(format!(
                "node #{} ({}) has no execution site",
                n.id,
                n.op.name()
            ))));
        }
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

        // The party runtime — a mesh and one worker per party, or the
        // in-process engine — is created lazily at the first MPC step of the
        // first plan that has one. Every secret-sharing MPC step it can run
        // is enqueued on it; intermediate results stay resident as shares and
        // are opened only at reveal boundaries.
        let secret_sharing = self.mpc.config().kind.is_secret_sharing();
        // The runtime is taken (not borrowed): if this run errors out
        // anywhere below, it is dropped with the run and the driver is back
        // in a defined, runtime-less state.
        let mut mesh_rt: Option<party_exec::PartyMeshRuntime> = self.mesh.take();
        // Node → enqueued step id, for wiring resident inputs and reveals.
        // Non-empty iff this plan opened a query on the mesh.
        let mut mpc_steps: HashMap<NodeId, u32> = HashMap::new();
        // Step id → index into `report.per_node` whose duration is patched
        // once the step's primitive counts arrive at finish.
        let mut step_nodes: HashMap<u32, usize> = HashMap::new();
        let pipelined = |node: &conclave_ir::dag::DagNode| {
            secret_sharing && node.site.is_mpc() && party_exec::op_is_party_capable(&node.op)
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
        // Local chains run as fused stages when their head's turn comes; a
        // member's duration waits here for the member's own turn, so
        // `per_node` keeps the topological order.
        let stages = local_stages(plan, &consumers)?;
        let mut staged: HashMap<NodeId, Duration> = HashMap::new();
        let hybrid_groups = plan.hybrid_aggregate_groups()?;

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
                            results.get(i).expect("topological order").clone(),
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
            if let ExecSite::Local(party) = node.site {
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
            // (So do MPC-site consumers — hybrids, and the `Divide` substitute
            // of `run_mpc_op`, whose open the certificate does not cover:
            // docs/SECURITY.md, "Fidelity substitutions".)
            for &i in &node.inputs {
                if let Some(&s) = mpc_steps.get(&i) {
                    if let std::collections::hash_map::Entry::Vacant(e) = results.entry(i) {
                        let rt = mesh_rt.as_mut().expect("enqueued steps imply a runtime");
                        let table = Table::from_columns(rt.wait_opened(s)?);
                        tracked.push((table.clone(), table.conversion_counts()));
                        e.insert(table);
                    }
                }
            }
            if let (Some(members), ExecSite::Local(party)) = (stages.get(&id), node.site) {
                let ops = members
                    .iter()
                    .map(|&m| plan.dag.node(m).map(|n| &n.op))
                    .collect::<Result<Vec<_>, _>>()?;
                let input = results.get(&node.inputs[0]).expect("topological order");
                let (table, times) = self.run_local_stage(&ops, input)?;
                for (&member, time) in members.iter().zip(times) {
                    *report.modeled.local_time.entry(party).or_default() += time;
                    staged.insert(member, time);
                }
                tracked.push((table.clone(), table.conversion_counts()));
                results.insert(*members.last().expect("a stage has a head"), table);
            }
            if let Some(elapsed) = staged.remove(&id) {
                report.per_node.push((id, node.site, elapsed));
                continue;
            }
            // Sibling hybrid aggregations run as one k-output call at their
            // head's turn; each member is certified, logged and given its
            // `per_node` entry at its own turn.
            if let Operator::HybridAggregate { group_by, stp, .. } = &node.op {
                reveal(&certificate, &mut report.leakage, id, id, *stp)?;
                if let Some(group) = hybrid_groups.get(&id) {
                    // The STP sees the keys once for every member: each must
                    // be certified before it sees them.
                    for &member in &group.members[1..] {
                        certified(&certificate, member, member, *stp)?;
                    }
                    let input = results.get(&node.inputs[0]).expect("topological order");
                    let outcome = hybrid_exec::hybrid_aggregate_lanes(
                        &mut self.mpc,
                        &self.stp_exec,
                        input,
                        group_by,
                        &group.lanes,
                        *stp,
                    )?;
                    self.absorb_hybrid(&mut report, &outcome);
                    let tables = hybrid_exec::split_lanes(&outcome.result, group_by.len());
                    for (&member, table) in group.members.iter().zip(tables) {
                        tracked.push((table.clone(), table.conversion_counts()));
                        results.insert(member, table);
                    }
                }
                report.per_node.push((id, node.site, Duration::ZERO));
                continue;
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
                        &self.stp_exec,
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
                    let mut outcome = hybrid_exec::public_join(
                        &self.stp_exec,
                        input_tables[0],
                        input_tables[1],
                        left_keys,
                        right_keys,
                        *helper,
                    )?;
                    // No MPC runs: the key exchange is priced by the one price list.
                    let (rows, cols): (Vec<u64>, Vec<u64>) = input_tables
                        .iter()
                        .map(|t| (t.num_rows() as u64, t.schema().len() as u64))
                        .unzip();
                    let out_rows = outcome.result.num_rows() as u64;
                    outcome.mpc_stats = self.mpc.estimate_op(&node.op, &rows, &cols, out_rows)?;
                    self.absorb_hybrid(&mut report, &outcome);
                    (outcome.result, Duration::ZERO)
                }
                (op, ExecSite::Mpc) => {
                    // Only what the party runtime cannot run reaches here:
                    // a secret-sharing `Divide` and every garbled-circuit
                    // step. The rest was enqueued above.
                    let (table, stats) = self.run_mpc_op(op, &input_tables)?;
                    report.modeled.charge_mpc(&stats);
                    report.mpc_stats.merge(&stats);
                    (table, stats.simulated_time)
                }
                (op, ExecSite::Local(party)) => {
                    let (table, time) = self.run_local_op(op, &input_tables)?;
                    *report.modeled.local_time.entry(party).or_default() += time;
                    (table, time)
                }
                (_, ExecSite::Undecided) => unreachable!("unsited plans are refused up front"),
            };
            report.per_node.push((id, node.site, elapsed));
            tracked.push((result.clone(), result.conversion_counts()));
            results.insert(id, result);
        }
        // End the query on the party runtime: flush in-flight opens, collect
        // every step's primitive counts (pricing them into the modeled time
        // and patching the per-node duration placeholders), and record the
        // observed wire traffic in `net`; only unobserved (in-process) steps
        // are modeled as bytes. A plan that never touched the runtime puts
        // it back as it found it.
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
                    if summary.net == conclave_net::NetStats::default() {
                        report.modeled.bytes += stats.counts.bytes();
                    }
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
        // One MPC job per plan, however many steps, as the estimator prices.
        if plan.dag.iter().any(|n| n.site.is_mpc()) {
            report.modeled.mpc_time +=
                Duration::from_secs_f64(self.mpc.config().ss_cost.job_overhead);
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

    /// Runs a fused stage on the local executor, and prices each of its
    /// operators from that operator's own input and output shape, as if it
    /// had run alone.
    fn run_local_stage(
        &self,
        ops: &[&Operator],
        input: &Table,
    ) -> Result<(Table, Vec<Duration>), DriverError> {
        let run = self.local_exec.execute_stage(ops, input)?;
        let mut shape = (input.num_rows(), input.schema());
        let times = ops
            .iter()
            .zip(&run.steps)
            .map(|(op, step)| {
                let time = self
                    .local_exec
                    .estimate_shapes(op, &[shape], step.rows as u64);
                shape = (step.rows, &step.schema);
                time
            })
            .collect();
        Ok((run.output, times))
    }

    fn run_mpc_op(
        &mut self,
        op: &Operator,
        inputs: &[&Table],
    ) -> Result<(Table, conclave_mpc::backend::MpcStepStats), DriverError> {
        // Division under MPC: Sharemind supports fixed-point division, but our
        // secret-sharing layer stays integer-only. The result is computed by
        // the simulator while the price list's oblivious division is
        // charged, so the "whole query under MPC" baselines of Figures 4 and 6
        // remain runnable. This holds under every party runtime.
        if matches!(op, Operator::Divide { .. }) && self.mpc.config().kind.is_secret_sharing() {
            let relations: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
            let rel = execute(op, &relations).map_err(DriverError::Engine)?;
            let (rows, cols): (Vec<u64>, Vec<u64>) = inputs
                .iter()
                .map(|t| (t.num_rows() as u64, t.schema().len() as u64))
                .unzip();
            let stats = self
                .mpc
                .estimate_op(op, &rows, &cols, rel.num_rows() as u64)?;
            return Ok((Table::from_rows(rel), stats));
        }
        let (rel, stats) = self.mpc.execute_op_tables(op, inputs)?;
        Ok((Table::from_rows(rel), stats))
    }
}

/// The plan's fused local stages, by head node. A stage is a maximal chain
/// of single-input local nodes at one party whose operators can share a pass
/// ([`StageRole`]): narrow ones, ending in at most one aggregate or distinct,
/// each but the last consumed by the next alone. A lone such node is a stage
/// of one.
fn local_stages(
    plan: &PhysicalPlan,
    consumers: &HashMap<NodeId, Vec<NodeId>>,
) -> Result<HashMap<NodeId, Vec<NodeId>>, DriverError> {
    let staged = |n: &DagNode| {
        matches!(n.site, ExecSite::Local(_))
            && n.inputs.len() == 1
            && StageRole::of(&n.op).is_some()
    };
    // The node `parent` hands its output to within a stage, if any.
    let next = |parent: &DagNode| -> Result<Option<NodeId>, DriverError> {
        if !staged(parent) || StageRole::of(&parent.op) != Some(StageRole::Narrow) {
            return Ok(None);
        }
        let Some(&[child]) = consumers.get(&parent.id).map(Vec::as_slice) else {
            return Ok(None);
        };
        let child_node = plan.dag.node(child)?;
        Ok((staged(child_node) && child_node.site == parent.site).then_some(child))
    };
    let mut stages = HashMap::new();
    for node in plan.dag.iter().filter(|&n| staged(n)) {
        if next(plan.dag.node(node.inputs[0])?)? == Some(node.id) {
            continue;
        }
        let mut members = vec![node.id];
        while let Some(child) = next(plan.dag.node(*members.last().expect("a head"))?)? {
            members.push(child);
        }
        stages.insert(node.id, members);
    }
    Ok(stages)
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
    let disclosure = certified(certificate, node, at_node, party)?;
    if !log.contains(disclosure) {
        log.push(disclosure.clone());
    }
    Ok(())
}

/// The certificate's [`Disclosure`] letting `party` be handed the output of
/// `node` at `at_node`, or the refusal: [`reveal`] without the logging.
fn certified(
    certificate: &LeakageReport,
    node: NodeId,
    at_node: NodeId,
    party: PartyId,
) -> Result<&Disclosure, DriverError> {
    certificate
        .disclosure(node, at_node, party)
        .ok_or_else(|| DriverError::UnauthorizedReveal {
            node,
            to_party: party,
            what: format!("an output the leakage certificate does not cover (at node #{at_node})"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::leakage::DisclosureKind;
    use crate::plan::compile;
    use conclave_engine::EngineMode;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, Operand};
    use conclave_ir::party::{Party, PartyId};
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::{DataType, Value};
    use conclave_mpc::PrimitiveCounts;
    use conclave_net::NetStats;

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
            ConclaveConfig::standard()
                .with_sequential_local()
                .with_engine_mode(EngineMode::Row),
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

    /// The local executor with stages run one operator at a time: the
    /// accounting a fused stage is held to.
    struct OneAtATime(Box<dyn Executor + Send + Sync>);

    impl Executor for OneAtATime {
        fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError> {
            self.0.execute(op, inputs)
        }

        fn estimate(
            &self,
            op: &Operator,
            input_rows: u64,
            output_rows: u64,
            bytes: u64,
        ) -> Duration {
            self.0.estimate(op, input_rows, output_rows, bytes)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    #[test]
    fn fused_local_stages_keep_the_node_at_a_time_accounting() {
        // The paper's market query (HHI numerator), each party's chain
        // filter → project → grouped SUM fused into one stage.
        let query = conclave_sql::compile_sql(
            "CREATE TABLE inputA (companyID INT, price INT, airport INT) WITH OWNER p1;
             CREATE TABLE inputB (companyID INT, price INT, airport INT) WITH OWNER p2;
             CREATE TABLE inputC (companyID INT, price INT, airport INT) WITH OWNER p3;
             SELECT SUM(rev_sq) AS hhi_numerator
             FROM (SELECT companyID, local_rev, local_rev * local_rev AS rev_sq
                   FROM (SELECT companyID, SUM(price) AS local_rev
                         FROM (SELECT companyID, price
                               FROM (inputA UNION ALL inputB UNION ALL inputC)
                               WHERE price > 0)
                         GROUP BY companyID))
             REVEAL TO p1;",
        )
        .unwrap();
        let config = ConclaveConfig::standard();
        let plan = compile(&query, &config).unwrap();
        // Several morsels per party, zero fares to filter, a company that
        // first trades late.
        let trips = |party: i64| -> Table {
            let rows: Vec<Vec<i64>> = (0..20_000i64)
                .map(|i| {
                    let company = if i > 15_000 { 12 } else { (i * 7 + party) % 12 };
                    vec![company, (i * 13 + party) % 97, i % 5]
                })
                .collect();
            Relation::from_ints(&["companyID", "price", "airport"], &rows).into()
        };
        let inputs: HashMap<String, Table> = ["inputA", "inputB", "inputC"]
            .iter()
            .zip(1..)
            .map(|(name, party)| (name.to_string(), trips(party)))
            .collect();
        let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for node in plan.dag.iter() {
            for &i in &node.inputs {
                consumers.entry(i).or_default().push(node.id);
            }
        }
        let mut chains: Vec<Vec<&str>> = local_stages(&plan, &consumers)
            .unwrap()
            .values()
            .map(|members| {
                let names = members.iter().map(|&m| plan.dag.node(m).unwrap().op.name());
                names.collect()
            })
            .collect();
        chains.sort();
        assert_eq!(chains, vec![vec!["filter", "project", "aggregate"]; 3]);

        let fused = Driver::new(config.clone())
            .run_tables(&plan, &inputs)
            .unwrap();
        let mut node_at_a_time = Driver::new(config.clone());
        let local = Driver::new(config).local_exec;
        node_at_a_time.local_exec = Box::new(OneAtATime(local));
        let fresh: HashMap<String, Table> = inputs
            .iter()
            .map(|(n, t)| (n.clone(), t.as_rows().clone().into()))
            .collect();
        let expected = node_at_a_time.run_tables(&plan, &fresh).unwrap();
        assert_eq!(fused.outputs, expected.outputs);
        assert_eq!(fused.modeled.local_time, expected.modeled.local_time);
        assert_eq!(fused.modeled.local_time.len(), 3);
        assert_eq!(fused.per_node, expected.per_node);
        assert_eq!(fused.leakage, expected.leakage);
        assert_eq!(fused.conversions, expected.conversions);
        // One row → column conversion per bound input; the MPC result opens
        // as columns, and the `collect` hands it to p1 as rows.
        assert_eq!(
            (
                fused.conversions.row_to_columnar,
                fused.conversions.columnar_to_row
            ),
            (3, 1)
        );
        // Each local node is priced as it was when every node ran alone:
        // replay the local nodes one at a time through the driver's own
        // executor and price each from its input and output tables.
        let driver = Driver::new(ConclaveConfig::standard());
        let exec = driver.local_executor();
        let mut tables: HashMap<NodeId, Table> = HashMap::new();
        let mut priced: HashMap<NodeId, Duration> = HashMap::new();
        let mut local_time: std::collections::BTreeMap<PartyId, Duration> = Default::default();
        for id in plan.dag.topo_order().unwrap() {
            let node = plan.dag.node(id).unwrap();
            let ExecSite::Local(party) = node.site else {
                continue;
            };
            let (table, time) = match &node.op {
                Operator::Input { name, .. } => (fresh[name].clone(), Duration::ZERO),
                op => {
                    let Some(ins) = node
                        .inputs
                        .iter()
                        .map(|i| tables.get(i))
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    let out = exec.execute(op, &ins).unwrap();
                    let time = exec.estimate_tables(op, &ins, out.num_rows() as u64);
                    (out, time)
                }
            };
            *local_time.entry(party).or_default() += time;
            priced.insert(id, time);
            tables.insert(id, table);
        }
        assert_eq!(priced.len(), 12, "three inputs and three three-node stages");
        assert_eq!(fused.modeled.local_time, local_time);
        for (id, _, time) in &fused.per_node {
            if let Some(expected) = priced.get(id) {
                assert_eq!(time, expected, "node #{id}");
            }
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
        let config = ConclaveConfig::standard().with_sequential_local();
        let mut driver = Driver::new(config.clone());
        let report = driver.run_tables(&plan, &inputs).unwrap();
        assert_eq!(report.output_for(1).unwrap().num_rows(), 1);
        assert!(report.leakage.iter().any(|d| d.node == join_id
            && d.to_party == helper
            && d.kind == DisclosureKind::StpKeys
            && d.columns == ["k"]));
        // The executed public join is priced like the estimator prices it:
        // (n + out) words moved, plus the run's one MPC job.
        let moved = config.mpc.network.transfer_time((3 + 1) * 8);
        let job = Duration::from_secs_f64(config.mpc.ss_cost.job_overhead);
        assert_eq!(report.modeled.mpc_time, moved + job);
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
    fn driver_refuses_an_unsited_node_before_anything_runs() {
        use crate::config::PartyRuntime;
        // Re-site the MPC join of both banks' SSNs. Run unsited, it would
        // open its MPC inputs with no certificate lookup; at P2 the
        // certificate refuses it. Each refusal comes before the first node
        // runs: with no input bound it would otherwise be `MissingInput`.
        for (site, unsited) in [(ExecSite::Undecided, true), (ExecSite::Local(2), false)] {
            let mut plan = compile(&credit_query(), &ConclaveConfig::mpc_only()).unwrap();
            let join = plan
                .dag
                .iter()
                .find(|n| matches!(n.op, Operator::Join { .. }))
                .unwrap()
                .id;
            plan.dag.node_mut(join).unwrap().site = site;
            let config = ConclaveConfig::mpc_only()
                .with_sequential_local()
                .with_party_runtime(PartyRuntime::Channel);
            for inputs in [credit_inputs(), HashMap::new()] {
                match (
                    Driver::new(config.clone()).run_tables(&plan, &inputs),
                    unsited,
                ) {
                    (Err(DriverError::Ir(IrError::MalformedDag(_))), true) => {}
                    (Err(DriverError::UnauthorizedReveal { to_party: 2, .. }), false) => {}
                    (other, _) => panic!("{site}: expected a refusal, got {other:?}"),
                }
            }
        }
    }

    /// The credit query with its per-zip average: a `Divide` over the join
    /// of two aggregations.
    fn credit_average_query() -> conclave_ir::builder::Query {
        let regulator = Party::new(1, "gov");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
        ]);
        let bank = Schema::ints(&["ssn", "score"]);
        let mut q = QueryBuilder::new();
        let demographics = q.input("demographics", demo, regulator.clone());
        let s1 = q.input("scores1", bank.clone(), Party::new(2, "a"));
        let s2 = q.input("scores2", bank, Party::new(3, "b"));
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let count = q.count(joined, "count", &["zip"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        let both = q.join(total, count, &["zip"], &["zip"]);
        let avg = q.divide(both, "avg", Operand::col("total"), Operand::col("count"));
        q.collect(avg, &[regulator]);
        q.build().unwrap()
    }

    #[test]
    fn distributed_party_runtime_matches_the_simulated_oracle_end_to_end() {
        use crate::config::PartyRuntime;
        // The counts every runtime must agree on: all but the circuit-level
        // tallies and MAC checks only a mesh has.
        let engine_independent = |c: PrimitiveCounts| PrimitiveCounts {
            bit_ands: 0,
            circuit_rounds: 0,
            mac_checks: 0,
            ..c
        };
        for (case, query, inputs, config, divides) in [
            (
                "market, mpc_only",
                market_query(),
                market_inputs(),
                ConclaveConfig::mpc_only(),
                false,
            ),
            (
                "market, standard",
                market_query(),
                market_inputs(),
                ConclaveConfig::standard(),
                false,
            ),
            (
                "credit with Divide, mpc_only",
                credit_average_query(),
                credit_inputs(),
                ConclaveConfig::mpc_only(),
                true,
            ),
            // The hybrids run in process on every runtime; on a mesh their
            // MPC input (the banks' `concat`) is a step of the pipeline
            // whose reveal they read as columns.
            (
                "credit, standard (hybrids)",
                credit_query(),
                credit_inputs(),
                ConclaveConfig::standard(),
                false,
            ),
        ] {
            let config = config.with_sequential_local();
            let plan = compile(&query, &config).unwrap();
            let mpc_divide = |n: &conclave_ir::dag::DagNode| {
                matches!(n.op, Operator::Divide { .. }) && n.site.is_mpc()
            };
            assert_eq!(plan.dag.iter().any(mpc_divide), divides, "{case}");
            let hybrids = plan.hybrid_node_count() > 0;
            assert_eq!(hybrids, case.contains("hybrids"), "{case}");
            let run = |runtime| {
                Driver::new(config.clone().with_party_runtime(runtime))
                    .run_tables(&plan, &inputs)
                    .unwrap()
            };
            // Oracle: the default in-process runtime of the same pipeline.
            let expected = run(PartyRuntime::Simulated);
            // The oracle saw no wire: everything it reports is modeled.
            assert_eq!(expected.net, NetStats::default(), "{case}");
            assert!(expected.modeled.bytes > 0, "{case}");
            assert!(!expected.to_string().contains("measured"), "{case}");
            if !divides {
                // Its steps are priced as one MPC job: one job overhead.
                let one_job = config
                    .mpc
                    .ss_cost
                    .time(&expected.mpc_stats.counts, &config.mpc.network);
                let gap = expected.modeled.mpc_time.abs_diff(one_job);
                assert!(gap < Duration::from_micros(1), "{case}: {gap:?}");
            }
            for runtime in [PartyRuntime::Channel, PartyRuntime::Tcp] {
                let report = run(runtime);
                let out = report.output_for(1).unwrap();
                assert!(
                    out.same_rows_unordered(expected.output_for(1).unwrap()),
                    "{case}: {runtime:?} runtime diverged from the oracle:\n{out}"
                );
                // Shared and opened where the oracle shared and opened.
                assert_eq!(
                    engine_independent(report.mpc_stats.counts),
                    engine_independent(expected.mpc_stats.counts),
                    "{case}: {runtime:?}"
                );
                assert!(report.net.total_bytes() > 0);
                assert!(report.net.rounds > 0);
                // Every step but the `Divide` substitute and the hybrids ran
                // on the mesh: nothing else is modeled as bytes.
                if !divides && !hybrids {
                    assert_eq!(report.modeled.bytes, 0, "{case}: {runtime:?}");
                }
                let shown = report.to_string();
                assert!(shown.contains("measured (party transports)"));
                assert!(shown.contains("link P0 -> P1"));
            }
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

    /// Sibling hybrid aggregations — the credit query's `count` and `total`
    /// of one `joined` relation by `zip` — run as one k-output call under
    /// sort elimination and as two calls without it: the same output, one
    /// `per_node` entry per node at its own turn and the same leakage log,
    /// while the fused call shares and compares once.
    #[test]
    fn sibling_hybrid_aggregations_run_once_and_account_node_by_node() {
        let regulator = Party::new(1, "gov");
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
        let s1 = q.input("scores1", bank.clone(), Party::new(2, "a"));
        let s2 = q.input("scores2", bank, Party::new(3, "b"));
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let count = q.count(joined, "count", &["zip"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        let both = q.join(total, count, &["zip"], &["zip"]);
        let avg = q.divide(both, "avg", Operand::col("total"), Operand::col("count"));
        q.collect(avg, &[regulator]);
        let query = q.build().unwrap();
        let run = |config: ConclaveConfig| {
            let plan = compile(&query, &config).unwrap();
            let report = Driver::new(config)
                .run_tables(&plan, &credit_inputs())
                .unwrap();
            (plan, report)
        };
        let (fused_plan, fused) = run(ConclaveConfig::standard());
        let (apart_plan, apart) = run(ConclaveConfig {
            use_sort_elimination: false,
            ..ConclaveConfig::standard()
        });
        let group_sizes = |plan: &PhysicalPlan| {
            let mut sizes: Vec<usize> = plan
                .hybrid_aggregate_groups()
                .unwrap()
                .values()
                .map(|group| group.members.len())
                .collect();
            sizes.sort_unstable();
            sizes
        };
        assert_eq!(group_sizes(&fused_plan), vec![2]);
        assert_eq!(group_sizes(&apart_plan), vec![1, 1]);

        let out = fused.output_for(1).unwrap();
        assert!(out.same_rows_unordered(apart.output_for(1).unwrap()));
        assert_eq!(out.column_values("avg").unwrap().len(), 2, "zips 10 and 20");
        for (plan, report) in [(&fused_plan, &fused), (&apart_plan, &apart)] {
            let entries: Vec<NodeId> = report.per_node.iter().map(|e| e.0).collect();
            assert_eq!(entries, plan.dag.topo_order().unwrap());
        }
        assert_eq!(fused.leakage, apart.leakage);
        let stp_keys = |r: &RunReport| {
            r.leakage
                .iter()
                .filter(|d| d.kind == DisclosureKind::StpKeys)
                .count()
        };
        assert_eq!(
            stp_keys(&fused),
            4,
            "the hybrid join's keys, each aggregation's and the public join's"
        );

        // `joined` has four rows: the two calls made 2 × 3 adjacent-key
        // equality tests, the fused one 3, and the same multiplexers.
        let (f, a) = (fused.mpc_stats.counts, apart.mpc_stats.counts);
        assert_eq!(a.equalities - f.equalities, 3);
        assert_eq!(f.mults, a.mults);
        // COUNT read `zip` alone and SUM `zip` and `score`: three columns
        // shared apart, two fused.
        assert_eq!(a.input_elems - f.input_elems, 4);
    }
}
