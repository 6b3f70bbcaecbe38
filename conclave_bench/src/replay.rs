//! Stage replay: the traced pass.
//!
//! The harness walks a compiled plan in topological order itself and runs
//! every node through the owning layer's public function with a span around
//! each call — cleartext nodes through the driver's [`Executor`], hybrid
//! nodes through `hybrid_exec`, and each run of consecutive MPC nodes on a
//! mesh of its own with one thread per party calling `share_relation`, the
//! operator, `begin_open_relation`/`finish_open_relation` and
//! `check_integrity`, reading `Transport::stats()` at span edges. Nothing in
//! a library crate is instrumented.
//!
//! The replay is only a measurement of the driver if it does the driver's
//! work: its result must equal the driver's and its rounds and bytes must
//! equal `RunReport::net` of the same query, or the trace is `invalid` and
//! no layer number from it is published ([`Replay::validate`]).

use crate::span::Recorder;
use conclave_core::config::{ConclaveConfig, PartyRuntime};
use conclave_core::driver::Driver;
use conclave_core::hybrid_exec;
use conclave_core::party_exec::op_is_party_capable;
use conclave_core::plan::PhysicalPlan;
use conclave_core::report::RunReport;
use conclave_engine::{execute, sequential_executor, Relation, Table};
use conclave_ir::dag::NodeId;
use conclave_ir::ops::Operator;
use conclave_ir::party::PartyId;
use conclave_mpc::backend::MpcEngine;
use conclave_mpc::dealer::{DealerSource, MaterialPool};
use conclave_mpc::runtime::{
    aggregate_sorted, begin_open_relation, execute_party_op, finish_open_relation, share_relation,
    sort_by, PartyError, PartyRelation, PartyResult, PartySession, StepCtx,
};
use conclave_net::{merge_mesh_stats, Mesh, NetStats, Transport};
use std::collections::HashMap;

/// Where the party sessions of a replay get their offline material: from the
/// mesh seed (one-shot workloads) or from the server's pool (`serve_small`).
pub enum Material<'a> {
    Seeded,
    Pool(&'a MaterialPool),
}

/// One replayed query.
pub struct Replay {
    pub rec: Recorder,
    /// Index of the span covering the whole replay.
    pub root: usize,
    pub output: Option<Relation>,
    /// Merged traffic of every mesh the replay built.
    pub net: NetStats,
    /// Input rows consumed by cleartext (local and STP) nodes.
    pub cleartext_rows: u64,
}

impl Replay {
    pub fn total_ms(&self) -> f64 {
        self.rec.spans[self.root].ms()
    }

    /// Why the replay did not do the driver's work, if it did not.
    pub fn validate(&self, driver: &RunReport, recipient: PartyId) -> Result<(), String> {
        let want = driver
            .output_for(recipient)
            .ok_or("the driver delivered no output")?;
        let have = self
            .output
            .as_ref()
            .ok_or("the replay collected no output")?;
        if !have.same_rows_unordered(want) {
            return Err("the replay's result differs from the driver's".into());
        }
        if self.net.rounds != driver.net.rounds {
            return Err(format!(
                "the replay took {} rounds, the driver {}",
                self.net.rounds, driver.net.rounds
            ));
        }
        if self.net.total_bytes() != driver.net.total_bytes() {
            return Err(format!(
                "the replay sent {} bytes, the driver {}",
                self.net.total_bytes(),
                driver.net.total_bytes()
            ));
        }
        Ok(())
    }
}

/// One input of an MPC node as a party thread sees it.
enum PartyInput {
    /// Cleartext entering the pipeline, shared by `owner` (the driver picks
    /// the owner round-robin by input position).
    Fresh { owner: u32, table: Table },
    /// The output of an earlier node of the same segment.
    Resident(NodeId),
}

struct PartyNode {
    id: NodeId,
    op: Operator,
    inputs: Vec<PartyInput>,
    presorted: bool,
    reveal: bool,
}

/// Bytes this endpoint sent and rounds it recorded so far.
fn traffic(net: &dyn Transport) -> (u64, u64) {
    let stats = net.stats();
    (stats.rounds, stats.total_bytes())
}

/// Runs `f` inside a span that also records the traffic `f` caused.
fn traced<T>(
    rec: &mut Recorder,
    net: &dyn Transport,
    name: &str,
    parent: usize,
    f: impl FnOnce(&mut Recorder, usize) -> PartyResult<T>,
) -> PartyResult<T> {
    let id = rec.open(name, Some(parent));
    let (rounds, bytes) = traffic(net);
    let out = f(rec, id);
    let (rounds_after, bytes_after) = traffic(net);
    rec.close_with_traffic(id, rounds_after - rounds, bytes_after - bytes);
    out
}

/// The operator itself. A grouped aggregation is `execute_party_op`'s own
/// two calls made separately — the oblivious sort, then the scan over the
/// sorted relation — so that the sort gets a span of its own.
fn run_op(
    rec: &mut Recorder,
    net: &dyn Transport,
    parent: usize,
    proto: &mut StepCtx,
    node: &PartyNode,
    inputs: &[&PartyRelation],
) -> PartyResult<PartyRelation> {
    if let Operator::Aggregate {
        group_by,
        func,
        over,
        out,
    } = &node.op
    {
        if let ([key], [input], false) = (group_by.as_slice(), inputs, node.presorted) {
            let sorted = traced(rec, net, "op:sort", parent, |_, _| {
                sort_by(proto, input, key, true)
            })?;
            return traced(rec, net, "op:aggregate", parent, |_, _| {
                aggregate_sorted(proto, &sorted, group_by, *func, over.as_deref(), out)
            });
        }
    }
    let name = match node.op.name() {
        "sort_by" | "merge" => "op:sort".to_string(),
        other => format!("op:{other}"),
    };
    traced(rec, net, &name, parent, |_, _| {
        execute_party_op(proto, &node.op, inputs, node.presorted)
    })
}

/// One party's side of a segment: every node in order, each under a `node`
/// span with `share_input`, `op:*`, `reveal` and `mac_check` children.
fn party_main(
    net: &dyn Transport,
    mut sess: PartySession,
    nodes: &[PartyNode],
    mut rec: Recorder,
) -> PartyResult<(Recorder, Vec<(NodeId, Relation)>)> {
    let me = net.party();
    let mut resident: HashMap<NodeId, PartyRelation> = HashMap::new();
    let mut opened = Vec::new();
    for (step, node) in nodes.iter().enumerate() {
        let span = rec.open("node", None);
        let mut proto = sess.step(step as u32);
        let mut fresh = Vec::new();
        for input in &node.inputs {
            if let PartyInput::Fresh { owner, table } = input {
                let rel = traced(&mut rec, net, "share_input", span, |_, _| {
                    share_relation(
                        &mut proto,
                        *owner,
                        (*owner == me).then(|| table.as_rows()),
                        table.schema(),
                        table.num_rows(),
                    )
                })?;
                fresh.push(rel);
            }
        }
        let mut fresh_iter = fresh.iter();
        let inputs: Vec<&PartyRelation> = node
            .inputs
            .iter()
            .map(|input| match input {
                PartyInput::Fresh { .. } => fresh_iter.next().expect("shared above"),
                PartyInput::Resident(id) => &resident[id],
            })
            .collect();
        let result = run_op(&mut rec, net, span, &mut proto, node, &inputs)?;
        if node.reveal {
            let rel = traced(&mut rec, net, "reveal", span, |_, _| {
                let pending = begin_open_relation(&mut proto, &result)?;
                finish_open_relation(proto.session(), pending)
            })?;
            traced(&mut rec, net, "mac_check", span, |_, _| {
                proto.session().check_integrity()
            })?;
            opened.push((node.id, rel));
        }
        resident.insert(node.id, result);
        rec.close(span);
    }
    Ok((rec, opened))
}

/// Replays one query. `inputs` are the bound tables by name.
pub fn replay(
    plan: &PhysicalPlan,
    config: &ConclaveConfig,
    inputs: &[(&str, Table)],
    recipient: PartyId,
    material: &Material,
    query: u32,
) -> Result<Replay, String> {
    let mut rec = Recorder::new(query);
    let root = rec.open("query", None);
    let driver = Driver::new(config.clone());
    let local_exec = driver.local_executor();
    let stp_exec = sequential_executor(config.engine_mode);
    let mut engine = MpcEngine::new(config.mpc);
    let parties = config.mpc.kind.parties();
    let dag = &plan.dag;
    let order = dag.topo_order().map_err(|e| e.to_string())?;
    let node = |id: NodeId| dag.node(id).map_err(|e| e.to_string());
    let distributed = config.party_runtime.is_distributed() && config.mpc.kind.is_secret_sharing();
    let pipelined = |id: NodeId| {
        dag.node(id)
            .is_ok_and(|n| distributed && n.site.is_mpc() && op_is_party_capable(&n.op))
    };
    let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for n in dag.iter() {
        for &i in &n.inputs {
            consumers.entry(i).or_default().push(n.id);
        }
    }

    let mut results: HashMap<NodeId, Table> = HashMap::new();
    let mut net = NetStats::default();
    let mut output = None;
    let mut cleartext_rows = 0u64;
    let mut at = 0;
    while at < order.len() {
        let id = order[at];
        if pipelined(id) {
            // A segment: this node and every pipelined node that follows it
            // directly in topological order.
            let end = (at..order.len())
                .find(|&j| !pipelined(order[j]))
                .unwrap_or(order.len());
            let segment = &order[at..end];
            at = end;
            let mut nodes = Vec::new();
            for &id in segment {
                let n = node(id)?;
                let inputs = n
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(k, i)| {
                        if segment.contains(i) {
                            Ok(PartyInput::Resident(*i))
                        } else {
                            results
                                .get(i)
                                .map(|t| PartyInput::Fresh {
                                    owner: k as u32 % parties,
                                    table: t.clone(),
                                })
                                .ok_or(format!(
                                    "node #{id} reads #{i}, which has no cleartext result"
                                ))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let presorted = match (&n.op, n.inputs.first()) {
                    (Operator::Aggregate { group_by, .. }, Some(&input))
                        if config.use_sort_elimination =>
                    {
                        group_by.first().is_some_and(|key| {
                            node(input).is_ok_and(|p| p.sorted_by.as_deref() == Some(key))
                        })
                    }
                    _ => false,
                };
                // Revealed iff something outside the segment reads it (or
                // nothing reads it at all): the driver's rule, applied to a
                // mesh that lives for one segment.
                let reveal = consumers
                    .get(&id)
                    .is_none_or(|cs| cs.iter().any(|c| !segment.contains(c)));
                nodes.push(PartyNode {
                    id,
                    op: n.op.clone(),
                    inputs,
                    presorted,
                    reveal,
                });
            }

            let segment_span = rec.open("mpc_segment", Some(root));
            let build = rec.open("mesh_build", Some(segment_span));
            let mesh = match config.party_runtime {
                PartyRuntime::Tcp => Mesh::tcp_localhost(parties).map_err(|e| e.to_string())?,
                _ => Mesh::channel(parties),
            };
            let mut bundle = match material {
                Material::Seeded => None,
                Material::Pool(pool) => Some(pool.take()),
            };
            let endpoints = mesh.into_endpoints();
            rec.close(build);
            let seed = config.mpc.seed;
            let outcomes: Vec<_> = std::thread::scope(|s| {
                // An endpoint is `Send` but not `Sync`: each moves into its
                // party's thread, which hands back what it sent.
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(p, net)| {
                        let party_rec = rec.for_party(p as u32);
                        let source = match bundle.as_mut() {
                            None => DealerSource::Seeded,
                            Some(bundle) => {
                                DealerSource::Preloaded(Box::new(std::mem::take(&mut bundle[p])))
                            }
                        };
                        let nodes = &nodes;
                        s.spawn(move || {
                            let sess = PartySession::with_dealer(&*net, seed, source)?;
                            let done = party_main(&*net, sess, nodes, party_rec)?;
                            Ok::<_, PartyError>((done, net.stats()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("party thread panicked"))
                    .collect()
            });
            let mut first: Option<Vec<(NodeId, Relation)>> = None;
            let mut endpoint_stats = Vec::new();
            for outcome in outcomes {
                let ((party_rec, opened), stats) = outcome.map_err(|e| e.to_string())?;
                endpoint_stats.push(stats);
                rec.absorb(party_rec, segment_span);
                match &first {
                    None => first = Some(opened),
                    Some(f) if *f != opened => {
                        return Err("parties opened divergent results".into())
                    }
                    Some(_) => {}
                }
            }
            net.merge(&merge_mesh_stats(endpoint_stats));
            for (id, rel) in first.unwrap_or_default() {
                results.insert(id, Table::from_rows(rel));
            }
            rec.close(segment_span);
            continue;
        }
        at += 1;

        let n = node(id)?;
        let tables: Vec<&Table> = n
            .inputs
            .iter()
            .map(|i| {
                results.get(i).ok_or(format!(
                    "node #{id} reads #{i}, which has no cleartext result"
                ))
            })
            .collect::<Result<_, _>>()?;
        let result = match &n.op {
            Operator::Input { name, .. } => inputs
                .iter()
                .find(|(bound, _)| bound == name)
                .map(|(_, t)| t.clone())
                .ok_or(format!("no table bound for `{name}`"))?,
            Operator::Collect { recipients } => {
                if recipients.contains(recipient) {
                    output = Some(tables[0].as_rows().clone());
                }
                tables[0].clone()
            }
            Operator::HybridJoin {
                left_keys,
                right_keys,
                stp,
            } => {
                let span = rec.open("hybrid_join", Some(root));
                let outcome = hybrid_exec::hybrid_join(
                    &mut engine,
                    &*stp_exec,
                    tables[0],
                    tables[1],
                    left_keys,
                    right_keys,
                    *stp,
                );
                rec.close(span);
                outcome.map_err(|e| e.to_string())?.result
            }
            Operator::PublicJoin {
                left_keys,
                right_keys,
                helper,
            } => {
                let span = rec.open("public_join", Some(root));
                let outcome = hybrid_exec::public_join(
                    &*stp_exec, tables[0], tables[1], left_keys, right_keys, *helper,
                );
                rec.close(span);
                outcome.map_err(|e| e.to_string())?.result
            }
            Operator::HybridAggregate {
                group_by,
                func,
                over,
                out,
                stp,
            } => {
                let span = rec.open("hybrid_aggregate", Some(root));
                let outcome = hybrid_exec::hybrid_aggregate(
                    &mut engine,
                    &*stp_exec,
                    tables[0],
                    group_by,
                    *func,
                    over.as_deref(),
                    out,
                    *stp,
                );
                rec.close(span);
                outcome.map_err(|e| e.to_string())?.result
            }
            op if n.site.is_mpc() => {
                // What the mesh cannot run stays with the in-process engine,
                // as in the driver: `Divide` is evaluated in the clear (its
                // MPC cost is only modelled), the rest goes through
                // `MpcEngine`.
                let span = rec.open("mpc_inprocess", Some(root));
                let rel = if matches!(op, Operator::Divide { .. }) {
                    let rows: Vec<&Relation> = tables.iter().map(|t| t.as_rows()).collect();
                    execute(op, &rows).map_err(|e| e.to_string())
                } else {
                    engine
                        .execute_op_tables(op, &tables)
                        .map(|(rel, _)| rel)
                        .map_err(|e| e.to_string())
                };
                rec.close(span);
                Table::from_rows(rel?)
            }
            op => {
                cleartext_rows += tables.iter().map(|t| t.num_rows() as u64).sum::<u64>();
                let span = rec.open("engine", Some(root));
                let table = local_exec.execute(op, &tables);
                rec.close(span);
                table.map_err(|e| e.to_string())?
            }
        };
        results.insert(id, result);
    }
    rec.close(root);
    Ok(Replay {
        rec,
        root,
        output,
        net,
        cleartext_rows,
    })
}
