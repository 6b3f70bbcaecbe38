//! Distributed execution of MPC plan steps: a party mesh with **one** query
//! lifecycle.
//!
//! When [`crate::config::ConclaveConfig::party_runtime`] selects a
//! distributed mode, the driver routes the plan's secret-sharing MPC steps
//! into a [`PartyMeshRuntime`]. [`PartyMeshRuntime::with_dealer`] builds
//! **one** transport mesh ([`Mesh::channel`] or a localhost
//! [`Mesh::tcp_localhost`], per the configured [`PartyRuntime`]) and spawns
//! one worker thread per computing party, each owning a mesh-lifetime
//! [`PartySession`] (MAC key share, offline stock, dealer feed) that holds
//! **only that party's shares**. Every query on the mesh — the only query of
//! a one-shot run exactly like the hundredth of a serving tenant — then goes
//! through the same three calls, and the mesh ends with the fourth:
//!
//! 1. [`PartyMeshRuntime::begin_query`] readies the sessions' offline
//!    material: under [`DealerMode::Pooled`] it draws exactly one bundle from
//!    the pool and hands every worker its block (the first query's bundle
//!    included — construction takes none); under the other modes the feeds
//!    are query-unbounded and it does nothing.
//! 2. [`PartyMeshRuntime::enqueue`] feeds plan steps over the work queues
//!    without waiting. Intermediate relations stay **resident** on the
//!    workers as shares between steps — re-used by reference, not re-shared —
//!    and results are opened only at *reveal boundaries* (steps whose output
//!    leaves the MPC pipeline). Opens are split-phase
//!    ([`begin_open_relation`] / [`finish_open_relation`]): the broadcast
//!    goes out as soon as a step finishes, but the peer shares are collected
//!    only once the work queue drains, so a worker accepts the next step's
//!    inputs while the previous step's final open is still in flight.
//!    [`PartyMeshRuntime::wait_opened`] blocks on one reveal and verifies
//!    that all parties opened the *identical* relation (a built-in
//!    consistency check of the share arithmetic).
//! 3. [`PartyMeshRuntime::end_query`] flushes every in-flight open, drains
//!    this query's step outcomes, drops the workers' resident relations and
//!    assembles the query's [`MeshSummary`] — the one place one is built.
//!    The workers report *cumulative* endpoint counters and the runtime
//!    subtracts the previous query's, so a summary covers exactly one
//!    query's traffic: `mesh_builds` is 1 for the first query on a mesh and
//!    0 for every later one, and [`MeshSummary::dealer_net`] carries both
//!    directions of the offline links. The mesh — threads, sessions, MAC key
//!    — is ready for the next `begin_query`.
//! 4. [`PartyMeshRuntime::finish`] is `end_query` followed by the teardown:
//!    the work senders are dropped (which ends each worker's loop after a
//!    last flush), every worker and dealer-server thread is joined, and a
//!    dealer server's protocol error is returned. `Drop` runs the same
//!    teardown and ignores that error, so no thread outlives the runtime on
//!    any path.
//!
//! An error from any of these calls leaves the work queues in an unknown
//! state, so the mesh is not reusable after one: the [`crate::driver::Driver`]
//! holds its mesh by value while a plan runs and drops it with the failed
//! run, and the next run builds a fresh one.
//!
//! Comparison-bearing steps (sorts, joins, filters) run the bit-decomposed
//! circuits of [`conclave_mpc::circuits`], so their [`StepOutcome::counts`]
//! additionally report `bit_ands` (binary Beaver AND gates) and
//! `circuit_rounds` (masked-open / gate-level synchronous rounds); both are
//! batch-size-dependent only, so the cross-party equality check on every
//! step's outcome covers them too.
//!
//! The in-process [`conclave_mpc::Protocol`] engine remains the default; both
//! engines run the one generic operator stack of [`conclave_mpc::operators`],
//! so a transport-executed plan must reveal cell-identical results and
//! charge identical primitive counts.

use crate::config::{DealerMode, PartyRuntime};
use crate::driver::DriverError;
use conclave_engine::Relation;
use conclave_ir::ops::Operator;
use conclave_ir::schema::Schema;
use conclave_mpc::cost::PrimitiveCounts;
use conclave_mpc::dealer::{
    load_party_file, party_file, serve_party, DealerSource, MaterialBlocks, MaterialPool,
};
use conclave_mpc::runtime::{
    begin_open_relation, execute_party_op, finish_open_relation, share_relation, PartyError,
    PartyRelation, PartyResult, PartySession, PendingOpen,
};
use conclave_mpc::MpcError;
use conclave_net::{merge_mesh_stats, ChannelTransport, Mesh, NetStats, Transport};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

/// Sentinel party id standing for the dealer endpoint in
/// [`MeshSummary::dealer_net`] link keys: each party's dedicated offline link
/// is re-keyed `(party, DEALER_ID)` / `(DEALER_ID, party)`.
pub const DEALER_ID: u32 = u32::MAX;

/// Whether the party-runtime protocol drivers execute this operator.
///
/// The exclusions are exactly the operators the driver orchestrates itself:
/// plan inputs/outputs, the hybrid protocols, and `Divide` (integer-only
/// secret sharing; the driver substitutes the simulated division path).
pub fn op_is_party_capable(op: &Operator) -> bool {
    !matches!(
        op,
        Operator::Input { .. }
            | Operator::Collect { .. }
            | Operator::Divide { .. }
            | Operator::HybridJoin { .. }
            | Operator::PublicJoin { .. }
            | Operator::HybridAggregate { .. }
    )
}

/// One input of a step fed to [`PartyMeshRuntime::enqueue`].
pub enum StepInput {
    /// A cleartext relation entering the MPC pipeline: the runtime picks an
    /// owning party (round-robin by input position) which secret-shares it.
    Table(Relation),
    /// The output of an earlier enqueued step, still resident on the workers
    /// as shares; consumed by reference without re-sharing.
    Resident(u32),
}

/// What every party reported for one executed step (identical across
/// parties; the runtime enforces this).
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The step id [`PartyMeshRuntime::enqueue`] returned.
    pub step: u32,
    /// Total input rows (shared + resident).
    pub input_rows: u64,
    /// Rows of the step's result relation.
    pub output_rows: u64,
    /// Primitive counts attributable to this step alone.
    pub counts: PrimitiveCounts,
    /// The opened result — present only for reveal-boundary steps.
    pub opened: Option<Relation>,
}

/// Everything one query measured: per-step outcomes plus the merged observed
/// traffic of the whole mesh. Assembled by [`PartyMeshRuntime::end_query`].
#[derive(Debug)]
pub struct MeshSummary {
    /// Outcomes ordered by step id.
    pub steps: Vec<StepOutcome>,
    /// Per-link bytes/messages, synchronous rounds, and mesh builds.
    pub net: NetStats,
    /// Traffic on the dedicated per-party dealer links (the offline phase:
    /// block requests out, blocks back), present only under
    /// [`DealerMode::Streamed`]. Link keys use [`DEALER_ID`] for the dealer
    /// endpoint; this traffic is accounted separately from the online mesh
    /// in [`MeshSummary::net`].
    pub dealer_net: Option<NetStats>,
}

/// A step as shipped to one worker: the owning parties' copies carry the
/// cleartext input data, everyone else's carry schema and row count only.
struct StepSpec {
    step: u32,
    op: Operator,
    inputs: Vec<WorkerInput>,
    presorted: bool,
    reveal: bool,
}

enum WorkerInput {
    Share {
        owner: u32,
        schema: Schema,
        num_rows: usize,
        data: Option<Relation>,
    },
    Resident(u32),
}

/// What the runtime sends a worker. There is no shutdown message: dropping
/// the sender ends the worker's loop.
enum WorkMsg {
    Step(Box<StepSpec>),
    /// Ends the current query: flush deferred opens, drop resident
    /// relations, acknowledge with cumulative endpoint stats. The worker
    /// (and its session, MAC key, dealer feed) stays alive for the next
    /// query.
    EndQuery,
    /// Replaces the session's preloaded stock with this query's pool bundle
    /// (dealt under the same MAC key).
    Refill(Box<MaterialBlocks>),
}

enum WorkerReply {
    Step(u32, Result<StepOutcome, PartyError>),
    /// Acknowledges [`WorkMsg::EndQuery`] — the only way stats leave a
    /// worker: this endpoint's *cumulative* mesh stats (the runtime turns
    /// them into per-query deltas) plus, in streamed-dealer mode, the
    /// cumulative dealer-link stats.
    QueryEnd {
        net: NetStats,
        dealer: Option<NetStats>,
    },
}

/// Resolves a worker's offline feed. Runs on the worker thread, so a slow
/// or unreadable dealer file fails that party's steps instead of stalling
/// mesh construction.
type DealerFeed = Box<dyn FnOnce() -> PartyResult<DealerSource> + Send>;

struct WorkerHandle {
    work: Sender<WorkMsg>,
    replies: Receiver<WorkerReply>,
    join: JoinHandle<()>,
}

/// The distributed runtime: one mesh, one worker thread and one
/// [`PartySession`] per party, a pipelined work queue of plan steps, any
/// number of queries (see the module docs for the lifecycle). Under a
/// non-seeded [`DealerMode`] the offline phase runs first: per-party dealer
/// files are loaded, or a dealer server thread per party streams blocks over
/// a dedicated link for the lifetime of the mesh.
pub struct PartyMeshRuntime {
    workers: Vec<WorkerHandle>,
    /// In-process dealer servers (streamed mode), one per party, joined at
    /// teardown once the workers drop their link ends.
    dealer_servers: Vec<JoinHandle<PartyResult<()>>>,
    next_step: u32,
    /// Replies received out of order, per worker, keyed by step.
    buffered: Vec<HashMap<u32, StepOutcome>>,
    /// Cross-party-checked outcomes, keyed by step.
    completed: BTreeMap<u32, StepOutcome>,
    /// The shared pool backing [`DealerMode::Pooled`]: each
    /// [`PartyMeshRuntime::begin_query`] draws one fresh bundle from it.
    pool: Option<MaterialPool>,
    /// First step id of the current query (step ids keep counting across
    /// the queries of a mesh).
    query_start: u32,
    /// Per-worker cumulative-stats baselines as of the last
    /// [`PartyMeshRuntime::end_query`], for per-query delta attribution.
    net_base: Vec<NetStats>,
    /// Same, for the worker-side dealer-link stats (streamed mode).
    dealer_base: Vec<NetStats>,
}

impl PartyMeshRuntime {
    /// Builds the mesh (once) and spawns the per-party workers (once), each
    /// drawing offline material from `dealer`.
    pub fn with_dealer(
        parties: u32,
        seed: u64,
        runtime: PartyRuntime,
        dealer: &DealerMode,
    ) -> Result<Self, DriverError> {
        let mesh = match runtime {
            PartyRuntime::Simulated => {
                return Err(DriverError::Mpc(MpcError::Exec(
                    "PartyMeshRuntime built in simulated mode".into(),
                )))
            }
            PartyRuntime::Channel => Mesh::channel(parties),
            PartyRuntime::Tcp => Mesh::tcp_localhost(parties).map_err(DriverError::Transport)?,
        };
        let mut dealer_servers = Vec::new();
        if let DealerMode::Pooled(pool) = dealer {
            if pool.parties() != parties as usize {
                return Err(DriverError::Mpc(MpcError::Exec(format!(
                    "dealer pool deals for {} parties, but the mesh has {parties}",
                    pool.parties()
                ))));
            }
        }
        let workers: Vec<WorkerHandle> = mesh
            .into_endpoints()
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let feed: DealerFeed = match dealer {
                    DealerMode::Seeded => Box::new(|| Ok(DealerSource::Seeded)),
                    DealerMode::File(dir) => {
                        let path = party_file(dir, i);
                        Box::new(move || {
                            load_party_file(&path).map(|b| DealerSource::Preloaded(Box::new(b)))
                        })
                    }
                    // An empty stock under the pool's MAC key: every query's
                    // bundle, the first included, arrives via `begin_query`.
                    DealerMode::Pooled(pool) => {
                        let stock = MaterialBlocks::empty(i, parties as usize, pool.alpha_share(i));
                        Box::new(move || Ok(DealerSource::Preloaded(Box::new(stock))))
                    }
                    DealerMode::Streamed => {
                        // One dedicated 2-endpoint link per party: the party
                        // keeps endpoint 0, the dealer server thread serves
                        // on endpoint 1 until the party drops its end.
                        let mut ends = ChannelTransport::mesh(2).into_iter();
                        let link: Box<dyn Transport> =
                            Box::new(ends.next().expect("two endpoints"));
                        let dealer_end = ends.next().expect("two endpoints");
                        dealer_servers.push(std::thread::spawn(move || {
                            serve_party(&dealer_end, i as u32, parties, seed)
                        }));
                        Box::new(move || Ok(DealerSource::Streamed { link, dealer: 1 }))
                    }
                };
                let (work_tx, work_rx) = std::sync::mpsc::channel();
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let join =
                    std::thread::spawn(move || worker_main(net, seed, feed, work_rx, reply_tx));
                WorkerHandle {
                    work: work_tx,
                    replies: reply_rx,
                    join,
                }
            })
            .collect();
        let buffered = workers.iter().map(|_| HashMap::new()).collect();
        let net_base = workers.iter().map(|_| NetStats::default()).collect();
        let dealer_base = workers.iter().map(|_| NetStats::default()).collect();
        Ok(PartyMeshRuntime {
            workers,
            dealer_servers,
            next_step: 0,
            buffered,
            completed: BTreeMap::new(),
            pool: match dealer {
                DealerMode::Pooled(pool) => Some(pool.clone()),
                _ => None,
            },
            query_start: 0,
            net_base,
            dealer_base,
        })
    }

    /// Number of computing parties in the mesh.
    pub fn parties(&self) -> u32 {
        self.workers.len() as u32
    }

    /// Enqueues one plan step on every worker and returns its step id
    /// without waiting for execution: workers drain the queue at their own
    /// pace, so the driver can keep feeding steps while earlier opens are in
    /// flight. `reveal` marks a reveal boundary — the step's result is opened
    /// and becomes retrievable via [`PartyMeshRuntime::wait_opened`].
    pub fn enqueue(
        &mut self,
        op: &Operator,
        inputs: Vec<StepInput>,
        presorted: bool,
        reveal: bool,
    ) -> Result<u32, DriverError> {
        let step = self.next_step;
        self.next_step += 1;
        let parties = self.parties();
        self.send_all(|w| {
            let spec_inputs: Vec<WorkerInput> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| match input {
                    StepInput::Table(rel) => {
                        let owner = (i as u32) % parties;
                        WorkerInput::Share {
                            owner,
                            schema: rel.schema.clone(),
                            num_rows: rel.num_rows(),
                            data: (w as u32 == owner).then(|| rel.clone()),
                        }
                    }
                    StepInput::Resident(s) => WorkerInput::Resident(*s),
                })
                .collect();
            WorkMsg::Step(Box::new(StepSpec {
                step,
                op: op.clone(),
                inputs: spec_inputs,
                presorted,
                reveal,
            }))
        })?;
        Ok(step)
    }

    /// Sends every worker `w` its `msg(w)`.
    fn send_all(&self, mut msg: impl FnMut(usize) -> WorkMsg) -> Result<(), DriverError> {
        for (w, worker) in self.workers.iter().enumerate() {
            worker.work.send(msg(w)).map_err(|_| {
                DriverError::Mpc(MpcError::Exec(format!("party worker {w} exited early")))
            })?;
        }
        Ok(())
    }

    /// Blocks until every party has opened step `step`, cross-checks that
    /// all opened relations are identical, and returns the relation.
    pub fn wait_opened(&mut self, step: u32) -> Result<Relation, DriverError> {
        let outcome = self.collect_step(step)?;
        outcome.opened.clone().ok_or_else(|| {
            DriverError::Mpc(MpcError::Exec(format!(
                "step {step} was not enqueued as a reveal step"
            )))
        })
    }

    /// Opens a query on the mesh — every query's first call, the first
    /// query's included. In pooled-dealer mode it draws the query's one
    /// bundle from the pool (blocking until the refiller has one ready — a
    /// starved pool delays, never corrupts) and hands every worker's session
    /// its block. A no-op under the other dealer modes — their feeds are
    /// query-unbounded by construction.
    pub fn begin_query(&mut self) -> Result<(), DriverError> {
        let Some(pool) = &self.pool else {
            return Ok(());
        };
        let mut bundle = pool.take();
        self.send_all(|w| WorkMsg::Refill(Box::new(std::mem::take(&mut bundle[w]))))
    }

    /// Ends the current query **without** tearing down the mesh: flushes all
    /// in-flight opens, drains this query's step outcomes, drops the workers'
    /// resident relations, and returns a [`MeshSummary`] covering *only* the
    /// traffic since the previous `end_query` (so `mesh_builds` is 1 for the
    /// first query on a mesh and 0 for every later one). The workers, their
    /// sessions and the MAC key survive for the next query.
    pub fn end_query(&mut self) -> Result<MeshSummary, DriverError> {
        self.send_all(|_| WorkMsg::EndQuery)?;
        for step in self.query_start..self.next_step {
            self.collect_step(step)?;
        }
        let mut mesh_stats = Vec::new();
        let mut dealer_net: Option<NetStats> = None;
        for (w, worker) in self.workers.iter().enumerate() {
            // Every step reply of the query was collected above, so the
            // acknowledgement is the next thing on the reply queue.
            let Ok(WorkerReply::QueryEnd { net, dealer }) = worker.replies.recv() else {
                return Err(DriverError::Mpc(MpcError::Exec(format!(
                    "party worker {w} exited before acknowledging query end"
                ))));
            };
            mesh_stats.push(net.since(&self.net_base[w]));
            self.net_base[w] = net;
            if let Some(d) = dealer {
                let delta = d.since(&self.dealer_base[w]);
                self.dealer_base[w] = d;
                dealer_net
                    .get_or_insert_with(NetStats::default)
                    .merge(&remap_dealer_stats(w as u32, delta));
            }
        }
        let steps: Vec<StepOutcome> = (self.query_start..self.next_step)
            .filter_map(|s| self.completed.remove(&s))
            .collect();
        self.query_start = self.next_step;
        Ok(MeshSummary {
            steps,
            net: merge_mesh_stats(mesh_stats),
            dealer_net,
        })
    }

    /// Ends the mesh's last query and tears the mesh down: [`end_query`]
    /// followed by the teardown `Drop` runs, except that a dealer server's
    /// failure is returned instead of ignored.
    ///
    /// [`end_query`]: PartyMeshRuntime::end_query
    pub fn finish(mut self) -> Result<MeshSummary, DriverError> {
        let summary = self.end_query()?;
        self.teardown()?;
        Ok(summary)
    }

    /// Ends and joins every thread of the mesh. Dropping the work senders
    /// ends each worker's loop once its queue is drained: all workers
    /// received identical queues, so their remaining collective steps stay
    /// aligned and terminate, and transport timeouts bound the wait if a
    /// peer died. The dealer servers return once their party's worker (the
    /// link owner) is gone; the first one that failed to serve is reported.
    fn teardown(&mut self) -> Result<(), DriverError> {
        let joins: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.join).collect();
        for join in joins {
            // A worker that panicked already surfaced as "exited early".
            let _ = join.join();
        }
        let mut served = Ok(());
        for server in self.dealer_servers.drain(..) {
            if let Ok(Err(e)) = server.join() {
                served = served.and(Err(party_to_driver_error(e)));
            }
        }
        served
    }

    /// Ensures step `step`'s outcome has been received from every worker and
    /// cross-checked (opened relations and primitive counts must be
    /// identical on all parties).
    fn collect_step(&mut self, step: u32) -> Result<&StepOutcome, DriverError> {
        if !self.completed.contains_key(&step) {
            let mut agreed: Option<StepOutcome> = None;
            for w in 0..self.workers.len() {
                let outcome = self.take_reply(w, step)?;
                match &agreed {
                    None => agreed = Some(outcome),
                    Some(first) => {
                        if first.opened != outcome.opened
                            || first.counts != outcome.counts
                            || first.output_rows != outcome.output_rows
                        {
                            return Err(DriverError::Mpc(MpcError::Exec(
                                "parties opened divergent results from one MPC step".into(),
                            )));
                        }
                    }
                }
            }
            let outcome = agreed.expect("mesh has at least two parties");
            self.completed.insert(step, outcome);
        }
        Ok(&self.completed[&step])
    }

    /// Receives worker `w`'s reply for `step`, buffering replies for other
    /// steps (reveal-boundary outcomes are flushed lazily, so replies can
    /// arrive out of step order).
    fn take_reply(&mut self, w: usize, step: u32) -> Result<StepOutcome, DriverError> {
        if let Some(outcome) = self.buffered[w].remove(&step) {
            return Ok(outcome);
        }
        loop {
            let reply = self.workers[w].replies.recv().map_err(|_| {
                DriverError::Mpc(MpcError::Exec(format!(
                    "party worker {w} exited before reporting step {step}"
                )))
            })?;
            let (s, result) = match reply {
                WorkerReply::Step(s, result) => (s, result),
                WorkerReply::QueryEnd { .. } => {
                    return Err(DriverError::Mpc(MpcError::Exec(format!(
                        "party worker {w} ended the query before reporting step {step}"
                    ))))
                }
            };
            let outcome = result.map_err(party_to_driver_error)?;
            if s == step {
                return Ok(outcome);
            }
            self.buffered[w].insert(s, outcome);
        }
    }
}

impl Drop for PartyMeshRuntime {
    fn drop(&mut self) {
        // A no-op after `finish`; on every other path (driver errors, a
        // serving tenant going away) no thread outlives the runtime.
        let _ = self.teardown();
    }
}

/// Re-keys one party's 2-endpoint dealer-link stats (party = endpoint 0,
/// dealer = endpoint 1) into mesh-wide ids: the party's real id and
/// [`DEALER_ID`]. `mesh_builds` is dropped — the dedicated links are part of
/// the offline phase, not extra online mesh constructions.
fn remap_dealer_stats(party: u32, stats: NetStats) -> NetStats {
    let mut out = NetStats {
        rounds: stats.rounds,
        bytes_by_kind: stats.bytes_by_kind,
        ..NetStats::default()
    };
    for ((from, to), link) in stats.links {
        let f = if from == 1 { DEALER_ID } else { party };
        let t = if to == 1 { DEALER_ID } else { party };
        out.links.insert((f, t), link);
    }
    out
}

/// A reveal whose broadcast went out when the step executed, still waiting
/// for peer shares. Held on the worker until the work queue drains.
struct DeferredOpen {
    outcome: StepOutcome,
    pending: PendingOpen,
}

/// The per-party worker: one [`PartySession`] for the life of the mesh,
/// resident shares between a query's steps, deferred opens flushed when the
/// queue runs dry. Runs until the runtime drops the work sender.
fn worker_main(
    net: Box<dyn Transport>,
    seed: u64,
    dealer: DealerFeed,
    work: Receiver<WorkMsg>,
    replies: Sender<WorkerReply>,
) {
    // The one poison state. A failed offline phase (unreadable file, dead
    // dealer) or a failed refill (wrong mesh, foreign MAC key) leaves the
    // worker answering messages but unable to run what the driver expects:
    // every subsequent step fails with the stored reason until the mesh is
    // torn down. The seeded session standing in after a failed offline phase
    // never executes a step; it is there so the loop below is the only one.
    let mut poisoned: Option<String> = None;
    let mut sess = dealer()
        .and_then(|source| PartySession::with_dealer(&*net, seed, source))
        .unwrap_or_else(|e| {
            poisoned = Some(format!("offline phase failed: {e}"));
            PartySession::new(&*net, seed)
        });
    let mut resident: HashMap<u32, PartyRelation> = HashMap::new();
    let mut deferred: Vec<DeferredOpen> = Vec::new();
    loop {
        // Pipelining: only collect in-flight opens once no further step is
        // queued — the next step's protocol rounds take priority.
        let msg = match work.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                flush_opens(&mut sess, &mut deferred, &replies);
                match work.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match msg {
            WorkMsg::EndQuery => {
                flush_opens(&mut sess, &mut deferred, &replies);
                resident.clear();
                let _ = replies.send(WorkerReply::QueryEnd {
                    net: net.stats(),
                    dealer: sess.dealer_stats(),
                });
            }
            WorkMsg::Refill(blocks) => {
                if let Err(e) = sess.refill(*blocks) {
                    poisoned.get_or_insert(format!("dealer refill failed: {e}"));
                }
            }
            WorkMsg::Step(spec) => {
                let step = spec.step;
                if let Some(msg) = &poisoned {
                    let _ =
                        replies.send(WorkerReply::Step(step, Err(PartyError::Proto(msg.clone()))));
                    continue;
                }
                let before = sess.counts();
                match run_step(&mut sess, &resident, &spec) {
                    Ok((input_rows, result, pending)) => {
                        let outcome = StepOutcome {
                            step,
                            input_rows,
                            output_rows: result.num_rows() as u64,
                            counts: sess.counts().since(&before),
                            opened: None,
                        };
                        resident.insert(step, result);
                        match pending {
                            Some(pending) => deferred.push(DeferredOpen { outcome, pending }),
                            None => {
                                let _ = replies.send(WorkerReply::Step(step, Ok(outcome)));
                            }
                        }
                    }
                    Err(e) => {
                        // Step failures are deterministic (validation happens
                        // before any communication), so every party fails the
                        // same step identically and the mesh stays aligned.
                        let _ = replies.send(WorkerReply::Step(step, Err(e)));
                    }
                }
            }
        }
    }
    flush_opens(&mut sess, &mut deferred, &replies);
}

/// Shares fresh inputs, resolves resident ones, executes the operator, and —
/// for reveal boundaries — *begins* the open (broadcast sent, peer shares
/// left in flight) under the same step context.
fn run_step(
    sess: &mut PartySession,
    resident: &HashMap<u32, PartyRelation>,
    spec: &StepSpec,
) -> Result<(u64, PartyRelation, Option<PendingOpen>), PartyError> {
    let mut proto = sess.step(spec.step);
    let mut input_rows = 0u64;
    let mut fresh: Vec<Option<PartyRelation>> = Vec::with_capacity(spec.inputs.len());
    for input in &spec.inputs {
        match input {
            WorkerInput::Share {
                owner,
                schema,
                num_rows,
                data,
            } => {
                input_rows += *num_rows as u64;
                fresh.push(Some(share_relation(
                    &mut proto,
                    *owner,
                    data.as_ref(),
                    schema,
                    *num_rows,
                )?));
            }
            WorkerInput::Resident(s) => {
                let rel = resident.get(s).ok_or_else(|| {
                    PartyError::Proto(format!(
                        "step {} references step {s}, which is not resident",
                        spec.step
                    ))
                })?;
                input_rows += rel.num_rows() as u64;
                fresh.push(None);
            }
        }
    }
    let refs: Vec<&PartyRelation> = spec
        .inputs
        .iter()
        .zip(&fresh)
        .map(|(input, f)| match input {
            WorkerInput::Resident(s) => &resident[s],
            WorkerInput::Share { .. } => f.as_ref().expect("shared above"),
        })
        .collect();
    let result = execute_party_op(&mut proto, &spec.op, &refs, spec.presorted)?;
    let pending = spec
        .reveal
        .then(|| begin_open_relation(&mut proto, &result))
        .transpose()?;
    Ok((input_rows, result, pending))
}

/// Collects every deferred open (FIFO — all parties flush in enqueue order,
/// keeping receives aligned), runs the deferred SPDZ MAC check over
/// everything opened since the last check, and reports the completed
/// outcomes. Every reveal boundary passes through
/// [`PartySession::check_integrity`] — a tampered or mis-MAC'd open turns
/// into [`PartyError::Integrity`] here instead of leaking a wrong value.
fn flush_opens(
    sess: &mut PartySession,
    deferred: &mut Vec<DeferredOpen>,
    replies: &Sender<WorkerReply>,
) {
    for d in deferred.drain(..) {
        let step = d.outcome.step;
        let before = sess.counts();
        let reply = match finish_open_relation(sess, d.pending)
            .and_then(|rel| sess.check_integrity().map(|()| rel))
        {
            Ok(rel) => {
                let mut outcome = d.outcome;
                outcome.opened = Some(rel);
                // The collected open and its MAC check run outside the step
                // context; fold their counts into the revealing step so the
                // cross-party counts-equality check still covers them.
                outcome.counts.merge(&sess.counts().since(&before));
                Ok(outcome)
            }
            Err(e) => Err(e),
        };
        let _ = replies.send(WorkerReply::Step(step, reply));
    }
}

fn party_to_driver_error(e: PartyError) -> DriverError {
    match e {
        PartyError::Net(t) => DriverError::Transport(t),
        PartyError::Proto(s) => DriverError::Mpc(MpcError::Exec(s)),
        PartyError::Unsupported(s) => DriverError::Mpc(MpcError::Unsupported(s)),
        PartyError::Integrity(s) => {
            DriverError::Mpc(MpcError::Exec(format!("integrity violation: {s}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::Table;
    use conclave_ir::ops::AggFunc;
    use conclave_mpc::backend::{MpcBackendConfig, MpcEngine};

    fn sales_table() -> Table {
        Table::from_rows(Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        ))
    }

    fn revenue_by_company() -> Operator {
        Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        }
    }

    fn sort_by_price() -> Operator {
        Operator::SortBy {
            column: "price".into(),
            ascending: true,
        }
    }

    /// One revealed step over `sales_table` on a fresh three-party mesh: the
    /// opened relation and the summary of the query it was.
    fn run_step(
        op: &Operator,
        seed: u64,
        runtime: PartyRuntime,
        dealer: &DealerMode,
    ) -> Result<(Relation, MeshSummary), DriverError> {
        let mut rt = PartyMeshRuntime::with_dealer(3, seed, runtime, dealer)?;
        rt.begin_query()?;
        let input = StepInput::Table(sales_table().as_rows().clone());
        let step = rt.enqueue(op, vec![input], false, true)?;
        let opened = rt.wait_opened(step)?;
        Ok((opened, rt.finish()?))
    }

    fn run_with_dealer(dealer: &DealerMode) -> (Relation, MeshSummary) {
        run_step(&revenue_by_company(), 42, PartyRuntime::Channel, dealer).unwrap()
    }

    #[test]
    fn channel_step_matches_the_inprocess_oracle() {
        let op = revenue_by_company();
        let mut oracle = MpcEngine::new(MpcBackendConfig::sharemind());
        let (expected, _) = oracle.execute_op(&op, &[sales_table().as_rows()]).unwrap();
        let (opened, summary) = run_with_dealer(&DealerMode::Seeded);
        assert!(opened.same_rows_unordered(&expected));
        assert!(summary.net.total_bytes() > 0, "bytes must be measured");
        assert!(summary.net.rounds > 0, "rounds must be measured");
        assert_eq!(summary.net.mesh_builds, 1);
        assert!(summary.steps[0].counts.nonlinear_ops() > 0);
    }

    #[test]
    fn tcp_step_matches_the_channel_step() {
        let op = sort_by_price();
        let (chan, chan_summary) =
            run_step(&op, 7, PartyRuntime::Channel, &DealerMode::Seeded).unwrap();
        let (tcp, tcp_summary) = run_step(&op, 7, PartyRuntime::Tcp, &DealerMode::Seeded).unwrap();
        assert_eq!(chan.rows, tcp.rows);
        // Equal payload flow, different framing is allowed; both measured.
        assert!(tcp_summary.net.total_bytes() > 0);
        assert_eq!(chan_summary.net.rounds, tcp_summary.net.rounds);
    }

    #[test]
    fn comparison_steps_report_circuit_gate_counts() {
        let (_, summary) = run_step(
            &sort_by_price(),
            7,
            PartyRuntime::Channel,
            &DealerMode::Seeded,
        )
        .unwrap();
        let counts = summary.steps[0].counts;
        // Sorting drives bit-decomposed less-than circuits: the step's counts
        // must carry the measured AND gates and gate-level rounds, not just
        // the flat comparison tally. (Cross-party equality of these counts is
        // enforced by `collect_step` for every run, this test included.)
        assert!(counts.comparisons > 0);
        assert!(
            counts.bit_ands > 0,
            "circuit comparisons must tally binary AND gates"
        );
        assert!(
            counts.circuit_rounds > 0,
            "circuit comparisons must tally gate-level rounds"
        );
    }

    #[test]
    fn simulated_mode_is_rejected_here() {
        assert!(matches!(
            PartyMeshRuntime::with_dealer(3, 1, PartyRuntime::Simulated, &DealerMode::Seeded),
            Err(DriverError::Mpc(MpcError::Exec(_)))
        ));
    }

    #[test]
    fn unsupported_operators_surface_as_mpc_unsupported() {
        let op = Operator::Divide {
            out: "x".into(),
            num: conclave_ir::ops::Operand::col("price"),
            den: conclave_ir::ops::Operand::lit(2),
        };
        assert!(matches!(
            run_step(&op, 1, PartyRuntime::Channel, &DealerMode::Seeded),
            Err(DriverError::Mpc(MpcError::Unsupported(_)))
        ));
    }

    #[test]
    fn dealer_file_mode_matches_the_seeded_runtime() {
        let dir = std::env::temp_dir().join(format!(
            "conclave-dealer-files-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        conclave_mpc::dealer::write_party_files(&dir, 42, 3, Default::default()).unwrap();
        let (seeded, seeded_summary) = run_with_dealer(&DealerMode::Seeded);
        let (filed, filed_summary) = run_with_dealer(&DealerMode::File(dir.clone()));
        std::fs::remove_dir_all(&dir).ok();
        // Same result set (compared unordered: where a shuffle puts a row
        // is the common stream's business, not the dealer's).
        assert!(seeded.same_rows_unordered(&filed), "got\n{filed}");
        // Pregenerated files involve no dedicated links and no extra mesh.
        assert!(filed_summary.dealer_net.is_none());
        assert_eq!(filed_summary.net.mesh_builds, 1);
        // Both modes check the reveal: the MAC check is part of the step.
        for s in [&seeded_summary, &filed_summary] {
            assert!(
                s.steps[0].counts.mac_checks >= 1,
                "reveal boundary must run the deferred MAC check"
            );
        }
    }

    #[test]
    fn streamed_dealer_attributes_offline_traffic_separately() {
        let (seeded, _) = run_with_dealer(&DealerMode::Seeded);
        let (streamed, summary) = run_with_dealer(&DealerMode::Streamed);
        assert!(seeded.same_rows_unordered(&streamed), "got\n{streamed}");
        assert_eq!(summary.net.mesh_builds, 1, "dealer links are not a mesh");
        let dealer = summary.dealer_net.expect("streamed mode measures links");
        assert!(dealer.total_bytes() > 0, "offline blocks crossed the links");
        assert!(
            dealer
                .links
                .keys()
                .any(|&(f, t)| f == DEALER_ID || t == DEALER_ID),
            "dealer traffic is keyed by the dealer sentinel: {:?}",
            dealer.links.keys().collect::<Vec<_>>()
        );
        // Offline traffic never leaks into the online accounting.
        assert!(summary
            .net
            .links
            .keys()
            .all(|&(f, t)| f != DEALER_ID && t != DEALER_ID));
    }

    #[test]
    fn missing_dealer_files_surface_as_errors() {
        let dir = std::env::temp_dir().join("conclave-no-such-dealer-dir");
        let table = sales_table();
        let op = Operator::Shuffle;
        // The failure reaches the caller through whichever call collects the
        // step first: the reveal, or — the retained-mesh wind-down — the
        // query's end. Neither hangs: poisoned workers still acknowledge.
        for via_end_query in [false, true] {
            let mut rt = PartyMeshRuntime::with_dealer(
                3,
                42,
                PartyRuntime::Channel,
                &DealerMode::File(dir.clone()),
            )
            .unwrap();
            rt.begin_query().unwrap();
            let step = rt
                .enqueue(
                    &op,
                    vec![StepInput::Table(table.as_rows().clone())],
                    false,
                    true,
                )
                .unwrap();
            let err = if via_end_query {
                rt.end_query().unwrap_err()
            } else {
                rt.wait_opened(step).unwrap_err()
            };
            assert!(
                format!("{err:?}").contains("offline phase failed"),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn pooled_mesh_runs_many_queries_on_one_build() {
        use conclave_mpc::dealer::MaterialSpec;
        let table = sales_table();
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let mut oracle = MpcEngine::new(MpcBackendConfig::sharemind());
        let (expected, _) = oracle.execute_op(&op, &[table.as_rows()]).unwrap();
        let spec = MaterialSpec {
            triples: 256,
            bit_triples: 512,
            shared_bits: 256,
            dabits: 64,
            input_masks: 64,
        };
        let pool = MaterialPool::start(42, 3, spec, 2);
        let mut rt = PartyMeshRuntime::with_dealer(
            3,
            42,
            PartyRuntime::Channel,
            &DealerMode::Pooled(pool.clone()),
        )
        .unwrap();
        let mut mesh_builds = 0;
        for q in 0..3 {
            // Every query, the first included, hands the long-lived sessions
            // one fresh bundle (same MAC key) instead of rebuilding anything.
            rt.begin_query().unwrap();
            let step = rt
                .enqueue(
                    &op,
                    vec![StepInput::Table(table.as_rows().clone())],
                    false,
                    true,
                )
                .unwrap();
            let opened = rt.wait_opened(step).unwrap();
            assert!(
                opened.same_rows_unordered(&expected),
                "query {q}:\n{opened}"
            );
            let summary = rt.end_query().unwrap();
            assert_eq!(summary.steps.len(), 1, "per-query outcomes only");
            assert!(summary.net.total_bytes() > 0, "each query is attributed");
            mesh_builds += summary.net.mesh_builds;
        }
        assert_eq!(mesh_builds, 1, "one mesh for all queries, not one each");
        drop(rt);
        assert_eq!(pool.stats().taken, 3, "exactly one bundle per query");
    }

    #[test]
    fn resident_relations_pipeline_across_steps_on_one_mesh() {
        let table = sales_table();
        let filter_op = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let agg_op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        // Oracle: the same two steps through the in-process engine.
        let mut oracle = MpcEngine::new(MpcBackendConfig::sharemind());
        let (sorted, _) = oracle.execute_op(&filter_op, &[table.as_rows()]).unwrap();
        let (expected, _) = oracle.execute_op(&agg_op, &[&sorted]).unwrap();

        let mut rt =
            PartyMeshRuntime::with_dealer(3, 11, PartyRuntime::Channel, &DealerMode::Seeded)
                .unwrap();
        let s0 = rt
            .enqueue(
                &filter_op,
                vec![StepInput::Table(table.as_rows().clone())],
                false,
                false,
            )
            .unwrap();
        let s1 = rt
            .enqueue(&agg_op, vec![StepInput::Resident(s0)], false, true)
            .unwrap();
        let opened = rt.wait_opened(s1).unwrap();
        assert!(opened.same_rows_unordered(&expected), "got\n{opened}");
        let summary = rt.finish().unwrap();
        assert_eq!(summary.net.mesh_builds, 1, "one mesh for the whole query");
        assert_eq!(summary.steps.len(), 2);
        assert!(summary.steps[0].opened.is_none(), "no open between steps");
        // The intermediate stayed resident: step 0's result was never opened
        // (sorting opens nothing), so every opened element belongs to the
        // reveal boundary.
        assert_eq!(summary.steps[0].counts.opened_elems, 0);
        assert!(summary.steps[1].opened.is_some());
    }
}
