//! The one differential helper shared by the operator suites.
//!
//! [`assert_engines_match_cleartext`] runs one relational operator on every
//! engine — the in-process `Protocol` (through `MpcEngine::execute_op`) and
//! the per-party `StepCtx` runtime over the channel *and* localhost-TCP
//! meshes (through [`run_on_mesh`]) — and checks all three against
//! the independent cleartext reference `conclave_engine::execute`. Because
//! both engines run the same generic operator bodies, it also requires their
//! engine-independent primitive counts to be equal.
//!
//! [`SniffTransport`] is the passive wire observer of `wire_privacy.rs`, and
//! the tap of `transport_equivalence.rs`' one-dealer differential.

// Each test target includes this module and uses the parts it needs.
#![allow(dead_code)]

use conclave::core::config::PartyRuntime;
use conclave::core::party_exec::{MeshSummary, PartyMeshRuntime, StepInput};
use conclave::mpc::backend::{MpcBackendConfig, MpcEngine, MpcStepStats};
use conclave::mpc::PrimitiveCounts;
use conclave::net::{
    ChannelTransport, Envelope, MessageKind, NetStats, StreamTag, Transport, TransportError,
};
use conclave::prelude::*;
use conclave_ir::ops::Operator;
use std::sync::{Arc, Mutex};

/// How an operator's output order relates to the cleartext reference's.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// Row for row (operators that neither shuffle nor sort).
    Exact,
    /// As a multiset: the operator shuffles obliviously, so every engine
    /// draws its own permutation.
    Any,
    /// As a multiset that is sorted by this column (sorting networks are not
    /// stable, so ties may land differently than the cleartext sort's).
    SortedBy(&'static str, bool),
}

/// The primitive counts every engine must agree on: everything except the
/// circuit-level tallies and MAC checks only the party runtime has.
pub fn engine_independent(counts: PrimitiveCounts) -> PrimitiveCounts {
    PrimitiveCounts {
        bit_ands: 0,
        circuit_rounds: 0,
        mac_checks: 0,
        ..counts
    }
}

fn assert_matches(engine: &str, op: &Operator, got: &Relation, expected: &Relation, order: Order) {
    let ok = got.schema.names() == expected.schema.names()
        && match order {
            Order::Exact => got.rows == expected.rows,
            Order::Any => got.same_rows_unordered(expected),
            Order::SortedBy(column, ascending) => {
                got.same_rows_unordered(expected) && got.is_sorted_by(column, ascending)
            }
        };
    assert!(
        ok,
        "{engine} diverged from cleartext on {} ({order:?}):\n{got}\nvs\n{expected}",
        op.name()
    );
}

/// Runs `op` as the one revealed step of one query on a fresh three-party
/// mesh with a seeded dealer: the opened relation and the query's summary.
pub fn run_on_mesh(
    op: &Operator,
    inputs: &[&Relation],
    seed: u64,
    runtime: PartyRuntime,
) -> (Relation, MeshSummary) {
    let mut rt =
        PartyMeshRuntime::with_dealer(3, seed, runtime, &DealerMode::Seeded).expect("mesh builds");
    rt.begin_query().expect("query begins");
    let step_inputs = inputs
        .iter()
        .map(|r| StepInput::Table((*r).clone()))
        .collect();
    let step = rt
        .enqueue(op, step_inputs, false, true)
        .expect("step enqueues");
    let opened = rt.wait_opened(step).expect("StepCtx engine executes");
    (opened, rt.finish().expect("mesh finishes"))
}

/// Executes `op` over `inputs` on {`Protocol`, `StepCtx`/channel,
/// `StepCtx`/TCP}, checks every result against `conclave_engine::execute`,
/// and checks that the engines charged the same engine-independent counts
/// and — where no shuffle is involved — produced the same row order.
/// Returns the `Protocol` engine's step statistics.
pub fn assert_engines_match_cleartext(
    op: &Operator,
    inputs: &[&Relation],
    seed: u64,
    order: Order,
) -> MpcStepStats {
    let expected = conclave_engine::execute(op, inputs).expect("cleartext reference executes");
    let mut protocol = MpcEngine::new(MpcBackendConfig {
        seed,
        ..MpcBackendConfig::sharemind()
    });
    let (out, stats) = protocol
        .execute_op(op, inputs)
        .expect("Protocol engine executes");
    assert_matches("Protocol", op, &out, &expected, order);

    for runtime in [PartyRuntime::Channel, PartyRuntime::Tcp] {
        let (opened, summary) = run_on_mesh(op, inputs, seed, runtime);
        let engine = format!("StepCtx/{runtime:?}");
        assert_matches(&engine, op, &opened, &expected, order);
        if !matches!(order, Order::Any) {
            // Sorting and merge networks are deterministic: same comparators,
            // same row order, whichever engine evaluates them.
            assert_eq!(opened.rows, out.rows, "{engine} vs Protocol");
        }
        assert_eq!(
            engine_independent(summary.steps[0].counts),
            engine_independent(stats.counts),
            "{engine} and Protocol charged different primitives for {}",
            op.name()
        );
        assert!(summary.net.total_bytes() > 0, "traffic must be observed");
    }
    stats
}

/// One captured directed frame.
#[derive(Debug, Clone)]
pub struct SniffedFrame {
    pub from: u32,
    pub kind: MessageKind,
    pub tag: StreamTag,
    pub payload: Vec<u64>,
}

/// A [`Transport`] wrapper that records every outgoing envelope into a log
/// shared across all parties — the view of a passive network observer who
/// does *not* know the dealer seed.
pub struct SniffTransport {
    pub inner: ChannelTransport,
    pub log: Arc<Mutex<Vec<SniffedFrame>>>,
}

impl Transport for SniffTransport {
    fn party(&self) -> u32 {
        self.inner.party()
    }

    fn parties(&self) -> u32 {
        self.inner.parties()
    }

    fn send_tagged(
        &self,
        to: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        self.log
            .lock()
            .expect("a sniffing party panicked")
            .push(SniffedFrame {
                from: self.party(),
                kind,
                tag,
                payload: payload.to_vec(),
            });
        self.inner.send_tagged(to, tag, kind, label, payload)
    }

    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError> {
        self.inner.recv_from(from)
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        self.inner.recv_tagged(from, tag)
    }

    fn record_round(&self) {
        self.inner.record_round()
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}
