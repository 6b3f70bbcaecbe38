//! The distributed party runtime: per-party protocol state over a
//! [`Transport`].
//!
//! The single-process [`crate::protocol::Protocol`] engine materializes
//! *every* party's shares inside one struct — convenient for simulation, but
//! it cannot measure the thing the paper's evaluation is about: per-party
//! message exchange. This module provides the engine that can, split into
//! **session-lifetime** state (`session.rs`) and **per-step** state
//! (`step.rs`):
//!
//! * [`PartySession`] is **one party's** query-lifetime endpoint: identity,
//!   one stock of offline material behind one top-up function, the MAC-check
//!   log, and the [`Transport`]. Because the additive sharing is defined by
//!   the session, shares produced in one plan step remain valid in every
//!   later step — intermediate relations stay resident on the parties
//!   instead of being opened and re-shared at every step boundary.
//! * [`StepCtx`] (from [`PartySession::step`]) is one plan step's view: the
//!   protocol primitives — input sharing, opening, Beaver multiplication,
//!   comparisons — driven through explicit [`Transport`] message rounds, each
//!   tagged with a `(step, stream)` [`StreamTag`] so concurrent steps can
//!   multiplex the same session-lifetime connections. The transport's
//!   [`NetStats`] record *observed* bytes and rounds.
//! * [`StepCtx`] implements [`Engine`], so the oblivious relational
//!   operators of [`crate::operators`] — written once, generic over the
//!   engine — run on it unchanged: [`PartyRelation`] is the engine-generic
//!   relation holding one [`AuthShare`] per cell, and [`sort_by`],
//!   [`aggregate_sorted`] (the one-lane call of [`aggregate_sorted_lanes`])
//!   and the dispatcher [`execute_party_op`] are
//!   re-exports of the generic functions, not ports of them.
//!   A driver can therefore swap the in-process engine for a party mesh
//!   without changing plan semantics, primitive counts or leakage.
//!
//! ## One round
//!
//! Every synchronous round of the runtime is one call of one split-phase
//! exchange (`Round` in `step.rs`): *begin* broadcasts this party's words on
//! a fresh stream tag, *finish* collects every peer's equally long frame,
//! hands each to the caller's fold — wrapping add for arithmetic openings,
//! xor for binary ones, "store" and "verify" for the MAC check's commit and
//! open — and records the round. Scalar and column opens, masked circuit
//! opens, Beaver `d`/`e`, relation opens and both MAC-check rounds differ
//! only in that fold, so the length check, its one [`PartyError::Proto`]
//! wording and the round count live in one place. (Input sharing is not a
//! round: only the owner sends.)
//!
//! ## Open/reveal semantics
//!
//! Opening is no longer implicit at every step boundary: a result is opened
//! **only at reveal boundaries** — when a non-party consumer (a local or STP
//! step, a hybrid protocol, or the query output) needs the cleartext.
//! [`begin_open_relation`] is the exchange's *begin* — it broadcasts this
//! party's shares immediately and returns a [`PendingOpen`];
//! [`finish_open_columns`] is its *finish* — one integer column per shared
//! column ([`finish_open_relation`] is the same call returning rows) — so a
//! worker can start the *next* step's rounds while the previous step's final
//! open is still in flight (the stream tags keep the interleaved frames
//! apart). Input sharing is column-first the same way: [`share_columns`]
//! takes the owner's integer columns, and [`share_relation`] converts rows
//! to columns and calls it.
//!
//! ## Offline/online split and SPDZ MACs
//!
//! The session consumes **offline material** (Beaver triples — arithmetic
//! and binary — dual-shared bit-decomposition masks, daBits, input masks)
//! out of one [`MaterialBlocks`] stock. There is one dealer — the
//! deterministic [`DealerStream`] of [`crate::dealer`] — and the
//! [`DealerSource`] only says where it runs:
//!
//! * [`DealerSource::Seeded`] — every party runs the same dealer locally,
//!   seeded with the mesh-wide seed, and keeps its own slice (the
//!   semi-honest development mode, still the default: a party holding the
//!   seed *can* recompute every share and the key, but no session stores or
//!   uses anything beyond its own slice);
//! * [`DealerSource::Preloaded`] — the slice was pregenerated by the
//!   standalone dealer and loaded from a file or a pool bundle;
//! * [`DealerSource::Streamed`] — the slice is pulled block by block from a
//!   dealer process over a dedicated link.
//!
//! The same seed deals the same material in all three, and the online phase
//! — input sharing by dealer mask `δ = x − r` included — is the same code in
//! all three. In the two dealer-backed modes no computing party holds the
//! dealer seed, so none can unmask a peer's masked openings. Each arithmetic
//! share is a SPDZ-style [`AuthShare`] carrying a MAC share
//! under the dealer's additively-shared global key `α`. The *online* phase
//! processes openings **unchecked** — Beaver `d`/`e` terms, circuit masked
//! openings and reveals cross the transport exactly as before — while the
//! session logs every opened value with its MAC share. At every reveal
//! boundary [`PartySession::check_integrity`] runs a deferred batch check
//! (random linear combination of `m − α·x` over the log, plus a transcript
//! digest over the binary-domain openings, committed then opened as
//! [`MessageKind::MacCheck`] rounds): any additive tampering with online
//! traffic makes the zero-sum test fail and the query **abort with
//! [`PartyError::Integrity`] before a wrong answer is revealed** —
//! `tests/malicious_integrity.rs` certifies this against the active-adversary
//! [`conclave_net::TamperingTransport`]. [`PartySession::unauthenticated`]
//! is the same session with the log and the check switched off, for
//! baselines and the silent-forgery regression pin.
//!
//! Comparisons are **not** simulated: `lt`/`eq` run the bit-decomposed
//! comparison circuits of [`crate::circuits`] entirely on shares (8 rounds
//! for a less-than batch — a bit-sliced carry tree that computes only each
//! operand's sign bit, its first AND level local on dealt products — and 7
//! for an equality batch, independent of batch size). No operand, bit, or
//! intermediate ever appears on the wire
//! unmasked — `tests/wire_privacy.rs` pins this against a sniffing
//! transport.
//!
//! The split preserves exact `Z_{2^64}` arithmetic, which is what the
//! transport-equivalence test suite pins against the in-process engine.
//!
//! [`Transport`]: conclave_net::Transport
//! [`StreamTag`]: conclave_net::StreamTag
//! [`NetStats`]: conclave_net::NetStats
//! [`MessageKind::MacCheck`]: conclave_net::MessageKind::MacCheck
//! [`Engine`]: crate::engine::Engine
//! [`AuthShare`]: crate::share::AuthShare
//! [`MaterialBlocks`]: crate::dealer::MaterialBlocks
//! [`DealerStream`]: crate::dealer::DealerStream
//! [`DealerSource`]: crate::dealer::DealerSource
//! [`DealerSource::Seeded`]: crate::dealer::DealerSource::Seeded
//! [`DealerSource::Preloaded`]: crate::dealer::DealerSource::Preloaded
//! [`DealerSource::Streamed`]: crate::dealer::DealerSource::Streamed

mod session;
mod step;

pub use session::PartySession;
pub use step::{
    begin_open_relation, finish_open_columns, finish_open_relation, open_relation, share_columns,
    share_relation, PartyRelation, PendingOpen, StepCtx,
};

use crate::engine::OpError;
use conclave_net::TransportError;
use std::fmt;

/// Errors raised by the party runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartyError {
    /// A transport failure (timeout, disconnect, I/O), or a peer's abort
    /// ([`TransportError::Aborted`]): that peer failed first, and its own
    /// error is the one that explains the failure.
    Net(TransportError),
    /// A protocol-level failure (bad column, arity, malformed peer data).
    Proto(String),
    /// The deferred SPDZ MAC check failed: an opened value is inconsistent
    /// with its MACs, i.e. online traffic was tampered with (or a party
    /// misbehaved). The query must abort without revealing a result.
    Integrity(String),
    /// The operator is not executable by the party runtime.
    Unsupported(String),
}

impl fmt::Display for PartyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyError::Net(e) => write!(f, "party transport error: {e}"),
            PartyError::Proto(s) => write!(f, "party protocol error: {s}"),
            PartyError::Integrity(s) => write!(f, "integrity violation: {s}"),
            PartyError::Unsupported(s) => write!(f, "unsupported in the party runtime: {s}"),
        }
    }
}

impl std::error::Error for PartyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartyError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for PartyError {
    fn from(e: TransportError) -> Self {
        PartyError::Net(e)
    }
}

impl From<OpError> for PartyError {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Invalid(s) => PartyError::Proto(s),
            OpError::Unsupported(s) => PartyError::Unsupported(s),
        }
    }
}

/// Result alias for party-runtime operations.
pub type PartyResult<T> = Result<T, PartyError>;

// The oblivious relational operators are engine-generic; these are the names
// party workers call them by, with a [`StepCtx`] as the engine.
pub use crate::operators::{
    aggregate_sorted, aggregate_sorted_lanes, execute_op as execute_party_op, sort_by,
};

#[cfg(test)]
pub(crate) use step::tests::run_parties;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let net = PartyError::Net(TransportError::Timeout { from: 2 });
        assert!(net.to_string().contains("P2"));
        assert!(std::error::Error::source(&net).is_some());
        let proto = PartyError::Proto("bad".into());
        assert!(proto.to_string().contains("bad"));
        assert!(std::error::Error::source(&proto).is_none());
        assert!(PartyError::Unsupported("x".into())
            .to_string()
            .contains('x'));
        let integrity = PartyError::Integrity("mac mismatch".into());
        assert!(integrity.to_string().contains("integrity violation"));
        assert!(std::error::Error::source(&integrity).is_none());
    }
}
