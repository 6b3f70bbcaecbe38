//! MPC substrates for the Conclave reproduction.
//!
//! The paper's prototype generates code for two external MPC frameworks:
//! Sharemind (3-party additive secret sharing) and Obliv-C (2-party garbled
//! circuits); its SMCQL comparison additionally uses ObliVM. None of these
//! are available here, so this crate implements the substrates from scratch:
//!
//! * [`engine`] — the small [`Engine`] trait (local linear algebra, batched
//!   multiply/compare/multiplex, open, cost charging, a shuffle permutation)
//!   that everything relational is written against. Exactly two engines
//!   implement it, [`Protocol`] and [`runtime::StepCtx`].
//! * [`operators`], [`relation`] — the oblivious relational sub-protocols,
//!   written **once**, generic over the engine, on the engine-generic
//!   relation [`Rel`]: shuffles, Batcher sorting networks, odd-even merges,
//!   Laud-style oblivious indexing, Cartesian-product joins, the
//!   Jónsson-style sorting aggregation the paper builds on, filters, column
//!   arithmetic, and the one `Operator` dispatcher [`operators::execute_op`].
//!   [`oblivious`] pins the four the hybrid protocols call to the in-process
//!   engine.
//! * [`ring`], [`protocol`] — the **in-process engine**: a counting
//!   cleartext simulator. Its share of a value is the value itself (a
//!   [`RingElem`] of `Z_{2^64}`); every primitive computes in the clear, in
//!   one process, and charges the primitive counts of the real protocol —
//!   which is all the cost model and the paper's figures take from it. It
//!   runs `PartyRuntime::Simulated` and, under every runtime, the §5.3
//!   hybrid operators; it offers no secrecy between parties (see the
//!   fidelity note in [`protocol`] and `docs/SECURITY.md`). [`share`] holds
//!   the real share type, [`AuthShare`], which only the party runtime uses.
//! * [`cost`] — cost models converting primitive counts into simulated
//!   wall-clock time, calibrated against the datapoints the paper reports.
//!   The garbled-circuit "backend" ([`BackendKind::Garbled`], calibrated to
//!   Obliv-C or ObliVM by its [`GarbledCostModel`]) is one of them and
//!   nothing more: analytic gate counts (`cost::gates`) priced by a time
//!   and memory model that reproduces the out-of-memory cliffs in Figure 1
//!   — one table for executed and estimated steps. No circuit is built or
//!   garbled.
//! * [`backend`] — a unified engine that executes IR operators under a chosen
//!   backend over cleartext inputs, returning the result relation together
//!   with simulated runtime and traffic statistics.
//! * [`runtime`] — the **per-party engine**: a session-lifetime
//!   [`runtime::PartySession`] (identity, stock of dealt material, MAC log)
//!   that hands out per-plan-step [`runtime::StepCtx`] engines. Each step
//!   drives open/multiply/comparisons — and, through them, the same generic
//!   operators — as real [`conclave_net::Transport`] message rounds on its
//!   own logical stream, recording observed (not modeled) traffic; every
//!   round is one call of the runtime's one split-phase exchange. Both
//!   engines are differentially tested against the cleartext
//!   `conclave_engine::execute`, the independent reference for operator
//!   logic.
//! * [`circuits`] — bit-decomposed comparison circuits for the party
//!   runtime: signed less-than and equality computed entirely on shares
//!   (Kogge-Stone carry adders over XOR-shared bits, binary Beaver ANDs,
//!   daBit bit-to-arithmetic conversion), so no operand value ever crosses
//!   the wire unmasked.
//! * [`dealer`] — the **offline phase**: a standalone dealer that
//!   pregenerates SPDZ-authenticated Beaver triples, binary triples, dual
//!   bit masks, daBits, and input masks, delivered to the online parties
//!   over a dedicated dealer link ([`dealer::serve_party`]), as per-party
//!   files that are that link recorded ([`dealer::write_party_files`]), or
//!   by every party running the same [`dealer::DealerStream`] locally on
//!   the session seed and keeping its own slice — one generator and one
//!   decoder for all three. Online shares carry SPDZ MACs
//!   ([`share::AuthShare`]) checked at every reveal boundary.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod backend;
pub mod circuits;
pub mod cost;
pub mod dealer;
pub mod engine;
pub mod oblivious;
pub mod operators;
pub mod protocol;
pub mod relation;
pub mod ring;
pub mod runtime;
pub mod share;

pub use backend::{BackendKind, MpcBackendConfig, MpcEngine, MpcError, MpcResult, MpcStepStats};
pub use cost::{GarbledCostModel, PrimitiveCounts, SecretShareCostModel};
pub use dealer::{
    generate_blocks, load_party_file, serve_party, write_party_files, DealerSource, DealerStream,
    InputMask, MaterialBlocks, MaterialSpec, Request,
};
pub use engine::{Engine, OpError};
pub use protocol::Protocol;
pub use relation::{Rel, SharedRelation};
pub use ring::RingElem;
pub use runtime::{PartyError, PartyRelation, PartyResult, PartySession, PendingOpen, StepCtx};
pub use share::AuthShare;
