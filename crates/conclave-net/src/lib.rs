//! Multi-party networking: the [`Transport`] abstraction, its two
//! implementations, and the latency/bandwidth model the cost models use.
//!
//! MPC performance is dominated by communication: secret-sharing protocols
//! pay a network round per batch of multiplications, and garbled circuits
//! ship large wire-label state. This crate accounts for that twice over:
//!
//! * the [`Transport`] trait ([`transport`]) moves typed [`Envelope`]s
//!   between parties for real — over an in-process channel mesh
//!   ([`ChannelTransport`]) or TCP sockets ([`TcpTransport`]) — recording
//!   *observed* per-link bytes and rounds into [`NetStats`]; a [`Mesh`] is
//!   a query's full set of endpoints; and
//! * [`NetworkModel`] ([`model`]) converts bytes and rounds into *modeled*
//!   elapsed time for the cost models of `conclave-mpc` and `conclave-core`.
//!
//! [`TamperingTransport`] ([`tamper`]) wraps an endpoint as an active
//! man-in-the-middle for the integrity suites, and [`serve`] frames the
//! `conclave-server` request/response protocol over a transport link.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod mesh;
pub mod message;
pub mod model;
pub mod serve;
pub mod stats;
pub mod tamper;
pub mod transport;

pub use mesh::Mesh;
pub use message::MessageKind;
pub use model::NetworkModel;
pub use stats::{LinkStats, NetStats};
pub use tamper::{Fault, FaultSpec, TamperingTransport};
pub use transport::{
    merge_mesh_stats, ChannelTransport, Envelope, StreamTag, TcpTransport, Transport,
    TransportError,
};
