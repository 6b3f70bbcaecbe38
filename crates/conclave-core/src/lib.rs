//! The Conclave query compiler and multi-party driver.
//!
//! This crate implements the paper's primary contribution (§5): given a
//! relational query over relations distributed across mutually-distrusting
//! parties, it
//!
//! 1. propagates *ownership* through the operator DAG ([`analysis`]); column
//!    *trust* is derived once, by `conclave_ir::flow`,
//! 2. pushes the MPC frontier down into local, per-party pre-processing and
//!    up into cleartext post-processing at the output recipient
//!    ([`passes::pushdown`], [`passes::pushup`]),
//! 3. replaces expensive MPC joins and aggregations with hybrid MPC–cleartext
//!    operators when the derived trust authorizes a selectively-trusted
//!    party ([`passes::hybrid`]),
//! 4. eliminates redundant oblivious sorts ([`passes::sort_elim`]),
//! 5. statically certifies the final plan with the leakage linter
//!    ([`passes::leakage`]): every cleartext placement and reveal is proven
//!    to honor the trust annotations, or compilation fails,
//! 6. partitions the DAG into local and MPC stages and produces a
//!    [`plan::PhysicalPlan`], and
//! 7. executes the plan with the [`driver::Driver`], which combines the
//!    cleartext engines (`conclave-engine`, `conclave-parallel`) with the MPC
//!    substrates (`conclave-mpc`), reveals cleartext only where the linter's
//!    report certifies it, and reports results, simulated runtime and the
//!    disclosures it exercised ([`report`]).
//!
//! MPC plan steps run in one of two modes, selected by
//! [`config::ConclaveConfig::party_runtime`]: the default *simulated* mode
//! (single-process protocol engine, modeled network costs) or the
//! *distributed party runtime* ([`party_exec`]), which spawns one protocol
//! endpoint per computing party over a real
//! [`Transport`](conclave_net::Transport) and records measured per-link
//! traffic in [`report::RunReport::net`].
//!
//! For paper-scale inputs that cannot be materialized, [`cardinality`]
//! propagates row counts through the compiled plan and converts them into
//! simulated runtimes using the same cost models the driver charges.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod analysis;
pub mod cardinality;
pub mod config;
pub mod driver;
pub mod hybrid_exec;
pub mod party_exec;
pub mod passes;
pub mod plan;
pub mod report;
pub mod session;

pub use analysis::propagate_ownership;
pub use cardinality::{CardinalityEstimator, RuntimeEstimate, WorkloadStats};
pub use config::{ConclaveConfig, DealerMode, PartyRuntime};
pub use driver::Driver;
pub use passes::leakage::{Disclosure, DisclosureKind, LeakageReport, LeakageViolation};
pub use plan::{compile, CompileError, CompileResult, PhysicalPlan};
pub use report::RunReport;
pub use session::{PersistentSession, Session, SessionError};
