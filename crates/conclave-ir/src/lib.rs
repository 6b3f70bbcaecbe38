//! Query intermediate representation for the Conclave reproduction.
//!
//! This crate defines everything the compiler front-end produces and the
//! back-ends consume:
//!
//! * scalar [`types::Value`]s and [`types::DataType`]s,
//! * [`party::Party`] identities and [`trust::TrustSet`] annotations,
//! * relational [`schema::Schema`]s with per-column trust sets,
//! * scalar [`expr::Expr`]essions,
//! * relational [`ops::Operator`]s (including the hybrid and oblivious
//!   sub-operators the compiler inserts),
//! * the operator [`dag::OpDag`],
//! * a LINQ-style [`builder::QueryBuilder`] mirroring Listings 1 and 2 of the
//!   paper, and
//! * the column-level information-[`flow`] lattice behind the leakage
//!   linter.
//!
//! The IR is deliberately self-contained: it has no knowledge of execution
//! back-ends. The compiler (`conclave-core`) annotates DAG nodes with
//! ownership, trust and execution-site information and rewrites the graph;
//! the engines (`conclave-engine`, `conclave-parallel`, `conclave-mpc`)
//! interpret the operators.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod builder;
pub mod dag;
pub mod display;
pub mod error;
pub mod expr;
pub mod flow;
pub mod ops;
pub mod party;
pub mod schema;
pub mod trust;
pub mod types;

pub use builder::{Query, QueryBuilder, TableHandle};
pub use dag::{DagNode, NodeId, OpDag};
pub use error::{IrError, IrResult};
pub use expr::Expr;
pub use flow::{compute_flow, Flow, FlowValue};
pub use ops::{AggFunc, ExecSite, Operator};
pub use party::{Party, PartyId, PartySet};
pub use schema::{ColumnDef, Schema};
pub use trust::TrustSet;
pub use types::{DataType, Value};
