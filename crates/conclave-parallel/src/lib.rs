//! Data-parallel cleartext engine (the "Spark" backend).
//!
//! The paper runs each party's local, cleartext query steps on a small Spark
//! cluster so that pre-processing scales to hundreds of millions of rows
//! (§6, §7.1). This crate stands in for Spark with one scheduling policy
//! ([`exec`]): a partition is a range of a table's rows, narrow operators
//! run on every partition in a task wave (real threads, as many as the host
//! has cores), aggregations and `Distinct` combine per partition and fold the
//! partials in one final pass, joins shuffle both sides by key first. Every
//! task runs the vectorized engine on typed columns, and a
//! [`cost::ClusterCostModel`] translates the
//! work into the simulated wall-clock time a small cluster would need —
//! including the fixed job-scheduling overhead that makes Spark slower than
//! plain Python on tiny inputs but vastly faster on large ones (the
//! crossover visible in Figures 1 and 4).

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod cluster;
pub mod cost;
pub mod exec;
pub mod partition;

pub use cluster::ClusterSpec;
pub use cost::ClusterCostModel;
pub use exec::ParallelEngine;
