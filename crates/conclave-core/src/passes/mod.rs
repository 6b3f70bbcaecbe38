//! Query rewrite passes (§5.2–§5.4): the pipeline that decides what runs
//! under MPC.
//!
//! After `analysis` propagates ownership through the operator DAG,
//! [`crate::plan::compile`] runs the passes in this order:
//!
//! | # | Pass | Direction across the MPC frontier |
//! |---|------|-----------------------------------|
//! | 1 | [`pushdown`] | moves distributive operators and aggregation splits *below* the frontier, into per-party local cleartext |
//! | 2 | [`sites`] | draws the frontier: assigns every node `Local(p)` or `Mpc` |
//! | 3 | [`hybrid`] | splits expensive MPC joins/aggregations into MPC + selectively-trusted-party cleartext halves |
//! | 4 | [`pushup`] | moves reversible operators *above* the frontier, into cleartext at the output recipient |
//! | 5 | [`sort_elim`] | deletes oblivious sorts whose input is already sorted and annotates order for MPC aggregations |
//! | 6 | [`leakage`] | *verifies* (never rewrites): proves every cleartext placement and reveal honors the trust annotations, or rejects the plan |
//!
//! Column trust has one derivation, `conclave_ir::flow::compute_flow`, read
//! from the `Input` annotations. [`hybrid`] computes it on the sited DAG and
//! picks each STP from it; [`leakage`] recomputes it on the final DAG and
//! certifies with it. No pass stores trust in a schema.
//!
//! Each pass returns a human-readable log of the rewrites it applied; the
//! logs surface in [`crate::plan::PhysicalPlan::transformations`] and in the
//! examples' output. The narrative version of this pipeline — from SQL text
//! to `Table` execution — is the "Life of a query" section of
//! `ARCHITECTURE.md`; each pass's module documentation below tells the same
//! story next to its code.
//!
//! Queries enter the pipeline identically whether they were written in the
//! Conclave SQL dialect (`conclave-sql`, `Session::run_sql`) or assembled
//! with the programmatic `QueryBuilder`: the SQL frontend lowers to the same
//! DAG, so the passes neither know nor care which surface produced it.

pub mod hybrid;
pub mod leakage;
pub mod pushdown;
pub mod pushup;
pub mod sites;
pub mod sort_elim;
