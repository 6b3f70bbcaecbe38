//! Cleartext relational execution engines.
//!
//! This is the reproduction's equivalent of the paper's "sequential Python"
//! backend (§4.1): each party can run any cleartext sub-DAG of the compiled
//! query locally over its own data. Two interchangeable engines are provided:
//!
//! * the **row engine** ([`exec::execute`]) evaluates operators one row at a
//!   time over [`relation::Relation`] (`Vec<Vec<Value>>` storage), and
//! * the **vectorized engine** ([`vexec::execute_columnar`]) evaluates them
//!   one column at a time over [`columnar::ColumnarRelation`] (typed column
//!   vectors with null masks), which is markedly faster on large inputs.
//!
//! The two are semantically identical — the workspace's differential test
//! suite (`tests/engine_differential.rs`) holds them to cell-for-cell
//! equality — and callers select between them with [`EngineMode`]. Simulated
//! wall-clock costs come from [`cost::SequentialCostModel`], so end-to-end
//! experiment harnesses can reproduce the paper's runtime comparisons
//! without a cluster.
//!
//! Plan-level execution moves data through the unified [`table::Table`]
//! value, which holds either (or both) representations and converts lazily
//! with a one-shot cache, and dispatches operators through the
//! [`executor::Executor`] trait ([`RowExecutor`], [`ColumnarExecutor`], and
//! `conclave-parallel`'s engine), so a driven query pays row↔columnar
//! conversion only at genuine domain boundaries instead of at every
//! operator edge.

// Also enforced workspace-wide via [workspace.lints]; stated here so the
// guarantee is visible at the crate root.
#![forbid(unsafe_code)]

pub mod columnar;
pub mod cost;
pub mod error;
pub mod exec;
pub mod executor;
pub mod relation;
pub mod table;
pub mod vexec;

pub use columnar::{Column, ColumnData, ColumnarRelation};
pub use cost::SequentialCostModel;
pub use error::{EngineError, EngineResult};
pub use exec::{execute, execute_rows, key_indices};
pub use executor::{sequential_executor, ColumnarExecutor, Executor, RowExecutor};
pub use relation::Relation;
pub use table::{ConversionCounts, Table};
pub use vexec::{execute_columnar, execute_vectorized};

/// Which cleartext execution strategy an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Row-at-a-time execution over `Vec<Vec<Value>>` rows.
    #[default]
    Row,
    /// Vectorized execution over typed columns.
    Columnar,
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMode::Row => f.write_str("row"),
            EngineMode::Columnar => f.write_str("columnar"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mode_defaults_to_row() {
        assert_eq!(EngineMode::default(), EngineMode::Row);
        assert_eq!(EngineMode::Row.to_string(), "row");
        assert_eq!(EngineMode::Columnar.to_string(), "columnar");
    }
}
