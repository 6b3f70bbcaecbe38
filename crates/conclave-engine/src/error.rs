//! Typed errors shared by the cleartext engines (row and columnar) and the
//! relation constructors.

use std::fmt;

/// Errors produced by the cleartext engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Wrong number of inputs for the operator.
    Arity {
        /// Operator name.
        op: String,
        /// Expected input count description.
        expected: String,
        /// Actual input count.
        got: usize,
    },
    /// A row does not match the arity of its schema.
    RowArity {
        /// Index of the offending row.
        row: usize,
        /// Number of values the row holds.
        got: usize,
        /// Number of columns the schema defines.
        expected: usize,
    },
    /// Referenced column does not exist.
    UnknownColumn(String),
    /// The operator cannot run in a single-site cleartext engine.
    Unsupported(String),
    /// Expression evaluation failed.
    Eval(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Arity { op, expected, got } => {
                write!(f, "operator {op} expects {expected} inputs, got {got}")
            }
            EngineError::RowArity { row, got, expected } => {
                write!(
                    f,
                    "row {row} has {got} values, schema has {expected} columns"
                )
            }
            EngineError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EngineError::Unsupported(op) => write!(f, "operator {op} is not a cleartext operator"),
            EngineError::Eval(e) => write!(f, "expression evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let e = EngineError::RowArity {
            row: 3,
            got: 1,
            expected: 2,
        };
        assert_eq!(e.to_string(), "row 3 has 1 values, schema has 2 columns");
        assert!(EngineError::UnknownColumn("zip".into())
            .to_string()
            .contains("`zip`"));
    }
}
