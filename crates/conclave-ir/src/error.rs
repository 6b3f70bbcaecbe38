//! Error types shared across the IR.

use std::fmt;

/// Errors raised while constructing or validating the query IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A referenced column does not exist in the relevant schema.
    UnknownColumn {
        /// Name of the missing column.
        column: String,
        /// Context (operator or relation) in which the lookup happened.
        context: String,
    },
    /// A referenced DAG node does not exist.
    UnknownNode(usize),
    /// Two schemas that must be compatible (e.g. for `concat`) are not.
    SchemaMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An operator was constructed with invalid parameters.
    InvalidOperator {
        /// Operator name.
        op: String,
        /// Description of the problem.
        detail: String,
    },
    /// The DAG is malformed (cycle, missing input, dangling edge).
    MalformedDag(String),
    /// A type error in an expression or operator.
    TypeError(String),
    /// The query has no output (`collect`) node.
    NoOutput,
    /// An `input` relation was given no binding under its name (e.g. no row
    /// count when estimating a plan).
    UnboundInput(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownColumn { column, context } => {
                write!(f, "unknown column `{column}` in {context}")
            }
            IrError::UnknownNode(id) => write!(f, "unknown DAG node id {id}"),
            IrError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            IrError::InvalidOperator { op, detail } => {
                write!(f, "invalid operator `{op}`: {detail}")
            }
            IrError::MalformedDag(detail) => write!(f, "malformed DAG: {detail}"),
            IrError::TypeError(detail) => write!(f, "type error: {detail}"),
            IrError::NoOutput => write!(f, "query has no output (collect) node"),
            IrError::UnboundInput(name) => write!(f, "input relation `{name}` is not bound"),
        }
    }
}

impl std::error::Error for IrError {}

/// Convenience result alias for IR operations.
pub type IrResult<T> = Result<T, IrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_column() {
        let e = IrError::UnknownColumn {
            column: "ssn".into(),
            context: "join".into(),
        };
        assert_eq!(e.to_string(), "unknown column `ssn` in join");
    }

    #[test]
    fn display_other_variants() {
        assert!(IrError::UnknownNode(3).to_string().contains('3'));
        assert!(IrError::NoOutput.to_string().contains("output"));
        assert!(IrError::MalformedDag("cycle".into())
            .to_string()
            .contains("cycle"));
        assert!(IrError::TypeError("bad".into()).to_string().contains("bad"));
        assert!(IrError::UnboundInput("t".into())
            .to_string()
            .contains("`t`"));
        assert!(IrError::SchemaMismatch {
            detail: "arity".into()
        }
        .to_string()
        .contains("arity"));
        assert!(IrError::InvalidOperator {
            op: "join".into(),
            detail: "no keys".into()
        }
        .to_string()
        .contains("join"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&IrError::NoOutput);
    }
}
