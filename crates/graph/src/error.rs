//! Error type for graph construction and execution.

use std::error::Error;
use std::fmt;
use tbd_tensor::TensorError;

/// Errors produced while building or executing a dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An underlying tensor kernel rejected its operands.
    Tensor(TensorError),
    /// A node id does not belong to this graph.
    UnknownNode(usize),
    /// `forward` was called without feeding a required input node.
    MissingFeed {
        /// Name given to the input when it was declared.
        name: String,
    },
    /// A feed's shape does not match the declared input shape.
    FeedShapeMismatch {
        /// Name of the input being fed.
        name: String,
        /// Shape the graph declared.
        expected: Vec<usize>,
        /// Shape of the supplied tensor.
        actual: Vec<usize>,
    },
    /// An operation received the wrong number of inputs.
    Arity {
        /// Name of the operation.
        op: &'static str,
        /// Required number of inputs.
        expected: usize,
        /// Supplied number of inputs.
        actual: usize,
    },
    /// `backward` was asked to seed a node that was never computed.
    ValueNotComputed(usize),
    /// A tensor extent whose `f32` byte length overflows `usize` (an
    /// absurd batch size, for instance).
    ShapeOverflow(Vec<usize>),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
            GraphError::UnknownNode(id) => write!(f, "node {id} does not belong to this graph"),
            GraphError::MissingFeed { name } => write!(f, "input '{name}' was not fed"),
            GraphError::FeedShapeMismatch { name, expected, actual } => {
                write!(f, "input '{name}' expects shape {expected:?}, got {actual:?}")
            }
            GraphError::Arity { op, expected, actual } => {
                write!(f, "{op}: expected {expected} inputs, got {actual}")
            }
            GraphError::ValueNotComputed(id) => {
                write!(f, "node {id} has no value in this run state")
            }
            GraphError::ShapeOverflow(dims) => {
                write!(f, "shape {dims:?} has more f32 bytes than usize can count")
            }
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tensor_errors() {
        let te = TensorError::LengthMismatch { expected: 4, actual: 2 };
        let ge: GraphError = te.clone().into();
        assert_eq!(ge, GraphError::Tensor(te));
        assert!(ge.to_string().contains("tensor error"));
    }

    #[test]
    fn display_variants() {
        assert!(GraphError::MissingFeed { name: "x".into() }.to_string().contains("'x'"));
        assert!(GraphError::Arity { op: "matmul", expected: 2, actual: 1 }
            .to_string()
            .contains("matmul"));
    }
}
