//! Error type for graph construction.

use std::error::Error;
use std::fmt;

/// Errors produced by `fet-topology`.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A graph parameter was out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        detail: String,
    },
    /// An edge referenced a vertex outside `[0, n)`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        n: u32,
    },
    /// A randomized generator exhausted its retry budget (the
    /// configuration-model pairing for random-regular graphs can collide).
    GenerationFailed {
        /// Which generator failed.
        generator: &'static str,
        /// Number of attempts made.
        attempts: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            TopologyError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph on {n} vertices")
            }
            TopologyError::GenerationFailed {
                generator,
                attempts,
            } => {
                write!(
                    f,
                    "generator `{generator}` failed after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_every_variant() {
        let cases: Vec<TopologyError> = vec![
            TopologyError::InvalidParameter {
                name: "p",
                detail: "must be in [0, 1]".into(),
            },
            TopologyError::VertexOutOfRange { vertex: 9, n: 5 },
            TopologyError::GenerationFailed {
                generator: "random_regular",
                attempts: 100,
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopologyError>();
    }
}
