use std::fmt;

use crate::topology::NodeId;

/// Errors produced by the NoC simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// A mesh dimension was zero or the node count exceeds the 16-bit
    /// address space of the packet header (Fig. 1 uses 16-bit addresses).
    InvalidMesh {
        /// Requested mesh width.
        width: u16,
        /// Requested mesh height.
        height: u16,
    },
    /// A node id referenced a node outside the current mesh.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the mesh.
        nodes: u32,
    },
    /// A packet could not be injected because the node's injection queue is
    /// bounded and full.
    InjectionQueueFull {
        /// The node whose queue overflowed.
        node: NodeId,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::InvalidMesh { width, height } => {
                write!(f, "invalid mesh dimensions {width}x{height}")
            }
            NocError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {} out of range (mesh has {nodes} nodes)", node.0)
            }
            NocError::InjectionQueueFull { node } => {
                write!(f, "injection queue full at node {}", node.0)
            }
        }
    }
}

impl std::error::Error for NocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            NocError::InvalidMesh {
                width: 0,
                height: 4
            }
            .to_string(),
            "invalid mesh dimensions 0x4"
        );
        assert_eq!(
            NocError::NodeOutOfRange {
                node: NodeId(99),
                nodes: 64
            }
            .to_string(),
            "node 99 out of range (mesh has 64 nodes)"
        );
        assert_eq!(
            NocError::InjectionQueueFull { node: NodeId(3) }.to_string(),
            "injection queue full at node 3"
        );
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> =
            Box::new(NocError::InjectionQueueFull { node: NodeId(1) });
        assert!(e.source().is_none());
    }
}
