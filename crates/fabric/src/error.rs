//! Fabric error types.

use padico_util::ids::NodeId;
use padico_util::simtime::Vt;
use std::fmt;

/// Errors raised by fabric drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The node is not connected to this fabric.
    NotMember(NodeId),
    /// Exclusive-access hardware is already held by another client on this
    /// node (e.g. Myrinet through BIP: one process per NIC).
    Busy { node: NodeId, holder: String },
    /// The requested well-known port is already bound on this node.
    PortTaken { node: NodeId, port: u16 },
    /// Every ephemeral port of this node is bound.
    PortsExhausted { node: NodeId },
    /// SCI-style mapping table is full on this node.
    MappingLimit { node: NodeId, limit: usize },
    /// Sending to a remote node that requires an established mapping
    /// without having mapped it first.
    NoMapping { from: NodeId, to: NodeId },
    /// The destination endpoint does not exist or was dropped.
    Unreachable { to: NodeId, port: u16 },
    /// The physical link between two nodes is down (partition, flapping
    /// window, or dead mapping hardware). Retryable: the link may heal,
    /// or another fabric may reach the peer.
    LinkDown { from: NodeId, to: NodeId },
    /// A send whose clock reads `at`, behind the transmit history that
    /// `node`'s NIC has retired up to `retired`: a second clock is
    /// driving a NIC that another clock has been retiring. Where the full
    /// history would place it is unknown, so it is refused.
    BehindRetired { node: NodeId, at: Vt, retired: Vt },
    /// The endpoint (or fabric) has been shut down.
    Closed,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::NotMember(n) => write!(f, "{n} is not a member of this fabric"),
            FabricError::Busy { node, holder } => {
                write!(f, "exclusive NIC on {node} already held by `{holder}`")
            }
            FabricError::PortTaken { node, port } => {
                write!(f, "port {port} already bound on {node}")
            }
            FabricError::PortsExhausted { node } => {
                write!(f, "every ephemeral port is bound on {node}")
            }
            FabricError::MappingLimit { node, limit } => {
                write!(f, "SCI mapping table full on {node} (limit {limit})")
            }
            FabricError::NoMapping { from, to } => {
                write!(f, "no SCI mapping established from {from} to {to}")
            }
            FabricError::Unreachable { to, port } => {
                write!(f, "no endpoint listening at {to}:{port}")
            }
            FabricError::LinkDown { from, to } => {
                write!(f, "link from {from} to {to} is down")
            }
            FabricError::BehindRetired { node, at, retired } => write!(
                f,
                "send on {node} at vt {at} ns is behind its NIC's transmit history, \
                 retired up to vt {retired} ns by another clock"
            ),
            FabricError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FabricError::Busy {
            node: NodeId(2),
            holder: "raw-mpi".into(),
        };
        let s = e.to_string();
        assert!(s.contains("node2") && s.contains("raw-mpi"), "{s}");
        assert!(FabricError::Closed.to_string().contains("closed"));
    }
}
