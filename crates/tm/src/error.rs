//! PadicoTM error types.

use padico_fabric::FabricError;
use padico_util::ids::NodeId;
use std::fmt;

/// Errors raised by the PadicoTM runtime layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmError {
    /// Underlying fabric refused the operation.
    Fabric(FabricError),
    /// No fabric connects this pair of nodes (routing failure).
    NoRoute { from: NodeId, to: NodeId },
    /// No fabric satisfies the requested constraint (e.g. an explicit
    /// fabric kind that does not connect the group).
    NoUsableFabric(String),
    /// Timed out waiting for a peer (connect, handshake, recv with
    /// deadline).
    Timeout(String),
    /// The physical link to the peer is down (partition, flap window, dead
    /// mapping hardware). Retryable — possibly over another fabric.
    LinkDown { from: NodeId, to: NodeId },
    /// The channel/stream/endpoint has been closed.
    Closed,
    /// A bounded budget (inflight dispatches, parked-message budget) was
    /// exhausted and the work was shed instead of queued. Retryable: the
    /// overload is by definition momentary once inflight work drains.
    Overloaded(String),
    /// A circuit breaker holds this route open after consecutive
    /// transient failures; the call failed fast without touching the
    /// wire. Retryable — a later attempt rides the half-open probe.
    CircuitOpen(String),
    /// Module management error (missing dependency, duplicate load, …).
    Module(String),
    /// Protocol violation detected while parsing a runtime header.
    Protocol(String),
}

impl TmError {
    /// Whether another attempt (possibly over another fabric) may succeed.
    ///
    /// This is the single classification point for the whole runtime:
    /// timeouts and down links obviously qualify; so do mapping-table
    /// failures, because the arbitration layer can re-establish a mapping
    /// or the selector can fail the flow over to another fabric.
    pub fn is_transient(&self) -> bool {
        match self {
            TmError::LinkDown { .. }
            | TmError::Timeout(_)
            | TmError::Overloaded(_)
            | TmError::CircuitOpen(_) => true,
            TmError::Fabric(fe) => matches!(
                fe,
                FabricError::NoMapping { .. }
                    | FabricError::MappingLimit { .. }
                    | FabricError::Unreachable { .. }
                    | FabricError::LinkDown { .. }
            ),
            _ => false,
        }
    }

    /// Whether the failure indicts the *link itself* (partition, dead
    /// mapping hardware, exhausted mapping table) rather than the peer or
    /// the protocol — i.e. whether failing over to another fabric is worth
    /// trying. Strictly narrower than [`TmError::is_transient`]: a timeout
    /// says nothing about which fabric is at fault.
    pub fn is_link_level(&self) -> bool {
        matches!(
            self,
            TmError::LinkDown { .. }
                | TmError::Fabric(FabricError::NoMapping { .. } | FabricError::MappingLimit { .. })
        )
    }
}

impl fmt::Display for TmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmError::Fabric(e) => write!(f, "fabric error: {e}"),
            TmError::NoRoute { from, to } => write!(f, "no fabric connects {from} to {to}"),
            TmError::NoUsableFabric(what) => write!(f, "no usable fabric: {what}"),
            TmError::Timeout(what) => write!(f, "timed out: {what}"),
            TmError::LinkDown { from, to } => write!(f, "link from {from} to {to} is down"),
            TmError::Closed => write!(f, "closed"),
            TmError::Overloaded(what) => write!(f, "overloaded: {what}"),
            TmError::CircuitOpen(what) => write!(f, "circuit open: {what}"),
            TmError::Module(what) => write!(f, "module error: {what}"),
            TmError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for TmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TmError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for TmError {
    fn from(e: FabricError) -> Self {
        match e {
            // A down link keeps its typed identity across the layer
            // boundary so retry/failover logic can match on it.
            FabricError::LinkDown { from, to } => TmError::LinkDown { from, to },
            other => TmError::Fabric(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = TmError::from(FabricError::Closed);
        assert!(e.to_string().contains("fabric error"));
        assert!(e.source().is_some());
        assert!(TmError::NoRoute {
            from: NodeId(0),
            to: NodeId(3)
        }
        .to_string()
        .contains("node3"));
        assert!(TmError::Timeout("connect".into()).source().is_none());
    }

    #[test]
    fn transient_classification_per_variant() {
        let pair = (NodeId(0), NodeId(1));
        // Transient: another attempt (or another fabric) may succeed.
        assert!(TmError::Timeout("connect".into()).is_transient());
        assert!(TmError::LinkDown {
            from: pair.0,
            to: pair.1
        }
        .is_transient());
        assert!(TmError::Fabric(FabricError::NoMapping {
            from: pair.0,
            to: pair.1
        })
        .is_transient());
        assert!(TmError::Fabric(FabricError::MappingLimit {
            node: pair.0,
            limit: 2
        })
        .is_transient());
        assert!(TmError::Fabric(FabricError::Unreachable {
            to: pair.1,
            port: 9
        })
        .is_transient());
        assert!(TmError::Fabric(FabricError::LinkDown {
            from: pair.0,
            to: pair.1
        })
        .is_transient());
        // Shed work and open breakers clear once load drains / the
        // cooldown elapses.
        assert!(TmError::Overloaded("inflight budget".into()).is_transient());
        assert!(TmError::CircuitOpen("route to node1".into()).is_transient());
        // Permanent: retrying cannot help.
        assert!(!TmError::Closed.is_transient());
        assert!(!TmError::Protocol("bad header".into()).is_transient());
        assert!(!TmError::Module("missing dep".into()).is_transient());
        assert!(!TmError::NoRoute {
            from: pair.0,
            to: pair.1
        }
        .is_transient());
        assert!(!TmError::NoUsableFabric("no myrinet".into()).is_transient());
        assert!(!TmError::Fabric(FabricError::Closed).is_transient());
        assert!(!TmError::Fabric(FabricError::NotMember(pair.0)).is_transient());
        assert!(!TmError::Fabric(FabricError::Busy {
            node: pair.0,
            holder: "mpi".into()
        })
        .is_transient());
        assert!(!TmError::Fabric(FabricError::PortTaken {
            node: pair.0,
            port: 1
        })
        .is_transient());
    }

    #[test]
    fn link_level_classification_per_variant() {
        let pair = (NodeId(0), NodeId(1));
        // Link-level: failing over to another fabric is worth trying.
        assert!(TmError::LinkDown {
            from: pair.0,
            to: pair.1
        }
        .is_link_level());
        assert!(TmError::Fabric(FabricError::NoMapping {
            from: pair.0,
            to: pair.1
        })
        .is_link_level());
        assert!(TmError::Fabric(FabricError::MappingLimit {
            node: pair.0,
            limit: 8
        })
        .is_link_level());
        // Transient but *not* link-level: a timeout does not indict the
        // fabric, an unreachable port is the peer's fault, and overload /
        // an open breaker say the route is saturated or quarantined —
        // failing over would just spread the load, not fix it.
        assert!(!TmError::Timeout("recv".into()).is_link_level());
        assert!(!TmError::Fabric(FabricError::Unreachable {
            to: pair.1,
            port: 9
        })
        .is_link_level());
        assert!(!TmError::Overloaded("budget".into()).is_link_level());
        assert!(!TmError::CircuitOpen("route".into()).is_link_level());
        // Permanent errors are never link-level.
        assert!(!TmError::Closed.is_link_level());
        assert!(!TmError::Protocol("x".into()).is_link_level());
        assert!(!TmError::NoRoute {
            from: pair.0,
            to: pair.1
        }
        .is_link_level());
        // Every link-level error is also transient.
        for e in [
            TmError::LinkDown {
                from: pair.0,
                to: pair.1,
            },
            TmError::Fabric(FabricError::NoMapping {
                from: pair.0,
                to: pair.1,
            }),
            TmError::Fabric(FabricError::MappingLimit {
                node: pair.0,
                limit: 1,
            }),
        ] {
            assert!(e.is_transient(), "{e}");
        }
    }

    #[test]
    fn link_down_keeps_typed_identity_across_conversion() {
        let e = TmError::from(FabricError::LinkDown {
            from: NodeId(1),
            to: NodeId(2),
        });
        assert_eq!(
            e,
            TmError::LinkDown {
                from: NodeId(1),
                to: NodeId(2)
            }
        );
        assert!(e.to_string().contains("down"));
    }
}
