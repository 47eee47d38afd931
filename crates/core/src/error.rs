//! GridCCM error type.

use padico_ccm::CcmError;
use padico_mpi::MpiError;
use padico_orb::OrbError;
use std::fmt;

/// Errors raised by the GridCCM layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GridCcmError {
    /// Underlying CCM failure.
    Ccm(CcmError),
    /// Underlying ORB failure.
    Orb(OrbError),
    /// Underlying MPI failure (inside a parallel component).
    Mpi(String),
    /// Distribution metadata mismatch (wrong sizes, incompatible specs).
    Distribution(String),
    /// Parallelism descriptor error (bad XML, unknown op, bad arg index).
    Descriptor(String),
    /// Interception-layer protocol violation.
    Protocol(String),
    /// Too few server replicas reachable to run a degraded parallel
    /// invocation: `alive` of `total` answered the liveness probe, but
    /// the handle's quorum requires more.
    QuorumLost { alive: usize, total: usize },
    /// A derived request arrived for an invocation its client rank had
    /// already acknowledged as returned, after the replica dropped the
    /// result: a stale duplicate, answered at once and never re-run.
    AlreadyCompleted { inv_id: u64 },
}

/// How [`GridCcmError::AlreadyCompleted`] ends its message, which is all
/// of it that survives a trip through a GIOP system exception.
const ALREADY_COMPLETED: &str = "already completed";

impl GridCcmError {
    /// Whether the error is (or, as a system exception off the wire,
    /// carries) [`GridCcmError::AlreadyCompleted`].
    pub fn is_already_completed(&self) -> bool {
        match self {
            GridCcmError::AlreadyCompleted { .. } => true,
            GridCcmError::Orb(OrbError::System(msg)) => msg.ends_with(ALREADY_COMPLETED),
            _ => false,
        }
    }

    /// Whether an invocation error came from the arbitrated transport
    /// (and a degraded re-plan or retry may help) rather than from the
    /// GridCCM protocol itself. Delegates to [`OrbError::is_transport`],
    /// which in turn rests on the transport's own classification.
    pub fn is_transport_failure(&self) -> bool {
        matches!(self, GridCcmError::Orb(e) if e.is_transport())
    }
}

impl fmt::Display for GridCcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridCcmError::Ccm(e) => write!(f, "CCM error: {e}"),
            GridCcmError::Orb(e) => write!(f, "ORB error: {e}"),
            GridCcmError::Mpi(e) => write!(f, "MPI error: {e}"),
            GridCcmError::Distribution(what) => write!(f, "distribution error: {what}"),
            GridCcmError::Descriptor(what) => write!(f, "parallelism descriptor error: {what}"),
            GridCcmError::Protocol(what) => write!(f, "GridCCM protocol error: {what}"),
            GridCcmError::QuorumLost { alive, total } => write!(
                f,
                "quorum lost: only {alive} of {total} server replicas reachable"
            ),
            GridCcmError::AlreadyCompleted { inv_id } => {
                write!(f, "invocation {inv_id:#x} {ALREADY_COMPLETED}")
            }
        }
    }
}

impl std::error::Error for GridCcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridCcmError::Ccm(e) => Some(e),
            GridCcmError::Orb(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CcmError> for GridCcmError {
    fn from(e: CcmError) -> Self {
        GridCcmError::Ccm(e)
    }
}

impl From<OrbError> for GridCcmError {
    fn from(e: OrbError) -> Self {
        GridCcmError::Orb(e)
    }
}

impl From<MpiError> for GridCcmError {
    fn from(e: MpiError) -> Self {
        GridCcmError::Mpi(e.to_string())
    }
}

impl From<padico_tm::TmError> for GridCcmError {
    fn from(e: padico_tm::TmError) -> Self {
        GridCcmError::Orb(OrbError::CommFailure(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e = GridCcmError::from(CcmError::NotFound("x".into()));
        assert!(e.to_string().contains("CCM"));
        let e = GridCcmError::from(OrbError::Marshal("y".into()));
        assert!(e.to_string().contains("ORB"));
        assert!(GridCcmError::Distribution("size".into())
            .to_string()
            .contains("distribution"));
    }

    #[test]
    fn transport_failures_are_classified_through_the_orb_layer() {
        let transient = GridCcmError::Orb(OrbError::Transient(padico_tm::TmError::Timeout(
            "reply".into(),
        )));
        let hard = GridCcmError::from(padico_tm::TmError::Closed);
        assert!(transient.is_transport_failure());
        assert!(hard.is_transport_failure());
        assert!(!GridCcmError::Protocol("bad header".into()).is_transport_failure());
        assert!(!GridCcmError::Orb(OrbError::Marshal("short".into())).is_transport_failure());
        assert!(!GridCcmError::QuorumLost { alive: 1, total: 4 }.is_transport_failure());
    }

    #[test]
    fn already_completed_survives_the_system_exception_round_trip() {
        let e = GridCcmError::AlreadyCompleted { inv_id: 0x2a };
        assert!(e.is_already_completed());
        assert!(!e.is_transport_failure());
        // What the client sees: the adapter's message inside the ORB's.
        let wire = OrbError::System(format!("GridCCM: {e}")).to_string();
        assert!(GridCcmError::Orb(OrbError::System(wire)).is_already_completed());
        assert!(!GridCcmError::Orb(OrbError::System("deliberate".into())).is_already_completed());
    }
}
