//! MPI error type.

use padico_tm::TmError;
use std::fmt;

/// Errors raised by the MPI layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Underlying PadicoTM error.
    Tm(TmError),
    /// Rank out of range for the communicator.
    BadRank { rank: i32, size: usize },
    /// Tag outside the user tag space.
    BadTag(u32),
    /// Receive buffer shorter than the incoming message.
    Truncated { incoming: usize, capacity: usize },
    /// Count mismatch in a collective (e.g. scatterv layout).
    BadCount(String),
    /// Datatype decode failure (length not a multiple of the type size).
    BadDatatype(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Tm(e) => write!(f, "transport error: {e}"),
            MpiError::BadRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::BadTag(t) => write!(f, "tag {t} outside the user tag space"),
            MpiError::Truncated { incoming, capacity } => {
                write!(f, "message truncated: {incoming} bytes into {capacity}")
            }
            MpiError::BadCount(what) => write!(f, "count mismatch: {what}"),
            MpiError::BadDatatype(what) => write!(f, "datatype error: {what}"),
        }
    }
}

impl std::error::Error for MpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiError::Tm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TmError> for MpiError {
    fn from(e: TmError) -> Self {
        MpiError::Tm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MpiError::BadRank { rank: 9, size: 4 }
            .to_string()
            .contains("9"));
        assert!(MpiError::Truncated {
            incoming: 100,
            capacity: 10
        }
        .to_string()
        .contains("truncated"));
        assert!(MpiError::from(TmError::Closed)
            .to_string()
            .contains("transport"));
    }
}
