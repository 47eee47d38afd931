//! Retry/backoff policy for the PadicoTM runtime.
//!
//! The abstraction layer promises middleware a link that works; the fault
//! story behind that promise lives here. A [`RetryPolicy`] budgets how
//! many times an operation may be re-attempted and how long to back off
//! between attempts. Backoff is **charged to the node's virtual clock**,
//! not slept on the host: recovery time shows up in the measured virtual
//! latencies (so bench reports can show recovery overhead next to the
//! happy path) while tests stay fast and deterministic.
//!
//! Error *classification* lives on [`crate::TmError`] itself
//! ([`crate::TmError::is_transient`], [`crate::TmError::is_link_level`]).

use padico_util::simtime::{SimClock, VtDuration, MS, US};
use padico_util::stats::RecoveryStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump one of the node's recovery counters (its world's telemetry sums
/// every node's into `recovery.*`).
pub fn note(local: &RecoveryStats, field: fn(&RecoveryStats) -> &AtomicU64) {
    field(local).fetch_add(1, Ordering::Relaxed);
}

/// Account `ns` of backoff charged to a virtual clock.
pub fn note_backoff(local: &RecoveryStats, ns: u64) {
    local.backoff_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Budgeted-retry policy with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff charged before the first retry (virtual ns).
    pub base_backoff: VtDuration,
    /// Multiplier applied per further retry.
    pub multiplier: u32,
    /// Upper bound on a single backoff.
    pub max_backoff: VtDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 50 * US,
            multiplier: 4,
            max_backoff: 10 * MS,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to charge before retry number `retry` (1-based: the first
    /// retry is `backoff_for(1)`).
    pub fn backoff_for(&self, retry: u32) -> VtDuration {
        debug_assert!(retry >= 1);
        let factor = self.multiplier.saturating_pow(retry.saturating_sub(1));
        self.base_backoff
            .saturating_mul(u64::from(factor))
            .min(self.max_backoff)
    }

    /// Charge the backoff for retry number `retry` to `clock` and return
    /// the amount charged (for recovery accounting).
    pub fn charge_backoff(&self, clock: &SimClock, retry: u32) -> VtDuration {
        let d = self.backoff_for(retry);
        clock.advance(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: 100,
            multiplier: 4,
            max_backoff: 1_000,
        };
        assert_eq!(p.backoff_for(1), 100);
        assert_eq!(p.backoff_for(2), 400);
        assert_eq!(p.backoff_for(3), 1_000, "capped");
        assert_eq!(p.backoff_for(7), 1_000, "no overflow past the cap");
    }

    #[test]
    fn charge_backoff_advances_virtual_clock() {
        let p = RetryPolicy::default();
        let clock = SimClock::new();
        let charged = p.charge_backoff(&clock, 1);
        assert_eq!(charged, p.base_backoff);
        assert_eq!(clock.now(), p.base_backoff);
    }

    #[test]
    fn none_policy_has_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
