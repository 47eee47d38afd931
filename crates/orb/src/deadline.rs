//! Ambient end-to-end deadline propagation.
//!
//! An invocation's deadline is an *absolute* virtual-time instant that
//! travels with the request (a GIOP service-context entry / ESIOP head
//! word) and bounds the whole call tree: a servant that invokes further
//! objects must not grant its downstream calls more budget than it has
//! itself.
//!
//! The mechanism mirrors [`padico_util::span`]'s ambient trace context:
//! the server dispatch path [`adopt`]s the wire deadline around the
//! servant call, and every client-side invocation started under that
//! guard clamps its own configured deadline to [`current`]. The guard
//! nests (a tighter inner deadline wins while it is live) and restores
//! the previous value on drop, so thread-pooled dispatch cannot leak a
//! stale deadline into an unrelated request.
//!
//! Plumbing is by value, not by reference: a fan-out thread captures
//! `current()` before spawning and adopts it inside (same pattern as
//! span contexts in `padico-core`'s parallel client).

use std::cell::Cell;

thread_local! {
    /// Absolute virtual-time deadline of the request being served on
    /// this thread; 0 = none.
    static AMBIENT: Cell<u64> = const { Cell::new(0) };
}

/// Adopt `deadline_vt` (absolute virtual time) as this thread's ambient
/// deadline until the returned guard drops. Adopting 0 is a no-op that
/// still restores correctly.
pub fn adopt(deadline_vt: u64) -> DeadlineGuard {
    let prev = AMBIENT.with(|c| c.replace(deadline_vt));
    DeadlineGuard { prev }
}

/// The ambient deadline (absolute virtual time) of the request currently
/// being served on this thread, if any.
pub fn current() -> Option<u64> {
    let v = AMBIENT.with(|c| c.get());
    (v != 0).then_some(v)
}

/// Clamp an invocation's own absolute deadline to the ambient one: the
/// effective deadline of a nested call is the *earlier* of the two.
pub fn clamp(own_vt: u64) -> u64 {
    match current() {
        Some(ambient) => ambient.min(own_vt),
        None => own_vt,
    }
}

/// Restores the previously ambient deadline on drop.
#[must_use = "dropping the guard immediately un-adopts the deadline"]
pub struct DeadlineGuard {
    prev: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopt_nest_and_restore() {
        assert_eq!(current(), None);
        {
            let _outer = adopt(1_000);
            assert_eq!(current(), Some(1_000));
            assert_eq!(
                clamp(5_000),
                1_000,
                "ambient tightens a looser own deadline"
            );
            assert_eq!(clamp(400), 400, "a tighter own deadline survives");
            {
                let _inner = adopt(300);
                assert_eq!(current(), Some(300));
            }
            assert_eq!(current(), Some(1_000), "inner guard restores outer");
        }
        assert_eq!(current(), None, "outer guard restores none");
        assert_eq!(clamp(777), 777, "no ambient leaves own deadline alone");
    }

    #[test]
    fn zero_adopt_is_transparent() {
        let _g = adopt(0);
        assert_eq!(current(), None);
    }
}
