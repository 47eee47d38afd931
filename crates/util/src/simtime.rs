//! Deterministic virtual time.
//!
//! The Padico grid is simulated inside one OS process: each grid *node* is a
//! logical process whose threads share a [`SimClock`]. Communication costs
//! (wire latency, line rate, marshalling copies, protocol overheads) are
//! *charged* to clocks instead of being waited out in wall time, so a full
//! bandwidth sweep that would take minutes on hardware completes in
//! milliseconds and is exactly reproducible.
//!
//! ## Model
//!
//! * Every node owns one clock. Threads of that node share it.
//! * CPU work advances the clock by `fetch_add` — concurrent threads of one
//!   node serialize their CPU charges, modelling a busy host CPU.
//! * Waiting for a message *merges* the clock forward to the message's
//!   arrival timestamp (`fetch_max`), the classic conservative
//!   virtual-time rule: `recv_time = max(local_now, arrival)`.
//! * Shared resources (a NIC, a link) are modelled by [`ResourceTimeline`]:
//!   a transmission *reserves* an interval on the timeline at the earliest
//!   virtual instant the resource is idle, no earlier than the requester's
//!   clock. Two concurrent senders therefore split the line rate, which is
//!   precisely the mechanism behind the paper's "CORBA and MPI at the same
//!   time each get 120 MB/s" result (§4.4) — while a request for an idle
//!   past window (made late in *wall-clock* order by a thread the OS
//!   scheduled behind its peers) backfills the gap instead of queueing
//!   behind reservations that live later on the virtual axis.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since simulation start.
pub type Vt = u64;

/// A span of virtual time, in nanoseconds.
pub type VtDuration = u64;

/// Nanoseconds per microsecond, for readable constants.
pub const US: VtDuration = 1_000;
/// Nanoseconds per millisecond.
pub const MS: VtDuration = 1_000_000;
/// Nanoseconds per second.
pub const SEC: VtDuration = 1_000_000_000;

/// Convert a byte count and a rate in MB/s (decimal, as the paper reports)
/// into a virtual duration.
///
/// `1 MB/s = 1_000_000 bytes/s`, so `time_ns = bytes * 1000 / rate_mb_s`.
#[inline]
pub fn transfer_time(bytes: usize, rate_mb_per_s: f64) -> VtDuration {
    debug_assert!(rate_mb_per_s > 0.0, "rate must be positive");
    let ns = (bytes as f64) * 1_000.0 / rate_mb_per_s;
    ns.ceil() as VtDuration
}

/// Convert a byte count and a virtual duration into a rate in MB/s.
#[inline]
pub fn rate_mb_per_s(bytes: usize, dur: VtDuration) -> f64 {
    if dur == 0 {
        return f64::INFINITY;
    }
    (bytes as f64) * 1_000.0 / (dur as f64)
}

/// A shareable virtual clock.
///
/// Cloning is cheap and shares the underlying counter; use
/// [`SimClock::fork_independent`] to obtain a clock that starts at the same
/// instant but advances independently (used when spawning a fresh logical
/// process).
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// New clock starting at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// New clock starting at `t`.
    pub fn starting_at(t: Vt) -> Self {
        Self {
            now: Arc::new(AtomicU64::new(t)),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Vt {
        self.now.load(Ordering::Acquire)
    }

    /// Charge `d` nanoseconds of CPU/protocol work to this clock and return
    /// the new time.
    #[inline]
    pub fn advance(&self, d: VtDuration) -> Vt {
        self.now.fetch_add(d, Ordering::AcqRel) + d
    }

    /// Move the clock forward to at least `t` (no-op if already past) and
    /// return the resulting time. This is the virtual-time "wait until".
    #[inline]
    pub fn merge_to(&self, t: Vt) -> Vt {
        let mut cur = self.now.load(Ordering::Acquire);
        loop {
            if cur >= t {
                return cur;
            }
            match self
                .now
                .compare_exchange_weak(cur, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A clock sharing this counter (same logical process).
    pub fn share(&self) -> SimClock {
        self.clone()
    }

    /// A new clock starting at this clock's current time but advancing
    /// independently afterwards.
    pub fn fork_independent(&self) -> SimClock {
        SimClock::starting_at(self.now())
    }
}

/// A serially-reusable resource on the virtual timeline (a NIC transmit
/// engine, a link, a DMA engine).
///
/// Each reservation is granted the *earliest idle interval* on the virtual
/// axis that starts no earlier than the requester's `not_before`. Saturated
/// concurrent use packs intervals back to back, sharing the resource's rate
/// fairly — the behaviour the arbitration layer is designed to provide —
/// while a requester whose thread the OS scheduled late still lands in the
/// idle window its virtual clock entitles it to, keeping granted times
/// independent of wall-clock interleaving.
#[derive(Debug, Default)]
pub struct ResourceTimeline {
    /// Sorted, disjoint, non-touching busy intervals `[start, end)`.
    busy: Mutex<Vec<(Vt, Vt)>>,
}

/// The interval granted by [`ResourceTimeline::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually started serving this request.
    pub start: Vt,
    /// When the resource becomes free again (start + duration).
    pub end: Vt,
}

impl ResourceTimeline {
    /// New timeline, free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur` starting no earlier than `not_before`,
    /// in the earliest idle interval that fits.
    ///
    /// Returns the granted interval. The caller typically merges its clock
    /// to `end` (the request occupies the caller until the resource is done,
    /// e.g. a blocking DMA) or forwards `end` as a message timestamp.
    pub fn reserve(&self, not_before: Vt, dur: VtDuration) -> Reservation {
        if dur == 0 {
            // Zero-length use never occupies the resource; it starts (and
            // ends) at the first instant the resource is idle.
            let start = self.next_idle(not_before);
            return Reservation { start, end: start };
        }
        let mut busy = self.busy.lock();
        let mut start = not_before;
        let mut at = busy.len();
        for (i, &(s, e)) in busy.iter().enumerate() {
            if start + dur <= s {
                at = i;
                break;
            }
            start = start.max(e);
        }
        let end = start + dur;
        // Insert, coalescing with a touching predecessor and/or successor so
        // the list stays short under back-to-back packing.
        let merge_prev = at > 0 && busy[at - 1].1 == start;
        let merge_next = at < busy.len() && busy[at].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                busy[at - 1].1 = busy[at].1;
                busy.remove(at);
            }
            (true, false) => busy[at - 1].1 = end,
            (false, true) => busy[at].0 = start,
            (false, false) => {
                let len = busy.len();
                if len == busy.capacity() {
                    // Double up to 64 intervals, then grow by an eighth: a
                    // 100k-node world holds a few dozen per NIC, where
                    // doubling 64 → 128 would add 200 MiB at once.
                    busy.reserve_exact(if len < 64 { len.max(4) } else { len / 8 });
                }
                busy.insert(at, (start, end))
            }
        }
        Reservation { start, end }
    }

    /// First instant at or after `t` at which the resource is idle.
    pub fn next_idle(&self, t: Vt) -> Vt {
        let busy = self.busy.lock();
        let mut at = t;
        for &(s, e) in busy.iter() {
            if at < s {
                break;
            }
            at = at.max(e);
        }
        at
    }

    /// The time after which the resource is permanently free (end of the
    /// last reservation).
    pub fn horizon(&self) -> Vt {
        self.busy.lock().last().map_or(0, |&(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.now(), 10);
        assert_eq!(c.advance(5), 15);
    }

    #[test]
    fn merge_only_moves_forward() {
        let c = SimClock::starting_at(100);
        assert_eq!(c.merge_to(50), 100, "merge to the past is a no-op");
        assert_eq!(c.merge_to(100), 100);
        assert_eq!(c.merge_to(250), 250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn shared_clocks_see_each_other() {
        let a = SimClock::new();
        let b = a.share();
        a.advance(7);
        assert_eq!(b.now(), 7);
        b.merge_to(30);
        assert_eq!(a.now(), 30);
    }

    #[test]
    fn forked_clock_is_independent() {
        let a = SimClock::starting_at(40);
        let b = a.fork_independent();
        assert_eq!(b.now(), 40);
        a.advance(10);
        assert_eq!(b.now(), 40);
        b.advance(1);
        assert_eq!(a.now(), 50);
    }

    #[test]
    fn transfer_time_round_trips_rate() {
        // 1 MiB at 250 MB/s ≈ 4.19 ms
        let d = transfer_time(1 << 20, 250.0);
        let r = rate_mb_per_s(1 << 20, d);
        assert!((r - 250.0).abs() < 0.5, "rate {r} should be ~250");
    }

    #[test]
    fn transfer_time_zero_bytes_is_zero() {
        assert_eq!(transfer_time(0, 100.0), 0);
        assert!(rate_mb_per_s(1024, 0).is_infinite());
    }

    #[test]
    fn timeline_serializes_reservations() {
        let t = ResourceTimeline::new();
        let r1 = t.reserve(0, 100);
        assert_eq!(r1, Reservation { start: 0, end: 100 });
        // A request issued "at time 10" must wait for the first to finish.
        let r2 = t.reserve(10, 50);
        assert_eq!(
            r2,
            Reservation {
                start: 100,
                end: 150
            }
        );
        // A request after the horizon starts immediately.
        let r3 = t.reserve(1000, 5);
        assert_eq!(
            r3,
            Reservation {
                start: 1000,
                end: 1005
            }
        );
        assert_eq!(t.horizon(), 1005);
    }

    #[test]
    fn timeline_backfills_idle_gaps() {
        let t = ResourceTimeline::new();
        // A fast peer raced ahead in wall-clock and reserved a future slot.
        let r1 = t.reserve(1_000, 5);
        assert_eq!(
            r1,
            Reservation {
                start: 1_000,
                end: 1_005
            }
        );
        // A request for an idle earlier window, issued later in call order,
        // must land there — not queue behind the future reservation.
        let r2 = t.reserve(0, 100);
        assert_eq!(r2, Reservation { start: 0, end: 100 });
        // A request too large for the remaining gap skips past it.
        let r3 = t.reserve(0, 1_000);
        assert_eq!(r3.start, 1_005);
        // Exact-fit into a gap coalesces the neighbours.
        let r4 = t.reserve(100, 900);
        assert_eq!(
            r4,
            Reservation {
                start: 100,
                end: 1_000
            }
        );
        assert_eq!(t.horizon(), 2_005);
        assert_eq!(t.next_idle(0), 2_005);
    }

    #[test]
    fn timeline_shares_rate_between_concurrent_users() {
        // Two threads each reserve 100 slots of duration 10 starting from 0.
        // Whatever the interleaving, the total busy time is 2000 and each
        // thread's last reservation ends no earlier than its fair share.
        let t = Arc::new(ResourceTimeline::new());
        let mut handles = vec![];
        for _ in 0..2 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                let mut last = 0;
                for _ in 0..100 {
                    last = t.reserve(0, 10).end;
                }
                last
            }));
        }
        let ends: Vec<Vt> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(t.horizon(), 2000, "total service time is conserved");
        for e in ends {
            assert!(e >= 1000, "each user gets at most half the rate: {e}");
        }
    }

    #[test]
    fn concurrent_advances_are_all_accounted() {
        let c = SimClock::new();
        let mut handles = vec![];
        for _ in 0..4 {
            let c = c.share();
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 4 * 1000 * 3);
    }
}
