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
//! * A resource only one clock reserves (a NIC's transmit engine) is a
//!   [`RetiringTimeline`]: the clock never moves back, so intervals that
//!   ended before its reading can never matter again and are dropped.
//!
//! ## Busy history as runs
//!
//! Both timelines store their busy intervals as delta runs of 8 bytes,
//! `(gap: u32, len: u32)`, each counted from the end of the run before it,
//! the first from a base the timeline keeps (time zero, or the retirement
//! point), against 16 for absolute `(Vt, Vt)` pairs. A NIC's receive
//! history keeps one per delivery for the life of the world, so the
//! entry size is what a 100 000-node world's resident set gains per hop. A
//! gap or length beyond `u32::MAX` ns (4.29 s) is split into more runs
//! (see `Runs`), so the entry size is the same at any virtual time. There
//! is one placement routine, over runs, for both timelines.
//!
//! Placement scans the runs from the first: it passes the runs that end
//! before the request with one add each, then decodes the rest. A
//! receive history is reserved by every sender in the world at times no
//! clock bounds, so any request may backfill any gap. A sublinear search
//! (binary search over runs, or an append fast path) would make the RPC
//! workloads several times faster, and at that rate the benchmark's
//! per-operation sample log alone breaks its peak-RSS bound, so it waits
//! for that log to become fixed-size (ROADMAP direction 1), as does
//! retiring receive history.

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

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

/// A serially-reusable resource on the virtual timeline (a NIC receive
/// engine, a link, a DMA engine).
///
/// Each reservation is granted the *earliest idle interval* on the virtual
/// axis that starts no earlier than the requester's `not_before`. Saturated
/// concurrent use packs intervals back to back, sharing the resource's rate
/// fairly — the behaviour the arbitration layer is designed to provide —
/// while a requester whose thread the OS scheduled late still lands in the
/// idle window its virtual clock entitles it to, keeping granted times
/// independent of wall-clock interleaving.
///
/// Any requester may present any time, so the full history is kept, in
/// runs of 8 bytes an interval, and every request scans it from the
/// start. A resource with one requesting clock retires its past instead:
/// see [`RetiringTimeline`].
#[derive(Debug, Default)]
pub struct ResourceTimeline {
    /// The whole history, counted from time zero.
    busy: Mutex<Runs>,
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
        self.busy.lock().place(0, not_before, dur)
    }

    /// First instant at or after `t` at which the resource is idle.
    pub fn next_idle(&self, t: Vt) -> Vt {
        self.busy.lock().next_idle(0, t)
    }

    /// The time after which the resource is permanently free (end of the
    /// last reservation).
    pub fn horizon(&self) -> Vt {
        self.busy.lock().end(0)
    }

    /// Busy intervals held: the whole history, coalesced.
    pub fn retained(&self) -> usize {
        self.busy.lock().intervals()
    }
}

/// The longest gap or length one run holds: `u32::MAX` ns, 4.29 s.
const RUN_MAX: u64 = u32::MAX as u64;

/// Busy intervals `[start, end)` as delta runs, 8 bytes an interval where
/// `(Vt, Vt)` pairs take 16: run `i` is `(gap, len)`, idle for `gap` ns
/// after the previous run's end, then busy for `len`. The first run's gap
/// counts from a base its owner keeps and passes in: time zero for a full
/// history, the retirement point for a retiring one. Intervals never
/// overlap, and one that touches its neighbour is coalesced with it.
///
/// A gap or length past [`RUN_MAX`] is split rather than widened, so an
/// interval costs 8 bytes at any virtual time, not only in a world's
/// first 4.29 s: a longer gap puts zero-length spacer runs
/// `(u32::MAX, 0)` ahead of its run, and a longer length continues in
/// touching runs `(0, len)`. A spacer marks no busy time.
#[derive(Debug, Default)]
struct Runs(Vec<(u32, u32)>);

impl Runs {
    /// Busy intervals held: runs that start one, not spacers or the
    /// touching runs that continue one.
    fn intervals(&self) -> usize {
        let (mut n, mut open) = (0, false);
        for &(gap, len) in &self.0 {
            open &= gap == 0;
            if len > 0 && !open {
                n += 1;
                open = true;
            }
        }
        n
    }

    /// The end of the last run.
    fn end(&self, base: Vt) -> Vt {
        self.0.iter().fold(base, |end, &(gap, len)| {
            end + u64::from(gap) + u64::from(len)
        })
    }

    /// First instant at or after `t` at which no run is busy. A spacer
    /// needs no case of its own: it ends where it starts.
    fn next_idle(&self, base: Vt, t: Vt) -> Vt {
        let (mut idle, mut end) = (t, base);
        for &(gap, len) in &self.0 {
            let start = end + u64::from(gap);
            if idle < start {
                break;
            }
            end = start + u64::from(len);
            idle = idle.max(end);
        }
        idle
    }

    /// Grant `dur` at the earliest idle instant at or after `not_before`,
    /// and record it.
    ///
    /// The scan stays linear from the first run: every request may
    /// backfill any gap, and the history never shrinks.
    fn place(&mut self, base: Vt, not_before: Vt, dur: VtDuration) -> Reservation {
        if dur == 0 {
            // Zero-length use never occupies the resource; it starts (and
            // ends) at the first instant the resource is idle.
            let start = self.next_idle(base, not_before);
            return Reservation { start, end: start };
        }
        debug_assert!(not_before >= base, "{not_before} before {base}");
        let mut start = not_before;
        // Runs that end before `not_before` can neither hold nor delay the
        // grant: most of a long history, passed over with one add each.
        let (mut lo, mut end) = (0, base);
        for &(gap, len) in &self.0 {
            let run_end = end + (u64::from(gap) + u64::from(len));
            if run_end >= start {
                break;
            }
            (lo, end) = (lo + 1, run_end);
        }
        // Runs before `lo` end before the grant and stay as they are;
        // `from` is where run `lo` is counted from, and `merged` the start
        // of a run `lo` that the grant continues.
        let (mut from, mut merged) = (end, None);
        // The first run the grant ends at or before, and its start.
        let mut next = None;
        for (i, &(gap, len)) in self.0.iter().enumerate().skip(lo) {
            let s = end + u64::from(gap);
            if start + dur <= s {
                next = Some((i, s));
                break;
            }
            let prev = end;
            end = s + u64::from(len);
            if len > 0 && start <= end {
                // Busy until `end`: the grant starts there at the
                // earliest, touching this run.
                start = end;
                (lo, from, merged) = (i, prev, Some(s));
            } else if end < start {
                (lo, from, merged) = (i + 1, end, None);
            }
            // Otherwise a spacer the grant may cover: it is dropped.
        }
        let granted = Reservation {
            start,
            end: start + dur,
        };
        // Coalesce with a successor the grant touches, continuations and
        // all; any other keeps its start, counted from the grant's end.
        let (hi, last, next) = match next {
            Some((i, s)) if s == granted.end && self.0[i].1 > 0 => {
                let (mut hi, mut last) = (i + 1, s + u64::from(self.0[i].1));
                while let Some(&(0, len)) = self.0.get(hi) {
                    (hi, last) = (hi + 1, last + u64::from(len));
                }
                (hi, last, None)
            }
            Some((i, s)) => (i, granted.end, Some(s)),
            None => (self.0.len(), granted.end, None),
        };
        let n = self.splice(lo..hi, from, merged.unwrap_or(start), last);
        if let Some(s) = next {
            debug_assert!(s - last <= RUN_MAX);
            // At most the gap it had: that was counted from a run ending
            // no later than the grant.
            self.0[lo + n].0 = (s - last) as u32;
        }
        granted
    }

    /// Replace the runs in `range`, which lie at or after `from` and
    /// within `[start, end)`, with that interval. Returns the number of
    /// runs it took.
    fn splice(&mut self, range: Range<usize>, from: Vt, start: Vt, end: Vt) -> usize {
        let (gap, len) = (start - from, end - start);
        let spacers = gap.saturating_sub(1) / RUN_MAX;
        let gap = gap - spacers * RUN_MAX;
        let n = (spacers + len.div_ceil(RUN_MAX)) as usize;
        let run = |k: usize| match (k as u64).checked_sub(spacers) {
            None => (u32::MAX, 0),
            Some(0) => (gap as u32, len.min(RUN_MAX) as u32),
            Some(k) => (0, (len - k * RUN_MAX).min(RUN_MAX) as u32),
        };
        let grow = n.saturating_sub(range.len());
        let held = self.0.len();
        if held + grow > self.0.capacity() {
            // Double up to 64 runs, then grow by an eighth: a 100k-node
            // world holds a few dozen per NIC, where doubling 64 → 128
            // would add 64 × 8 B = 512 B to every NIC at once, 51 MB
            // over 100 000 of them.
            let step = if held < 64 { held.max(4) } else { held / 8 };
            self.0.reserve_exact(step.max(grow));
        }
        match (n, range.len()) {
            (1, 0) => self.0.insert(range.start, run(0)),
            (1, 1) => self.0[range.start] = run(0),
            _ => {
                self.0.splice(range, (0..n).map(run));
            }
        }
        n
    }

    /// Drop every run that ends at or before `now`, and re-base the rest
    /// from `base` onto `now`. What a run held before `now` is cut too: a
    /// request that reads `now` or later cannot be held or delayed by it.
    fn retire(&mut self, base: Vt, now: Vt) {
        let (mut past, mut end) = (0, base);
        while let Some(&(gap, len)) = self.0.get(past) {
            let start = end + u64::from(gap);
            end = start + u64::from(len);
            if end > now {
                let from = start.max(now);
                self.0[past] = ((from - now) as u32, (end - from) as u32);
                break;
            }
            past += 1;
        }
        self.0.drain(..past);
    }
}

/// A [`ResourceTimeline`] reserved by clocks rather than bare times (a NIC
/// transmit engine, which only its own node's clock drives).
///
/// A request reads its clock inside the timeline's lock. While every
/// request comes from one clock, each first retires the intervals that
/// end at or before that reading. A clock only moves forward, so no later
/// request of the same clock starts before the reading, and no retired
/// interval could have held or delayed it: every grant equals the one the
/// full history gives, and the history stays a couple of intervals long.
///
/// A request from any other clock stops retirement for good. If it reads
/// earlier than the last retiring request did, the full history might
/// have placed it in a gap that is no longer known, so it is refused with
/// [`BehindRetired`] rather than placed anywhere else.
#[derive(Debug, Default)]
pub struct RetiringTimeline {
    history: Mutex<History>,
}

#[derive(Debug, Default)]
struct History {
    busy: Busy,
    requester: Requester,
    /// The reading of the last retiring request: every interval ending at
    /// or before it is gone, and the runs count from it.
    retired: Vt,
}

/// A retiring history's busy intervals. Under one clock it holds at most
/// the interval the last request placed past the clock (the sender then
/// waits it out), so that one is kept inline: [`Runs`] appear only once
/// two are kept at once.
#[derive(Debug, Default)]
enum Busy {
    #[default]
    Empty,
    One(Vt, Vt),
    Many(Runs),
}

impl Busy {
    fn len(&self) -> usize {
        match self {
            Busy::Empty => 0,
            Busy::One(..) => 1,
            Busy::Many(r) => r.intervals(),
        }
    }

    /// Drop every interval that ends at or before `now`, moving the
    /// runs' base from `base` to `now`.
    fn retire(&mut self, base: Vt, now: Vt) {
        match self {
            Busy::One(_, end) if *end <= now => *self = Busy::Empty,
            Busy::Many(r) => r.retire(base, now),
            _ => {}
        }
    }

    /// [`Runs::place`] on these intervals, with runs counted from `base`.
    fn place(&mut self, base: Vt, not_before: Vt, dur: VtDuration) -> Reservation {
        match self {
            Busy::Empty => {
                let end = not_before + dur;
                if dur > 0 {
                    *self = Busy::One(not_before, end);
                }
                Reservation {
                    start: not_before,
                    end,
                }
            }
            &mut Busy::One(start, end) => {
                // Cut at the base like any run (see [`Runs::retire`]).
                let mut runs = Runs::default();
                runs.splice(0..0, base, start.max(base), end);
                let granted = runs.place(base, not_before, dur);
                *self = Busy::Many(runs);
                granted
            }
            Busy::Many(r) => r.place(base, not_before, dur),
        }
    }
}

/// Who has reserved a [`RetiringTimeline`] so far.
#[derive(Debug, Default)]
enum Requester {
    /// Nobody yet.
    #[default]
    None,
    /// One clock, which retires history. Weak, so the timeline does not
    /// keep the clock alive, yet the counter's address is never reused
    /// by another clock while the timeline remembers it.
    One(Weak<AtomicU64>),
    /// More than one clock: nothing more is retired.
    Many,
}

/// A [`RetiringTimeline`] refused a request: its clock reads `at`, behind
/// history retired up to `retired` by the timeline's first clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehindRetired {
    pub at: Vt,
    pub retired: Vt,
}

impl RetiringTimeline {
    /// New timeline, free from time zero, not yet claimed by any clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur` no earlier than `clock` reads, in the
    /// earliest idle interval that fits, exactly as
    /// [`ResourceTimeline::reserve`] would with the full history.
    pub fn reserve(&self, clock: &SimClock, dur: VtDuration) -> Result<Reservation, BehindRetired> {
        let mut h = self.history.lock();
        // Read under the lock: a reading taken before another thread
        // sharing this clock retired history could already be behind it.
        let now = clock.now();
        let own = match &h.requester {
            Requester::None => {
                h.requester = Requester::One(Arc::downgrade(&clock.now));
                true
            }
            Requester::One(owner) => std::ptr::eq(owner.as_ptr(), Arc::as_ptr(&clock.now)),
            Requester::Many => false,
        };
        if own {
            let base = h.retired;
            h.busy.retire(base, now);
            h.retired = now;
        } else {
            if now < h.retired {
                return Err(BehindRetired {
                    at: now,
                    retired: h.retired,
                });
            }
            h.requester = Requester::Many;
        }
        let base = h.retired;
        Ok(h.busy.place(base, now, dur))
    }

    /// Busy intervals held: what retirement has left of the history.
    pub fn retained(&self) -> usize {
        self.history.lock().busy.len()
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

    /// The full `(Vt, Vt)` history and its earliest-fit placement, as the
    /// timelines kept them before [`Runs`]: the reference both timelines
    /// are checked against.
    #[derive(Debug, Default)]
    struct Model(Mutex<Vec<(Vt, Vt)>>);

    impl Model {
        fn reserve(&self, not_before: Vt, dur: VtDuration) -> Reservation {
            let mut busy = self.0.lock();
            if dur == 0 {
                let start = model_next_idle(&busy, not_before);
                return Reservation { start, end: start };
            }
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
            let merge_prev = at > 0 && busy[at - 1].1 == start;
            let merge_next = at < busy.len() && busy[at].0 == end;
            match (merge_prev, merge_next) {
                (true, true) => {
                    busy[at - 1].1 = busy[at].1;
                    busy.remove(at);
                }
                (true, false) => busy[at - 1].1 = end,
                (false, true) => busy[at].0 = start,
                (false, false) => busy.insert(at, (start, end)),
            }
            Reservation { start, end }
        }

        fn next_idle(&self, t: Vt) -> Vt {
            model_next_idle(&self.0.lock(), t)
        }

        fn retained(&self) -> usize {
            self.0.lock().len()
        }
    }

    fn model_next_idle(busy: &[(Vt, Vt)], t: Vt) -> Vt {
        let mut at = t;
        for &(s, e) in busy {
            if at < s {
                break;
            }
            at = at.max(e);
        }
        at
    }

    /// The intervals `runs` encode, checking that two runs touch only
    /// where a length past [`RUN_MAX`] continues.
    fn decode(runs: &Runs, base: Vt) -> Vec<(Vt, Vt)> {
        let (mut out, mut end) = (Vec::<(Vt, Vt)>::new(), base);
        let mut prev_len = 0;
        for &(gap, len) in &runs.0 {
            let start = end + u64::from(gap);
            end = start + u64::from(len);
            if len == 0 {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.1 == start => {
                    assert_eq!(prev_len, u32::MAX, "touching runs at {start} not coalesced");
                    last.1 = end;
                }
                _ => out.push((start, end)),
            }
            prev_len = len;
        }
        out
    }

    /// One node of a [`retiring_tx_case`] world: its clock, the NIC pair a
    /// fabric gives it, and full-history [`Model`] shadows of both engines.
    #[derive(Default)]
    struct ShadowNode {
        clock: SimClock,
        tx: RetiringTimeline,
        rx: ResourceTimeline,
        tx_full: Model,
        rx_full: Model,
    }

    /// Random multi-node send sequences reserved the way a fabric send
    /// does (transmit engine by the sender's clock, receive engine from the
    /// transmit start), checked grant by grant against the full history.
    /// Node 0's clock is shared by two threads; every other node has one.
    /// In half the cases one more thread reserves some node's transmit
    /// engine from a second clock of its own: that stops retirement, and
    /// a reading behind what was retired must be refused. A step holds the world
    /// lock from reading its clock to moving it, so the shadow sees the
    /// reading the retiring engine took.
    fn retiring_tx_case(rng: &mut proptest::TestRng, steps: u64) {
        let nodes = 2 + rng.below(4) as usize;
        let intruded = (rng.below(2) == 0).then(|| rng.below(nodes as u64) as usize);
        let world = Arc::new(Mutex::new(
            (0..nodes)
                .map(|_| ShadowNode::default())
                .collect::<Vec<_>>(),
        ));
        // Actor `a` drives node `max(a - 1, 0)`: actors 0 and 1 share node
        // 0. Actor `nodes + 1`, if any, drives the intruded node with a
        // clock of its own.
        let actors = nodes + usize::from(intruded.is_some());
        let handles: Vec<_> = (0..=actors)
            .map(|actor| {
                let world = Arc::clone(&world);
                let mut rng = proptest::TestRng::new(rng.next_u64());
                let second = (actor > nodes).then(SimClock::new);
                let src = intruded
                    .filter(|_| actor > nodes)
                    .unwrap_or(actor.saturating_sub(1));
                thread::spawn(move || {
                    for _ in 0..steps {
                        let w = world.lock();
                        let dst = rng.below(w.len() as u64) as usize;
                        // Zero-length, short and long holds of the engines.
                        let dur =
                            [0, 1 + rng.below(20), 1 + rng.below(2_000)][rng.below(3) as usize];
                        let n = &w[src];
                        let clock = match &second {
                            Some(clock) => {
                                // Level with the owner or ahead of it two
                                // times in three (ahead, its interval can
                                // end up after one the owner places
                                // later); otherwise it may read behind
                                // retirement.
                                let ahead = [0, rng.below(5_000)][rng.below(2) as usize];
                                if rng.below(3) != 0 {
                                    clock.merge_to(n.clock.now() + ahead);
                                }
                                clock
                            }
                            None => &n.clock,
                        };
                        let now = clock.now();
                        let tx = match n.tx.reserve(clock, dur) {
                            Ok(tx) => tx,
                            Err(refused) => {
                                // Whichever of the two clocks came second.
                                assert_eq!(Some(src), intruded, "one clock refused");
                                assert_eq!(refused.at, now);
                                assert!(now < refused.retired, "{refused:?} served at {now}");
                                clock.merge_to(refused.retired);
                                continue;
                            }
                        };
                        assert_eq!(tx, n.tx_full.reserve(now, dur), "tx of node {src} at {now}");
                        let rx = w[dst].rx.reserve(tx.start, dur);
                        assert_eq!(
                            rx,
                            w[dst].rx_full.reserve(tx.start, dur),
                            "rx of node {dst}"
                        );
                        match rng.below(3) {
                            // A fabric sender waits for both engines.
                            0 => clock.merge_to(tx.end.max(rx.end)),
                            // A thread that moves on before its grant ends:
                            // the next request of this clock reads earlier.
                            1 => clock.advance(rng.below(50)),
                            // A delivery pulls the clock far ahead.
                            _ => clock.merge_to(rx.end + rng.below(5_000)),
                        };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, n) in world.lock().iter().enumerate() {
            assert!(n.tx.retained() <= n.tx_full.retained());
            if Some(i) != intruded {
                // One clock keeps at most the interval that overlaps its
                // last reading plus the one it placed.
                assert!(
                    n.tx.retained() <= 2,
                    "node {i}: {} intervals",
                    n.tx.retained()
                );
            }
        }
    }

    #[test]
    fn history_stays_exact_through_a_second_clock() {
        let (tx, full) = (RetiringTimeline::new(), Model::default());
        let (owner, other) = (SimClock::new(), SimClock::starting_at(1_000));
        let reserve = |clock: &SimClock, dur| {
            let (now, granted) = (clock.now(), tx.reserve(clock, dur).unwrap());
            assert_eq!(granted, full.reserve(now, dur), "at {now}");
            tx.retained()
        };
        // Claimed by the owner, which keeps nothing of a zero-length use.
        assert_eq!(reserve(&owner, 0), 0);
        // The other clock stops retirement, ahead of the owner...
        assert_eq!(reserve(&other, 100), 1);
        // ...so the owner's next interval goes in front of it,
        assert_eq!(reserve(&owner, 50), 2);
        // one filling the gap exactly merges all three,
        assert_eq!(reserve(&owner, 950), 1);
        other.merge_to(5_000);
        assert_eq!(reserve(&other, 10), 2);
        // and nothing is retired any more.
        other.merge_to(7_000);
        assert_eq!(reserve(&other, 10), 3);
        assert_eq!(reserve(&owner, 10), 3);
    }

    /// A span of virtual time at one of four scales: nanoseconds,
    /// microseconds, around [`RUN_MAX`], and up to three times it.
    fn span(rng: &mut proptest::TestRng) -> VtDuration {
        match rng.below(4) {
            0 => rng.below(8),
            1 => rng.below(5_000),
            2 => RUN_MAX - 2 + rng.below(5),
            _ => rng.below(3 * RUN_MAX),
        }
    }

    /// Random reservations of one [`ResourceTimeline`], each grant and a
    /// `next_idle` probe after it checked against [`Model`], and the runs
    /// decoded against the model's intervals. Spans past [`RUN_MAX`] split
    /// runs into spacers and continuations. Most requests start at one of
    /// the model's interval edges, so grants backfill earlier gaps, hold
    /// nothing, fill a gap exactly or touch a neighbour on either side.
    fn runs_case(rng: &mut proptest::TestRng, steps: u64) {
        let (timeline, model) = (ResourceTimeline::new(), Model::default());
        for step in 0..steps {
            let edges: Vec<Vt> = model.0.lock().iter().flat_map(|&(s, e)| [s, e]).collect();
            let edge = |rng: &mut proptest::TestRng| match edges.len() {
                0 => span(rng),
                n => edges[rng.below(n as u64) as usize],
            };
            let (not_before, dur) = match rng.below(5) {
                0 => (span(rng), span(rng)),
                // From an edge or a little before it.
                1 => (edge(rng).saturating_sub(rng.below(3)), span(rng)),
                // Nothing held, at an edge.
                2 => (edge(rng), 0),
                // Exactly the gap after an interval, which the grant fills
                // when nothing earlier fits it.
                3 => {
                    let gaps = model
                        .0
                        .lock()
                        .windows(2)
                        .map(|w| (w[0].1, w[1].0 - w[0].1))
                        .collect::<Vec<_>>();
                    match gaps.len() {
                        0 => (edge(rng), span(rng)),
                        n => gaps[rng.below(n as u64) as usize],
                    }
                }
                _ => (edge(rng), 1 + rng.below(20)),
            };
            let granted = timeline.reserve(not_before, dur);
            assert_eq!(
                granted,
                model.reserve(not_before, dur),
                "step {step}: {dur} at {not_before}"
            );
            let probe = [edge(rng), granted.end, span(rng)][rng.below(3) as usize];
            let probe = probe.saturating_sub(rng.below(2));
            assert_eq!(
                timeline.next_idle(probe),
                model.next_idle(probe),
                "step {step}: idle after {probe}"
            );
            assert_eq!(
                decode(&timeline.busy.lock(), 0),
                *model.0.lock(),
                "step {step}"
            );
            assert_eq!(
                timeline.retained(),
                model.retained(),
                "step {step}: intervals"
            );
        }
        assert_eq!(
            timeline.horizon(),
            model.0.lock().last().map_or(0, |&(_, e)| e)
        );
    }

    proptest::proptest! {
        #[test]
        fn runs_grant_what_full_history_grants(seed: u64) {
            runs_case(&mut proptest::TestRng::new(seed), 200);
        }
    }

    /// Long mode of [`runs_grant_what_full_history_grants`]: 2 000 cases of
    /// 2 000 steps, seeded from `CHAOS_SEED` (default 42).
    /// `cargo test -p padico-util --release -- --ignored runs_grant`
    #[test]
    #[ignore = "long mode: random reservation sequences"]
    fn runs_grant_what_full_history_grants_long() {
        let seed: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        for case in 0..2_000u64 {
            let mut rng = proptest::TestRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
            runs_case(&mut rng, 2_000);
        }
    }

    #[test]
    fn runs_split_past_u32_max_and_retire() {
        let mut runs = Runs::default();
        // A gap of two RUN_MAX and a length of one and a half.
        let (start, len) = (2 * RUN_MAX + 5, RUN_MAX + RUN_MAX / 2);
        let granted = runs.place(0, start, len);
        assert_eq!(
            granted,
            Reservation {
                start,
                end: start + len
            }
        );
        let expected = [
            (u32::MAX, 0),
            (u32::MAX, 0),
            (5, u32::MAX),
            (0, u32::MAX / 2),
        ];
        assert_eq!(runs.0, expected, "spacers, the run and its continuation");
        assert_eq!(runs.intervals(), 1, "four runs, one interval");
        assert_eq!(runs.next_idle(0, 0), 0, "spacers hold nothing");
        assert_eq!(runs.next_idle(0, start + 1), start + len);
        // A grant covering both spacers drops them.
        let (half, covered) = (RUN_MAX / 2, 2 * RUN_MAX + 2);
        assert_eq!(runs.place(0, half, covered - half).start, half);
        assert_eq!(decode(&runs, 0), [(half, covered), (start, start + len)]);
        let expected = [
            (half as u32, u32::MAX),
            (0, half as u32 + 3),
            (3, u32::MAX),
            (0, u32::MAX / 2),
        ];
        assert_eq!(runs.0, expected);
        assert_eq!(runs.intervals(), 2);
        // Retiring drops what has ended and counts the rest from `now`...
        runs.retire(0, covered + 1);
        assert_eq!(runs.0, [(2, u32::MAX), (0, u32::MAX / 2)]);
        // ...and cuts what a run held before `now`.
        runs.retire(covered + 1, start + 1);
        assert_eq!(runs.0, [(0, u32::MAX - 1), (0, u32::MAX / 2)]);
        assert_eq!(runs.intervals(), 1, "the first run opens its interval");
        assert_eq!(runs.end(start + 1), start + len);
    }

    proptest::proptest! {
        #[test]
        fn retiring_tx_grants_what_full_history_grants(seed: u64) {
            retiring_tx_case(&mut proptest::TestRng::new(seed), 200);
        }
    }

    /// Long mode of [`retiring_tx_grants_what_full_history_grants`]:
    /// 2 000 cases of 2 000 steps, seeded from `CHAOS_SEED` (default 42).
    /// `cargo test -p padico-util --release -- --ignored retiring_tx`
    #[test]
    #[ignore = "long mode: minutes of random send sequences"]
    fn retiring_tx_grants_what_full_history_grants_long() {
        let seed: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        for case in 0..2_000u64 {
            let mut rng = proptest::TestRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case);
            retiring_tx_case(&mut rng, 2_000);
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
