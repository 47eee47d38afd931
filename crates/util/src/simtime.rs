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

use parking_lot::Mutex;
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
/// Any requester may present any time, so the full history is kept and
/// every request scans it from the start. A resource with one requesting
/// clock retires its past instead: see [`RetiringTimeline`].
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
        place(&mut self.busy.lock(), not_before, dur)
    }

    /// First instant at or after `t` at which the resource is idle.
    pub fn next_idle(&self, t: Vt) -> Vt {
        next_idle(&self.busy.lock(), t)
    }

    /// The time after which the resource is permanently free (end of the
    /// last reservation).
    pub fn horizon(&self) -> Vt {
        self.busy.lock().last().map_or(0, |&(_, e)| e)
    }

    /// Busy intervals held: the whole history, coalesced.
    pub fn retained(&self) -> usize {
        self.busy.lock().len()
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
    /// or before it is gone.
    retired: Vt,
}

/// A retiring history's sorted, disjoint, non-touching busy intervals
/// `[start, end)`. Under one clock it holds at most the interval the last
/// request placed past the clock (the sender then waits it out), so that
/// one is kept inline: a `Vec` appears only once two are kept at once.
#[derive(Debug, Default)]
enum Busy {
    #[default]
    Empty,
    One(Vt, Vt),
    Many(Vec<(Vt, Vt)>),
}

impl Busy {
    fn len(&self) -> usize {
        match self {
            Busy::Empty => 0,
            Busy::One(..) => 1,
            Busy::Many(v) => v.len(),
        }
    }

    /// Drop every interval that ends at or before `now`.
    fn retire(&mut self, now: Vt) {
        match self {
            Busy::One(_, end) if *end <= now => *self = Busy::Empty,
            Busy::Many(v) => {
                let past = v.partition_point(|&(_, end)| end <= now);
                v.drain(..past);
            }
            _ => {}
        }
    }

    /// [`place`] on these intervals.
    fn place(&mut self, not_before: Vt, dur: VtDuration) -> Reservation {
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
            Busy::One(start, end) => {
                let mut v = Vec::with_capacity(2);
                v.push((*start, *end));
                let granted = place(&mut v, not_before, dur);
                *self = Busy::Many(v);
                granted
            }
            Busy::Many(v) => place(v, not_before, dur),
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
            h.busy.retire(now);
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
        Ok(h.busy.place(now, dur))
    }

    /// Busy intervals held: what retirement has left of the history.
    pub fn retained(&self) -> usize {
        self.history.lock().busy.len()
    }
}

/// Grant `dur` at the earliest idle instant of `busy` at or after
/// `not_before`, and record it.
fn place(busy: &mut Vec<(Vt, Vt)>, not_before: Vt, dur: VtDuration) -> Reservation {
    if dur == 0 {
        // Zero-length use never occupies the resource; it starts (and
        // ends) at the first instant the resource is idle.
        let start = next_idle(busy, not_before);
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

/// First instant at or after `t` at which `busy` is idle.
fn next_idle(busy: &[(Vt, Vt)], t: Vt) -> Vt {
    let mut at = t;
    for &(s, e) in busy {
        if at < s {
            break;
        }
        at = at.max(e);
    }
    at
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

    /// One node of a [`retiring_tx_case`] world: its clock, the NIC pair a
    /// fabric gives it, and full-history shadows of both engines.
    #[derive(Default)]
    struct ShadowNode {
        clock: SimClock,
        tx: RetiringTimeline,
        rx: ResourceTimeline,
        tx_full: ResourceTimeline,
        rx_full: ResourceTimeline,
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
                assert!(n.tx.retained() <= 2, "node {i}: {} intervals", n.tx.retained());
            }
        }
    }

    #[test]
    fn history_stays_exact_through_a_second_clock() {
        let (tx, full) = (RetiringTimeline::new(), ResourceTimeline::new());
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
