//! # World scheduler — the discrete-event progress core
//!
//! One sharded event heap for the whole world, and the only progress
//! engine there is. Every fabric delivery becomes a timestamped
//! *event record* pushed into a binary heap ordered by virtual time; a
//! small pool of workers drains the heaps and runs each destination
//! node's step function inline. This is what lets a single process carry
//! a 100,000-node topology (the benchmark's `world_ring`): a node costs a
//! registered handler closure and a few hundred bytes of channel state,
//! not an OS thread + stack.
//!
//! Handlers run on the workers, so they must not block: on a 2-vCPU
//! host the pool is a single worker, and a handler waiting for another
//! delivery would wait for itself.
//!
//! ## Ordering and determinism
//!
//! Events are keyed `(vt, src, seq)`:
//!
//! * `vt` — the message's virtual arrival time, computed by the fabric
//!   at send time. The heap is a min-heap on this, so the world makes
//!   progress in virtual-time order and the scheduler owns the
//!   virtual-time frontier (exposed as [`WorldSched::horizon`]).
//! * `src` — the sending node, a deterministic tie-break.
//! * `seq` — a global monotone counter stamped at post time. For any
//!   single sender thread this preserves program order, so per-channel
//!   delivery is FIFO.
//!
//! ## Shards and stealing
//!
//! The heap is split into a fixed number of shards; a destination node
//! maps to its shard by Fibonacci hash, permanently. A worker claims a
//! shard with a CAS flag before draining it, which means **at most one
//! worker runs a given node's handler at a time** — node state machines
//! stay single-threaded without any per-node lock. Workers scan all
//! shards starting from a home offset, so an idle worker steals whole
//! shards from a busy one rather than sitting parked.
//!
//! ## Zero steady-state allocation
//!
//! Event records are boxed [`EventSlot`]s drawn from a
//! [`pool::RecordPool`] free-list (same discipline as the byte slabs);
//! `tests/alloc_steady_state.rs` asserts zero misses once warm.
//!
//! ## Parking
//!
//! A worker with nothing to drain parks on a condvar. It registers in
//! `parked` and re-checks `pending` under the park lock before waiting;
//! [`WorldSched::post`] raises `pending` first and notifies *under the
//! same lock* whenever `parked` is non-zero. Either the poster sees the
//! parked worker and its notify cannot land before the wait, or the
//! worker's re-check sees the new event — no wakeup is lost, so the wait
//! needs no timeout, and a post to a busy pool takes no lock at all.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use padico_util::ids::NodeId;
use padico_util::simtime::Vt;
use padico_util::Telemetry;

use crate::fabric::{Message, PortSink};
use crate::payload::pool::RecordPool;

/// A node's step function: invoked by a scheduler worker for every event
/// addressed to the node, never concurrently with itself. Any
/// `Fn(Message)` closure is one; a node's state machine can also be one
/// itself, so registering it costs no wrapper allocation.
pub trait NodeStep: Send + Sync {
    fn step(&self, msg: Message);
}

impl<F: Fn(Message) + Send + Sync> NodeStep for F {
    fn step(&self, msg: Message) {
        self(msg)
    }
}

/// A registered step function.
pub type NodeHandler = Arc<dyn NodeStep>;

/// How many events a worker pops from a claimed shard per heap-lock
/// acquisition. Dispatch runs outside the lock (the shard stays claimed,
/// so per-node serialization holds).
const BATCH: usize = 32;

/// Idle records kept per scheduler before surplus is freed.
const RECORD_SHELF_CAP: usize = 4096;

/// The payload of an event record. Boxed and recycled through the record
/// pool; the scheduler takes the message out before dispatch and returns
/// the empty slot to the shelf.
#[derive(Default)]
pub struct EventSlot {
    msg: Option<Message>,
}

/// A scheduled delivery: heap key plus the recycled payload slot.
struct EventRec {
    vt: Vt,
    src: u32,
    seq: u64,
    dst: NodeId,
    slot: Box<EventSlot>,
}

impl EventRec {
    fn key(&self) -> (Vt, u32, u64) {
        (self.vt, self.src, self.seq)
    }
}

impl PartialEq for EventRec {
    fn eq(&self, other: &EventRec) -> bool {
        self.key() == other.key()
    }
}

impl Eq for EventRec {}

impl PartialOrd for EventRec {
    fn partial_cmp(&self, other: &EventRec) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventRec {
    fn cmp(&self, other: &EventRec) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

struct Shard {
    heap: Mutex<BinaryHeap<std::cmp::Reverse<EventRec>>>,
    claimed: AtomicBool,
}

/// One scheduler-lane telemetry sample, recorded per dispatched batch
/// (not per event — one sample per `BATCH` pops keeps the flight
/// recorder's cost a rounding error at world scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSample {
    /// Worker that drained the batch (`run_until_idle` reports 0).
    pub worker: u32,
    /// Shard the batch came from.
    pub shard: u32,
    /// Virtual arrival time of the newest event in the batch.
    pub vt: Vt,
    /// Events in the batch (1..=BATCH).
    pub batch: u32,
    /// Events left in the shard's heap after the pop.
    pub occupancy: u32,
    /// How far the batch's oldest event trailed the global virtual-time
    /// frontier when drained (ns) — the horizon lag of this shard.
    pub lag: u64,
    /// Whether the worker drained a shard other than its home shard.
    pub stolen: bool,
}

/// Retained lane samples: a flight-recorder window over the most recent
/// batches. Older samples are overwritten and counted, never silently
/// lost. 4 096 × 40 B keeps the window at 160 KiB; a longer log held the
/// first batches of a process's life and cost megabytes of resident
/// memory in every long-running world.
const LANE_CAP: usize = 4096;

#[derive(Default)]
struct LaneLog {
    samples: VecDeque<LaneSample>,
    dropped: u64,
}

/// Counters for the progress core, reported by the world benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events pushed into the heap.
    pub posted: u64,
    /// Events dispatched to a registered handler.
    pub delivered: u64,
    /// Events whose destination had no handler (node gone).
    pub dropped: u64,
    /// Events drained from a shard other than the worker's home shard.
    pub steals: u64,
    /// Events currently in the heap.
    pub pending: u64,
    /// The virtual-time frontier: max vt of any dispatched event.
    pub horizon: Vt,
    /// Worker threads serving the heap.
    pub workers: usize,
    /// Heap shards.
    pub shards: usize,
    /// Lane telemetry samples retained (≤ the lane buffer cap).
    pub lane_samples: u64,
    /// Older lane telemetry samples overwritten by newer ones.
    pub lane_dropped: u64,
    /// Event records this scheduler drew from its record shelf.
    pub record_hits: u64,
    /// Event records this scheduler had to allocate (cold shelf).
    pub record_misses: u64,
}

/// The world's discrete-event scheduler. One per [`crate::topology::Topology`],
/// created lazily on the first node boot.
pub struct WorldSched {
    shards: Vec<Shard>,
    handlers: RwLock<Vec<Option<NodeHandler>>>,
    records: RecordPool<EventSlot>,
    seq: AtomicU64,
    pending: AtomicU64,
    in_flight: AtomicU64,
    posted: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    steals: AtomicU64,
    watermark: AtomicU64,
    lanes: Mutex<LaneLog>,
    /// The world's telemetry, where the `sched.*` series land.
    telemetry: Arc<Telemetry>,
    stop: AtomicBool,
    /// Workers registered as about to wait (or waiting) on `park_cv`.
    parked: AtomicUsize,
    park: Mutex<()>,
    park_cv: Condvar,
    idle: Mutex<()>,
    idle_cv: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl std::fmt::Debug for WorldSched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSched")
            .field("shards", &self.shards.len())
            .field("workers", &self.worker_count)
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

fn shard_of(node: NodeId, shards: usize) -> usize {
    let h = u64::from(node.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) % shards
}

impl WorldSched {
    /// Start a scheduler with `shards` heap shards served by `workers`
    /// threads, recording its `sched.*` series into `telemetry`.
    /// `workers == 0` is valid for tests and single-threaded driving via
    /// [`WorldSched::run_until_idle`].
    pub fn start(shards: usize, workers: usize, telemetry: Arc<Telemetry>) -> Arc<WorldSched> {
        let sched = Arc::new(WorldSched {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    heap: Mutex::new(BinaryHeap::new()),
                    claimed: AtomicBool::new(false),
                })
                .collect(),
            handlers: RwLock::new(Vec::new()),
            records: RecordPool::new(RECORD_SHELF_CAP),
            seq: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            posted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            lanes: Mutex::new(LaneLog::default()),
            telemetry,
            stop: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            worker_count: workers,
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let s = Arc::clone(&sched);
            let handle = thread::Builder::new()
                .name(format!("padico-sched-{w}"))
                .spawn(move || s.worker_loop(w))
                .expect("spawn scheduler worker");
            handles.push(handle);
        }
        *sched.workers.lock() = handles;
        sched
    }

    /// Install `handler` as the step function for `node`. Replaces any
    /// previous handler (latest wins).
    pub fn register(&self, node: NodeId, handler: NodeHandler) {
        let idx = node.0 as usize;
        let mut handlers = self.handlers.write();
        if handlers.len() <= idx {
            handlers.resize(idx + 1, None);
        }
        handlers[idx] = Some(handler);
    }

    /// Remove `node`'s handler; later events for it are counted dropped,
    /// like frames arriving at a powered-off NIC.
    pub fn unregister(&self, node: NodeId) {
        let idx = node.0 as usize;
        let mut handlers = self.handlers.write();
        if idx < handlers.len() {
            handlers[idx] = None;
        }
    }

    /// Schedule delivery of `msg` to `dst` at virtual time `vt`.
    pub fn post(&self, dst: NodeId, vt: Vt, src: NodeId, msg: Message) {
        let mut slot = self.records.take();
        slot.msg = Some(msg);
        let rec = EventRec {
            vt,
            src: src.0,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            dst,
            slot,
        };
        self.posted.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_add(1, Ordering::SeqCst);
        let shard = &self.shards[shard_of(dst, self.shards.len())];
        shard.heap.lock().push(std::cmp::Reverse(rec));
        // SeqCst pairs with the worker's `parked` increment and `pending`
        // re-check (see "Parking" in the module docs).
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _park = self.park.lock();
            self.park_cv.notify_one();
        }
    }

    /// One full scan over all shards starting at `home`; returns whether
    /// any event was dispatched.
    fn drain_pass(&self, home: usize, scratch: &mut Vec<EventRec>) -> bool {
        let n = self.shards.len();
        let mut did_work = false;
        for i in 0..n {
            let idx = (home + i) % n;
            let shard = &self.shards[idx];
            if shard
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            loop {
                let occupancy;
                {
                    let mut heap = shard.heap.lock();
                    for _ in 0..BATCH {
                        match heap.pop() {
                            Some(std::cmp::Reverse(rec)) => scratch.push(rec),
                            None => break,
                        }
                    }
                    occupancy = heap.len() as u32;
                }
                if scratch.is_empty() {
                    break;
                }
                let batch = scratch.len() as u64;
                if i != 0 {
                    self.steals.fetch_add(batch, Ordering::Relaxed);
                }
                self.record_lane_sample(home, idx, i != 0, occupancy, scratch);
                // in_flight rises BEFORE pending falls so quiescence
                // checks never observe a false-idle window.
                self.in_flight.fetch_add(batch, Ordering::SeqCst);
                self.pending.fetch_sub(batch, Ordering::SeqCst);
                for mut rec in scratch.drain(..) {
                    self.watermark.fetch_max(rec.vt, Ordering::Relaxed);
                    let handler = {
                        let handlers = self.handlers.read();
                        handlers.get(rec.dst.0 as usize).and_then(|h| h.clone())
                    };
                    if let Some(msg) = rec.slot.msg.take() {
                        match handler {
                            Some(h) => {
                                h.step(msg);
                                self.delivered.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                self.dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    self.records.put(rec.slot);
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                did_work = true;
            }
            shard.claimed.store(false, Ordering::Release);
        }
        did_work
    }

    /// Fold one dispatched batch into the lane log and the `sched.*`
    /// timeseries. Batch granularity bounds the cost: one lane push and
    /// two windowed folds per `BATCH` events. The `sched.*` series are
    /// timed by which worker won which shard — host scheduling, not the
    /// seed — so determinism comparisons strip them (see
    /// `tests/chaos_world`).
    fn record_lane_sample(
        &self,
        home: usize,
        shard: usize,
        stolen: bool,
        occupancy: u32,
        batch: &[EventRec],
    ) {
        let oldest = batch.first().map_or(0, |r| r.vt);
        let newest = batch.last().map_or(0, |r| r.vt);
        let sample = LaneSample {
            worker: home as u32,
            shard: shard as u32,
            vt: newest,
            batch: batch.len() as u32,
            occupancy,
            lag: self.watermark.load(Ordering::Relaxed).saturating_sub(oldest),
            stolen,
        };
        self.telemetry
            .record("sched.delivered", newest, batch.len() as u64);
        if stolen {
            self.telemetry
                .record("sched.steals", newest, batch.len() as u64);
        }
        let mut lanes = self.lanes.lock();
        if lanes.samples.len() == LANE_CAP {
            lanes.samples.pop_front();
            lanes.dropped += 1;
        }
        lanes.samples.push_back(sample);
    }

    /// The retained lane telemetry — the most recent window — oldest
    /// first.
    pub fn lane_samples(&self) -> Vec<LaneSample> {
        self.lanes.lock().samples.iter().copied().collect()
    }

    /// Drop retained lane samples (benches use this between phases).
    pub fn clear_lanes(&self) {
        *self.lanes.lock() = LaneLog::default();
    }

    fn worker_loop(&self, home: usize) {
        let mut scratch = Vec::with_capacity(BATCH);
        while !self.stop.load(Ordering::Relaxed) {
            if self.drain_pass(home, &mut scratch) {
                continue;
            }
            if self.pending.load(Ordering::SeqCst) == 0
                && self.in_flight.load(Ordering::SeqCst) == 0
            {
                self.idle_cv.notify_all();
            }
            let mut guard = self.park.lock();
            self.parked.fetch_add(1, Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) == 0 && !self.stop.load(Ordering::SeqCst) {
                self.park_cv.wait(&mut guard);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drain events on the calling thread until the heap is empty.
    /// Dispatch order is fully deterministic with `workers == 0`.
    pub fn run_until_idle(&self) {
        let mut scratch = Vec::with_capacity(BATCH);
        while self.drain_pass(0, &mut scratch) {}
    }

    /// Block until no events are pending or in flight, or `timeout`
    /// elapses. Returns `true` when the world is quiescent.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.idle.lock();
        loop {
            if self.pending.load(Ordering::SeqCst) == 0
                && self.in_flight.load(Ordering::SeqCst) == 0
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.idle_cv
                .wait_for(&mut guard, Duration::from_micros(500));
        }
    }

    /// The scheduler-owned virtual-time frontier: the largest arrival
    /// time dispatched so far.
    pub fn horizon(&self) -> Vt {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> SchedStats {
        let (lane_samples, lane_dropped) = {
            let lanes = self.lanes.lock();
            (lanes.samples.len() as u64, lanes.dropped)
        };
        let (record_hits, record_misses) = self.records.hits_misses();
        SchedStats {
            posted: self.posted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::SeqCst),
            horizon: self.horizon(),
            workers: self.worker_count,
            shards: self.shards.len(),
            lane_samples,
            lane_dropped,
            record_hits,
            record_misses,
        }
    }

    /// Stop and join the worker pool. Idempotent; events still in the
    /// heap stay there (the world is being torn down). Callable from a
    /// worker — a handler may own the last handle on its world — which
    /// then exits after its batch instead of joining itself.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let _park = self.park.lock();
            self.park_cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            if handle.thread().id() != thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// The scheduler is every node's port sink: a delivery becomes an event
/// for its destination at the message's virtual arrival time (the fabric
/// already stamped it), tie-broken by the sending node.
impl PortSink for WorldSched {
    fn accept(&self, node: NodeId, msg: Message) {
        self.post(node, msg.arrival, msg.src.node, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{EndpointAddr, Message};
    use crate::payload::Payload;
    use padico_util::ids::ChannelId;

    fn msg(src: NodeId, tag: u64) -> Message {
        Message {
            src: EndpointAddr { node: src, port: 1 },
            channel: ChannelId(tag),
            arrival: 0,
            recv_cost: 0,
            corrupted: false,
            payload: Payload::from_vec(vec![0u8; 8]),
        }
    }

    #[test]
    fn events_dispatch_in_virtual_time_order() {
        let sched = WorldSched::start(4, 0, Telemetry::new());
        let seen: Arc<Mutex<Vec<(Vt, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        sched.register(
            NodeId(0),
            Arc::new(move |m: Message| sink.lock().push((m.arrival, m.channel.0))),
        );
        // Post out of virtual-time order; same-vt events tie-break on seq.
        for (vt, tag) in [(50u64, 1u64), (10, 2), (30, 3), (10, 4), (20, 5)] {
            let mut m = msg(NodeId(7), tag);
            m.arrival = vt;
            sched.post(NodeId(0), vt, NodeId(7), m);
        }
        sched.run_until_idle();
        let got = seen.lock().clone();
        assert_eq!(got, vec![(10, 2), (10, 4), (20, 5), (30, 3), (50, 1)]);
        assert_eq!(sched.horizon(), 50);
        let stats = sched.stats();
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.pending, 0);
        sched.stop();
    }

    #[test]
    fn unregistered_destination_counts_dropped() {
        let sched = WorldSched::start(2, 0, Telemetry::new());
        sched.post(NodeId(3), 5, NodeId(0), msg(NodeId(0), 1));
        sched.run_until_idle();
        assert_eq!(sched.stats().dropped, 1);
        assert_eq!(sched.stats().delivered, 0);
        sched.stop();
    }

    #[test]
    fn a_handler_may_stop_its_own_scheduler() {
        let sched = WorldSched::start(1, 1, Telemetry::new());
        let stopped = Arc::new(AtomicBool::new(false));
        let (s, flag) = (Arc::clone(&sched), Arc::clone(&stopped));
        sched.register(
            NodeId(0),
            Arc::new(move |_m| {
                s.stop();
                flag.store(true, Ordering::SeqCst);
            }),
        );
        sched.post(NodeId(0), 1, NodeId(1), msg(NodeId(1), 1));
        assert!(sched.quiesce(Duration::from_secs(10)));
        assert!(stopped.load(Ordering::SeqCst), "stop returned on the worker");
    }

    #[test]
    fn worker_pool_quiesces_after_burst() {
        let sched = WorldSched::start(8, 2, Telemetry::new());
        let hits = Arc::new(AtomicU64::new(0));
        for n in 0..16u32 {
            let h = Arc::clone(&hits);
            sched.register(
                NodeId(n),
                Arc::new(move |_m| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        for i in 0..512u64 {
            let dst = NodeId((i % 16) as u32);
            sched.post(dst, i, NodeId(99), msg(NodeId(99), i));
        }
        assert!(sched.quiesce(Duration::from_secs(10)), "burst must drain");
        assert_eq!(hits.load(Ordering::Relaxed), 512);
        assert_eq!(sched.stats().delivered, 512);
        sched.stop();
    }

    #[test]
    fn event_records_recycle_through_the_pool() {
        // Reads only this scheduler's own record counters: sibling tests
        // post to cold schedulers of their own concurrently.
        let sched = WorldSched::start(2, 0, Telemetry::new());
        sched.register(NodeId(0), Arc::new(|_m| {}));
        // Warm the shelf.
        for i in 0..8u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
        }
        sched.run_until_idle();
        let before = sched.stats();
        for i in 0..100u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
            sched.run_until_idle();
        }
        let after = sched.stats();
        assert_eq!(after.record_misses, before.record_misses, "warm records must not allocate");
        assert_eq!(after.record_hits, before.record_hits + 100);
        sched.stop();
    }

    #[test]
    fn lane_telemetry_samples_batches() {
        let sched = WorldSched::start(4, 0, Telemetry::new());
        sched.register(NodeId(0), Arc::new(|_m| {}));
        for i in 0..100u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
        }
        sched.run_until_idle();
        let samples = sched.lane_samples();
        assert!(!samples.is_empty(), "batches must be sampled");
        let total: u64 = samples.iter().map(|s| u64::from(s.batch)).sum();
        assert_eq!(total, 100, "every event belongs to exactly one batch");
        for s in &samples {
            assert!(s.batch as usize <= BATCH);
            assert_eq!(s.worker, 0);
            assert!(!s.stolen, "single-thread drain steals nothing");
        }
        let stats = sched.stats();
        assert_eq!(stats.lane_samples, samples.len() as u64);
        assert_eq!(stats.lane_dropped, 0);
        sched.clear_lanes();
        assert!(sched.lane_samples().is_empty());
        sched.stop();
    }

    #[test]
    fn lane_log_keeps_the_most_recent_window() {
        // One event per batch: every post is drained on its own, so the
        // log sees exactly one sample per event.
        let sched = WorldSched::start(1, 0, Telemetry::new());
        sched.register(NodeId(0), Arc::new(|_m| {}));
        let total = LANE_CAP as u64 + 10;
        for i in 0..total {
            let mut m = msg(NodeId(1), i);
            m.arrival = i;
            sched.post(NodeId(0), i, NodeId(1), m);
            sched.run_until_idle();
        }
        let samples = sched.lane_samples();
        assert_eq!(samples.len(), LANE_CAP, "the ring is bounded");
        assert_eq!(samples.first().unwrap().vt, 10, "oldest samples overwritten");
        assert_eq!(samples.last().unwrap().vt, total - 1, "newest sample kept");
        let stats = sched.stats();
        assert_eq!(stats.lane_samples, LANE_CAP as u64);
        assert_eq!(stats.lane_dropped, 10, "every overwrite is counted");
        sched.stop();
    }

    #[test]
    fn worker_wakes_for_every_post_to_an_idle_pool() {
        // A post to a pool whose only worker is parked must wake it:
        // each round trip below waits on its own delivery, with no other
        // traffic to rescue a lost wakeup.
        let sched = WorldSched::start(1, 1, Telemetry::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        sched.register(
            NodeId(0),
            Arc::new(move |m: Message| {
                let _ = tx.lock().send(m.channel.0);
            }),
        );
        for i in 0..200u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(i));
        }
        sched.stop();
    }

    #[test]
    fn handler_replacement_is_latest_wins() {
        let sched = WorldSched::start(2, 0, Telemetry::new());
        let first = Arc::new(AtomicU64::new(0));
        let second = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&first);
        sched.register(
            NodeId(1),
            Arc::new(move |_m| {
                f.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let s = Arc::clone(&second);
        sched.register(
            NodeId(1),
            Arc::new(move |_m| {
                s.fetch_add(1, Ordering::Relaxed);
            }),
        );
        sched.post(NodeId(1), 1, NodeId(0), msg(NodeId(0), 1));
        sched.run_until_idle();
        assert_eq!(first.load(Ordering::Relaxed), 0);
        assert_eq!(second.load(Ordering::Relaxed), 1);
        sched.unregister(NodeId(1));
        sched.post(NodeId(1), 2, NodeId(0), msg(NodeId(0), 2));
        sched.run_until_idle();
        assert_eq!(sched.stats().dropped, 1);
        sched.stop();
    }
}
