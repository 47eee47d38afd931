//! # World scheduler — the discrete-event progress core
//!
//! One sharded event heap for the whole world, and the only progress
//! engine there is. Every fabric delivery becomes a timestamped
//! *event record* pushed into a binary heap ordered by virtual time; a
//! small pool of workers drains the heaps and runs each destination
//! node's step function inline. This is what lets a single process carry
//! a 100,000-node topology (the benchmark's `world_ring`): a node costs a
//! registered step function and a few hundred bytes of channel state,
//! not an OS thread + stack.
//!
//! Handlers run on the workers, so they must not block. A topology's pool
//! has up to one worker per core, at most 4 (see
//! [`crate::topology::Topology::sched`]), but only the first starts with
//! the scheduler: each further worker starts on the first backlog the
//! running ones leave, more than [`BATCH`] events outstanding per running
//! worker. A world that never builds one (a 2-node RPC rig) runs one
//! worker, and a handler waiting for another delivery would wait for
//! itself.
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
//! * `seq` — the destination shard's push counter, stamped under the
//!   shard's heap lock. A node's events all land in its one shard, so for
//!   any single sender thread this preserves program order, and
//!   per-channel delivery is FIFO. The shard counters summed are the
//!   events ever posted ([`SchedStats::posted`]).
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
//! ## What an event shares
//!
//! Event records live inline in their shard's heap: posting one takes
//! the destination shard's lock and raises the world's `outstanding`
//! count, and writes nothing else the workers share (it reads the
//! running worker count and the pool's size, which change only when the
//! pool grows or the host refuses it a thread).
//! Everything else is paid once per batch of up to [`BATCH`] events: the
//! handler table's read lock, the `outstanding` decrement, the
//! virtual-time frontier, and each worker's own lane (its
//! delivered/dropped/steal counters, lane samples and `sched.*` series),
//! which no other worker writes.
//!
//! ## Parking and quiescence
//!
//! A worker with nothing to drain parks on a condvar. It registers in
//! `parked` and re-checks every shard's queued count under the park lock
//! before waiting; [`WorldSched::post`] publishes the queued count first
//! and notifies *under the same lock* whenever `parked` is non-zero.
//! Either the poster sees the parked worker and its notify cannot land
//! before the wait, or the worker's re-check sees the new event — no
//! wakeup is lost, so the wait needs no timeout, and a post to a busy
//! pool takes no lock at all. [`WorldSched::quiesce`] waits the same way:
//! the batch that brings `outstanding` to zero notifies under the idle
//! lock its waiters check under.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use padico_util::ids::NodeId;
use padico_util::simtime::Vt;
use padico_util::Telemetry;

use crate::fabric::{Message, PortSink};

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

/// A step function, as its owner holds it. The scheduler keeps only a
/// weak reference ([`WorldSched::register`]).
pub type NodeHandler = Arc<dyn NodeStep>;

/// How many events a worker pops from a claimed shard per heap-lock
/// acquisition. Dispatch runs outside the lock (the shard stays claimed,
/// so per-node serialization holds).
const BATCH: usize = 32;

/// Batches a lane folds into one `sched.*` series sample.
const SERIES_BATCHES: u32 = 8;

/// A scheduled delivery, held inline in its shard's heap.
struct EventRec {
    vt: Vt,
    src: u32,
    seq: u64,
    dst: NodeId,
    msg: Message,
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

#[derive(Default)]
struct Heap {
    events: BinaryHeap<Reverse<EventRec>>,
    /// Events ever pushed: the next one's `seq`.
    pushed: u64,
}

/// One heap shard, alone on its cache lines.
#[repr(align(64))]
struct Shard {
    heap: Mutex<Heap>,
    /// Events in `heap`, written under its lock, so a worker about to
    /// park can look at every shard without locking any.
    queued: AtomicUsize,
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

/// The lane-sample window: [`WorldSched::lane_samples`] returns the most
/// recent `LANE_CAP` batches over all lanes. Each lane keeps up to as
/// many of its own, so a lane that idles while another works still
/// leaves the window whole, and the retained total is bounded by
/// `LANE_CAP` × the running workers, 160 KiB (4 096 × 40 B) each. Older
/// samples are overwritten and counted, never silently lost; a longer
/// log held the first batches of a process's life and cost megabytes of
/// resident memory in every long-running world.
const LANE_CAP: usize = 4096;

#[derive(Default)]
struct LaneLog {
    samples: VecDeque<LaneSample>,
    /// Samples overwritten by newer ones.
    dropped: u64,
    /// `sched.*` series totals not yet recorded: batches, events, stolen
    /// events, and the newest batch's virtual time.
    series: (u32, u64, u64, Vt),
}

/// One worker's share of the scheduler's bookkeeping, settled once per
/// batch and written by that worker alone (and by `run_until_idle`
/// callers, who use lane 0).
#[repr(align(64))]
#[derive(Default)]
struct Lane {
    delivered: AtomicU64,
    dropped: AtomicU64,
    steals: AtomicU64,
    log: Mutex<LaneLog>,
}

/// Counters for the progress core, reported by the world benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events pushed into the heap.
    pub posted: u64,
    /// Events dispatched to a registered handler.
    pub delivered: u64,
    /// Events whose destination had no live handler (node gone).
    pub dropped: u64,
    /// Events drained from a shard other than the worker's home shard.
    pub steals: u64,
    /// Events currently in the heap.
    pub pending: u64,
    /// The virtual-time frontier: max vt of any dispatched event.
    pub horizon: Vt,
    /// Worker threads started so far (the pool starts them on backlog).
    pub workers: usize,
    /// Heap shards.
    pub shards: usize,
    /// Lane telemetry samples in the window (≤ the lane buffer cap).
    pub lane_samples: u64,
    /// Older lane telemetry samples, overwritten or past the window.
    pub lane_dropped: u64,
}

/// Per-worker scratch: a popped batch and its resolved handlers.
struct Scratch {
    events: Vec<EventRec>,
    handlers: Vec<Option<NodeHandler>>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            events: Vec::with_capacity(BATCH),
            handlers: Vec::with_capacity(BATCH),
        }
    }
}

/// The world's discrete-event scheduler. One per [`crate::topology::Topology`],
/// created lazily on the first node boot.
pub struct WorldSched {
    shards: Vec<Shard>,
    handlers: RwLock<Vec<Option<Weak<dyn NodeStep>>>>,
    /// Events posted and not yet finished (queued or being handled).
    outstanding: AtomicU64,
    watermark: AtomicU64,
    lanes: Vec<Lane>,
    /// The world's telemetry, where the `sched.*` series land.
    telemetry: Arc<Telemetry>,
    stop: AtomicBool,
    /// Workers registered as about to wait (or waiting) on `park_cv`.
    parked: AtomicUsize,
    park: Mutex<()>,
    park_cv: Condvar,
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// The running workers; locked only to start or stop them.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// How many workers have started: `workers.len()`, readable without
    /// the lock.
    running: AtomicUsize,
    /// The most workers the pool may start; lowered to those running if
    /// the host refuses a thread.
    pool: AtomicUsize,
    /// The scheduler itself, for a worker started by a post.
    me: Weak<WorldSched>,
}

impl std::fmt::Debug for WorldSched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSched")
            .field("shards", &self.shards.len())
            .field("workers", &self.running.load(Ordering::Relaxed))
            .field("outstanding", &self.outstanding.load(Ordering::Relaxed))
            .finish()
    }
}

fn shard_of(node: NodeId, shards: usize) -> usize {
    let h = u64::from(node.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) % shards
}

impl WorldSched {
    /// Start a scheduler with `shards` heap shards served by a pool of up
    /// to `workers` threads, recording its `sched.*` series into
    /// `telemetry`. One worker starts now, the others on backlog (see the
    /// module docs). `workers == 0` is valid for tests and
    /// single-threaded driving via [`WorldSched::run_until_idle`].
    pub fn start(shards: usize, workers: usize, telemetry: Arc<Telemetry>) -> Arc<WorldSched> {
        let sched = Arc::new_cyclic(|me| WorldSched {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    heap: Mutex::new(Heap::default()),
                    queued: AtomicUsize::new(0),
                    claimed: AtomicBool::new(false),
                })
                .collect(),
            handlers: RwLock::new(Vec::new()),
            outstanding: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            lanes: (0..workers.max(1)).map(|_| Lane::default()).collect(),
            telemetry,
            stop: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            running: AtomicUsize::new(0),
            pool: AtomicUsize::new(workers),
            me: me.clone(),
        });
        if workers > 0 {
            sched.start_worker().expect("spawn scheduler worker");
        }
        sched
    }

    /// Start one more worker, unless the pool is full, the scheduler is
    /// stopping, or another thread is starting one right now. If the
    /// host refuses the thread, the pool stops growing where it is: the
    /// running workers serve on, and the poster that asked (an
    /// application thread, or a handler) does not fail for it.
    fn start_worker(&self) -> std::io::Result<()> {
        let Some(mut workers) = self.workers.try_lock() else {
            return Ok(());
        };
        let w = workers.len();
        if w >= self.pool.load(Ordering::Relaxed) || self.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(s) = self.me.upgrade() else {
            return Ok(());
        };
        let spawned = thread::Builder::new()
            .name(format!("padico-sched-{w}"))
            .spawn(move || s.worker_loop(w));
        match spawned {
            Ok(handle) => {
                workers.push(handle);
                self.running.store(w + 1, Ordering::Release);
                Ok(())
            }
            Err(e) => {
                self.pool.store(w, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Install `handler` as the step function for `node`, replacing any
    /// previous one (latest wins). The scheduler keeps a weak reference:
    /// the caller owns the node, and once it drops its last handle,
    /// events for the node count as dropped, as after
    /// [`WorldSched::unregister`].
    pub fn register(&self, node: NodeId, handler: &NodeHandler) {
        let idx = node.0 as usize;
        let mut handlers = self.handlers.write();
        if handlers.len() <= idx {
            handlers.resize(idx + 1, None);
        }
        handlers[idx] = Some(Arc::downgrade(handler));
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
        // Counted before it is visible, so a quiescence check never sees
        // it queued but not outstanding.
        let outstanding = self.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        let shard = &self.shards[shard_of(dst, self.shards.len())];
        {
            let mut heap = shard.heap.lock();
            let seq = heap.pushed;
            heap.pushed += 1;
            heap.events.push(Reverse(EventRec {
                vt,
                src: src.0,
                seq,
                dst,
                msg,
            }));
            // SeqCst pairs with the worker's `parked` increment and
            // `queued` re-check (see "Parking" in the module docs).
            shard.queued.store(heap.events.len(), Ordering::SeqCst);
        }
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _park = self.park.lock();
            self.park_cv.notify_one();
        }
        let running = self.running.load(Ordering::Relaxed);
        if running < self.pool.load(Ordering::Relaxed) && outstanding > (BATCH * running) as u64 {
            // A refused thread leaves the pool as it is (see above).
            let _ = self.start_worker();
        }
    }

    /// One full scan over all shards starting at `home`, bookkeeping into
    /// lane `lane`; returns whether any event was dispatched.
    fn drain_pass(&self, home: usize, lane: usize, scratch: &mut Scratch) -> bool {
        let n = self.shards.len();
        let mut did_work = false;
        for i in 0..n {
            let idx = (home + i) % n;
            let shard = &self.shards[idx];
            // An empty shard is passed over without its claim or lock: an
            // event posted to it meanwhile is seen by the pre-park check
            // (see "Parking and quiescence").
            if shard.queued.load(Ordering::Relaxed) == 0
                || shard
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
                        match heap.events.pop() {
                            Some(Reverse(rec)) => scratch.events.push(rec),
                            None => break,
                        }
                    }
                    occupancy = heap.events.len();
                    shard.queued.store(occupancy, Ordering::SeqCst);
                }
                if scratch.events.is_empty() {
                    break;
                }
                self.dispatch_batch(home, lane, idx, i != 0, occupancy as u32, scratch);
                did_work = true;
            }
            shard.claimed.store(false, Ordering::Release);
        }
        did_work
    }

    /// Run one popped batch: resolve its handlers under one read lock,
    /// step them outside it, then settle the batch's bookkeeping at once.
    fn dispatch_batch(
        &self,
        home: usize,
        lane: usize,
        shard: usize,
        stolen: bool,
        occupancy: u32,
        scratch: &mut Scratch,
    ) {
        let batch = scratch.events.len() as u64;
        // Popped in (vt, src, seq) order: the last is the newest.
        let oldest = scratch.events.first().map_or(0, |r| r.vt);
        let newest = scratch.events.last().map_or(0, |r| r.vt);
        let lag = self
            .watermark
            .load(Ordering::Relaxed)
            .saturating_sub(oldest);
        if newest > self.watermark.load(Ordering::Relaxed) {
            self.watermark.fetch_max(newest, Ordering::Relaxed);
        }
        {
            let table = self.handlers.read();
            scratch.handlers.extend(scratch.events.iter().map(|rec| {
                table
                    .get(rec.dst.0 as usize)
                    .and_then(|h| h.as_ref()?.upgrade())
            }));
        }
        let mut delivered = 0;
        for (rec, handler) in scratch.events.drain(..).zip(scratch.handlers.drain(..)) {
            if let Some(h) = handler {
                h.step(rec.msg);
                delivered += 1;
            }
        }
        let lane = &self.lanes[lane];
        lane.delivered.fetch_add(delivered, Ordering::Relaxed);
        if delivered < batch {
            lane.dropped.fetch_add(batch - delivered, Ordering::Relaxed);
        }
        if stolen {
            lane.steals.fetch_add(batch, Ordering::Relaxed);
        }
        self.record_lane_sample(
            lane,
            LaneSample {
                worker: home as u32,
                shard: shard as u32,
                vt: newest,
                batch: batch as u32,
                occupancy,
                lag,
                stolen,
            },
        );
        if self.outstanding.fetch_sub(batch, Ordering::SeqCst) == batch {
            // The world just went quiet: wake `quiesce` under its lock.
            let _idle = self.idle.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Fold one dispatched batch into its lane's log, and every
    /// [`SERIES_BATCHES`] batches into the `sched.*` timeseries. The
    /// `sched.*` series are timed by which worker won which shard — host
    /// scheduling, not the seed — so determinism comparisons strip them
    /// (see `tests/chaos_world`).
    fn record_lane_sample(&self, lane: &Lane, sample: LaneSample) {
        let mut log = lane.log.lock();
        if log.samples.len() == LANE_CAP {
            log.samples.pop_front();
            log.dropped += 1;
        }
        log.samples.push_back(sample);
        let stolen = if sample.stolen { sample.batch } else { 0 };
        let s = &mut log.series;
        *s = (
            s.0 + 1,
            s.1 + u64::from(sample.batch),
            s.2 + u64::from(stolen),
            sample.vt,
        );
        if s.0 >= SERIES_BATCHES {
            self.flush_series(&mut log);
        }
    }

    /// Record a lane's unrecorded `sched.*` totals.
    fn flush_series(&self, log: &mut LaneLog) {
        let (batches, delivered, stolen, vt) = std::mem::take(&mut log.series);
        if batches == 0 {
            return;
        }
        self.telemetry.record("sched.delivered", vt, delivered);
        if stolen > 0 {
            self.telemetry.record("sched.steals", vt, stolen);
        }
    }

    fn flush_all_series(&self) {
        for lane in &self.lanes {
            self.flush_series(&mut lane.log.lock());
        }
    }

    /// The retained lane telemetry: the newest [`LANE_CAP`] batches over
    /// all lanes, ordered by virtual time.
    pub fn lane_samples(&self) -> Vec<LaneSample> {
        let mut samples = Vec::new();
        for lane in &self.lanes {
            samples.extend(lane.log.lock().samples.iter().copied());
        }
        samples.sort_by_key(|s| s.vt);
        samples.drain(..samples.len().saturating_sub(LANE_CAP));
        samples
    }

    /// Drop retained lane samples (benches use this between phases).
    pub fn clear_lanes(&self) {
        for lane in &self.lanes {
            let mut log = lane.log.lock();
            log.samples = VecDeque::new();
            log.dropped = 0;
        }
    }

    fn any_queued(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.queued.load(Ordering::SeqCst) > 0)
    }

    fn worker_loop(&self, home: usize) {
        let mut scratch = Scratch::new();
        while !self.stop.load(Ordering::Relaxed) {
            if self.drain_pass(home, home, &mut scratch) {
                continue;
            }
            self.flush_series(&mut self.lanes[home].log.lock());
            let mut guard = self.park.lock();
            self.parked.fetch_add(1, Ordering::SeqCst);
            if !self.any_queued() && !self.stop.load(Ordering::SeqCst) {
                self.park_cv.wait(&mut guard);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drain events on the calling thread until the heap is empty.
    /// Dispatch order is fully deterministic with `workers == 0`.
    pub fn run_until_idle(&self) {
        let mut scratch = Scratch::new();
        while self.drain_pass(0, 0, &mut scratch) {}
        self.flush_series(&mut self.lanes[0].log.lock());
    }

    /// Block until no events are pending or in flight, or `timeout`
    /// elapses. Returns `true` when the world is quiescent, with every
    /// lane's `sched.*` totals recorded.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.idle.lock();
        while self.outstanding.load(Ordering::SeqCst) != 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // No poll: the batch that empties the world notifies under
            // `idle` (see "Parking and quiescence").
            self.idle_cv.wait_for(&mut guard, deadline - now);
        }
        drop(guard);
        self.flush_all_series();
        true
    }

    /// The world's telemetry, which the scheduler records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The scheduler-owned virtual-time frontier: the largest arrival
    /// time dispatched so far.
    pub fn horizon(&self) -> Vt {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> SchedStats {
        let mut stats = SchedStats {
            horizon: self.horizon(),
            workers: self.running.load(Ordering::Acquire),
            shards: self.shards.len(),
            ..SchedStats::default()
        };
        for shard in &self.shards {
            let heap = shard.heap.lock();
            stats.posted += heap.pushed;
            stats.pending += heap.events.len() as u64;
        }
        for lane in &self.lanes {
            stats.delivered += lane.delivered.load(Ordering::Relaxed);
            stats.dropped += lane.dropped.load(Ordering::Relaxed);
            stats.steals += lane.steals.load(Ordering::Relaxed);
            let log = lane.log.lock();
            stats.lane_samples += log.samples.len() as u64;
            stats.lane_dropped += log.dropped;
        }
        // Kept by a lane but older than the window: out of it, as if
        // overwritten.
        let past = stats.lane_samples.saturating_sub(LANE_CAP as u64);
        stats.lane_samples -= past;
        stats.lane_dropped += past;
        stats
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
    use proptest::prelude::*;

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

    /// A handler that counts its events into `hits`.
    fn counter(hits: &Arc<AtomicU64>) -> NodeHandler {
        let h = Arc::clone(hits);
        Arc::new(move |_m| {
            h.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn events_dispatch_in_virtual_time_order() {
        let sched = WorldSched::start(4, 0, Telemetry::new());
        let seen: Arc<Mutex<Vec<(Vt, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let handler: NodeHandler =
            Arc::new(move |m: Message| sink.lock().push((m.arrival, m.channel.0)));
        sched.register(NodeId(0), &handler);
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
        assert_eq!(stats.posted, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.pending, 0);
        sched.stop();
    }

    /// `(dst, vt, src, tag)` of one event.
    type Dispatch = (u32, Vt, u32, u64);

    proptest! {
        /// Every shard dispatches its events in `(vt, src, post order)`
        /// order, whatever order they were posted in: the shard-local
        /// `seq` orders a sender's equal-time events as it posted them.
        #[test]
        fn shard_dispatch_order_matches_a_sorted_model(
            codes in proptest::collection::vec(0u64..(8 * 16 * 3), 0..160),
            shards in 1usize..5,
        ) {
            let sched = WorldSched::start(shards, 0, Telemetry::new());
            let seen: Arc<Mutex<Vec<Dispatch>>> = Arc::default();
            let handlers: Vec<NodeHandler> = (0..8u32)
                .map(|n| {
                    let sink = Arc::clone(&seen);
                    let h: NodeHandler = Arc::new(move |m: Message| {
                        sink.lock().push((n, m.arrival, m.src.node.0, m.channel.0));
                    });
                    sched.register(NodeId(n), &h);
                    h
                })
                .collect();
            // (dst, vt, src) per event; the tag is the post index.
            let events: Vec<Dispatch> = codes
                .iter()
                .enumerate()
                .map(|(i, c)| ((c % 8) as u32, (c / 8) % 16, (c / 128) as u32, i as u64))
                .collect();
            for &(dst, vt, src, tag) in &events {
                let mut m = msg(NodeId(src), tag);
                m.arrival = vt;
                sched.post(NodeId(dst), vt, NodeId(src), m);
            }
            sched.run_until_idle();
            let got = seen.lock().clone();
            prop_assert_eq!(got.len(), events.len());
            for shard in 0..shards {
                let of_shard = |e: &&Dispatch| shard_of(NodeId(e.0), shards) == shard;
                let mut model: Vec<_> = events.iter().filter(of_shard).copied().collect();
                model.sort_by_key(|&(_, vt, src, tag)| (vt, src, tag));
                let dispatched: Vec<_> = got.iter().filter(of_shard).copied().collect();
                prop_assert_eq!(dispatched, model);
            }
            drop(handlers);
            sched.stop();
        }
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
    fn a_dropped_handler_counts_dropped() {
        // The scheduler holds handlers weakly: a node whose owner let go
        // of it is gone, registered or not.
        let sched = WorldSched::start(2, 0, Telemetry::new());
        let hits = Arc::new(AtomicU64::new(0));
        let handler = counter(&hits);
        sched.register(NodeId(1), &handler);
        drop(handler);
        sched.post(NodeId(1), 5, NodeId(0), msg(NodeId(0), 1));
        sched.run_until_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(sched.stats().dropped, 1);
        sched.stop();
    }

    #[test]
    fn a_handler_may_stop_its_own_scheduler() {
        let sched = WorldSched::start(1, 1, Telemetry::new());
        let stopped = Arc::new(AtomicBool::new(false));
        let (s, flag) = (Arc::clone(&sched), Arc::clone(&stopped));
        let handler: NodeHandler = Arc::new(move |_m| {
            s.stop();
            flag.store(true, Ordering::SeqCst);
        });
        sched.register(NodeId(0), &handler);
        sched.post(NodeId(0), 1, NodeId(1), msg(NodeId(1), 1));
        assert!(sched.quiesce(Duration::from_secs(10)));
        assert!(
            stopped.load(Ordering::SeqCst),
            "stop returned on the worker"
        );
    }

    #[test]
    fn worker_pool_quiesces_after_burst() {
        let sched = WorldSched::start(8, 2, Telemetry::new());
        let hits = Arc::new(AtomicU64::new(0));
        let handlers: Vec<NodeHandler> = (0..16u32)
            .map(|n| {
                let h = counter(&hits);
                sched.register(NodeId(n), &h);
                h
            })
            .collect();
        for i in 0..512u64 {
            let dst = NodeId((i % 16) as u32);
            sched.post(dst, i, NodeId(99), msg(NodeId(99), i));
        }
        assert!(sched.quiesce(Duration::from_secs(10)), "burst must drain");
        assert_eq!(hits.load(Ordering::Relaxed), 512);
        assert_eq!(sched.stats().delivered, 512);
        drop(handlers);
        sched.stop();
    }

    #[test]
    fn quiesce_wakes_for_every_idle_transition() {
        // Each round's quiesce must be woken by the batch that empties
        // the world: a lost wakeup leaves it asleep until its 10 s
        // deadline, and the round fails instead of being rescued by a
        // poll.
        let sched = WorldSched::start(4, 1, Telemetry::new());
        let hits = Arc::new(AtomicU64::new(0));
        let handler = counter(&hits);
        sched.register(NodeId(0), &handler);
        for i in 0..1000u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
            assert!(sched.quiesce(Duration::from_secs(10)), "round {i} quiesces");
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        sched.stop();
    }

    /// Token rounds of `tokens` tokens on a reactive ring served by a pool
    /// of `workers`: per token, the nodes it visited in order, and the
    /// workers the pool started.
    fn ring_trace(workers: usize, tokens: u64) -> (Vec<Vec<u32>>, usize) {
        const NODES: u32 = 1000;
        const HOPS: u64 = 500;
        let sched = WorldSched::start(64, workers, Telemetry::new());
        let trace: Arc<Vec<Mutex<Vec<u32>>>> =
            Arc::new((0..tokens).map(|_| Mutex::new(Vec::new())).collect());
        let handlers: Vec<NodeHandler> = (0..NODES)
            .map(|n| {
                let (s, trace) = (Arc::downgrade(&sched), Arc::clone(&trace));
                let h: NodeHandler = Arc::new(move |m: Message| {
                    // The channel carries token * HOPS + hop.
                    let (token, hop) = (m.channel.0 / HOPS, m.channel.0 % HOPS);
                    trace[token as usize].lock().push(n);
                    if hop + 1 < HOPS {
                        let next = NodeId((n + 1) % NODES);
                        let mut fwd = msg(NodeId(n), m.channel.0 + 1);
                        fwd.arrival = m.arrival + 1 + (u64::from(n) * 7 + hop) % 5;
                        let s = s.upgrade().expect("the test holds the scheduler");
                        s.post(next, fwd.arrival, NodeId(n), fwd);
                    }
                });
                sched.register(NodeId(n), &h);
                h
            })
            .collect();
        for t in 0..tokens {
            let start = (t * u64::from(NODES) / tokens) as u32;
            sched.post(
                NodeId(start),
                0,
                NodeId(start),
                msg(NodeId(start), t * HOPS),
            );
        }
        if workers == 0 {
            sched.run_until_idle();
        }
        assert!(sched.quiesce(Duration::from_secs(60)), "the ring quiesces");
        assert_eq!(sched.stats().delivered, tokens * HOPS);
        let started = sched.stats().workers;
        sched.stop();
        drop(handlers);
        let Ok(trace) = Arc::try_unwrap(trace) else {
            panic!("handlers dropped, and with them every other handle");
        };
        (trace.into_iter().map(Mutex::into_inner).collect(), started)
    }

    #[test]
    fn one_worker_and_four_trace_the_same_ring() {
        let (one, _) = ring_trace(1, 16);
        for (t, visits) in one.iter().enumerate() {
            let start = (t * 1000 / 16) as u32;
            let expected: Vec<u32> = (0..500).map(|h| (start + h) % 1000).collect();
            assert_eq!(visits, &expected, "token {t} walks the ring in order");
        }
        assert_eq!(ring_trace(4, 16).0, one, "four workers: same hops, same order");
        assert_eq!(ring_trace(0, 16).0, one, "the calling thread alone: the same");
    }

    #[test]
    fn workers_start_on_backlog() {
        // 64 circulating tokens keep more than BATCH events outstanding
        // for one worker: the pool starts its second.
        let (_, started) = ring_trace(2, 64);
        assert_eq!(started, 2, "every worker the pool allows");
        // One event at a time never leaves a backlog.
        let sched = WorldSched::start(4, 4, Telemetry::new());
        assert_eq!(sched.stats().workers, 1, "one worker starts with the scheduler");
        let hits = Arc::new(AtomicU64::new(0));
        let handler = counter(&hits);
        sched.register(NodeId(0), &handler);
        for i in 0..200u64 {
            sched.post(NodeId(0), i, NodeId(1), msg(NodeId(1), i));
            assert!(sched.quiesce(Duration::from_secs(10)));
        }
        assert_eq!(sched.stats().workers, 1);
        sched.stop();
    }

    #[test]
    fn lane_telemetry_samples_batches() {
        let sched = WorldSched::start(4, 0, Telemetry::new());
        let handler: NodeHandler = Arc::new(|_m| {});
        sched.register(NodeId(0), &handler);
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
        // The series got every event, folded per few batches.
        let series = sched.telemetry.timeseries();
        let delivered = series.series("sched.delivered").expect("series recorded");
        let sum: u64 = delivered.ring.iter().map(|w| w.sum).sum();
        assert_eq!(sum, 100);
        sched.clear_lanes();
        assert!(sched.lane_samples().is_empty());
        sched.stop();
    }

    #[test]
    fn lane_log_keeps_the_most_recent_window() {
        // One event per batch: every post is drained on its own, so the
        // log sees exactly one sample per event. Driven by the calling
        // thread (one lane), then by a pool of two that never leaves a
        // backlog, so one worker runs and the other lane stays empty: the
        // window is as long either way.
        for workers in [0, 2] {
            let sched = WorldSched::start(1, workers, Telemetry::new());
            let handler: NodeHandler = Arc::new(|_m| {});
            sched.register(NodeId(0), &handler);
            let total = LANE_CAP as u64 + 10;
            for i in 0..total {
                let mut m = msg(NodeId(1), i);
                m.arrival = i;
                sched.post(NodeId(0), i, NodeId(1), m);
                if workers == 0 {
                    sched.run_until_idle();
                } else {
                    assert!(sched.quiesce(Duration::from_secs(10)));
                }
            }
            let samples = sched.lane_samples();
            assert_eq!(samples.len(), LANE_CAP, "the window is bounded");
            assert_eq!(
                samples.first().unwrap().vt,
                10,
                "oldest samples overwritten"
            );
            assert_eq!(samples.last().unwrap().vt, total - 1, "newest sample kept");
            let stats = sched.stats();
            assert_eq!(stats.workers, workers.min(1), "one worker at most");
            assert_eq!(stats.lane_samples, LANE_CAP as u64);
            assert_eq!(stats.lane_dropped, 10, "every overwrite is counted");
            sched.stop();
        }
    }

    #[test]
    fn worker_wakes_for_every_post_to_an_idle_pool() {
        // A post to a pool whose only worker is parked must wake it:
        // each round trip below waits on its own delivery, with no other
        // traffic to rescue a lost wakeup.
        let sched = WorldSched::start(1, 1, Telemetry::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let handler: NodeHandler = Arc::new(move |m: Message| {
            let _ = tx.lock().send(m.channel.0);
        });
        sched.register(NodeId(0), &handler);
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
        let (f, s) = (counter(&first), counter(&second));
        sched.register(NodeId(1), &f);
        sched.register(NodeId(1), &s);
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
