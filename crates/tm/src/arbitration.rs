//! The arbitration layer — PadicoTM's single, multiplexed entry point to
//! the network hardware of one node.
//!
//! In the paper (§4.3.1), access to high-performance networks is the most
//! conflict-prone part of multi-middleware processes: exclusive-access
//! hardware (Myrinet through BIP), limited physical resources (SCI
//! mappings), incompatible polling loops and thread policies. The
//! arbitration layer fixes this by being **the only client** of the
//! low-level drivers: it attaches exactly once per node to every fabric,
//! multiplexes an arbitrary number of *logical channels* over each
//! attachment, and hands inbound traffic of *all* attachments to one
//! **progress engine** that demultiplexes it by channel id instead of
//! letting middleware systems spin competing polling threads.
//!
//! Middleware (and the abstraction layer) interact with [`NetAccess`]:
//!
//! * [`NetAccess::subscribe`] — claim a logical channel and get a
//!   [`ChannelRx`] from which to receive messages targeted at it;
//! * [`NetAccess::send`] — transmit on a chosen fabric to a peer node's
//!   arbitration layer, tagged with a channel id.
//!
//! Messages that arrive before their channel is subscribed are parked, so
//! higher layers need no rendezvous dance at startup.
//!
//! ## The progress engine
//!
//! Every node's inbound traffic funnels through one step function — a
//! [`NodeCell`] that demultiplexes each [`Message`] by channel id. The
//! topology-wide discrete-event scheduler ([`padico_fabric::WorldSched`])
//! drives it: fabric sinks post timestamped delivery events, and the
//! scheduler's small worker pool runs each node's [`NodeCell::step`] in
//! virtual-time order. A node costs a registered closure instead of an
//! OS thread, which is what lets one process carry 100,000-node worlds.
//! Shutdown unregisters the node; the entire `ChannelId` space
//! (including `u64::MAX`) belongs to users.
//!
//! Middleware that wants to *react* to traffic instead of blocking on a
//! [`ChannelRx`] can install a [`NetAccess::on_channel`] handler, which
//! runs inline on a scheduler worker and therefore must not block.
//!
//! ## Bounded queues and the parked budget
//!
//! Per-channel subscriber queues are created with a bounded capacity
//! ([`CHANNEL_QUEUE_CAP`]) and messages parked for not-yet-subscribed
//! channels draw from a per-node budget ([`PARKED_BUDGET`]). Beyond the
//! budget, parked messages are *dropped* (counted in the
//! `tm.parked.dropped` metric and warned about) — an unsubscribed channel
//! must not grow the node's memory without bound.
//!
//! ## Concurrency structure
//!
//! The channel registry is a **sharded** map: channel ids hash to one of
//! [`SHARD_COUNT`] independently locked shards, and the live-subscriber
//! fast path clones the subscriber's sender under the shard lock but
//! performs the actual hand-off outside it. Subscribing threads (CORBA
//! and MPI exercising different channels at once, as in the paper's §4.4
//! sharing experiment) therefore do not all serialize on one mutex.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use padico_fabric::{
    EndpointAddr, FabricEndpoint, FabricError, Message, MessageSink, Payload, SimFabric, Topology,
    WorldSched,
};
use padico_util::ids::{ChannelId, FabricId, IdGen, NodeId};
use padico_util::simtime::{SimClock, Vt};
use padico_util::stats::RecoveryStats;
use padico_util::{trace_info, trace_warn};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::TmError;

/// Well-known fabric service port where every node's arbitration layer
/// listens. Raw fabric clients use other ports (or fail to attach at all on
/// exclusive hardware — that is the conflict PadicoTM exists to solve).
pub const TM_SERVICE_PORT: u16 = 1;

/// Number of independently locked shards in the channel registry. Inbound
/// dispatch is already serialized per node by the world scheduler's shard
/// claim, so shards only spread subscribing threads; per-node memory at
/// 100k nodes is what keeps the count small.
const SHARD_COUNT: usize = 2;

/// Capacity hint of one subscriber's channel queue. The shim's bounded
/// channels reserve this up front and spill past it rather than blocking
/// the progress engine, so the bound is a sizing statement, not a
/// deadlock risk.
const CHANNEL_QUEUE_CAP: usize = 1024;

/// Per-node budget of messages parked for not-yet-subscribed channels.
/// Beyond it, further parked messages are dropped (counted + warned).
const PARKED_BUDGET: usize = 8192;

/// Process-wide generator for logical channel ids. The whole simulated
/// grid lives in one OS process, so these are grid-unique.
static CHANNEL_IDS: IdGen = IdGen::new();

/// Allocate a fresh, grid-unique logical channel id.
pub fn fresh_channel() -> ChannelId {
    ChannelId(CHANNEL_IDS.next())
}

/// Derive a well-known channel id from a service name (both sides of a
/// rendezvous can compute it independently). Uses FNV-1a in a private
/// high range so it cannot collide with [`fresh_channel`] allocations.
pub fn named_channel(name: &str) -> ChannelId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    ChannelId(h | (1 << 63))
}

/// Registry shard a channel id lands in: Fibonacci hash of the id. Ids
/// from [`fresh_channel`] are sequential, so a plain modulo would also
/// spread fine, but named channels are FNV values and benefit from the
/// mix.
fn shard_index(channel: ChannelId) -> usize {
    let h = channel.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % SHARD_COUNT
}

/// A reactive channel handler: runs inline on a world-scheduler worker
/// for every message on its channel, instead of queueing into a
/// [`ChannelRx`]. Must only do node-local, non-blocking work
/// (dispatching, sending).
pub type ChannelHandler = Arc<dyn Fn(Message) + Send + Sync>;

enum ChannelEntry {
    /// A subscriber is listening.
    Live(Sender<Message>),
    /// A reactive handler runs inline on the progress engine.
    Reactive(ChannelHandler),
    /// No subscriber yet; messages are parked.
    Parked(Vec<Message>),
}

/// The sharded channel registry of one node (see module docs).
struct ChannelMap {
    shards: [Mutex<HashMap<ChannelId, ChannelEntry>>; SHARD_COUNT],
    /// Messages currently parked across all shards, bounded by `budget`.
    parked_total: AtomicUsize,
    parked_budget: usize,
}

impl ChannelMap {
    fn new(parked_budget: usize) -> ChannelMap {
        ChannelMap {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            parked_total: AtomicUsize::new(0),
            parked_budget,
        }
    }

    fn shard(&self, channel: ChannelId) -> &Mutex<HashMap<ChannelId, ChannelEntry>> {
        &self.shards[shard_index(channel)]
    }

    /// Reserve one slot of the parked budget; on exhaustion the message is
    /// accounted as dropped and `false` is returned.
    fn try_park(&self, channel: ChannelId) -> bool {
        if self.parked_total.load(Ordering::Relaxed) >= self.parked_budget {
            padico_util::metrics::counter_add("tm.parked.dropped", 1);
            trace_warn!(
                "tm.arbitration",
                "parked budget ({}) exhausted; dropping message for {channel}",
                self.parked_budget
            );
            return false;
        }
        self.parked_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Route one inbound message: hand to the live subscriber or park it.
    /// The send to a live subscriber happens outside the shard lock.
    ///
    /// A message shed because the parked budget is exhausted surfaces as
    /// a typed [`TmError::Overloaded`] (on top of the `tm.parked.dropped`
    /// counter), so callers that *can* react — local senders — tell
    /// shed-at-arbitration apart from link death; the remote inbound path
    /// has nobody to answer and keeps only the counter.
    fn dispatch(&self, channel: ChannelId, msg: Message) -> Result<(), TmError> {
        let overloaded =
            |channel: ChannelId| TmError::Overloaded(format!("parked budget full for {channel}"));
        let shard = self.shard(channel);
        let tx = {
            let mut entries = shard.lock();
            match entries.get_mut(&channel) {
                Some(ChannelEntry::Live(tx)) => tx.clone(),
                Some(ChannelEntry::Reactive(handler)) => {
                    // Run the handler outside the shard lock: it may send,
                    // which can dispatch back into this very registry.
                    let handler = Arc::clone(handler);
                    drop(entries);
                    handler(msg);
                    return Ok(());
                }
                Some(ChannelEntry::Parked(v)) => {
                    if self.try_park(channel) {
                        v.push(msg);
                        return Ok(());
                    }
                    return Err(overloaded(channel));
                }
                None => {
                    if self.try_park(channel) {
                        entries.insert(channel, ChannelEntry::Parked(vec![msg]));
                        return Ok(());
                    }
                    return Err(overloaded(channel));
                }
            }
        };
        if let Err(err) = tx.send(msg) {
            // Subscriber dropped without unsubscribing; repark.
            let mut entries = shard.lock();
            if !self.try_park(channel) {
                return Err(overloaded(channel));
            }
            if let Some(ChannelEntry::Parked(v)) = entries.get_mut(&channel) {
                v.push(err.0);
            } else {
                entries.insert(channel, ChannelEntry::Parked(vec![err.0]));
            }
        }
        Ok(())
    }

    /// Install a live subscriber, replaying parked messages (if any) into
    /// the returned bounded receiver in arrival order.
    fn subscribe(&self, channel: ChannelId, node: NodeId) -> Result<Receiver<Message>, TmError> {
        let (tx, rx) = bounded(CHANNEL_QUEUE_CAP);
        let mut entries = self.shard(channel).lock();
        match entries.get_mut(&channel) {
            Some(ChannelEntry::Live(_)) | Some(ChannelEntry::Reactive(_)) => {
                return Err(TmError::Protocol(format!(
                    "channel {channel} already subscribed on {node}"
                )))
            }
            Some(ChannelEntry::Parked(parked)) => {
                self.parked_total.fetch_sub(parked.len(), Ordering::Relaxed);
                for msg in parked.drain(..) {
                    let _ = tx.send(msg);
                }
            }
            None => {}
        }
        entries.insert(channel, ChannelEntry::Live(tx));
        Ok(rx)
    }

    /// Install a reactive handler, replaying parked messages (if any)
    /// into it in arrival order before it goes live.
    fn subscribe_reactive(
        &self,
        channel: ChannelId,
        node: NodeId,
        handler: ChannelHandler,
    ) -> Result<(), TmError> {
        let replay = {
            let mut entries = self.shard(channel).lock();
            match entries.get_mut(&channel) {
                Some(ChannelEntry::Live(_)) | Some(ChannelEntry::Reactive(_)) => {
                    return Err(TmError::Protocol(format!(
                        "channel {channel} already subscribed on {node}"
                    )))
                }
                Some(ChannelEntry::Parked(parked)) => {
                    self.parked_total.fetch_sub(parked.len(), Ordering::Relaxed);
                    let drained = std::mem::take(parked);
                    entries.insert(channel, ChannelEntry::Reactive(Arc::clone(&handler)));
                    drained
                }
                None => {
                    entries.insert(channel, ChannelEntry::Reactive(Arc::clone(&handler)));
                    Vec::new()
                }
            }
        };
        // Outside the lock: the handler may send.
        for msg in replay {
            handler(msg);
        }
        Ok(())
    }

    /// Drop a channel's entry. The entry is dropped outside the shard
    /// lock: a reactive handler's captures may release channels of their
    /// own on drop.
    fn remove(&self, channel: ChannelId) {
        let entry = self.shard(channel).lock().remove(&channel);
        if let Some(ChannelEntry::Parked(v)) = &entry {
            self.parked_total.fetch_sub(v.len(), Ordering::Relaxed);
        }
    }
}

/// Receiving side of a subscribed logical channel.
pub struct ChannelRx {
    channel: ChannelId,
    rx: Receiver<Message>,
    map: Arc<ChannelMap>,
}

impl ChannelRx {
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Blocking receive with a wall-clock timeout, so a missing peer cannot
    /// hang the caller; merges `clock` to the message arrival time and
    /// charges the receive cost.
    pub fn recv_timeout(&self, clock: &SimClock, timeout: Duration) -> Result<Message, TmError> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                msg.deliver(clock);
                Ok(msg)
            }
            Err(RecvTimeoutError::Timeout) => {
                Err(TmError::Timeout(format!("recv on {}", self.channel)))
            }
            Err(RecvTimeoutError::Disconnected) => Err(TmError::Closed),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, clock: &SimClock) -> Result<Option<Message>, TmError> {
        match self.rx.try_recv() {
            Ok(msg) => {
                msg.deliver(clock);
                Ok(Some(msg))
            }
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(TmError::Closed),
        }
    }

    /// Non-blocking receive without charging any clock. Used when a
    /// receiver is being handed over to a reactive handler: already-queued
    /// messages drain through the handler, which does its own delivery.
    pub fn try_recv_raw(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }
}

impl Drop for ChannelRx {
    fn drop(&mut self) {
        self.map.remove(self.channel);
    }
}

struct Attachment {
    fabric: Arc<SimFabric>,
    endpoint: FabricEndpoint,
}

/// The node-local state machine the world scheduler drives: the step
/// function that demultiplexes one inbound [`Message`] into the node's
/// channel registry, plus a deterministic per-node RNG stream for
/// workloads that want seeded per-node behaviour (think-time jitter in
/// the world benches). The scheduler serializes calls per node.
pub struct NodeCell {
    node: NodeId,
    map: Arc<ChannelMap>,
    /// splitmix64 state, seeded from the node id: a per-node random
    /// stream that is a pure function of (node, draw index).
    rng: AtomicU64,
    steps: AtomicU64,
}

impl NodeCell {
    fn new(node: NodeId, map: Arc<ChannelMap>) -> NodeCell {
        NodeCell {
            node,
            map,
            rng: AtomicU64::new(u64::from(node.0) ^ 0x9E37_79B9_7F4A_7C15),
            steps: AtomicU64::new(0),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Process one inbound message: demultiplex it by channel id.
    /// Inbound shed has nobody to answer, so the drop is only counted
    /// (`tm.parked.dropped`) and warned about.
    pub fn step(&self, msg: Message) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        let _ = self.map.dispatch(msg.channel, msg);
    }

    /// Events stepped so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Next draw of the node's deterministic RNG stream (splitmix64).
    pub fn rng_next(&self) -> u64 {
        let mut z = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A deterministic draw in `0..bound` (0 when `bound` is 0).
    pub fn jitter(&self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng_next() % bound
        }
    }
}

/// The arbitration layer of one node.
pub struct NetAccess {
    node: NodeId,
    clock: SimClock,
    attachments: Vec<Attachment>,
    map: Arc<ChannelMap>,
    cell: Arc<NodeCell>,
    /// The world scheduler this node is registered with.
    sched: Arc<WorldSched>,
    /// Per-node recovery bookkeeping; the runtime façade exposes it.
    recovery: RecoveryStats,
}

impl NetAccess {
    /// Attach to every fabric `node` is wired to and register the node's
    /// step function with the topology's world scheduler: every
    /// attachment's inbound traffic becomes a scheduler event for the one
    /// [`NodeCell`] — no per-node thread at all.
    ///
    /// Fails with [`TmError::Fabric`] if some exclusive NIC is already held
    /// by a raw client — the very conflict the paper describes.
    pub fn bring_up(
        topology: &Topology,
        node: NodeId,
        clock: SimClock,
    ) -> Result<Arc<NetAccess>, TmError> {
        let map = Arc::new(ChannelMap::new(PARKED_BUDGET));
        let cell = Arc::new(NodeCell::new(node, Arc::clone(&map)));
        let sched = Arc::clone(topology.sched());
        let mut attachments = Vec::new();
        for fabric in topology.fabrics_of(node) {
            let sched = Arc::clone(&sched);
            // The fabric already stamped the virtual arrival time; the
            // heap orders delivery by it.
            let sink: MessageSink =
                Arc::new(move |msg: Message| sched.post(node, msg.arrival, msg.src.node, msg));
            let endpoint = fabric.attach_service_sink(node, TM_SERVICE_PORT, "PadicoTM", sink)?;
            // On mapping-table hardware, the arbitration layer owns the
            // table and maps the whole member set up front (it is the
            // single client, so the table is not fragmented by competing
            // middleware).
            if fabric.requires_mapping() {
                for &peer in fabric.members() {
                    if peer != node {
                        // Best effort: a table smaller than the member set
                        // degrades to on-demand mapping at send time.
                        if fabric.map_remote(node, peer).is_err() {
                            trace_warn!(
                                "tm.arbitration",
                                "{node}: SCI mapping table too small for all peers"
                            );
                            break;
                        }
                    }
                }
            }
            trace_info!(
                "tm.arbitration",
                "{node}: attached {} ({})",
                fabric.id(),
                fabric.model().name
            );
            attachments.push(Attachment { fabric, endpoint });
        }
        let step = Arc::clone(&cell);
        sched.register(node, Arc::new(move |msg| step.step(msg)));

        Ok(Arc::new(NetAccess {
            node,
            clock,
            attachments,
            map,
            cell,
            sched,
            recovery: RecoveryStats::new(),
        }))
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Fabrics this node's arbitration layer is attached to.
    pub fn fabrics(&self) -> Vec<Arc<SimFabric>> {
        self.attachments
            .iter()
            .map(|a| Arc::clone(&a.fabric))
            .collect()
    }

    /// The node's step-function state machine.
    pub fn cell(&self) -> &Arc<NodeCell> {
        &self.cell
    }

    /// Subscribe a logical channel; parked messages (if any) are replayed
    /// into the returned receiver in arrival order.
    pub fn subscribe(&self, channel: ChannelId) -> Result<ChannelRx, TmError> {
        let rx = self.map.subscribe(channel, self.node)?;
        Ok(ChannelRx {
            channel,
            rx,
            map: Arc::clone(&self.map),
        })
    }

    /// Install a reactive handler on a logical channel: it runs inline on
    /// a world-scheduler worker for every message, parked messages
    /// replayed first. The reactive form is what scales — a waiting node
    /// costs no blocked thread — and is how the `world_*` benches express
    /// 100k concurrent state machines. The handler must not block; it may
    /// send (including back to the arriving fabric).
    pub fn on_channel(&self, channel: ChannelId, handler: ChannelHandler) -> Result<(), TmError> {
        self.map.subscribe_reactive(channel, self.node, handler)
    }

    /// Release a channel installed with [`NetAccess::on_channel`]: the
    /// handler (and everything it captured) is dropped, and later messages
    /// park as for any unsubscribed channel. Idempotent. A handler may
    /// release its own channel; the running invocation finishes normally.
    pub fn off_channel(&self, channel: ChannelId) {
        self.map.remove(channel);
    }

    /// Per-node recovery counters (remaps, retries charged by the
    /// abstraction layer).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Send `payload` on logical `channel` to the arbitration layer of
    /// `dst` over the given fabric, charging this node's clock. Returns
    /// the fabric's send-completion stamp (the virtual time at which the
    /// sender's NIC is free again).
    ///
    /// On mapping-table hardware, a missing mapping (never established at
    /// boot, or lost when the hardware died and revived) is transparently
    /// re-established here: the arbitration layer is the single owner of
    /// the table, so it alone does the remap-and-retry dance.
    pub fn send(
        &self,
        fabric: FabricId,
        dst: NodeId,
        channel: ChannelId,
        payload: Payload,
    ) -> Result<Vt, TmError> {
        let att = self
            .attachments
            .iter()
            .find(|a| a.fabric.id() == fabric)
            .ok_or_else(|| TmError::NoUsableFabric(format!("{fabric} not attached")))?;
        let dst_addr = EndpointAddr {
            node: dst,
            port: TM_SERVICE_PORT,
        };
        match att
            .endpoint
            .send(&self.clock, dst_addr, channel, payload.clone())
        {
            Err(FabricError::NoMapping { .. }) => {
                // Re-establish on demand, then retry the send once. If the
                // mapping hardware is dead this surfaces LinkDown and the
                // caller fails over to another fabric.
                att.fabric.map_remote(self.node, dst)?;
                self.recovery.mapping_remaps.fetch_add(1, Ordering::Relaxed);
                padico_util::stats::global_recovery()
                    .mapping_remaps
                    .fetch_add(1, Ordering::Relaxed);
                att.endpoint
                    .send(&self.clock, dst_addr, channel, payload)
                    .map_err(TmError::from)
            }
            other => other.map_err(TmError::from),
        }
    }

    /// Loopback optimization: a message to the local node skips the wire
    /// and is dispatched directly (charged a small constant by the caller
    /// if desired). Shed-at-arbitration (the parked budget is full)
    /// surfaces as the typed transient [`TmError::Overloaded`].
    pub fn send_local(&self, channel: ChannelId, payload: Payload) -> Result<(), TmError> {
        let msg = Message {
            src: EndpointAddr {
                node: self.node,
                port: TM_SERVICE_PORT,
            },
            channel,
            arrival: self.clock.now(),
            recv_cost: 0,
            corrupted: false,
            payload,
        };
        self.map.dispatch(channel, msg)
    }

    /// Unregister the node from the world scheduler: later events for it
    /// count as dropped, exactly like traffic into a powered-off NIC.
    /// Idempotent; also runs on drop, which releases the NICs.
    pub fn shutdown(&self) {
        self.sched.unregister(self.node);
    }
}

impl Drop for NetAccess {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NetAccess({} over {} fabrics)",
            self.node,
            self.attachments.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;
    use proptest::prelude::*;

    /// Upper bound on any receive in these tests.
    const WAIT: Duration = Duration::from_secs(5);

    fn myrinet_id(net: &NetAccess) -> FabricId {
        net.fabrics()
            .iter()
            .find(|f| f.kind() == FabricKind::Myrinet)
            .unwrap()
            .id()
    }

    #[test]
    fn bring_up_attaches_all_fabrics() {
        let (topo, ids) = single_cluster(2);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        assert_eq!(net.fabrics().len(), 3);
        assert_eq!(net.node(), ids[0]);
    }

    #[test]
    fn every_fabric_delivers_through_the_world_scheduler() {
        // A node is one handler registration in the world scheduler,
        // never an OS thread: traffic from all three of its fabrics flows
        // end to end through the sharded event heap into the one cell.
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        assert_eq!(a.fabrics().len(), 3, "precondition: multiple fabrics");
        let ch = fresh_channel();
        let rx = b.subscribe(ch).unwrap();
        for (i, fabric) in a.fabrics().iter().enumerate() {
            a.send(fabric.id(), ids[1], ch, Payload::from_vec(vec![i as u8]))
                .unwrap();
            let msg = rx
                .recv_timeout(b.clock(), Duration::from_secs(5))
                .expect("delivery through the world scheduler");
            assert_eq!(msg.payload.to_vec(), vec![i as u8]);
        }
        // The delivered counter moves after the handler returns; wait for
        // the worker to finish its batch before reading it.
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        assert!(topo.sched().stats().delivered >= 3);
        assert_eq!(b.cell().steps(), 3, "one cell steps every fabric's traffic");
        let fid = myrinet_id(&a);
        b.shutdown();
        // After unregistration, further traffic is dropped (powered-off
        // NIC semantics), not an error at the sender.
        a.send(fid, ids[1], ch, Payload::from_vec(vec![8])).unwrap();
        assert!(
            topo.sched().quiesce(Duration::from_secs(5)),
            "heap drains even with the destination gone"
        );
        assert!(topo.sched().stats().dropped >= 1);
    }

    #[test]
    fn reactive_handler_runs_on_the_engine_with_parked_replay() {
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        let ch = fresh_channel();
        let fid = myrinet_id(&a);
        // Send before any handler exists: the message parks.
        a.send(fid, ids[1], ch, Payload::from_vec(vec![1])).unwrap();
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        b.on_channel(ch, Arc::new(move |msg: Message| sink.lock().push(msg.payload.to_vec())))
            .unwrap();
        assert_eq!(*seen.lock(), vec![vec![1]], "parked message replayed");
        a.send(fid, ids[1], ch, Payload::from_vec(vec![2])).unwrap();
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        assert_eq!(*seen.lock(), vec![vec![1], vec![2]]);
        // A reactive channel counts as subscribed.
        assert!(matches!(b.subscribe(ch), Err(TmError::Protocol(_))));
        assert!(matches!(
            b.on_channel(ch, Arc::new(|_| {})),
            Err(TmError::Protocol(_))
        ));
        // Releasing the channel drops the handler and its captures; later
        // traffic parks until the next handler.
        b.off_channel(ch);
        assert_eq!(Arc::strong_count(&seen), 1, "handler dropped on release");
        a.send(fid, ids[1], ch, Payload::from_vec(vec![3])).unwrap();
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        assert_eq!(seen.lock().len(), 2, "a released channel runs no handler");
        let rx = b.subscribe(ch).unwrap();
        assert_eq!(rx.try_recv_raw().unwrap().payload.to_vec(), vec![3]);
    }

    #[test]
    fn node_cell_rng_stream_is_deterministic_per_node() {
        let (topo, ids) = single_cluster(2);
        let run = || {
            let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
            let draws: Vec<u64> = (0..8).map(|_| net.cell().rng_next()).collect();
            net.shutdown();
            draws
        };
        assert_eq!(run(), run(), "same node, same stream");
        let other = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        assert_ne!(
            run(),
            (0..8).map(|_| other.cell().rng_next()).collect::<Vec<u64>>(),
            "different nodes draw different streams"
        );
        assert!(other.cell().jitter(0) == 0);
        assert!(other.cell().jitter(10) < 10);
    }

    #[test]
    fn messages_are_demultiplexed_by_channel() {
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        let ch1 = fresh_channel();
        let ch2 = fresh_channel();
        let rx1 = b.subscribe(ch1).unwrap();
        let rx2 = b.subscribe(ch2).unwrap();
        let fid = myrinet_id(&a);
        a.send(fid, ids[1], ch2, Payload::from_vec(vec![2])).unwrap();
        a.send(fid, ids[1], ch1, Payload::from_vec(vec![1])).unwrap();
        let clock = b.clock().clone();
        assert_eq!(rx1.recv_timeout(&clock, WAIT).unwrap().payload.to_vec(), vec![1]);
        assert_eq!(rx2.recv_timeout(&clock, WAIT).unwrap().payload.to_vec(), vec![2]);
    }

    #[test]
    fn top_range_channel_ids_are_deliverable() {
        // u64::MAX was once a reserved shutdown sentinel and silently
        // undeliverable. The whole id space belongs to users — including
        // the very top of the named range — and shutdown still works (it
        // unregisters the node; it is not a channel id).
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        let fid = myrinet_id(&a);
        for ch in [ChannelId(u64::MAX), ChannelId(u64::MAX - 1)] {
            let rx = b.subscribe(ch).unwrap();
            a.send(fid, ids[1], ch, Payload::from_vec(vec![0xEE])).unwrap();
            let msg = rx.recv_timeout(b.clock(), WAIT).unwrap();
            assert_eq!(msg.payload.to_vec(), vec![0xEE], "{ch} deliverable");
        }
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn early_messages_are_parked_until_subscription() {
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        let ch = fresh_channel();
        let fid = myrinet_id(&a);
        a.send(fid, ids[1], ch, Payload::from_vec(vec![42])).unwrap();
        // Give the progress engine a moment to park it.
        std::thread::sleep(Duration::from_millis(20));
        let rx = b.subscribe(ch).unwrap();
        let msg = rx.recv_timeout(b.clock(), WAIT).unwrap();
        assert_eq!(msg.payload.to_vec(), vec![42]);
    }

    #[test]
    fn parked_messages_beyond_budget_are_dropped() {
        // Unit-level: a registry with a budget of 2 parks two messages and
        // drops the third; subscribing replays exactly the survivors and
        // returns the budget.
        let map = ChannelMap::new(2);
        let ch = ChannelId(7777);
        let msg = |n: u8| Message {
            src: EndpointAddr {
                node: NodeId(0),
                port: TM_SERVICE_PORT,
            },
            channel: ch,
            arrival: 0,
            recv_cost: 0,
            corrupted: false,
            payload: Payload::from_vec(vec![n]),
        };
        map.dispatch(ch, msg(1)).unwrap();
        map.dispatch(ch, msg(2)).unwrap();
        // Over budget: shed with a typed transient error, not queued.
        let err = map.dispatch(ch, msg(3)).unwrap_err();
        assert!(matches!(err, TmError::Overloaded(_)), "{err}");
        assert!(err.is_transient(), "shed-at-arbitration is retryable");
        assert!(!err.is_link_level(), "shed does not indict the fabric");
        assert_eq!(map.parked_total.load(Ordering::Relaxed), 2);
        let rx = map.subscribe(ch, NodeId(0)).unwrap();
        assert_eq!(rx.try_recv().unwrap().payload.to_vec(), vec![1]);
        assert_eq!(rx.try_recv().unwrap().payload.to_vec(), vec![2]);
        assert!(rx.try_recv().is_err(), "third message was dropped");
        assert_eq!(map.parked_total.load(Ordering::Relaxed), 0, "budget returned");
    }

    #[test]
    fn double_subscribe_is_rejected() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        let _rx = net.subscribe(ch).unwrap();
        assert!(matches!(net.subscribe(ch), Err(TmError::Protocol(_))));
    }

    #[test]
    fn unsubscribe_on_drop_allows_resubscription() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        drop(net.subscribe(ch).unwrap());
        assert!(net.subscribe(ch).is_ok());
    }

    #[test]
    fn send_local_skips_the_wire() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        let rx = net.subscribe(ch).unwrap();
        let before = net.clock().now();
        net.send_local(ch, Payload::from_vec(vec![9, 9])).unwrap();
        let msg = rx.recv_timeout(net.clock(), WAIT).unwrap();
        assert_eq!(msg.payload.to_vec(), vec![9, 9]);
        assert_eq!(net.clock().now(), before, "local dispatch is free");
    }

    #[test]
    fn raw_client_conflicts_with_tm_on_exclusive_nic() {
        let (topo, ids) = single_cluster(2);
        let myrinet = topo
            .fabrics()
            .iter()
            .find(|f| f.kind() == FabricKind::Myrinet)
            .unwrap()
            .clone();
        // A raw middleware grabs the NIC first...
        let raw = myrinet.attach(ids[0], "raw-mpi").unwrap();
        // ...so PadicoTM cannot bring the node up.
        let err = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap_err();
        assert!(matches!(err, TmError::Fabric(_)), "{err}");
        drop(raw);
        // Once the raw client releases the NIC, PadicoTM owns it and any
        // *second* raw client is refused while TM multiplexes fine.
        let _net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        assert!(myrinet.attach(ids[0], "raw-corba").is_err());
    }

    #[test]
    fn recv_timeout_reports_timeout() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let rx = net.subscribe(fresh_channel()).unwrap();
        let err = rx
            .recv_timeout(net.clock(), Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)));
    }

    #[test]
    fn named_channels_are_stable_and_distinct() {
        assert_eq!(named_channel("orb"), named_channel("orb"));
        assert_ne!(named_channel("orb"), named_channel("mpi"));
        // Named channels live in the high range, fresh ones in the low.
        assert!(named_channel("x").0 >= (1 << 63));
        assert!(fresh_channel().0 < (1 << 63));
    }

    proptest! {
        #[test]
        fn named_and_fresh_ranges_never_collide(name in "[a-z0-9:@./-]{1,48}") {
            // Named ids always carry the top bit; fresh ids are sequential
            // allocations that live far below it — the two ranges are
            // disjoint for any service name whatsoever.
            let named = named_channel(&name);
            prop_assert!(named.0 >= (1 << 63), "named id {named} below top bit");
            let fresh = fresh_channel();
            prop_assert!(fresh.0 < (1 << 63), "fresh id {fresh} in the named range");
            prop_assert_ne!(named.0, fresh.0);
        }

        #[test]
        fn channel_ids_spread_across_all_shards(seed in any::<u64>()) {
            // 10k random service names must land on every registry shard
            // with no shard taking more than 2× the mean — the Fibonacci
            // mix over FNV ids is what keeps CORBA and MPI flows off each
            // other's locks.
            const NAMES: usize = 10_000;
            let mut counts = [0usize; SHARD_COUNT];
            for i in 0..NAMES {
                let name = format!("svc:{seed:x}:{i}");
                counts[shard_index(named_channel(&name))] += 1;
            }
            let mean = NAMES / SHARD_COUNT;
            for (shard, &count) in counts.iter().enumerate() {
                prop_assert!(count > 0, "shard {shard} never hit");
                prop_assert!(
                    count <= 2 * mean,
                    "shard {shard} took {count} of {NAMES} (mean {mean})"
                );
            }
        }
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        net.shutdown();
        net.shutdown();
    }

    #[test]
    fn concurrent_flows_on_distinct_channels_make_progress() {
        // Two paradigms (think CORBA + MPI) hammer distinct channels of the
        // same node concurrently; the sharded registry must deliver every
        // message without cross-channel interference.
        let (topo, ids) = single_cluster(2);
        let a = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let b = NetAccess::bring_up(&topo, ids[1], SimClock::new()).unwrap();
        let fid = myrinet_id(&a);
        const PER_FLOW: usize = 200;
        let channels: Vec<ChannelId> = (0..4).map(|_| fresh_channel()).collect();
        let receivers: Vec<_> = channels
            .iter()
            .map(|&ch| {
                let rx = b.subscribe(ch).unwrap();
                let clock = b.clock().clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    for _ in 0..PER_FLOW {
                        let msg = rx.recv_timeout(&clock, WAIT).unwrap();
                        sum += u64::from(msg.payload.to_vec()[0]);
                    }
                    sum
                })
            })
            .collect();
        let senders: Vec<_> = channels
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let a = Arc::clone(&a);
                let dst = ids[1];
                std::thread::spawn(move || {
                    for _ in 0..PER_FLOW {
                        a.send(fid, dst, ch, Payload::from_vec(vec![i as u8]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        for (i, r) in receivers.into_iter().enumerate() {
            assert_eq!(r.join().unwrap(), (i * PER_FLOW) as u64);
        }
    }
}
