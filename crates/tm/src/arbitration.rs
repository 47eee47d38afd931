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
//! * [`NetAccess::on_channel`] — claim a logical channel by installing
//!   the handler that runs for every message targeted at it;
//! * [`NetAccess::send`] — transmit on a chosen fabric to a peer node's
//!   arbitration layer, tagged with a channel id.
//!
//! Messages that arrive before their channel has a handler are parked, so
//! higher layers need no rendezvous dance at startup.
//!
//! ## The progress engine
//!
//! Every node's inbound traffic funnels through one step function — the
//! node's [`NetAccess`] itself, whose [`NodeCell`] demultiplexes each
//! [`Message`] by channel id. The topology-wide discrete-event scheduler
//! ([`padico_fabric::WorldSched`]) drives it: it is every service port's
//! sink and turns each delivery into a timestamped event, and its worker
//! pool runs each node's step in virtual-time order. A node costs one
//! registered record instead of an OS thread, which is what lets one
//! process carry 100,000-node worlds.
//! Shutdown unregisters the node; the entire `ChannelId` space
//! (including `u64::MAX`) belongs to users.
//!
//! ## One inbound path per channel
//!
//! A channel is either handled or parked; there is no third form. The
//! handler runs inline on a scheduler worker and therefore must not
//! block. Middleware that wants to *wait* for traffic instead installs a
//! handler that queues into an inbox its own thread waits on — that is
//! what the abstraction layer's links do (`driver::Inbox`).
//!
//! ## The parked budget
//!
//! Messages parked for channels without a handler draw from a per-node
//! budget ([`PARKED_BUDGET`]). Beyond the budget, parked messages are
//! *dropped* (counted in the `tm.parked.dropped` metric) — an unclaimed
//! channel must not grow the node's memory without bound.
//!
//! ## Concurrency structure
//!
//! The channel registry is a **sharded** map: channel ids hash to one of
//! [`SHARD_COUNT`] independently locked shards, and dispatch clones the
//! handler under the shard lock but runs it outside it. Threads claiming
//! and releasing channels (CORBA and MPI exercising different channels at
//! once, as in the paper's §4.4 sharing experiment) therefore do not all
//! serialize on one mutex.
//!
//! Each shard holds its first channel inline and boxes a hash table only
//! while a second one is in it (an empty shard's overflow costs one
//! pointer). A node with at most one channel per
//! shard — every node of the `world_ring` benchmark — therefore dispatches
//! by comparing one id, with no hash and no separately allocated table to
//! fetch; RPC and GridCCM nodes (2–12 channels) use the tables.
//!
//! No per-node object stands between the wire and the registry either:
//! every node's service port on every fabric is bound to the world
//! scheduler itself (a [`padico_fabric::PortSink`], told the destination
//! by the fabric), so one sink serves the whole world and a hop touches
//! only the two NIC slots, the event heap, the destination's
//! [`NetAccess`] (its cell inline) and its channel's handler.

use padico_fabric::{
    EndpointAddr, FabricEndpoint, FabricError, Message, MessageSink, NodeHandler, NodeStep,
    Payload, SimFabric, Topology, WorldSched,
};
use padico_util::ids::{ChannelId, FabricId, IdGen, NodeId};
use padico_util::simtime::{SimClock, Vt};
use padico_util::stats::RecoveryStats;
use padico_util::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::TmError;

/// Well-known fabric service port where every node's arbitration layer
/// listens. Raw fabric clients use other ports (or fail to attach at all on
/// exclusive hardware — that is the conflict PadicoTM exists to solve).
pub const TM_SERVICE_PORT: u16 = 1;

/// Number of independently locked shards in the channel registry. Inbound
/// dispatch is already serialized per node by the world scheduler's shard
/// claim, so shards only spread threads claiming channels; per-node
/// memory at 100k nodes is what keeps the count small.
const SHARD_COUNT: usize = 2;

/// Per-node budget of messages parked for channels without a handler.
/// Beyond it, further parked messages are dropped (and counted).
const PARKED_BUDGET: u32 = 8192;

/// Process-wide generator for logical channel ids: ids only need to be
/// unique, and one shared counter keeps them unique across every world in
/// the process.
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

/// A channel handler: runs inline on a world-scheduler worker for every
/// message on its channel. Must only do node-local, non-blocking work
/// (dispatching, queueing, sending).
pub type ChannelHandler = Arc<dyn Fn(Message) + Send + Sync>;

enum ChannelEntry {
    /// A handler runs inline on the progress engine.
    Handled(ChannelHandler),
    /// No handler yet; messages are parked.
    Parked(Vec<Message>),
}

/// One registry shard: its first channel inline, any further ones in a
/// boxed map that exists only while a second channel is in the shard. A node with one channel per shard (every `world_ring` node)
/// dispatches by comparing one id, with no hash probe and no table to
/// fetch.
#[derive(Default)]
struct Shard {
    first: Option<(ChannelId, ChannelEntry)>,
    /// Present only while the shard holds two channels or more.
    extra: Option<Box<Overflow>>,
}

/// A shard's channels past its first. Boxed in the shard, so a shard
/// without any costs one pointer rather than an empty map.
#[derive(Default)]
struct Overflow(HashMap<ChannelId, ChannelEntry>);

impl Shard {
    fn get_mut(&mut self, channel: ChannelId) -> Option<&mut ChannelEntry> {
        match &mut self.first {
            Some((ch, entry)) if *ch == channel => Some(entry),
            _ => self.extra.as_mut()?.0.get_mut(&channel),
        }
    }

    /// Set `channel`'s entry, replacing any it had.
    fn insert(&mut self, channel: ChannelId, entry: ChannelEntry) {
        if let Some(old) = self.get_mut(channel) {
            *old = entry;
        } else if self.first.is_none() {
            self.first = Some((channel, entry));
        } else {
            self.extra.get_or_insert_default().0.insert(channel, entry);
        }
    }

    /// Take `channel`'s entry out. A removed inline channel makes room
    /// for one from the map, and an emptied map is dropped.
    fn remove(&mut self, channel: ChannelId) -> Option<ChannelEntry> {
        let extra = self.extra.as_mut().map(|extra| &mut extra.0);
        let entry = if self.first.as_ref().is_some_and(|(ch, _)| *ch == channel) {
            let promoted = extra.and_then(|map| {
                let ch = *map.keys().next()?;
                map.remove_entry(&ch)
            });
            std::mem::replace(&mut self.first, promoted).map(|(_, entry)| entry)
        } else {
            extra?.remove(&channel)
        };
        if self.extra.as_ref().is_some_and(|extra| extra.0.is_empty()) {
            self.extra = None;
        }
        entry
    }

    /// Channels the shard holds, handled or parked.
    #[cfg(test)]
    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.extra.as_ref().map_or(0, |extra| extra.0.len())
    }
}

/// The sharded channel registry of one node (see module docs).
struct ChannelMap {
    shards: [Mutex<Shard>; SHARD_COUNT],
    /// Messages currently parked across all shards, bounded by `budget`.
    parked_total: AtomicU32,
    parked_budget: u32,
}

impl ChannelMap {
    fn new(parked_budget: u32) -> ChannelMap {
        ChannelMap {
            shards: Default::default(),
            parked_total: AtomicU32::new(0),
            parked_budget,
        }
    }

    fn shard(&self, channel: ChannelId) -> &Mutex<Shard> {
        &self.shards[shard_index(channel)]
    }

    /// Reserve one slot of the parked budget; on exhaustion the message is
    /// counted dropped in `telemetry` and `false` is returned.
    fn try_park(&self, telemetry: &Telemetry) -> bool {
        if self.parked_total.load(Ordering::Relaxed) >= self.parked_budget {
            telemetry.counter_add("tm.parked.dropped", 1);
            return false;
        }
        self.parked_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Route one inbound message: run the channel's handler (outside the
    /// shard lock) or park it.
    ///
    /// A message shed because the parked budget is exhausted surfaces as
    /// a typed [`TmError::Overloaded`] (on top of the `tm.parked.dropped`
    /// counter), so callers that *can* react — local senders — tell
    /// shed-at-arbitration apart from link death; the remote inbound path
    /// has nobody to answer and keeps only the counter.
    fn dispatch(
        &self,
        telemetry: &Telemetry,
        channel: ChannelId,
        msg: Message,
    ) -> Result<(), TmError> {
        let mut shard = self.shard(channel).lock();
        let parked = match shard.get_mut(channel) {
            Some(ChannelEntry::Handled(handler)) => {
                // Run the handler outside the shard lock: it may send,
                // which can dispatch back into this very registry.
                let handler = Arc::clone(handler);
                drop(shard);
                handler(msg);
                return Ok(());
            }
            Some(ChannelEntry::Parked(parked)) => Some(parked),
            None => None,
        };
        if !self.try_park(telemetry) {
            return Err(TmError::Overloaded(format!(
                "parked budget full for {channel}"
            )));
        }
        match parked {
            Some(parked) => parked.push(msg),
            None => shard.insert(channel, ChannelEntry::Parked(vec![msg])),
        }
        Ok(())
    }

    /// Install `handler` on `channel`, replaying parked messages (if any)
    /// into it in arrival order before it goes live.
    fn install(
        &self,
        channel: ChannelId,
        node: NodeId,
        handler: ChannelHandler,
    ) -> Result<(), TmError> {
        let replay = {
            let mut shard = self.shard(channel).lock();
            let replay = match shard.get_mut(channel) {
                Some(ChannelEntry::Handled(_)) => {
                    return Err(TmError::Protocol(format!(
                        "channel {channel} already handled on {node}"
                    )))
                }
                Some(ChannelEntry::Parked(parked)) => {
                    self.parked_total
                        .fetch_sub(parked.len() as u32, Ordering::Relaxed);
                    std::mem::take(parked)
                }
                None => Vec::new(),
            };
            shard.insert(channel, ChannelEntry::Handled(Arc::clone(&handler)));
            replay
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
        let entry = self.shard(channel).lock().remove(channel);
        if let Some(ChannelEntry::Parked(v)) = &entry {
            self.parked_total
                .fetch_sub(v.len() as u32, Ordering::Relaxed);
        }
    }
}

/// The node-local state machine the world scheduler drives: the node's
/// channel registry, which demultiplexes each inbound [`Message`], plus a
/// deterministic per-node RNG stream for workloads that want seeded
/// per-node behaviour (think-time jitter in the world benches). It lives
/// inside the node's [`NetAccess`], which is the registered [`NodeStep`];
/// the scheduler serializes steps per node.
pub struct NodeCell {
    node: NodeId,
    map: ChannelMap,
    /// splitmix64 state, seeded from the node id: a per-node random
    /// stream that is a pure function of (node, draw index).
    rng: AtomicU64,
    steps: AtomicU64,
}

impl NodeCell {
    fn new(node: NodeId, map: ChannelMap) -> NodeCell {
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

/// The arbitration layer of one node: one heap record holding the node's
/// clock, its fabric endpoints and its [`NodeCell`], registered as the
/// node's step function.
pub struct NetAccess {
    clock: SimClock,
    /// The endpoint on the node's first fabric, inline: most nodes are
    /// wired to one fabric.
    first: Option<FabricEndpoint>,
    /// Endpoints on further fabrics.
    more: Box<[FabricEndpoint]>,
    cell: NodeCell,
    /// The world scheduler this node is registered with.
    sched: Arc<WorldSched>,
}

impl NodeStep for NetAccess {
    /// Process one inbound message: demultiplex it by channel id.
    /// Inbound shed has nobody to answer, so the drop is only counted
    /// (`tm.parked.dropped`).
    fn step(&self, msg: Message) {
        self.cell.steps.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .cell
            .map
            .dispatch(self.sched.telemetry(), msg.channel, msg);
    }
}

impl NetAccess {
    /// Attach to every fabric `node` is wired to and register the node
    /// with the topology's world scheduler: every attachment's inbound
    /// traffic becomes a scheduler event for this one record — no
    /// per-node thread at all. The scheduler holds the node weakly, so
    /// dropping the last handle shuts it down.
    ///
    /// Fails with [`TmError::Fabric`] if some exclusive NIC is already held
    /// by a raw client — the very conflict the paper describes.
    pub fn bring_up(
        topology: &Topology,
        node: NodeId,
        clock: SimClock,
    ) -> Result<Arc<NetAccess>, TmError> {
        let net = NetAccess::attach(topology, node, clock)?;
        net.sched.register(node, &(Arc::clone(&net) as NodeHandler));
        Ok(net)
    }

    /// [`NetAccess::bring_up`] short of the scheduler registration, which
    /// [`crate::PadicoTM::boot_all`] makes for a whole block of nodes at
    /// once.
    pub(crate) fn attach(
        topology: &Topology,
        node: NodeId,
        clock: SimClock,
    ) -> Result<Arc<NetAccess>, TmError> {
        let telemetry = topology.telemetry();
        let map = ChannelMap::new(PARKED_BUDGET);
        let sched = Arc::clone(topology.sched());
        let (mut first, mut more) = (None, Vec::new());
        for fabric in topology.fabrics_of(node) {
            // The scheduler itself is the sink: the fabric tells it the
            // destination, so no node needs a closure of its own.
            let sink: MessageSink = sched.clone();
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
                            telemetry.counter_add("tm.arbitration.mapping_table_short", 1);
                            break;
                        }
                    }
                }
            }
            match first {
                None => first = Some(endpoint),
                Some(_) => more.push(endpoint),
            }
        }
        Ok(Arc::new(NetAccess {
            clock,
            first,
            more: more.into_boxed_slice(),
            cell: NodeCell::new(node, map),
            sched,
        }))
    }

    /// The node's fabric endpoints, in bring-up order.
    fn endpoints(&self) -> impl Iterator<Item = &FabricEndpoint> {
        self.first.iter().chain(self.more.iter())
    }

    pub fn node(&self) -> NodeId {
        self.cell.node
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Fabrics this node's arbitration layer is attached to.
    pub fn fabrics(&self) -> Vec<Arc<SimFabric>> {
        self.endpoints().map(|a| Arc::clone(a.fabric())).collect()
    }

    /// The node's channel registry and RNG stream.
    pub fn cell(&self) -> &NodeCell {
        &self.cell
    }

    /// Claim a logical channel: `handler` runs inline on a world-scheduler
    /// worker for every message on it, parked messages replayed first.
    /// This is the only way traffic leaves the arbitration layer — a
    /// waiting node costs no blocked thread, which is how the `world_*`
    /// workloads express 100k concurrent state machines. The handler must
    /// not block; it may send (including back to the arriving fabric). A
    /// channel that already has a handler is refused.
    pub fn on_channel(&self, channel: ChannelId, handler: ChannelHandler) -> Result<(), TmError> {
        self.cell.map.install(channel, self.node(), handler)
    }

    /// Release a channel installed with [`NetAccess::on_channel`]: the
    /// handler (and everything it captured) is dropped, and later messages
    /// park as for any unclaimed channel. Idempotent. A handler may
    /// release its own channel; the running invocation finishes normally.
    pub fn off_channel(&self, channel: ChannelId) {
        self.cell.map.remove(channel);
    }

    /// Per-node recovery counters (remaps, retries charged by the
    /// abstraction layer): this node's slot in the world's telemetry,
    /// which sums every node's into `recovery.*`.
    pub fn recovery(&self) -> &RecoveryStats {
        self.sched.telemetry().node_recovery(self.node().0)
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
            .endpoints()
            .find(|a| a.fabric().id() == fabric)
            .ok_or_else(|| TmError::NoUsableFabric(format!("{fabric} not attached")))?;
        let dst_addr = EndpointAddr {
            node: dst,
            port: TM_SERVICE_PORT,
        };
        if !att.fabric().requires_mapping() {
            // No remap can follow, so the payload need not outlive the send.
            return att
                .send(&self.clock, dst_addr, channel, payload)
                .map_err(TmError::from);
        }
        match att.send(&self.clock, dst_addr, channel, payload.clone()) {
            Err(FabricError::NoMapping { .. }) => {
                // Re-establish on demand, then retry the send once. If the
                // mapping hardware is dead this surfaces LinkDown and the
                // caller fails over to another fabric.
                att.map_remote(dst)?;
                self.recovery()
                    .mapping_remaps
                    .fetch_add(1, Ordering::Relaxed);
                att.send(&self.clock, dst_addr, channel, payload)
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
                node: self.node(),
                port: TM_SERVICE_PORT,
            },
            channel,
            arrival: self.clock.now(),
            recv_cost: 0,
            corrupted: false,
            payload,
        };
        self.cell.map.dispatch(self.sched.telemetry(), channel, msg)
    }

    /// Unregister the node from the world scheduler: later events for it
    /// count as dropped, exactly like traffic into a powered-off NIC.
    /// Idempotent; also runs on drop, which releases the NICs.
    pub fn shutdown(&self) {
        self.sched.unregister(self.node());
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
            self.node(),
            self.endpoints().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Upper bound on any receive in these tests.
    const WAIT: Duration = Duration::from_secs(5);

    /// Claim `ch` on `net` with a handler that forwards every message to
    /// the returned receiver.
    fn collect(net: &NetAccess, ch: ChannelId) -> mpsc::Receiver<Message> {
        let (tx, rx) = mpsc::channel();
        net.on_channel(ch, Arc::new(move |msg| drop(tx.send(msg))))
            .unwrap();
        rx
    }

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
    fn short_sci_mapping_tables_are_counted() {
        // Two more peers than an SCI table holds: every node maps what
        // fits at bring-up and the shortfall lands in its world's counter.
        let mut b = Topology::builder();
        let n = padico_fabric::presets::SCI_MAPPING_LIMIT + 3;
        let ids = b.machine("n", "sci", n, padico_fabric::SecurityZone::Trusted);
        b.fabric(padico_fabric::presets::sci(), ids.clone());
        let topo = b.build();
        for &id in &ids {
            NetAccess::bring_up(&topo, id, SimClock::new()).unwrap();
        }
        let short = topo
            .telemetry()
            .metrics()
            .counter("tm.arbitration.mapping_table_short");
        assert_eq!(short, n as u64);
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
        let rx = collect(&b, ch);
        for (i, fabric) in a.fabrics().iter().enumerate() {
            a.send(fabric.id(), ids[1], ch, Payload::from_vec(vec![i as u8]))
                .unwrap();
            let msg = rx
                .recv_timeout(WAIT)
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
        b.on_channel(
            ch,
            Arc::new(move |msg: Message| sink.lock().push(msg.payload.to_vec())),
        )
        .unwrap();
        assert_eq!(*seen.lock(), vec![vec![1]], "parked message replayed");
        a.send(fid, ids[1], ch, Payload::from_vec(vec![2])).unwrap();
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        assert_eq!(*seen.lock(), vec![vec![1], vec![2]]);
        // Releasing the channel drops the handler and its captures; later
        // traffic parks until the next handler.
        b.off_channel(ch);
        assert_eq!(Arc::strong_count(&seen), 1, "handler dropped on release");
        a.send(fid, ids[1], ch, Payload::from_vec(vec![3])).unwrap();
        assert!(topo.sched().quiesce(Duration::from_secs(5)));
        assert_eq!(seen.lock().len(), 2, "a released channel runs no handler");
        let rx = collect(&b, ch);
        assert_eq!(rx.try_recv().unwrap().payload.to_vec(), vec![3]);
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
            (0..8)
                .map(|_| other.cell().rng_next())
                .collect::<Vec<u64>>(),
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
        let rx1 = collect(&b, ch1);
        let rx2 = collect(&b, ch2);
        let fid = myrinet_id(&a);
        a.send(fid, ids[1], ch2, Payload::from_vec(vec![2]))
            .unwrap();
        a.send(fid, ids[1], ch1, Payload::from_vec(vec![1]))
            .unwrap();
        assert_eq!(rx1.recv_timeout(WAIT).unwrap().payload.to_vec(), vec![1]);
        assert_eq!(rx2.recv_timeout(WAIT).unwrap().payload.to_vec(), vec![2]);
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
            let rx = collect(&b, ch);
            a.send(fid, ids[1], ch, Payload::from_vec(vec![0xEE]))
                .unwrap();
            let msg = rx.recv_timeout(WAIT).unwrap();
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
        a.send(fid, ids[1], ch, Payload::from_vec(vec![42]))
            .unwrap();
        // Let the progress engine park it.
        assert!(topo.sched().quiesce(WAIT));
        let rx = collect(&b, ch);
        let msg = rx.try_recv().expect("parked message replayed on claim");
        assert_eq!(msg.payload.to_vec(), vec![42]);
    }

    #[test]
    fn parked_messages_beyond_budget_are_dropped() {
        // Unit-level: a registry with a budget of 2 parks two messages and
        // drops the third; installing a handler replays exactly the
        // survivors and returns the budget.
        let telemetry = Telemetry::new();
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
        map.dispatch(&telemetry, ch, msg(1)).unwrap();
        map.dispatch(&telemetry, ch, msg(2)).unwrap();
        // Over budget: shed with a typed transient error, not queued.
        let err = map.dispatch(&telemetry, ch, msg(3)).unwrap_err();
        assert!(matches!(err, TmError::Overloaded(_)), "{err}");
        assert!(err.is_transient(), "shed-at-arbitration is retryable");
        assert!(!err.is_link_level(), "shed does not indict the fabric");
        assert_eq!(map.parked_total.load(Ordering::Relaxed), 2);
        assert_eq!(telemetry.metrics().counter("tm.parked.dropped"), 1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        map.install(
            ch,
            NodeId(0),
            Arc::new(move |m: Message| sink.lock().push(m.payload.to_vec())),
        )
        .unwrap();
        assert_eq!(
            *seen.lock(),
            vec![vec![1], vec![2]],
            "third message was dropped"
        );
        assert_eq!(
            map.parked_total.load(Ordering::Relaxed),
            0,
            "budget returned"
        );
    }

    /// A [`ChannelMap`] entry as the differential model keeps it.
    enum Model {
        /// Handled by the handler with this tag.
        Handled(u64),
        /// Parked message ids, in arrival order.
        Parked(Vec<u64>),
    }

    fn parked_in(model: &HashMap<ChannelId, Model>) -> u32 {
        model
            .values()
            .map(|e| match e {
                Model::Parked(ids) => ids.len() as u32,
                Model::Handled(_) => 0,
            })
            .sum()
    }

    /// Random install/remove/dispatch sequences over a few channels and a
    /// small parked budget, checked step by step against a `HashMap`
    /// model: handler runs and parked replays (tag and message id, in
    /// order), refusals, the parked total and the dropped counter. Six
    /// channels over two shards move shards between no channel, one inline
    /// and a spilled map, and back.
    fn registry_case(rng: &mut proptest::TestRng) {
        let budget = 1 + rng.below(6) as u32;
        let telemetry = Telemetry::new();
        let map = ChannelMap::new(budget);
        let mut model: HashMap<ChannelId, Model> = HashMap::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut expected = Vec::new();
        let (mut dropped, mut next_id) = (0, 0);
        for tag in 0..300u64 {
            let ch = ChannelId(rng.below(6));
            match rng.below(4) {
                0 => {
                    let log = Arc::clone(&seen);
                    let handler: ChannelHandler =
                        Arc::new(move |m: Message| log.lock().push((tag, m.arrival)));
                    let got = map.install(ch, NodeId(0), handler);
                    match model.get(&ch) {
                        Some(Model::Handled(_)) => {
                            assert!(matches!(got, Err(TmError::Protocol(_))), "{got:?}")
                        }
                        parked => {
                            assert!(got.is_ok(), "{got:?}");
                            if let Some(Model::Parked(ids)) = parked {
                                expected.extend(ids.iter().map(|&id| (tag, id)));
                            }
                            model.insert(ch, Model::Handled(tag));
                        }
                    }
                }
                1 => {
                    map.remove(ch);
                    model.remove(&ch);
                }
                _ => {
                    let id = next_id;
                    next_id += 1;
                    let msg = Message {
                        src: EndpointAddr {
                            node: NodeId(1),
                            port: TM_SERVICE_PORT,
                        },
                        channel: ch,
                        arrival: id,
                        recv_cost: 0,
                        corrupted: false,
                        payload: Payload::from_vec(Vec::new()),
                    };
                    let parked = parked_in(&model);
                    let got = map.dispatch(&telemetry, ch, msg);
                    match model.get_mut(&ch) {
                        Some(Model::Handled(tag)) => {
                            assert!(got.is_ok());
                            expected.push((*tag, id));
                        }
                        _ if parked >= budget => {
                            assert!(matches!(got, Err(TmError::Overloaded(_))), "{got:?}");
                            dropped += 1;
                        }
                        Some(Model::Parked(ids)) => {
                            assert!(got.is_ok());
                            ids.push(id);
                        }
                        None => {
                            assert!(got.is_ok());
                            model.insert(ch, Model::Parked(vec![id]));
                        }
                    }
                }
            }
            assert_eq!(*seen.lock(), expected, "handler runs and replays");
            assert_eq!(map.parked_total.load(Ordering::Relaxed), parked_in(&model));
            for (i, shard) in map.shards.iter().enumerate() {
                let shard = shard.lock();
                let held = model.keys().filter(|&&ch| shard_index(ch) == i).count();
                assert_eq!(shard.len(), held, "shard {i}");
                let table = shard.extra.is_some();
                assert_eq!(table, held >= 2, "shard {i}: a table past one channel only");
            }
        }
        assert_eq!(telemetry.metrics().counter("tm.parked.dropped"), dropped);
    }

    proptest! {
        #[test]
        fn registry_matches_a_hash_map_model(seed in any::<u64>()) {
            registry_case(&mut proptest::TestRng::new(seed));
        }
    }

    #[test]
    fn double_subscribe_is_rejected() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        net.on_channel(ch, Arc::new(|_| {})).unwrap();
        let err = net.on_channel(ch, Arc::new(|_| {})).unwrap_err();
        assert!(matches!(err, TmError::Protocol(_)), "{err}");
    }

    #[test]
    fn unsubscribe_on_drop_allows_resubscription() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        net.on_channel(ch, Arc::new(|_| {})).unwrap();
        net.off_channel(ch);
        assert!(net.on_channel(ch, Arc::new(|_| {})).is_ok());
    }

    #[test]
    fn send_local_skips_the_wire() {
        let (topo, ids) = single_cluster(1);
        let net = NetAccess::bring_up(&topo, ids[0], SimClock::new()).unwrap();
        let ch = fresh_channel();
        let rx = collect(&net, ch);
        let before = net.clock().now();
        net.send_local(ch, Payload::from_vec(vec![9, 9])).unwrap();
        let msg = rx.try_recv().expect("dispatched inline");
        msg.deliver(net.clock());
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
        let inbox = crate::driver::Inbox::attach(&net, fresh_channel()).unwrap();
        let err = inbox.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)), "{err}");
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
                let rx = collect(&b, ch);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    for _ in 0..PER_FLOW {
                        let msg = rx.recv_timeout(WAIT).unwrap();
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
