//! The simulated fabric engine.
//!
//! One [`SimFabric`] instance models one physical network (e.g. "the
//! Myrinet-2000 SAN of cluster A"). Nodes *attach* to obtain a
//! [`FabricEndpoint`]; endpoints exchange [`Message`]s whose bytes really
//! travel (each handed to the destination port's [`MessageSink`] on the
//! sender's thread) and whose timing is charged to the participants'
//! virtual clocks according to the fabric's [`LinkModel`].
//!
//! Every member node owns a slot holding its two NIC engines and its port
//! and mapping tables. A send reads only its source and destination
//! slots, so sends between disjoint node pairs share no lock. Binding a
//! service port on a shared fabric takes its slot's lock alone, so the
//! nodes of a world attach side by side; ephemeral ports and exclusive
//! holders are bookkept under one attach-time mutex no send touches.
//!
//! ## Resource semantics (why arbitration exists)
//!
//! * A fabric with [`AccessMode::Exclusive`] grants **one endpoint per
//!   node** — like Myrinet driven through BIP or GM, where a NIC belongs to
//!   a single process-level client. Two middleware systems that each try to
//!   open the SAN directly conflict; PadicoTM attaches once and multiplexes.
//! * A fabric with a `mapping_limit` (SCI-style) requires an established
//!   mapping to each peer before sending, and the per-node mapping table is
//!   bounded.
//!
//! ## Timing model
//!
//! Each node has a NIC with a transmit and a receive engine: a
//! [`RetiringTimeline`] and a [`ResourceTimeline`]. A send:
//!
//! 1. charges the sender's clock the pre-wire cost (driver overhead,
//!    rendezvous round-trip for large SAN messages, kernel copy on socket
//!    paths — the copy is *physically performed* too);
//! 2. reserves the sender's TX engine and the receiver's RX engine for the
//!    wire time (cut-through: RX starts with TX, so a single flow is
//!    serialized once, while competing flows on either NIC queue up —
//!    which is exactly how concurrent CORBA + MPI streams end up splitting
//!    Myrinet's 250 MB/s in §4.4). The TX engine reads the sender's clock
//!    under its own lock and first drops every interval that ended by
//!    then: only the node's own clock sends from it, and that clock only
//!    moves forward, so TX history stays a couple of intervals long and
//!    each grant is the one the full history would give. A send from a
//!    second clock stops that, and one reading behind what was already
//!    dropped is refused ([`FabricError::BehindRetired`]). The RX engine,
//!    which every sender reserves, keeps its whole history;
//! 3. blocks the sender (in virtual time) until its TX engine is done;
//! 4. stamps the message with `arrival = rx_end + latency`; the consumer
//!    merges its clock to the stamp and pays the receive cost when it
//!    takes delivery ([`Message::deliver`]).

use crate::error::FabricError;
use crate::faults::{FaultInjector, FaultPlan, FaultSnapshot, Verdict};
use crate::model::LinkModel;
use crate::payload::Payload;
use padico_util::ids::{ChannelId, FabricId, NodeId};
use padico_util::simtime::{ResourceTimeline, RetiringTimeline, SimClock, Vt, VtDuration};
use padico_util::telemetry::CounterCell;
use padico_util::Telemetry;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

/// Network technology family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FabricKind {
    /// Myrinet-2000-style SAN.
    Myrinet,
    /// SCI-style SAN with bounded mapping tables.
    Sci,
    /// Switched Fast-Ethernet LAN (TCP).
    Ethernet,
    /// Wide-area network (TCP).
    Wan,
    /// Intra-machine shared memory.
    Shmem,
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FabricKind::Myrinet => "myrinet",
            FabricKind::Sci => "sci",
            FabricKind::Ethernet => "ethernet",
            FabricKind::Wan => "wan",
            FabricKind::Shmem => "shmem",
        };
        f.write_str(s)
    }
}

/// Which communication paradigm the hardware is oriented towards — the
/// paper's arbitration layer keeps the two separate "with the most
/// appropriate method" instead of bending both onto one API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Paradigm {
    /// Static-group, message-oriented (SANs, parallel machines).
    Parallel,
    /// Dynamic, stream/connection-oriented (LAN/WAN sockets).
    Distributed,
}

/// Endpoint admission policy of the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// One endpoint per node (BIP/GM-style NIC ownership).
    Exclusive,
    /// Any number of endpoints per node (kernel-mediated sockets).
    Shared,
}

/// Address of an endpoint within one fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EndpointAddr {
    pub node: NodeId,
    pub port: u16,
}

impl fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// First ephemeral port; [`SimFabric::attach`] allocates from here to
/// `u16::MAX`, then wraps. Well-known service ports (used by PadicoTM
/// instances) live below.
pub const EPHEMERAL_PORT_BASE: u16 = 1024;

/// The first ephemeral port at or cyclically after `next` that `taken`
/// refuses, or `None` when every ephemeral port is taken.
fn free_ephemeral(next: u16, taken: impl Fn(u16) -> bool) -> Option<u16> {
    let span = u32::from(u16::MAX - EPHEMERAL_PORT_BASE) + 1;
    let from = u32::from(next.max(EPHEMERAL_PORT_BASE) - EPHEMERAL_PORT_BASE);
    (0..span)
        .map(|i| EPHEMERAL_PORT_BASE + ((from + i) % span) as u16)
        .find(|&port| !taken(port))
}

/// A message in flight or delivered.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sender address.
    pub src: EndpointAddr,
    /// Logical multiplexing channel (interpreted by the arbitration layer).
    pub channel: ChannelId,
    /// Virtual time at which the message reaches the destination NIC.
    pub arrival: Vt,
    /// Receive-side cost to charge on delivery (upcall + kernel copy).
    pub recv_cost: VtDuration,
    /// Set by fault injection: the bytes were damaged on the wire. A
    /// receiver models CRC detection by discarding the message (after
    /// paying delivery cost — the hardware received it before checking).
    pub corrupted: bool,
    /// The bytes.
    pub payload: Payload,
}

impl Message {
    /// Take delivery: merge `clock` to the arrival time and charge the
    /// receive cost. Call exactly once, in the final consumer.
    pub fn deliver(&self, clock: &SimClock) -> Vt {
        clock.merge_to(self.arrival);
        clock.advance(self.recv_cost)
    }
}

/// Delivery target of a port: [`PortSink::accept`] runs once per inbound
/// [`Message`] with the destination node, on the sender's thread, while
/// the send holds the destination's tables for reading. It must only hand
/// the message on (enqueue it, wake a handler): never block, and never
/// attach or detach on the destination node.
///
/// Any `Fn(Message)` closure is one, for a sink that serves one port.
/// One sink can also serve every node of a world, since it is told the
/// destination: the world scheduler is its own sink, and the arbitration
/// layer binds it to every node's service port, so a hop touches no
/// per-node closure.
pub trait PortSink: Send + Sync {
    fn accept(&self, node: NodeId, msg: Message);
}

impl<F: Fn(Message) + Send + Sync> PortSink for F {
    fn accept(&self, _node: NodeId, msg: Message) {
        self(msg)
    }
}

/// A bound sink. Every attachment installs one: [`SimFabric::attach`] a
/// closure feeding its endpoint's own queue, the arbitration layer the
/// world scheduler.
pub type MessageSink = Arc<dyn PortSink>;

/// A bound port and the sink its traffic goes to.
type Port = (u16, MessageSink);

/// One member node's share of the fabric: its NIC engines and the tables
/// a send reads. A send touches only its source and destination slots.
struct NodeSlot {
    /// NIC transmit engine. Only this node's clock reserves it (the
    /// arbitration layer sends every frame with it), so it retires its
    /// past.
    tx: RetiringTimeline,
    /// NIC receive engine. Every sender in the world reserves it, at
    /// times no single clock bounds, so it keeps its whole history.
    rx: ResourceTimeline,
    /// Written only by attach, detach and (un)mapping; sends read it.
    tables: RwLock<NodeTables>,
}

#[derive(Default)]
struct NodeTables {
    /// The first bound port, inline: a node attached once (every booted
    /// node) allocates nothing for its tables.
    first: Option<Port>,
    /// Allocated only by a node that binds a second port or maps a peer.
    extra: Option<Box<ExtraTables>>,
}

#[derive(Default)]
struct ExtraTables {
    /// Ports bound beyond the first.
    ports: Vec<Port>,
    /// SCI-style mapping table: the peers this node has mapped.
    mapped: Vec<NodeId>,
}

impl NodeTables {
    fn sink(&self, port: u16) -> Option<&MessageSink> {
        self.first
            .iter()
            .chain(self.extra.iter().flat_map(|x| &x.ports))
            .find(|(p, _)| *p == port)
            .map(|(_, sink)| sink)
    }

    fn mapped(&self) -> &[NodeId] {
        self.extra.as_ref().map_or(&[], |x| &x.mapped)
    }

    fn extra_mut(&mut self) -> &mut ExtraTables {
        self.extra.get_or_insert_with(Box::default)
    }

    fn bind(&mut self, port: u16, sink: MessageSink) {
        if self.first.is_none() {
            self.first = Some((port, sink));
        } else {
            self.extra_mut().ports.push((port, sink));
        }
    }

    fn unbind(&mut self, port: u16) {
        if self.first.as_ref().is_some_and(|(p, _)| *p == port) {
            self.first = self.extra.as_mut().and_then(|x| x.ports.pop());
        } else if let Some(x) = &mut self.extra {
            x.ports.retain(|(p, _)| *p != port);
        }
    }
}

/// Fabric-wide attach bookkeeping, for exclusive fabrics and ephemeral
/// ports; no send reads it, and a service port on a shared fabric binds
/// without it.
#[derive(Default)]
struct AttachState {
    /// For exclusive fabrics: which client holds the NIC on each node.
    exclusive_holder: HashMap<NodeId, &'static str>,
    /// Next ephemeral port per node.
    next_ephemeral: HashMap<NodeId, u16>,
}

/// One simulated network.
pub struct SimFabric {
    id: FabricId,
    kind: FabricKind,
    paradigm: Paradigm,
    access: AccessMode,
    model: LinkModel,
    /// `Some(limit)` for SCI-style bounded mapping tables.
    mapping_limit: Option<usize>,
    members: Vec<NodeId>,
    /// Lowest member id; `positions` starts there, so a fabric wiring
    /// one machine of a large world costs only that machine's id range.
    first_id: u32,
    /// `positions[id - first_id]` is the node's index in `slots`
    /// (`u32::MAX` for a non-member): membership and slot lookups are
    /// O(1) on the boot path of every node of a 100k-node world.
    positions: Vec<u32>,
    slots: Vec<NodeSlot>,
    /// `bytes.<kind>` in the world's telemetry: a send adds to it
    /// without taking the registry lock.
    bytes: Arc<CounterCell>,
    /// Pre-rendered `tx:<kind>` span name of every send.
    tx_span: String,
    attach: Mutex<AttachState>,
    faults: FaultInjector,
}

impl fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SimFabric({} {} members={:?})",
            self.id,
            self.model.name,
            self.members.iter().map(|n| n.0).collect::<Vec<_>>()
        )
    }
}

impl SimFabric {
    /// Create a fabric connecting `members`, counting its wire bytes into
    /// `telemetry`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: FabricId,
        kind: FabricKind,
        paradigm: Paradigm,
        access: AccessMode,
        model: LinkModel,
        mapping_limit: Option<usize>,
        members: Vec<NodeId>,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        let first_id = members.iter().map(|n| n.0).min().unwrap_or(0);
        let span = members
            .iter()
            .map(|n| n.0 - first_id + 1)
            .max()
            .unwrap_or(0);
        let mut positions = vec![u32::MAX; span as usize];
        let mut slots = Vec::with_capacity(members.len());
        for n in &members {
            let pos = &mut positions[(n.0 - first_id) as usize];
            if *pos == u32::MAX {
                *pos = slots.len() as u32;
                slots.push(NodeSlot {
                    tx: RetiringTimeline::new(),
                    rx: ResourceTimeline::new(),
                    tables: RwLock::new(NodeTables::default()),
                });
            }
        }
        Arc::new(SimFabric {
            id,
            kind,
            paradigm,
            access,
            model,
            mapping_limit,
            members,
            first_id,
            positions,
            slots,
            bytes: telemetry.counter_cell(&format!("bytes.{kind}")),
            tx_span: format!("tx:{kind}"),
            attach: Mutex::new(AttachState::default()),
            faults: FaultInjector::new(),
        })
    }

    pub fn id(&self) -> FabricId {
        self.id
    }

    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    pub fn paradigm(&self) -> Paradigm {
        self.paradigm
    }

    pub fn access_mode(&self) -> AccessMode {
        self.access
    }

    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Nodes connected by this fabric.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// `node`'s slot, or `None` if it is not wired to this fabric.
    fn slot(&self, node: NodeId) -> Option<&NodeSlot> {
        let at = node.0.checked_sub(self.first_id)?;
        // A non-member's `u32::MAX` is past the end of `slots`.
        self.slots.get(*self.positions.get(at as usize)? as usize)
    }

    /// Whether `node` is wired to this fabric.
    pub fn has_member(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    /// Whether sends require an established mapping (SCI-style).
    pub fn requires_mapping(&self) -> bool {
        self.mapping_limit.is_some()
    }

    /// Attach with an ephemeral port. Inbound messages queue on the
    /// endpoint until [`FabricEndpoint::recv`] takes them.
    pub fn attach(
        self: &Arc<Self>,
        node: NodeId,
        client: &'static str,
    ) -> Result<FabricEndpoint, FabricError> {
        let (tx, rx) = mpsc::channel();
        let sink: MessageSink = Arc::new(move |msg| {
            // The receiver lives as long as the port is bound.
            let _ = tx.send(msg);
        });
        let mut endpoint = self.attach_inner(node, None, client, sink)?;
        endpoint.inbox = Some(Box::new(Mutex::new(rx)));
        Ok(endpoint)
    }

    /// Attach at a well-known service port (< [`EPHEMERAL_PORT_BASE`]),
    /// delivering inbound messages through `sink`. This is how the
    /// arbitration layer feeds *all* of a node's fabrics into the node's
    /// handlers. The returned endpoint has no queue of its own:
    /// [`FabricEndpoint::recv`] reports [`FabricError::Closed`].
    pub fn attach_service_sink(
        self: &Arc<Self>,
        node: NodeId,
        port: u16,
        client: &'static str,
        sink: MessageSink,
    ) -> Result<FabricEndpoint, FabricError> {
        assert!(
            port < EPHEMERAL_PORT_BASE,
            "service ports must be < {EPHEMERAL_PORT_BASE}"
        );
        self.attach_inner(node, Some(port), client, sink)
    }

    fn attach_inner(
        self: &Arc<Self>,
        node: NodeId,
        port: Option<u16>,
        client: &'static str,
        sink: MessageSink,
    ) -> Result<FabricEndpoint, FabricError> {
        let slot = self.slot(node).ok_or(FabricError::NotMember(node))?;
        let exclusive = self.access == AccessMode::Exclusive;
        // A service port on a shared fabric needs its node's tables only:
        // nodes of a world booting side by side share no lock.
        let mut st = (exclusive || port.is_none()).then(|| self.attach.lock());
        if let Some(holder) = st.as_ref().and_then(|st| st.exclusive_holder.get(&node)) {
            return Err(FabricError::Busy {
                node,
                holder: holder.to_string(),
            });
        }
        let mut tables = slot.tables.write();
        let port = match port {
            Some(p) => {
                if tables.sink(p).is_some() {
                    return Err(FabricError::PortTaken { node, port: p });
                }
                p
            }
            None => {
                let st = st
                    .as_mut()
                    .expect("an ephemeral attach holds the attach lock");
                let next = *st.next_ephemeral.get(&node).unwrap_or(&EPHEMERAL_PORT_BASE);
                let port = free_ephemeral(next, |p| tables.sink(p).is_some())
                    .ok_or(FabricError::PortsExhausted { node })?;
                // Past u16::MAX, `free_ephemeral` wraps to the base.
                st.next_ephemeral.insert(node, port.wrapping_add(1));
                port
            }
        };
        tables.bind(port, sink);
        if let Some(st) = st.as_mut().filter(|_| exclusive) {
            st.exclusive_holder.insert(node, client);
        }
        Ok(FabricEndpoint {
            fabric: Arc::clone(self),
            addr: EndpointAddr { node, port },
            inbox: None,
        })
    }

    /// Establish an SCI-style mapping from `from` to `to`, consuming one
    /// entry of `from`'s bounded mapping table. Idempotent.
    pub fn map_remote(&self, from: NodeId, to: NodeId) -> Result<(), FabricError> {
        let limit = match self.mapping_limit {
            Some(l) => l,
            None => return Ok(()), // no mapping discipline on this hardware
        };
        let slot = self.slot(from).ok_or(FabricError::NotMember(from))?;
        if !self.has_member(to) {
            return Err(FabricError::NotMember(to));
        }
        if self.faults.mappings_dead(from) {
            self.faults.note_mapping_refusal();
            return Err(FabricError::LinkDown { from, to });
        }
        let mut tables = slot.tables.write();
        if !tables.mapped().contains(&to) {
            if tables.mapped().len() >= limit {
                return Err(FabricError::MappingLimit { node: from, limit });
            }
            tables.extra_mut().mapped.push(to);
        }
        Ok(())
    }

    /// Release a mapping entry.
    pub fn unmap_remote(&self, from: NodeId, to: NodeId) {
        if let Some(slot) = self.slot(from) {
            if let Some(x) = &mut slot.tables.write().extra {
                x.mapped.retain(|&n| n != to);
            }
        }
    }

    /// Number of mapping-table entries in use on `node`.
    pub fn mappings_in_use(&self, node: NodeId) -> usize {
        self.slot(node)
            .map_or(0, |s| s.tables.read().mapped().len())
    }

    /// The fabric's fault injector (inert until armed).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Install a probabilistic fault plan on this fabric.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Remove the probabilistic fault plan (partitions/dead hardware stay).
    pub fn clear_fault_plan(&self) {
        self.faults.clear_plan();
    }

    /// Simulate `node`'s SAN mapping hardware dying: all of its established
    /// mappings vanish and re-establishment fails with
    /// [`FabricError::LinkDown`] until [`SimFabric::revive_mappings`].
    /// No-op semantics on fabrics without a mapping discipline (nothing to
    /// lose), but the refusal of future `map_remote` calls still applies.
    pub fn kill_mappings(&self, node: NodeId) {
        self.faults.kill_mappings(node);
        if let Some(slot) = self.slot(node) {
            if let Some(x) = &mut slot.tables.write().extra {
                x.mapped.clear();
            }
        }
    }

    /// Revive `node`'s mapping hardware; mappings must be re-established.
    pub fn revive_mappings(&self, node: NodeId) {
        self.faults.revive_mappings(node);
    }

    /// Snapshot of injected-fault counters.
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.faults.counters()
    }

    /// Busy intervals the NIC engines hold now, summed over members:
    /// `(tx, rx)`. Transmit engines retire their past; receive engines
    /// keep it all.
    pub fn retained_intervals(&self) -> (usize, usize) {
        self.slots.iter().fold((0, 0), |(tx, rx), s| {
            (tx + s.tx.retained(), rx + s.rx.retained())
        })
    }

    fn send_from(
        &self,
        src: EndpointAddr,
        clock: &SimClock,
        dst: EndpointAddr,
        channel: ChannelId,
        payload: Payload,
    ) -> Result<Vt, FabricError> {
        // The span wraps the whole driver-level send, failures included:
        // a trace of a failover shows the refused attempt on the dead
        // fabric next to the retry on the surviving one.
        let mut span =
            padico_util::span::child(clock, src.node.0, "fabric.link", self.tx_span.as_str());
        let len = payload.len();
        let result = self.send_from_inner(src, clock, dst, channel, payload);
        match &result {
            Ok(done) => {
                span.end_at(*done);
                // Bytes that occupied the wire (a fault-dropped message
                // still did — the sender paid in full).
                self.bytes.add(len as u64);
            }
            // Refused sends charge no time: the span is a zero-length
            // mark of the failed attempt.
            Err(_) => span.end_at(0),
        }
        drop(span);
        result
    }

    fn send_from_inner(
        &self,
        src: EndpointAddr,
        clock: &SimClock,
        dst: EndpointAddr,
        channel: ChannelId,
        payload: Payload,
    ) -> Result<Vt, FabricError> {
        // Only the two endpoints' slots are read: sends on disjoint node
        // pairs share no lock.
        let dst_slot = self
            .slot(dst.node)
            .ok_or(FabricError::NotMember(dst.node))?;
        let src_slot = self
            .slot(src.node)
            .expect("endpoints attach to member nodes");
        // Link-level faults refuse the send before any time is charged:
        // a partitioned or flapping link fails fast at the driver.
        self.faults.check_link(src.node, dst.node, clock.now())?;
        if self.requires_mapping()
            && src.node != dst.node
            && !src_slot.tables.read().mapped().contains(&dst.node)
        {
            return Err(FabricError::NoMapping {
                from: src.node,
                to: dst.node,
            });
        }
        // Look up the destination's sink up front so no time is charged
        // for a failed send, and hold its tables until the sink has the
        // message: the port cannot go between charging and delivery.
        let dst_tables = dst_slot.tables.read();
        let sink = dst_tables.sink(dst.port).ok_or(FabricError::Unreachable {
            to: dst.node,
            port: dst.port,
        })?;

        let len = payload.len();
        // Roll the deterministic fault stream for this link. The verdict is
        // decided before the transfer but applied after: a dropped message
        // still costs the sender the full send (it cannot know the packet
        // died), and a corrupted one still occupies both NICs.
        let (verdict, extra_delay) = self.faults.roll(src.node, dst.node);
        // 1. Pre-wire sender cost (driver overhead, rendezvous, kernel copy).
        clock.advance(self.model.pre_wire_sender_cost(len));
        // The kernel copy is physically performed: the payload crosses into
        // a fresh "kernel buffer" on socket-style fabrics. One gather-copy,
        // matching the single copy `pre_wire_sender_cost` charges.
        let payload = if self.model.kernel_copy && len > 0 {
            Payload::from_bytes(payload.to_pooled_contiguous())
        } else {
            payload
        };
        // 2. Reserve NIC engines (cut-through: RX shadows TX). The TX
        // engine reads `clock` itself, under its lock.
        let wire = self.model.wire_time(len);
        let tx_res = src_slot
            .tx
            .reserve(clock, wire)
            .map_err(|e| FabricError::BehindRetired {
                node: src.node,
                at: e.at,
                retired: e.retired,
            })?;
        let rx_res = dst_slot.rx.reserve(tx_res.start, wire);
        // 3. The sender is occupied until the receiving NIC has accepted
        // the message: Myrinet has link-level flow control and TCP a
        // bounded window, so a busy receiver back-pressures the sender.
        let done = tx_res.end.max(rx_res.end);
        clock.merge_to(done);
        // 4. Stamp and hand to the sink (unless the fault stream ate it).
        if verdict == Verdict::Drop {
            return Ok(done); // silently lost on the wire; sender paid in full
        }
        let msg = Message {
            src,
            channel,
            arrival: done + self.model.latency_ns + extra_delay,
            recv_cost: self.model.recv_cost(len),
            corrupted: verdict == Verdict::Corrupt,
            payload,
        };
        sink.accept(dst.node, msg);
        Ok(done)
    }

    fn detach(&self, addr: EndpointAddr) {
        // The attach lock first, as in `attach_inner`; a shared fabric
        // keeps no holder to release.
        let exclusive = self.access == AccessMode::Exclusive;
        let st = exclusive.then(|| self.attach.lock());
        if let Some(slot) = self.slot(addr.node) {
            slot.tables.write().unbind(addr.port);
        }
        if let Some(mut st) = st {
            st.exclusive_holder.remove(&addr.node);
        }
    }
}

/// A live attachment of one client to one fabric on one node.
pub struct FabricEndpoint {
    fabric: Arc<SimFabric>,
    addr: EndpointAddr,
    /// The queue an [`SimFabric::attach`] endpoint's sink feeds; `None`
    /// when the caller supplied the sink. Boxed: the arbitration layer's
    /// endpoints, one inline in every node, have none.
    inbox: Option<Box<Mutex<Receiver<Message>>>>,
}

impl fmt::Debug for FabricEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FabricEndpoint({} on {})", self.addr, self.fabric.id)
    }
}

impl FabricEndpoint {
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    pub fn fabric(&self) -> &Arc<SimFabric> {
        &self.fabric
    }

    /// Send `payload` to `dst` on logical `channel`, charging `clock`.
    /// Returns the virtual time at which the sender's NIC is free again
    /// (the send-completion stamp, a pure function of the traffic so far).
    pub fn send(
        &self,
        clock: &SimClock,
        dst: EndpointAddr,
        channel: ChannelId,
        payload: Payload,
    ) -> Result<Vt, FabricError> {
        self.fabric
            .send_from(self.addr, clock, dst, channel, payload)
    }

    /// Blocking receive that takes delivery: merges `clock` to the arrival
    /// time and charges the receive cost. Reports [`FabricError::Closed`]
    /// on an endpoint whose caller supplied the sink.
    pub fn recv(&self, clock: &SimClock) -> Result<Message, FabricError> {
        let inbox = self.inbox.as_ref().ok_or(FabricError::Closed)?;
        let msg = inbox.lock().recv().map_err(|_| FabricError::Closed)?;
        msg.deliver(clock);
        Ok(msg)
    }

    /// Establish an SCI-style mapping from this node to `to`.
    pub fn map_remote(&self, to: NodeId) -> Result<(), FabricError> {
        self.fabric.map_remote(self.addr.node, to)
    }

    /// Release an SCI-style mapping.
    pub fn unmap_remote(&self, to: NodeId) {
        self.fabric.unmap_remote(self.addr.node, to)
    }
}

impl Drop for FabricEndpoint {
    fn drop(&mut self) {
        self.fabric.detach(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use padico_util::simtime::US;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn two_node_myrinet() -> Arc<SimFabric> {
        presets::myrinet2000().build(FabricId(0), vec![NodeId(0), NodeId(1)], Telemetry::new())
    }

    fn two_node_ethernet() -> Arc<SimFabric> {
        presets::ethernet100().build(FabricId(1), vec![NodeId(0), NodeId(1)], Telemetry::new())
    }

    fn noop_sink() -> MessageSink {
        Arc::new(|_: Message| {})
    }

    #[test]
    fn bytes_travel_bit_exact() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "test").unwrap();
        let b = fab.attach(NodeId(1), "test").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        let data = padico_util::rng::payload(1, "fabric", 4096);
        a.send(&ca, b.addr(), ChannelId(7), Payload::from_vec(data.clone()))
            .unwrap();
        let msg = b.recv(&cb).unwrap();
        assert_eq!(msg.payload.to_vec(), data);
        assert_eq!(msg.channel, ChannelId(7));
        assert_eq!(msg.src, a.addr());
    }

    #[test]
    fn virtual_time_advances_on_both_sides() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "test").unwrap();
        let b = fab.attach(NodeId(1), "test").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        a.send(
            &ca,
            b.addr(),
            ChannelId(0),
            Payload::from_vec(vec![0; 1024]),
        )
        .unwrap();
        assert!(ca.now() > 0, "sender charged");
        let msg = b.recv(&cb).unwrap();
        assert!(cb.now() >= msg.arrival, "receiver merged to arrival");
        assert!(msg.arrival > ca.now() - fab.model().wire_time(1024));
    }

    #[test]
    fn small_message_one_way_latency_in_myrinet_ballpark() {
        // Fabric-level one-way time for a tiny message should be well under
        // the 11 µs the paper reports for MPI (which adds protocol cost).
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1; 4]))
            .unwrap();
        b.recv(&cb).unwrap();
        let one_way_us = cb.now() as f64 / US as f64;
        assert!(
            (4.0..11.0).contains(&one_way_us),
            "raw Myrinet one-way {one_way_us} µs should be between 4 and 11"
        );
    }

    #[test]
    fn large_message_bandwidth_near_line_rate() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        let len = 1 << 20;
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![7; len]))
            .unwrap();
        b.recv(&cb).unwrap();
        let bw = padico_util::stats::mb_per_s(len, cb.now());
        assert!(
            (225.0..250.0).contains(&bw),
            "1 MiB over Myrinet: {bw} MB/s, expected ≈240"
        );
    }

    #[test]
    fn ethernet_much_slower_than_myrinet() {
        let eth = two_node_ethernet();
        let a = eth.attach(NodeId(0), "t").unwrap();
        let b = eth.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        let len = 1 << 20;
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![7; len]))
            .unwrap();
        b.recv(&cb).unwrap();
        let bw = padico_util::stats::mb_per_s(len, cb.now());
        assert!(
            (8.0..12.5).contains(&bw),
            "1 MiB over Fast-Ethernet TCP: {bw} MB/s, expected ≈11"
        );
    }

    #[test]
    fn exclusive_fabric_refuses_second_client() {
        let fab = two_node_myrinet();
        let _held = fab.attach(NodeId(0), "corba").unwrap();
        let err = fab.attach(NodeId(0), "mpi").unwrap_err();
        assert_eq!(
            err,
            FabricError::Busy {
                node: NodeId(0),
                holder: "corba".into()
            }
        );
        // Other nodes unaffected.
        assert!(fab.attach(NodeId(1), "mpi").is_ok());
    }

    #[test]
    fn exclusive_nic_released_on_drop() {
        let fab = two_node_myrinet();
        {
            let _held = fab.attach(NodeId(0), "first").unwrap();
        }
        assert!(fab.attach(NodeId(0), "second").is_ok());
    }

    #[test]
    fn shared_fabric_allows_many_clients() {
        let fab = two_node_ethernet();
        let _a = fab.attach(NodeId(0), "corba").unwrap();
        let _b = fab.attach(NodeId(0), "mpi").unwrap();
        let _c = fab.attach(NodeId(0), "soap").unwrap();
    }

    /// A send reads its source and destination slots, out of a vector
    /// far larger than the caches: a wider slot is more lines fetched
    /// per hop (a 144-byte slot cost `world_ring` 5–8 % of its events/s).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_slot_stays_136_bytes() {
        assert_eq!(std::mem::size_of::<Option<Port>>(), 24);
        assert_eq!(std::mem::size_of::<NodeSlot>(), 136);
    }

    #[test]
    fn shared_service_ports_bind_without_the_attach_lock() {
        let fab = two_node_ethernet();
        let delivered = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&delivered);
        let world: MessageSink = Arc::new(move |_: Message| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        // Both nodes bind while another thread holds the attach mutex: a
        // service port on a shared fabric needs only its node's slot.
        let held = fab.attach.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let (f, w) = (Arc::clone(&fab), Arc::clone(&world));
        let binder = std::thread::spawn(move || {
            let eps = [NodeId(0), NodeId(1)]
                .map(|n| f.attach_service_sink(n, 7, "tm", Arc::clone(&w)).unwrap());
            tx.send(()).unwrap();
            eps
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("bound without the attach mutex");
        drop(held);
        let [a, b] = binder.join().unwrap();
        a.send(
            &SimClock::new(),
            b.addr(),
            ChannelId(1),
            Payload::from_vec(vec![1]),
        )
        .unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "went to the sink");
        drop(a);
        fab.attach_service_sink(NodeId(0), 7, "tm", world)
            .expect("a detached port is free again");
    }

    #[test]
    fn service_port_collision_detected() {
        let fab = two_node_ethernet();
        let _tm = fab
            .attach_service_sink(NodeId(0), 7, "tm", noop_sink())
            .unwrap();
        let err = fab
            .attach_service_sink(NodeId(0), 7, "other", noop_sink())
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::PortTaken {
                node: NodeId(0),
                port: 7
            }
        );
    }

    #[test]
    fn send_to_unbound_port_fails_without_charging() {
        let fab = two_node_ethernet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let ca = SimClock::new();
        let err = a
            .send(
                &ca,
                EndpointAddr {
                    node: NodeId(1),
                    port: 55,
                },
                ChannelId(0),
                Payload::from_vec(vec![1]),
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::Unreachable { .. }));
        assert_eq!(ca.now(), 0, "failed send must not charge time");
    }

    #[test]
    fn send_to_dropped_endpoint_is_unreachable_and_free() {
        let fab = two_node_ethernet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let dst = fab.attach(NodeId(1), "t").unwrap().addr(); // dropped here
        let ca = SimClock::new();
        let sent = a.send(&ca, dst, ChannelId(0), Payload::from_vec(vec![1]));
        let unreachable = FabricError::Unreachable {
            to: NodeId(1),
            port: dst.port,
        };
        assert_eq!(sent, Err(unreachable));
        assert_eq!(ca.now(), 0, "failed send must not charge time");
    }

    #[test]
    fn non_member_rejected() {
        let fab = two_node_myrinet();
        assert_eq!(
            fab.attach(NodeId(9), "t").unwrap_err(),
            FabricError::NotMember(NodeId(9))
        );
    }

    #[test]
    fn sci_requires_and_limits_mappings() {
        let fab = presets::sci().build(
            FabricId(2),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            Telemetry::new(),
        );
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        // Unmapped send fails.
        let err = a
            .send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap_err();
        assert!(matches!(err, FabricError::NoMapping { .. }));
        // Map and send.
        a.map_remote(NodeId(1)).unwrap();
        a.map_remote(NodeId(1)).unwrap(); // idempotent, no extra entry
        assert_eq!(fab.mappings_in_use(NodeId(0)), 1);
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
        // Map the remaining peers; the preset's table (8 entries) fits all.
        a.map_remote(NodeId(2)).unwrap();
        a.map_remote(NodeId(3)).unwrap();
        assert_eq!(fab.mappings_in_use(NodeId(0)), 3);
        // Unmap frees the slot; sends to the unmapped peer fail again.
        a.unmap_remote(NodeId(1));
        assert_eq!(fab.mappings_in_use(NodeId(0)), 2);
        let err = a
            .send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap_err();
        assert!(matches!(err, FabricError::NoMapping { .. }));
    }

    #[test]
    fn sci_mapping_limit_enforced() {
        // A dedicated fabric with a tiny limit via direct construction.
        let model = presets::sci().model().clone();
        let fab = SimFabric::new(
            FabricId(9),
            FabricKind::Sci,
            Paradigm::Parallel,
            AccessMode::Exclusive,
            model,
            Some(2),
            (0..4).map(NodeId).collect(),
            Telemetry::new(),
        );
        let a = fab.attach(NodeId(0), "t").unwrap();
        a.map_remote(NodeId(1)).unwrap();
        a.map_remote(NodeId(2)).unwrap();
        let err = a.map_remote(NodeId(3)).unwrap_err();
        assert_eq!(
            err,
            FabricError::MappingLimit {
                node: NodeId(0),
                limit: 2
            }
        );
        a.unmap_remote(NodeId(1));
        a.map_remote(NodeId(3)).unwrap();
    }

    #[test]
    fn partitioned_send_fails_fast_without_charging() {
        let fab = two_node_ethernet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        fab.faults().partition_pair(NodeId(0), NodeId(1));
        let err = a
            .send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::LinkDown {
                from: NodeId(0),
                to: NodeId(1)
            }
        );
        assert_eq!(ca.now(), 0, "refused send must not charge time");
        fab.faults().heal_pair(NodeId(0), NodeId(1));
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
        let cb = SimClock::new();
        assert_eq!(b.recv(&cb).unwrap().payload.to_vec(), vec![1]);
    }

    #[test]
    fn dropped_send_charges_sender_but_never_arrives() {
        let fab = two_node_ethernet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let delivered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&delivered);
        let sink: MessageSink = Arc::new(move |_: Message| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let b = fab.attach_service_sink(NodeId(1), 1, "t", sink).unwrap();
        let ca = SimClock::new();
        fab.set_fault_plan(crate::faults::FaultPlan::drops(42, 100));
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![9; 512]))
            .unwrap();
        assert!(ca.now() > 0, "sender pays for a message the wire ate");
        assert_eq!(delivered.load(Ordering::Relaxed), 0, "nothing delivered");
        assert_eq!(fab.fault_stats().dropped, 1);
        fab.clear_fault_plan();
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
        assert_eq!(delivered.load(Ordering::Relaxed), 1);
        assert_eq!(fab.fault_stats().corrupted, 0);
    }

    #[test]
    fn corrupted_send_is_flagged_and_delay_pushes_arrival() {
        let fab = two_node_ethernet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        let extra = 40 * US;
        fab.set_fault_plan(crate::faults::FaultPlan {
            seed: 5,
            corrupt_pct: 100,
            extra_delay_ns: extra,
            ..Default::default()
        });
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![3; 64]))
            .unwrap();
        let cb = SimClock::new();
        let msg = b.recv(&cb).unwrap();
        assert!(msg.corrupted);
        assert!(
            msg.arrival >= extra,
            "arrival {} includes injected delay {extra}",
            msg.arrival
        );
        assert_eq!(fab.fault_stats().corrupted, 1);
    }

    #[test]
    fn dead_mapping_hardware_refuses_remap() {
        let fab = presets::sci().build(FabricId(4), vec![NodeId(0), NodeId(1)], Telemetry::new());
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        a.map_remote(NodeId(1)).unwrap();
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
        // Hardware dies: existing mappings vanish, re-mapping refused.
        fab.kill_mappings(NodeId(0));
        assert_eq!(fab.mappings_in_use(NodeId(0)), 0);
        let err = a
            .send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap_err();
        assert!(matches!(err, FabricError::NoMapping { .. }));
        let err = a.map_remote(NodeId(1)).unwrap_err();
        assert!(matches!(err, FabricError::LinkDown { .. }));
        assert_eq!(fab.fault_stats().mapping_refusals, 1);
        // Revive: mapping can be re-established and traffic flows again.
        fab.revive_mappings(NodeId(0));
        a.map_remote(NodeId(1)).unwrap();
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
    }

    #[test]
    fn sink_attachment_delivers_through_the_sink() {
        let fab = two_node_myrinet();
        let (tx, rx) = mpsc::channel();
        let sink: MessageSink = Arc::new(move |m: Message| {
            let _ = tx.send(m);
        });
        let ep = fab.attach_service_sink(NodeId(1), 1, "tm", sink).unwrap();
        let ca = SimClock::new();
        assert_eq!(
            ep.recv(&ca).unwrap_err(),
            FabricError::Closed,
            "the caller's sink gets the traffic, not the endpoint"
        );
        let a = fab.attach(NodeId(0), "t").unwrap();
        a.send(&ca, ep.addr(), ChannelId(3), Payload::from_vec(vec![7]))
            .unwrap();
        let msg = rx.recv().unwrap();
        assert_eq!(msg.channel, ChannelId(3));
        assert_eq!(msg.src, a.addr());
        assert_eq!(msg.payload.to_vec(), vec![7]);
    }

    #[test]
    fn fifo_order_per_sender() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        let cb = SimClock::new();
        for i in 0..20u8 {
            a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![i]))
                .unwrap();
        }
        let mut last_arrival = 0;
        for i in 0..20u8 {
            let m = b.recv(&cb).unwrap();
            assert_eq!(m.payload.to_vec(), vec![i]);
            assert!(m.arrival >= last_arrival, "arrivals are monotone");
            last_arrival = m.arrival;
        }
    }

    #[test]
    fn concurrent_senders_share_receiver_nic() {
        // Nodes 0 and 1 both blast node 2: each flow should see roughly
        // half the line rate because the receiving NIC serializes them.
        let fab = presets::myrinet2000().build(
            FabricId(3),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            Telemetry::new(),
        );
        let rx = fab.attach(NodeId(2), "sink").unwrap();
        let len = 256 << 10;
        let rounds = 8;
        let mut handles = vec![];
        for n in 0..2u32 {
            let fab = Arc::clone(&fab);
            let dst = rx.addr();
            handles.push(std::thread::spawn(move || {
                let ep = fab.attach(NodeId(n), "src").unwrap();
                let clock = SimClock::new();
                for _ in 0..rounds {
                    ep.send(&clock, dst, ChannelId(0), Payload::from_vec(vec![0; len]))
                        .unwrap();
                }
                clock.now()
            }));
        }
        let times: Vec<Vt> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        drop(rx);
        let total_bytes = 2 * rounds * len;
        let wire_per_msg = fab.model().wire_time(len);
        // All 16 messages must traverse one RX engine: the slower sender
        // finishes no earlier than ~16 wire times (allow scheduling slack).
        let slowest = *times.iter().max().unwrap();
        assert!(
            slowest as f64 >= 0.85 * (16.0 * wire_per_msg as f64),
            "slowest sender {slowest} vs 16×wire {}",
            16 * wire_per_msg
        );
        let agg = padico_util::stats::mb_per_s(total_bytes, slowest);
        assert!(
            agg <= fab.model().line_rate_mb_s * 1.05,
            "aggregate {agg} can't exceed line rate"
        );
    }

    #[test]
    fn disjoint_pairs_send_beside_attach_churn() {
        // Two senders on disjoint node pairs, while a third thread binds
        // and releases a service port on a fifth node: the per-node tables
        // must lose, reorder and double-bind nothing.
        const MSGS: u32 = 1_000;
        let fab = presets::ethernet100().build(
            FabricId(5),
            (0..5).map(NodeId).collect(),
            Telemetry::new(),
        );
        let receivers = [1, 3].map(|n| fab.attach(NodeId(n), "rx").unwrap());
        let start = Barrier::new(3);
        let sending = AtomicUsize::new(2);
        std::thread::scope(|scope| {
            for (n, rx) in [0, 2].into_iter().zip(&receivers) {
                let (fab, start, sending) = (&fab, &start, &sending);
                scope.spawn(move || {
                    let ep = fab.attach(NodeId(n), "tx").unwrap();
                    let clock = SimClock::new();
                    start.wait();
                    for i in 0..MSGS {
                        let bytes = i.to_le_bytes().to_vec();
                        ep.send(&clock, rx.addr(), ChannelId(0), Payload::from_vec(bytes))
                            .unwrap();
                    }
                    sending.fetch_sub(1, Ordering::Release);
                });
            }
            scope.spawn(|| {
                start.wait();
                loop {
                    // Bound and released at once: a binding left behind
                    // would fail the next round with `PortTaken`.
                    fab.attach_service_sink(NodeId(4), 9, "churn", noop_sink())
                        .unwrap();
                    if sending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                }
            });
        });
        for rx in &receivers {
            let clock = SimClock::new();
            for i in 0..MSGS {
                let m = rx.recv(&clock).unwrap();
                assert_eq!(m.payload.to_vec(), i.to_le_bytes(), "in order per sender");
            }
        }
    }

    #[test]
    fn sends_take_no_attach_time_lock() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let held = fab.attach.lock();
        let (tx, rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            let clock = SimClock::new();
            let sent = a.send(&clock, b.addr(), ChannelId(0), Payload::from_vec(vec![1]));
            let _ = tx.send(sent.is_ok());
            b
        });
        let sent = rx.recv_timeout(Duration::from_secs(30));
        drop(held);
        let b = sender.join().unwrap();
        assert_eq!(sent, Ok(true), "a send waited on the attach-time lock");
        assert_eq!(b.recv(&SimClock::new()).unwrap().payload.to_vec(), vec![1]);
    }

    #[test]
    fn sends_take_no_telemetry_lock() {
        let telemetry = Telemetry::new();
        let fab = presets::myrinet2000().build(
            FabricId(0),
            vec![NodeId(0), NodeId(1)],
            Arc::clone(&telemetry),
        );
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let held = telemetry.hold_registry_lock();
        let (tx, rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            let clock = SimClock::new();
            let payload = Payload::from_vec(vec![1; 48]);
            let sent = a.send(&clock, b.addr(), ChannelId(0), payload);
            let _ = tx.send(sent.is_ok());
            b
        });
        let sent = rx.recv_timeout(Duration::from_secs(30));
        drop(held);
        let b = sender.join().unwrap();
        assert_eq!(sent, Ok(true), "a send waited on the telemetry lock");
        assert_eq!(b.recv(&SimClock::new()).unwrap().payload.len(), 48);
        // The bytes still count, under the same name as before.
        assert_eq!(telemetry.metrics().counter("bytes.myrinet"), 48);
        let render = telemetry.metrics().render();
        assert!(render.contains("counter bytes.myrinet = 48"), "{render}");
    }

    #[test]
    fn ephemeral_ports_wrap_within_their_range() {
        let fab = two_node_ethernet();
        // Held throughout: the wrap must step over it.
        let held = fab.attach(NodeId(0), "held").unwrap();
        assert_eq!(held.addr().port, EPHEMERAL_PORT_BASE);
        let mut wrapped = false;
        let mut last = held.addr().port;
        for _ in 0..70_000u32 {
            let port = fab.attach(NodeId(0), "churn").unwrap().addr().port; // detached here
            assert!(port > EPHEMERAL_PORT_BASE, "port {port} after {last}");
            wrapped |= port < last;
            last = port;
        }
        assert!(wrapped, "70 000 attaches cycle past u16::MAX");
    }

    #[test]
    fn ephemeral_search_wraps_skips_and_runs_out() {
        assert_eq!(free_ephemeral(u16::MAX, |_| false), Some(u16::MAX));
        let base = Some(EPHEMERAL_PORT_BASE);
        assert_eq!(free_ephemeral(u16::MAX, |p| p == u16::MAX), base);
        // A wrapped counter (0) restarts at the base, never in the
        // service range.
        assert_eq!(free_ephemeral(0, |p| p < 2000), Some(2000));
        assert_eq!(free_ephemeral(3000, |p| p != 1500), Some(1500));
        assert_eq!(free_ephemeral(3000, |_| true), None);
        assert!(FabricError::PortsExhausted { node: NodeId(3) }
            .to_string()
            .contains("node3"));
    }

    #[test]
    fn transmit_history_stays_short_over_ten_thousand_sends() {
        let fab = two_node_myrinet();
        let a = fab
            .attach_service_sink(NodeId(0), 1, "t", noop_sink())
            .unwrap();
        let b = fab
            .attach_service_sink(NodeId(1), 1, "t", noop_sink())
            .unwrap();
        let clock = SimClock::new();
        for i in 0..10_000u64 {
            a.send(
                &clock,
                b.addr(),
                ChannelId(0),
                Payload::from_vec(vec![0; 64]),
            )
            .unwrap();
            // Idle gaps between some sends keep the intervals apart.
            clock.advance(i % 3 * US);
        }
        let (tx, rx) = fab.retained_intervals();
        assert!(tx <= 2, "node 0 holds {tx} transmit intervals");
        assert!(rx > 2, "receive history is kept whole: {rx}");
    }

    #[test]
    fn second_clock_behind_retired_history_is_refused() {
        let fab = two_node_myrinet();
        let a = fab.attach(NodeId(0), "t").unwrap();
        let b = fab.attach(NodeId(1), "t").unwrap();
        let send = |clock: &SimClock| {
            a.send(
                clock,
                b.addr(),
                ChannelId(0),
                Payload::from_vec(vec![0; 64]),
            )
        };
        let (pre_wire, wire) = (
            fab.model().pre_wire_sender_cost(64),
            fab.model().wire_time(64),
        );
        let owner = SimClock::new();
        let mut last_read = 0;
        for _ in 0..5 {
            // The engine reads the clock after the pre-wire cost.
            last_read = owner.now() + pre_wire;
            send(&owner).unwrap();
            owner.advance(10 * US);
        }
        let err = send(&SimClock::new()).unwrap_err();
        assert_eq!(
            err,
            FabricError::BehindRetired {
                node: NodeId(0),
                at: pre_wire,
                retired: last_read
            }
        );
        assert!(err.to_string().contains("node0"), "{err}");
        // Just behind the last retiring reading: refused, nothing sent.
        let behind = SimClock::starting_at(last_read - 1 - pre_wire);
        assert!(matches!(
            send(&behind),
            Err(FabricError::BehindRetired { .. })
        ));
        // At it: served where the full history places it, right behind
        // the owner's fifth transmission.
        let at_point = SimClock::starting_at(last_read - pre_wire);
        assert_eq!(send(&at_point).unwrap(), last_read + 2 * wire);
        // The owner's five, then the second clock's: the refused sends
        // delivered nothing.
        let arrivals: Vec<Vt> = (0..6)
            .map(|_| b.recv(&SimClock::new()).unwrap().arrival)
            .collect();
        assert_eq!(arrivals[5], last_read + 2 * wire + fab.model().latency_ns);
        // Retirement has stopped: the owner's history grows again.
        for _ in 0..5 {
            send(&owner).unwrap();
            owner.advance(10 * US);
        }
        assert!(
            fab.retained_intervals().0 >= 6,
            "{:?}",
            fab.retained_intervals()
        );
    }
}
