//! The simulated fabric engine.
//!
//! One [`SimFabric`] instance models one physical network (e.g. "the
//! Myrinet-2000 SAN of cluster A"). Nodes *attach* to obtain a
//! [`FabricEndpoint`]; endpoints exchange [`Message`]s whose bytes really
//! travel (through lock-free queues) and whose timing is charged to the
//! participants' virtual clocks according to the fabric's [`LinkModel`].
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
//! Each node has a NIC with a transmit and a receive engine, modelled as
//! [`ResourceTimeline`]s. A send:
//!
//! 1. charges the sender's clock the pre-wire cost (driver overhead,
//!    rendezvous round-trip for large SAN messages, kernel copy on socket
//!    paths — the copy is *physically performed* too);
//! 2. reserves the sender's TX engine and the receiver's RX engine for the
//!    wire time (cut-through: RX starts with TX, so a single flow is
//!    serialized once, while competing flows on either NIC queue up —
//!    which is exactly how concurrent CORBA + MPI streams end up splitting
//!    Myrinet's 250 MB/s in §4.4);
//! 3. blocks the sender (in virtual time) until its TX engine is done;
//! 4. stamps the message with `arrival = rx_end + latency`; the consumer
//!    merges its clock to the stamp and pays the receive cost when it
//!    takes delivery ([`Message::deliver`]).

use crate::error::FabricError;
use crate::faults::{FaultInjector, FaultPlan, FaultSnapshot, Verdict};
use crate::model::LinkModel;
use crate::payload::Payload;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use padico_util::ids::{ChannelId, FabricId, NodeId};
use padico_util::simtime::{ResourceTimeline, SimClock, Vt, VtDuration};
use padico_util::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
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

/// First ephemeral port; [`SimFabric::attach`] allocates from here up.
/// Well-known service ports (used by PadicoTM instances) live below.
pub const EPHEMERAL_PORT_BASE: u16 = 1024;

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

struct NicState {
    tx: ResourceTimeline,
    rx: ResourceTimeline,
}

/// Delivery target installed by a sink attachment: invoked once per
/// inbound [`Message`] instead of queuing into a per-endpoint inbox.
/// The callee must only *enqueue* (it runs on the sender's thread).
pub type MessageSink = Arc<dyn Fn(Message) + Send + Sync>;

/// Where inbound traffic for one (node, port) goes.
enum PortTarget {
    /// Classic per-endpoint inbox (raw clients poll their own receiver).
    Queue(Sender<Message>),
    /// Caller-supplied sink — the arbitration layer hands in one sink per
    /// fabric, all feeding a single per-node event queue, so one progress
    /// thread interleaves every attachment.
    Sink(MessageSink),
}

#[derive(Default)]
struct FabricState {
    /// Live endpoints: (node, port) → delivery target.
    ports: HashMap<(NodeId, u16), PortTarget>,
    /// For exclusive fabrics: which client holds the NIC on each node.
    exclusive_holder: HashMap<NodeId, String>,
    /// Next ephemeral port per node.
    next_ephemeral: HashMap<NodeId, u16>,
    /// SCI-style mapping tables: node → set of mapped peers.
    mappings: HashMap<NodeId, HashSet<NodeId>>,
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
    /// Same set as `members` — membership checks are on the boot path of
    /// every node and must stay O(1) for 100k-node worlds.
    member_set: HashSet<NodeId>,
    /// Pre-rendered `bytes.<kind>` counter name (one per send otherwise).
    bytes_counter: String,
    /// The world's telemetry, which `bytes_counter` counts into.
    telemetry: Arc<Telemetry>,
    nics: HashMap<NodeId, NicState>,
    state: Mutex<FabricState>,
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
        let nics = members
            .iter()
            .map(|&n| {
                (
                    n,
                    NicState {
                        tx: ResourceTimeline::new(),
                        rx: ResourceTimeline::new(),
                    },
                )
            })
            .collect();
        Arc::new(SimFabric {
            id,
            kind,
            paradigm,
            access,
            model,
            mapping_limit,
            member_set: members.iter().copied().collect(),
            members,
            bytes_counter: format!("bytes.{kind}"),
            telemetry,
            nics,
            state: Mutex::new(FabricState::default()),
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

    /// Whether `node` is wired to this fabric.
    pub fn has_member(&self, node: NodeId) -> bool {
        self.member_set.contains(&node)
    }

    /// Whether sends require an established mapping (SCI-style).
    pub fn requires_mapping(&self) -> bool {
        self.mapping_limit.is_some()
    }

    /// Attach with an ephemeral port.
    pub fn attach(
        self: &Arc<Self>,
        node: NodeId,
        client: &str,
    ) -> Result<FabricEndpoint, FabricError> {
        self.attach_inner(node, None, client, None)
    }

    /// Attach at a well-known service port (< [`EPHEMERAL_PORT_BASE`]).
    pub fn attach_service(
        self: &Arc<Self>,
        node: NodeId,
        port: u16,
        client: &str,
    ) -> Result<FabricEndpoint, FabricError> {
        assert!(
            port < EPHEMERAL_PORT_BASE,
            "service ports must be < {EPHEMERAL_PORT_BASE}"
        );
        self.attach_inner(node, Some(port), client, None)
    }

    /// Attach at a well-known service port, delivering inbound messages
    /// through `sink` instead of a per-endpoint inbox. This is how the
    /// arbitration layer drains *all* of a node's fabrics from one event
    /// queue (one progress thread per node, not one per attachment). The
    /// returned endpoint has no inbox: its receive methods report
    /// [`FabricError::Closed`].
    pub fn attach_service_sink(
        self: &Arc<Self>,
        node: NodeId,
        port: u16,
        client: &str,
        sink: MessageSink,
    ) -> Result<FabricEndpoint, FabricError> {
        assert!(
            port < EPHEMERAL_PORT_BASE,
            "service ports must be < {EPHEMERAL_PORT_BASE}"
        );
        self.attach_inner(node, Some(port), client, Some(sink))
    }

    fn attach_inner(
        self: &Arc<Self>,
        node: NodeId,
        port: Option<u16>,
        client: &str,
        sink: Option<MessageSink>,
    ) -> Result<FabricEndpoint, FabricError> {
        if !self.has_member(node) {
            return Err(FabricError::NotMember(node));
        }
        let mut st = self.state.lock();
        if self.access == AccessMode::Exclusive {
            if let Some(holder) = st.exclusive_holder.get(&node) {
                return Err(FabricError::Busy {
                    node,
                    holder: holder.clone(),
                });
            }
        }
        let port = match port {
            Some(p) => {
                if st.ports.contains_key(&(node, p)) {
                    return Err(FabricError::PortTaken { node, port: p });
                }
                p
            }
            None => {
                let mut candidate = *st.next_ephemeral.get(&node).unwrap_or(&EPHEMERAL_PORT_BASE);
                // Skip any taken ports (service ports can't collide here).
                while st.ports.contains_key(&(node, candidate)) {
                    candidate += 1;
                }
                st.next_ephemeral.insert(node, candidate + 1);
                candidate
            }
        };
        let inbox = match sink {
            Some(sink) => {
                st.ports.insert((node, port), PortTarget::Sink(sink));
                None
            }
            None => {
                let (tx, rx) = unbounded();
                st.ports.insert((node, port), PortTarget::Queue(tx));
                Some(rx)
            }
        };
        if self.access == AccessMode::Exclusive {
            st.exclusive_holder.insert(node, client.to_string());
        }
        Ok(FabricEndpoint {
            fabric: Arc::clone(self),
            addr: EndpointAddr { node, port },
            inbox,
            client: client.to_string(),
        })
    }

    /// Establish an SCI-style mapping from `from` to `to`, consuming one
    /// entry of `from`'s bounded mapping table. Idempotent.
    pub fn map_remote(&self, from: NodeId, to: NodeId) -> Result<(), FabricError> {
        let limit = match self.mapping_limit {
            Some(l) => l,
            None => return Ok(()), // no mapping discipline on this hardware
        };
        if !self.has_member(from) {
            return Err(FabricError::NotMember(from));
        }
        if !self.has_member(to) {
            return Err(FabricError::NotMember(to));
        }
        if self.faults.mappings_dead(from) {
            self.faults.note_mapping_refusal();
            return Err(FabricError::LinkDown { from, to });
        }
        let mut st = self.state.lock();
        let table = st.mappings.entry(from).or_default();
        if table.contains(&to) {
            return Ok(());
        }
        if table.len() >= limit {
            return Err(FabricError::MappingLimit { node: from, limit });
        }
        table.insert(to);
        Ok(())
    }

    /// Release a mapping entry.
    pub fn unmap_remote(&self, from: NodeId, to: NodeId) {
        if self.mapping_limit.is_none() {
            return;
        }
        let mut st = self.state.lock();
        if let Some(table) = st.mappings.get_mut(&from) {
            table.remove(&to);
        }
    }

    /// Number of mapping-table entries in use on `node`.
    pub fn mappings_in_use(&self, node: NodeId) -> usize {
        let st = self.state.lock();
        st.mappings.get(&node).map_or(0, |t| t.len())
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
        let mut st = self.state.lock();
        st.mappings.remove(&node);
    }

    /// Revive `node`'s mapping hardware; mappings must be re-established.
    pub fn revive_mappings(&self, node: NodeId) {
        self.faults.revive_mappings(node);
    }

    /// Snapshot of injected-fault counters.
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.faults.counters()
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
        let mut span = padico_util::span::child(
            clock,
            src.node.0,
            "fabric.link",
            format!("tx:{}", self.kind()),
        );
        let len = payload.len();
        let result = self.send_from_inner(src, clock, dst, channel, payload);
        match &result {
            Ok(done) => {
                span.end_at(*done);
                // Bytes that occupied the wire (a fault-dropped message
                // still did — the sender paid in full).
                self.telemetry.counter_add(&self.bytes_counter, len as u64);
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
        if !self.has_member(dst.node) {
            return Err(FabricError::NotMember(dst.node));
        }
        // Link-level faults refuse the send before any time is charged:
        // a partitioned or flapping link fails fast at the driver.
        self.faults.check_link(src.node, dst.node, clock.now())?;
        if self.requires_mapping() && src.node != dst.node {
            let st = self.state.lock();
            let mapped = st
                .mappings
                .get(&src.node)
                .is_some_and(|t| t.contains(&dst.node));
            if !mapped {
                return Err(FabricError::NoMapping {
                    from: src.node,
                    to: dst.node,
                });
            }
        }
        // Look up the destination's delivery target up front so no time is
        // charged for a failed send.
        let target = {
            let st = self.state.lock();
            match st.ports.get(&(dst.node, dst.port)) {
                Some(PortTarget::Queue(tx)) => PortTarget::Queue(tx.clone()),
                Some(PortTarget::Sink(sink)) => PortTarget::Sink(Arc::clone(sink)),
                None => {
                    return Err(FabricError::Unreachable {
                        to: dst.node,
                        port: dst.port,
                    })
                }
            }
        };

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
        // 2. Reserve NIC engines (cut-through: RX shadows TX).
        let wire = self.model.wire_time(len);
        let tx_nic = &self.nics[&src.node];
        let rx_nic = &self.nics[&dst.node];
        let tx_res = tx_nic.tx.reserve(clock.now(), wire);
        let rx_res = rx_nic.rx.reserve(tx_res.start, wire);
        // 3. The sender is occupied until the receiving NIC has accepted
        // the message: Myrinet has link-level flow control and TCP a
        // bounded window, so a busy receiver back-pressures the sender.
        let done = tx_res.end.max(rx_res.end);
        clock.merge_to(done);
        // 4. Stamp and enqueue (unless the fault stream ate the message).
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
        match target {
            PortTarget::Queue(tx) => tx.send(msg).map(|_| done).map_err(|_| {
                FabricError::Unreachable {
                    to: dst.node,
                    port: dst.port,
                }
            }),
            PortTarget::Sink(sink) => {
                sink(msg);
                Ok(done)
            }
        }
    }

    fn detach(&self, addr: EndpointAddr) {
        let mut st = self.state.lock();
        st.ports.remove(&(addr.node, addr.port));
        if self.access == AccessMode::Exclusive {
            st.exclusive_holder.remove(&addr.node);
        }
    }
}

/// A live attachment of one client to one fabric on one node.
pub struct FabricEndpoint {
    fabric: Arc<SimFabric>,
    addr: EndpointAddr,
    /// `None` for sink attachments (inbound traffic goes to the sink).
    inbox: Option<Receiver<Message>>,
    client: String,
}

impl fmt::Debug for FabricEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FabricEndpoint({} on {} as `{}`)",
            self.addr, self.fabric.id, self.client
        )
    }
}

impl FabricEndpoint {
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    pub fn fabric(&self) -> &Arc<SimFabric> {
        &self.fabric
    }

    pub fn client(&self) -> &str {
        &self.client
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
        self.fabric.send_from(self.addr, clock, dst, channel, payload)
    }

    /// Blocking receive **without** charging a clock — used by forwarding
    /// layers; the final consumer must call [`Message::deliver`]. Reports
    /// [`FabricError::Closed`] on a sink attachment (its traffic goes to
    /// the sink, never to an inbox).
    pub fn recv_raw(&self) -> Result<Message, FabricError> {
        self.inbox
            .as_ref()
            .ok_or(FabricError::Closed)?
            .recv()
            .map_err(|_| FabricError::Closed)
    }

    /// Non-blocking receive without charging a clock.
    pub fn try_recv_raw(&self) -> Result<Option<Message>, FabricError> {
        match self.inbox.as_ref().ok_or(FabricError::Closed)?.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(FabricError::Closed),
        }
    }

    /// Blocking receive that takes delivery: merges `clock` to the arrival
    /// time and charges the receive cost.
    pub fn recv(&self, clock: &SimClock) -> Result<Message, FabricError> {
        let msg = self.recv_raw()?;
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

    fn two_node_myrinet() -> Arc<SimFabric> {
        presets::myrinet2000().build(FabricId(0), vec![NodeId(0), NodeId(1)], Telemetry::new())
    }

    fn two_node_ethernet() -> Arc<SimFabric> {
        presets::ethernet100().build(FabricId(1), vec![NodeId(0), NodeId(1)], Telemetry::new())
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
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![0; 1024]))
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

    #[test]
    fn service_port_collision_detected() {
        let fab = two_node_ethernet();
        let _tm = fab.attach_service(NodeId(0), 7, "tm").unwrap();
        let err = fab.attach_service(NodeId(0), 7, "other").unwrap_err();
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
        let b = fab.attach(NodeId(1), "t").unwrap();
        let ca = SimClock::new();
        fab.set_fault_plan(crate::faults::FaultPlan::drops(42, 100));
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![9; 512]))
            .unwrap();
        assert!(ca.now() > 0, "sender pays for a message the wire ate");
        assert!(b.try_recv_raw().unwrap().is_none(), "nothing delivered");
        assert_eq!(fab.fault_stats().dropped, 1);
        fab.clear_fault_plan();
        a.send(&ca, b.addr(), ChannelId(0), Payload::from_vec(vec![1]))
            .unwrap();
        let cb = SimClock::new();
        assert!(!b.recv(&cb).unwrap().corrupted);
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
        let (tx, rx) = unbounded();
        let sink: MessageSink = Arc::new(move |m| {
            let _ = tx.send(m);
        });
        let ep = fab
            .attach_service_sink(NodeId(1), 1, "tm", sink)
            .unwrap();
        assert!(
            matches!(ep.try_recv_raw(), Err(FabricError::Closed)),
            "sink endpoints have no inbox"
        );
        let a = fab.attach(NodeId(0), "t").unwrap();
        let ca = SimClock::new();
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
}
