//! The unified arbitrated-driver core.
//!
//! Circuit (parallel paradigm) and VLink (distributed paradigm) used to
//! each carry a private copy of the same machinery: route selection,
//! budgeted retry with virtual-clock backoff, cross-paradigm failover,
//! corrupt-frame discard, and per-attempt span emission. This module owns
//! that machinery **exactly once**:
//!
//! * [`LinkCore`] — the link state machine both abstractions embed. It
//!   holds the current [`Route`] (swapped in place on failover, invisibly
//!   to the peer: channel ids are fabric-independent), the link's
//!   `Inbox`, and the peer set + [`Paradigm`] needed to re-select.
//! * [`ArbitratedDriver`] — the capability trait of "something built on an
//!   arbitrated driver". Circuit and VLink streams implement it by
//!   exposing their core; route/clock accessors come for free, so layers
//!   above (personalities, MPI, the ORB) program against the trait rather
//!   than against one concrete paradigm.
//!
//! ## Retry, failover, spans
//!
//! [`LinkCore::send_wire`] is the one transmit loop: each attempt gets a
//! retry-linked span named `{label}:attempt{n}` (the adapter picks the
//! label, so traces keep their historical names), the span end is pinned
//! to the deterministic send-completion stamp, transient errors charge
//! exponential backoff to the **virtual** clock (recovery shows up in
//! measured virtual latencies, never in host time), and *link-level*
//! errors ([`TmError::is_link_level`]) additionally re-select the route
//! excluding the failed fabric — the paper's cross-paradigm fallback: when
//! the SAN mapping dies, the flow transparently continues over sockets.
//!
//! [`LinkCore::connect_with_retry`] is the same shape for handshakes: the
//! caller supplies one attempt as a closure; the core budgets attempts,
//! splits the caller's total timeout across them, and moves later attempts
//! to the next-best fabric when the link itself is indicted.
//!
//! ## One inbound path
//!
//! A link claims its receive channel once, when it is built, with its
//! `Inbox` as the channel's handler; nothing swaps that handler
//! afterwards. Pull receives (`recv_intact*`) wait on the inbox queue. A
//! link that goes reactive ([`LinkCore::go_reactive`]) attaches a sink
//! to the same inbox instead, and every later delivery runs through it
//! inline on a world-scheduler worker. Both modes apply one inbound
//! policy (`intake`): take delivery on the node clock, discard corrupt
//! wire messages, strip the coalescing envelope.

use padico_fabric::{pool, Message, Paradigm, Payload};
use padico_util::ids::{ChannelId, FabricId, NodeId};
use padico_util::simtime::{SimClock, Vt};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::arbitration::{ChannelHandler, NetAccess};
use crate::error::TmError;
use crate::faults;
use crate::runtime::PadicoTM;
use crate::selector::{FabricChoice, Route};

/// Envelope tags prefixed to every wire message when coalescing is on:
/// a plain frame, or an aggregate of several sub-frames.
const ENV_SINGLE: u8 = 0;
const ENV_AGG: u8 = 1;

/// The one-byte envelope tag as a static segment (no per-message
/// allocation, mirroring the VLink kind tag trick).
fn env_tag(tag: u8) -> bytes::Bytes {
    static TAGS: [u8; 2] = [ENV_SINGLE, ENV_AGG];
    bytes::Bytes::from_static(std::slice::from_ref(&TAGS[usize::from(tag)]))
}

/// Frames larger than this bypass coalescing: they go out at once, after
/// anything queued, to preserve FIFO order.
const COALESCE_MAX_FRAME: usize = 64;
/// A batch flushes once it holds this many payload bytes.
const COALESCE_MAX_BATCH: usize = 4096;

/// Frames queued towards one destination within one virtual tick.
#[derive(Default)]
struct Batch {
    dst: Option<(NodeId, ChannelId)>,
    frames: Vec<Payload>,
    bytes: usize,
    tick: u64,
}

/// The handler a link (or a pull listener) claims its channel with.
/// Deliveries queue here for pull receives to wait on until a reactive
/// sink is attached; from then on each one runs through the sink inline
/// on the scheduler worker that delivered it.
pub(crate) struct Inbox {
    channel: ChannelId,
    state: Mutex<InboxState>,
    arrived: Condvar,
}

#[derive(Default)]
struct InboxState {
    queue: VecDeque<Message>,
    sink: Option<ChannelHandler>,
    /// Set by [`Inbox::take_sink`]: the link let go of its channel, so no
    /// sink may be installed any more.
    stopped: bool,
}

impl Inbox {
    /// Claim `channel` on `net` with a fresh inbox as its handler (parked
    /// messages replay into the queue). The caller owns the claim and
    /// releases it with [`NetAccess::off_channel`].
    pub(crate) fn attach(net: &NetAccess, channel: ChannelId) -> Result<Arc<Inbox>, TmError> {
        let inbox = Arc::new(Inbox {
            channel,
            state: Mutex::new(InboxState::default()),
            arrived: Condvar::new(),
        });
        let handler = Arc::clone(&inbox);
        net.on_channel(channel, Arc::new(move |msg| handler.deliver(msg)))?;
        Ok(inbox)
    }

    pub(crate) fn channel(&self) -> ChannelId {
        self.channel
    }

    fn deliver(&self, msg: Message) {
        let mut st = self.state.lock();
        if let Some(sink) = st.sink.clone() {
            drop(st);
            return sink(msg);
        }
        st.queue.push_back(msg);
        drop(st);
        self.arrived.notify_one();
    }

    /// Wait up to `timeout` (wall clock, so a missing peer cannot hang
    /// the caller) for the next queued delivery, raw: the caller takes
    /// delivery on its clock.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Message, TmError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        loop {
            if st.sink.is_some() {
                return Err(TmError::Protocol(format!(
                    "channel {} runs a reactive handler; pull receive unavailable",
                    self.channel
                )));
            }
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else {
                return Err(TmError::Timeout(format!("recv on {}", self.channel)));
            };
            self.arrived.wait_for(&mut st, remaining);
        }
    }

    fn try_recv(&self) -> Option<Message> {
        self.state.lock().queue.pop_front()
    }

    /// Run every delivery through `sink` from now on. Queued deliveries
    /// go first and in order: the sink is installed only once the queue
    /// is empty, so one arriving mid-drain queues behind the backlog
    /// instead of overtaking it. A second sink is refused. Once the link
    /// stops (the sink itself may stop it at end of stream) the drain
    /// ends and the sink is dropped, never installed: installed, it would
    /// keep whatever it captured alive on an inbox nobody releases.
    fn set_sink(&self, sink: ChannelHandler) -> Result<(), TmError> {
        loop {
            let msg = {
                let mut st = self.state.lock();
                if st.stopped {
                    return Ok(());
                }
                if st.sink.is_some() {
                    return Err(TmError::Protocol(format!(
                        "channel {} already runs a reactive handler",
                        self.channel
                    )));
                }
                match st.queue.pop_front() {
                    Some(msg) => msg,
                    None => {
                        st.sink = Some(sink);
                        return Ok(());
                    }
                }
            };
            sink(msg);
        }
    }

    /// Detach the sink for good: a later [`Inbox::set_sink`] installs
    /// nothing. The caller drops it after the lock is released: its
    /// captures may own this very inbox's link.
    fn take_sink(&self) -> Option<ChannelHandler> {
        let mut st = self.state.lock();
        st.stopped = true;
        st.sink.take()
    }
}

/// The one inbound policy both receive modes share: take delivery on the
/// node clock, discard a corrupted wire message (CRC model; with
/// coalescing the CRC covers the aggregate, so a damaged batch counts as
/// ONE corrupt discard, not one per sub-frame), and strip the coalescing
/// envelope, handing each intact frame to `sink` in order.
fn intake(
    tm: &PadicoTM,
    coalescing: bool,
    msg: Message,
    mut sink: impl FnMut(Message),
) -> Result<(), TmError> {
    msg.deliver(tm.clock());
    if msg.corrupted {
        faults::note(tm.recovery(), |r| &r.corrupt_discards);
        return Ok(());
    }
    if coalescing {
        split_envelope(msg, sink)
    } else {
        sink(msg);
        Ok(())
    }
}

/// Strip a coalescing envelope off one wire message and hand each
/// sub-frame to `sink`, in order.
fn split_envelope(msg: Message, mut sink: impl FnMut(Message)) -> Result<(), TmError> {
    let Some(tag) = msg.payload.first_byte() else {
        return Err(TmError::Protocol("empty wire envelope".into()));
    };
    let (_tag, rest) = msg.payload.split_at(1);
    let sub = |payload: Payload| Message {
        src: msg.src,
        channel: msg.channel,
        arrival: msg.arrival,
        recv_cost: msg.recv_cost,
        corrupted: false,
        payload,
    };
    match tag {
        ENV_SINGLE => sink(sub(rest)),
        ENV_AGG => {
            if rest.len() < 4 {
                return Err(TmError::Protocol("truncated aggregate header".into()));
            }
            let (cnt, rest) = rest.split_at(4);
            let count = u32::from_le_bytes(cnt.to_contiguous()[..].try_into().expect("4")) as usize;
            if rest.len() < 4 * count {
                return Err(TmError::Protocol("truncated aggregate length table".into()));
            }
            let (lens, mut body) = rest.split_at(4 * count);
            let lens = lens.to_contiguous();
            for i in 0..count {
                let flen =
                    u32::from_le_bytes(lens[4 * i..4 * i + 4].try_into().expect("4")) as usize;
                if flen > body.len() {
                    return Err(TmError::Protocol("aggregate sub-frame overrun".into()));
                }
                let (frame, tail) = body.split_at(flen);
                body = tail;
                sink(sub(frame));
            }
            if !body.is_empty() {
                return Err(TmError::Protocol("trailing bytes after aggregate".into()));
            }
        }
        other => {
            return Err(TmError::Protocol(format!("bad envelope tag {other}")));
        }
    }
    Ok(())
}

/// Per-route circuit-breaker state (see
/// [`crate::runtime::BreakerPolicy`]). The "half-open" state of the
/// classic three-state machine is instantaneous here: the admit check
/// that finds the cooldown elapsed *is* the probe — it clears
/// `open_until`, marks `probing`, and lets exactly that attempt through;
/// the attempt's outcome then closes or re-opens the breaker.
#[derive(Default)]
pub(crate) struct BreakerState {
    /// Consecutive transient wire-attempt failures since the last
    /// success. Reaching `BreakerPolicy::trip_after` opens the route.
    consecutive_fails: u32,
    /// `Some(t)`: the route is open and fails fast until virtual time
    /// `t`, when one half-open probe is admitted.
    open_until: Option<Vt>,
    /// The next recorded outcome is a half-open probe's.
    probing: bool,
}

/// Admission check against a route's breaker, on the node-wide table in
/// [`PadicoTM`] (one state per (fabric, peer) route — keyed on the
/// fabric too, so a route that failed over keeps the dead fabric
/// quarantined while the new one starts closed, and node-wide so a
/// connection rebuilt by a higher layer's retry loop still sees the
/// tripped state). While the route is open and the cooldown has not
/// elapsed this fails fast with [`TmError::CircuitOpen`]; once the
/// cooldown elapses the call becomes the half-open probe and is
/// admitted. Free functions rather than [`LinkCore`] methods because
/// the connect handshake needs the same gate before any link exists.
fn breaker_admit(tm: &PadicoTM, fabric: FabricId, dst: NodeId) -> Result<(), TmError> {
    let Some((_, mut routes)) = tm.breaker() else {
        return Ok(());
    };
    let st = routes.entry((fabric, dst)).or_default();
    let Some(until) = st.open_until else {
        return Ok(());
    };
    let now = tm.clock().now();
    if now < until {
        tm.telemetry().counter_add("tm.breaker.fast_failures", 1);
        return Err(TmError::CircuitOpen(format!(
            "route to {dst} open until vt {until}"
        )));
    }
    // Cooldown over: this attempt is the half-open probe.
    st.open_until = None;
    st.probing = true;
    tm.telemetry().counter_add("tm.breaker.probes", 1);
    breaker_transition_span(tm, format!("probe:{dst}"), now);
    Ok(())
}

/// Record a successful wire attempt: a succeeding probe closes the
/// breaker; any success resets the consecutive-failure streak.
fn breaker_note_success(tm: &PadicoTM, fabric: FabricId, dst: NodeId) {
    let Some((_, mut routes)) = tm.breaker() else {
        return;
    };
    let st = routes.entry((fabric, dst)).or_default();
    if st.probing {
        tm.telemetry().counter_add("tm.breaker.closed", 1);
        breaker_transition_span(tm, format!("close:{dst}"), tm.clock().now());
    }
    *st = BreakerState::default();
}

/// Record a transient wire-attempt failure: a failing probe re-opens
/// the breaker immediately; otherwise the streak grows and trips the
/// breaker at the policy threshold.
fn breaker_note_failure(tm: &PadicoTM, fabric: FabricId, dst: NodeId) {
    let Some((policy, mut routes)) = tm.breaker() else {
        return;
    };
    let st = routes.entry((fabric, dst)).or_default();
    let trip = if st.probing {
        st.probing = false;
        true
    } else {
        st.consecutive_fails += 1;
        st.consecutive_fails >= policy.trip_after
    };
    if trip && st.open_until.is_none() {
        let now = tm.clock().now();
        st.open_until = Some(now + policy.cooldown);
        st.consecutive_fails = 0;
        tm.telemetry().counter_add("tm.breaker.opened", 1);
        breaker_transition_span(tm, format!("open:{dst}"), now);
    }
}

/// Zero-length transition span under the `tm.breaker` layer, end
/// pinned to the deterministic transition stamp (the Perfetto exporter
/// renders zero-duration spans as instant events). The transition also
/// lands in the flight recorder's `tm.breaker.<kind>` timeseries, so a
/// campaign shows *which window* the route opened in.
fn breaker_transition_span(tm: &PadicoTM, name: String, at: Vt) {
    let kind = name.split(':').next().unwrap_or("transition");
    tm.telemetry().bump(&format!("tm.breaker.{kind}"), at);
    let mut span = padico_util::span::child(tm.clock(), tm.node().0, "tm.breaker", name);
    span.end_at(at);
}

/// The shared link state machine under every abstraction-layer driver.
pub struct LinkCore {
    tm: Arc<PadicoTM>,
    /// The node set this link spans (both ends of a stream, the whole
    /// group of a circuit) — what failover re-selection must connect.
    peers: Vec<NodeId>,
    paradigm: Paradigm,
    /// Span layer tag ("tm.vlink" / "tm.circuit") so traces keep their
    /// per-abstraction identity even though the machinery is shared.
    layer: &'static str,
    /// Current route; replaced in place on failover. The peer never
    /// notices: channel ids are fabric-independent and the encrypt
    /// decision depends only on the peers' trust, not the carrying fabric.
    route: Mutex<Route>,
    /// The handler of the channel this link receives on.
    inbox: Arc<Inbox>,
    /// Intact frames taken off the inbox but not yet handed to a pull
    /// receiver: the later sub-frames of a coalesced aggregate.
    pending: Mutex<VecDeque<Message>>,
    /// The outgoing small-message batch, when the runtime config enables
    /// coalescing.
    coalesce: Option<Mutex<Batch>>,
}

impl LinkCore {
    /// Select a route for `peers` and open the link on `channel`: the
    /// common establishment path (circuits, listener-side streams).
    pub fn establish(
        tm: Arc<PadicoTM>,
        peers: Vec<NodeId>,
        paradigm: Paradigm,
        choice: FabricChoice,
        layer: &'static str,
        channel: ChannelId,
    ) -> Result<LinkCore, TmError> {
        let route = tm.select(&peers, paradigm, choice)?;
        LinkCore::open(tm, peers, paradigm, layer, route, channel)
    }

    /// Open a link on an already-selected route (handshake protocols pick
    /// it before the stream exists), claiming `channel` with the link's
    /// inbox. The claim lasts until [`LinkCore::stop_reactive`] or drop.
    pub fn open(
        tm: Arc<PadicoTM>,
        peers: Vec<NodeId>,
        paradigm: Paradigm,
        layer: &'static str,
        route: Route,
        channel: ChannelId,
    ) -> Result<LinkCore, TmError> {
        let inbox = Inbox::attach(tm.net(), channel)?;
        let coalesce = tm.config().coalesce.then(Mutex::default);
        Ok(LinkCore {
            tm,
            peers,
            paradigm,
            layer,
            route: Mutex::new(route),
            inbox,
            pending: Mutex::new(VecDeque::new()),
            coalesce,
        })
    }

    /// Serve this link's inbound side reactively: from now on every
    /// delivery runs through `on_msg` inline on a world-scheduler worker,
    /// so frames complete as scheduler events with no reader thread
    /// parked on the link. Frames that arrived earlier (already pulled
    /// sub-frames, then the inbox queue) go first, in order; nothing is
    /// lost or reordered however traffic races the call. `on_msg` sees
    /// intact, envelope-demuxed messages, already delivered to the node
    /// clock. Pull receives are unavailable afterwards. The handler stays
    /// installed until [`LinkCore::stop_reactive`] or the link drops; a
    /// link stopped before or during the call drops `on_msg` instead.
    pub fn go_reactive(&self, on_msg: Arc<dyn Fn(Message) + Send + Sync>) -> Result<(), TmError> {
        for sub in std::mem::take(&mut *self.pending.lock()) {
            on_msg(sub);
        }
        let tm = Arc::clone(&self.tm);
        let coalescing = self.coalesce.is_some();
        // A malformed envelope on a reactive link has no caller to
        // answer; it is dropped like a corrupt frame.
        self.inbox.set_sink(Arc::new(move |msg| {
            let _ = intake(&tm, coalescing, msg, |sub| on_msg(sub));
        }))
    }

    /// Release the link's channel: later messages park unread, and the
    /// handler [`LinkCore::go_reactive`] attached is dropped with
    /// everything it captured. A handler may stop its own link; the
    /// running invocation finishes normally. Idempotent.
    pub fn stop_reactive(&self) {
        self.tm.net().off_channel(self.inbox.channel());
        drop(self.inbox.take_sink());
    }

    pub fn tm(&self) -> &Arc<PadicoTM> {
        &self.tm
    }

    pub fn clock(&self) -> &SimClock {
        self.tm.clock()
    }

    /// The route currently carrying the link (owned: failover may swap it
    /// concurrently).
    pub fn route(&self) -> Route {
        self.route.lock().clone()
    }

    /// Whether frames on this link are encrypted (trust decision made at
    /// selection time; stable across failover).
    pub fn encrypt(&self) -> bool {
        self.route.lock().encrypt
    }

    /// The nodes this link spans.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Transmit `wire` on logical `channel` to `dst`.
    ///
    /// Without coalescing this is a straight call into the send loop.
    /// With coalescing enabled ([`crate::runtime::TmConfig::coalesce`]),
    /// every wire message gains a one-byte envelope, and sub-threshold
    /// frames to the same `(dst, channel)` within one virtual tick are
    /// queued into one aggregate wire message instead. The batch flushes
    /// on: a send towards a different destination, a new virtual tick, an
    /// oversize frame (queued frames go first — per-link FIFO order is
    /// preserved), the byte threshold, entry to any receive path, an
    /// explicit [`LinkCore::flush`], or drop.
    pub fn send_wire(
        &self,
        dst: NodeId,
        channel: ChannelId,
        wire: Payload,
        label: &str,
    ) -> Result<(), TmError> {
        let Some(batch) = &self.coalesce else {
            return self.send_wire_now(dst, channel, wire, label);
        };
        if wire.len() > COALESCE_MAX_FRAME {
            // Oversize bypasses batching but must not overtake what is
            // already queued.
            self.flush()?;
            let mut env = Payload::new();
            env.push_segment(env_tag(ENV_SINGLE));
            env.append(wire);
            return self.send_wire_now(dst, channel, env, label);
        }
        let mut batch = batch.lock();
        let tick = self.clock().now();
        if !batch.frames.is_empty() && (batch.dst != Some((dst, channel)) || batch.tick != tick) {
            self.flush_batch(&mut batch)?;
        }
        batch.dst = Some((dst, channel));
        batch.tick = tick;
        batch.bytes += wire.len();
        batch.frames.push(wire);
        self.tm.telemetry().frames_coalesced.fetch_add(1, Relaxed);
        if batch.bytes >= COALESCE_MAX_BATCH {
            self.flush_batch(&mut batch)?;
        }
        Ok(())
    }

    /// Send any queued sub-threshold frames now. A no-op without
    /// coalescing, so callers may flush unconditionally at their protocol
    /// barriers (end of an RPC write, FIN, ACK).
    pub fn flush(&self) -> Result<(), TmError> {
        let Some(batch) = &self.coalesce else {
            return Ok(());
        };
        self.flush_batch(&mut batch.lock())
    }

    /// Envelope and transmit the queued frames as one wire message.
    fn flush_batch(&self, batch: &mut Batch) -> Result<(), TmError> {
        if batch.frames.is_empty() {
            return Ok(());
        }
        let (dst, channel) = batch.dst.take().expect("non-empty batch has a destination");
        let frames = std::mem::take(&mut batch.frames);
        batch.bytes = 0;
        self.tm.telemetry().coalesce_flushes.fetch_add(1, Relaxed);
        let mut env = Payload::new();
        if frames.len() == 1 {
            env.push_segment(env_tag(ENV_SINGLE));
            for f in frames {
                env.append(f);
            }
        } else {
            // Aggregate: [count: u32][len_i: u32 x count] in one pooled
            // segment, then the frames' segments unchanged (zero-copy).
            env.push_segment(env_tag(ENV_AGG));
            let mut hdr = pool::lease(4 + 4 * frames.len());
            hdr.extend_from_slice(&(frames.len() as u32).to_le_bytes());
            for f in &frames {
                hdr.extend_from_slice(&(f.len() as u32).to_le_bytes());
            }
            env.push_segment(hdr.freeze());
            for f in frames {
                env.append(f);
            }
        }
        self.send_wire_now(dst, channel, env, "flush")
    }

    /// Transmit one wire message — THE send loop.
    ///
    /// Loopback goes straight to local dispatch. Otherwise each attempt
    /// emits a retry-linked span `{label}:attempt{n}` under this link's
    /// layer, transient failures charge backoff to the virtual clock, and
    /// link-level failures fail the route over before the next attempt.
    fn send_wire_now(
        &self,
        dst: NodeId,
        channel: ChannelId,
        wire: Payload,
        label: &str,
    ) -> Result<(), TmError> {
        if dst == self.tm.node() {
            return self.tm.net().send_local(channel, wire);
        }
        let policy = self.tm.config().retry;
        let mut attempt = 1u32;
        let mut prev_span = 0u64;
        loop {
            let fabric = self.route.lock().fabric.id();
            // Circuit breaker first: an open route fails fast without a
            // span, a backoff charge, or any wire traffic.
            breaker_admit(&self.tm, fabric, dst)?;
            let mut span = padico_util::span::child_retry(
                self.tm.clock(),
                self.tm.node().0,
                self.layer,
                format!("{label}:attempt{attempt}"),
                prev_span,
            );
            let outcome = self.tm.net().send(fabric, dst, channel, wire.clone());
            // Pin the span end to the deterministic send-completion stamp:
            // a receive thread may merge our clock forward concurrently.
            span.end_at(*outcome.as_ref().unwrap_or(&0));
            prev_span = span.id();
            drop(span);
            match outcome {
                Ok(_) => {
                    breaker_note_success(&self.tm, fabric, dst);
                    return Ok(());
                }
                Err(err) if attempt < policy.max_attempts && err.is_transient() => {
                    breaker_note_failure(&self.tm, fabric, dst);
                    let rec = self.tm.recovery();
                    faults::note(rec, |r| &r.send_retries);
                    self.tm
                        .telemetry()
                        .bump("recovery.send_retries", self.tm.clock().now());
                    let charged = policy.charge_backoff(self.tm.clock(), attempt);
                    faults::note_backoff(rec, charged);
                    self.try_failover(&err);
                    attempt += 1;
                }
                Err(err) => {
                    if err.is_transient() {
                        breaker_note_failure(&self.tm, fabric, dst);
                    }
                    return Err(err);
                }
            }
        }
    }

    /// On a link-level failure, re-select a fabric connecting the peer
    /// set, excluding the one that just failed — the cross-paradigm
    /// fallback. Channel ids stay, so the far side just keeps receiving.
    fn try_failover(&self, err: &TmError) {
        if !err.is_link_level() {
            return;
        }
        let current = self.route.lock().fabric.id();
        if let Ok(next) =
            self.tm
                .select_excluding(&self.peers, self.paradigm, FabricChoice::Auto, &[current])
        {
            faults::note(self.tm.recovery(), |r| &r.route_failovers);
            *self.route.lock() = next;
        }
    }

    /// Pull the next intact (non-corrupted) delivery, bounded by `timeout`
    /// or the runtime's default deadline — a dead peer surfaces
    /// [`TmError::Timeout`] instead of hanging the caller forever.
    /// Corrupted deliveries are discarded (CRC model) and the wait
    /// continues.
    pub fn recv_intact(&self, timeout: Option<Duration>) -> Result<Message, TmError> {
        let timeout = timeout.unwrap_or(self.tm.config().default_deadline);
        // Waiting to receive means nothing more is coming until the peer
        // sees what we queued: flushing our own coalesced frames first
        // keeps request/reply patterns live without timers.
        self.flush()?;
        loop {
            if let Some(m) = self.pending.lock().pop_front() {
                return Ok(m);
            }
            let msg = self.inbox.recv_timeout(timeout)?;
            self.take_delivery(msg)?;
        }
    }

    /// Non-blocking intact receive.
    pub fn try_recv_intact(&self) -> Result<Option<Message>, TmError> {
        self.flush()?;
        loop {
            if let Some(m) = self.pending.lock().pop_front() {
                return Ok(Some(m));
            }
            let Some(msg) = self.inbox.try_recv() else {
                return Ok(None);
            };
            self.take_delivery(msg)?;
        }
    }

    /// Pull side of `intake`: intact frames queue in `pending`.
    fn take_delivery(&self, msg: Message) -> Result<(), TmError> {
        let mut pending = self.pending.lock();
        intake(&self.tm, self.coalesce.is_some(), msg, |sub| {
            pending.push_back(sub)
        })
    }

    /// Budgeted-retry handshake driver — THE connect loop. `attempt_fn`
    /// performs one attempt against the given route with a per-attempt
    /// timeout (the caller's `timeout` bounds the whole handshake, retries
    /// included: a dead service costs one timeout total, not one per
    /// attempt). Between attempts: backoff charged to the virtual clock;
    /// if the link itself is indicted, the next attempt moves to the
    /// next-best fabric honouring `choice`.
    pub fn connect_with_retry<T>(
        tm: &Arc<PadicoTM>,
        peers: &[NodeId],
        paradigm: Paradigm,
        choice: FabricChoice,
        layer: &'static str,
        timeout: Duration,
        mut attempt_fn: impl FnMut(&Route, Duration) -> Result<T, TmError>,
    ) -> Result<T, TmError> {
        let policy = tm.config().retry;
        let mut route = tm.select(peers, paradigm, choice)?;
        let per_attempt = timeout / policy.max_attempts.max(1);
        // Point-to-point handshakes (one remote peer) go through the same
        // per-route breaker as established links: a reconnect storm onto
        // a tripped route must fail fast, not spray SYNs at a dead peer.
        // Group handshakes (circuits) have no single accountable route.
        let breaker_dst = {
            let mut remotes = peers.iter().copied().filter(|p| *p != tm.node());
            match (remotes.next(), remotes.next()) {
                (Some(dst), None) => Some(dst),
                _ => None,
            }
        };
        let mut attempt = 1u32;
        let mut prev_span = 0u64;
        loop {
            let span = padico_util::span::child_retry(
                tm.clock(),
                tm.node().0,
                layer,
                format!("connect:attempt{attempt}"),
                prev_span,
            );
            let outcome = match breaker_dst {
                Some(dst) => breaker_admit(tm, route.fabric.id(), dst).and_then(|()| {
                    let outcome = attempt_fn(&route, per_attempt);
                    match &outcome {
                        Ok(_) => breaker_note_success(tm, route.fabric.id(), dst),
                        Err(err) if err.is_transient() => {
                            breaker_note_failure(tm, route.fabric.id(), dst);
                        }
                        Err(_) => {}
                    }
                    outcome
                }),
                None => attempt_fn(&route, per_attempt),
            };
            prev_span = span.id();
            drop(span);
            match outcome {
                Ok(v) => return Ok(v),
                Err(err) if attempt < policy.max_attempts && err.is_transient() => {
                    let rec = tm.recovery();
                    faults::note(rec, |r| &r.connect_retries);
                    tm.telemetry()
                        .bump("recovery.connect_retries", tm.clock().now());
                    let charged = policy.charge_backoff(tm.clock(), attempt);
                    faults::note_backoff(rec, charged);
                    if err.is_link_level() {
                        if let Ok(next) =
                            tm.select_excluding(peers, paradigm, choice, &[route.fabric.id()])
                        {
                            faults::note(rec, |r| &r.route_failovers);
                            route = next;
                        }
                    }
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }
}

impl Drop for LinkCore {
    fn drop(&mut self) {
        // Last chance for queued frames; errors have nowhere to go.
        let _ = self.flush();
        self.stop_reactive();
    }
}

impl std::fmt::Debug for LinkCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LinkCore({} peers, {} on {})",
            self.peers.len(),
            self.layer,
            self.route.lock().fabric.model().name
        )
    }
}

/// Anything built on an arbitrated driver: exposes its [`LinkCore`] and
/// gets the common accessors for free. Layers above the abstraction layer
/// (personalities, MPI collectives, the ORB) program against this trait.
pub trait ArbitratedDriver {
    /// The shared link state machine under this driver.
    fn core(&self) -> &LinkCore;

    /// The route currently carrying the link.
    fn route(&self) -> Route {
        self.core().route()
    }

    /// The node's virtual clock (shared with the runtime).
    fn clock(&self) -> &SimClock {
        self.core().clock()
    }

    /// The nodes this link spans.
    fn link_peers(&self) -> &[NodeId] {
        self.core().peers()
    }

    /// Send any coalesced frames queued on this link now (no-op when
    /// coalescing is off). Protocol barriers — end of an RPC write, FIN,
    /// ACK — flush so the peer is never left waiting on a queued frame.
    fn flush(&self) -> Result<(), TmError> {
        self.core().flush()
    }
}

#[cfg(test)]
mod tests {
    //! Behavior owned by the core, exercised through BOTH paradigm
    //! adapters: failover, timeout surfacing, transparent encryption.
    use super::*;
    use crate::circuit::CircuitSpec;
    use crate::runtime::{PadicoTM, TmConfig};
    use crate::vlink::VLinkStream;
    use padico_fabric::topology::{single_cluster, two_clusters_wan};
    use padico_fabric::FabricKind;

    fn pair() -> (Arc<PadicoTM>, Arc<PadicoTM>) {
        let (topo, _ids) = single_cluster(2);
        let mut tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let b = tms.pop().unwrap();
        let a = tms.pop().unwrap();
        (a, b)
    }

    #[test]
    fn stream_fails_over_when_link_dies() {
        let (a, b) = pair();
        let listener = b.vlink_listen("fo").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = a.vlink_connect(b.node(), "fo", FabricChoice::Auto).unwrap();
        let server = bt.join().unwrap();
        let original = s.route().fabric.id();
        // The fabric carrying the stream dies between the two nodes; the
        // next write must retry, fail over, and still deliver.
        s.route().fabric.faults().partition_pair(a.node(), b.node());
        s.write_all(b"ping").unwrap();
        s.flush().unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert_ne!(s.route().fabric.id(), original, "route failed over");
        let snap = a.recovery().snapshot();
        assert!(snap.route_failovers >= 1, "{snap:?}");
        assert!(snap.send_retries >= 1, "{snap:?}");
        assert!(snap.backoff_ns > 0, "backoff charged to virtual clock");
        // Failed sends in a world without a breaker policy (the default)
        // create no breaker route table on either node.
        assert!(!a.has_lazy_parts() && !b.has_lazy_parts());
    }

    #[test]
    fn circuit_fails_over_when_group_fabric_dies() {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let circuits: Vec<_> = tms
            .iter()
            .map(|tm| tm.circuit(CircuitSpec::new("fo", ids.clone())).unwrap())
            .collect();
        let original = circuits[0].route().fabric.id();
        circuits[0]
            .route()
            .fabric
            .faults()
            .partition_pair(ids[0], ids[1]);
        circuits[0]
            .send(1, 9, Payload::from_vec(vec![4, 2]))
            .unwrap();
        circuits[0].flush().unwrap();
        let (src, h, body) = circuits[1].recv().unwrap();
        assert_eq!((src, h, body.to_vec()), (0, 9, vec![4, 2]));
        assert_ne!(circuits[0].route().fabric.id(), original, "failed over");
        let snap = tms[0].recovery().snapshot();
        assert!(snap.route_failovers >= 1, "{snap:?}");
        assert!(snap.backoff_ns > 0, "{snap:?}");
    }

    #[test]
    fn vlink_read_times_out_instead_of_hanging() {
        let (topo, _ids) = single_cluster(2);
        let cfg = TmConfig {
            default_deadline: Duration::from_millis(40),
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let listener = tms[1].vlink_listen("quiet").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = tms[0]
            .vlink_connect(tms[1].node(), "quiet", FabricChoice::Auto)
            .unwrap();
        let server = bt.join().unwrap();
        // Nobody ever writes: the read surfaces a typed timeout instead of
        // blocking the caller forever.
        let mut buf = [0u8; 1];
        let err = server.read(&mut buf).unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)), "{err}");
        drop(s);
    }

    #[test]
    fn circuit_recv_times_out_instead_of_hanging() {
        let (topo, ids) = single_cluster(2);
        let cfg = TmConfig {
            default_deadline: Duration::from_millis(40),
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let c0 = tms[0]
            .circuit(CircuitSpec::new("quiet", ids.clone()))
            .unwrap();
        let _c1 = tms[1].circuit(CircuitSpec::new("quiet", ids)).unwrap();
        // Rank 1 never sends: the barrier-ish wait surfaces a typed
        // timeout instead of deadlocking the rank.
        let err = c0.recv_from(1).unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)), "{err}");
    }

    #[test]
    fn accept_times_out_with_default_deadline() {
        let (topo, _ids) = single_cluster(1);
        let cfg = TmConfig {
            default_deadline: Duration::from_millis(30),
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let listener = tms[0].vlink_listen("lonely").unwrap();
        let err = listener.accept().unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)), "{err}");
    }

    #[test]
    fn connect_to_missing_service_times_out() {
        let (a, b) = pair();
        let err = VLinkStream::connect(
            Arc::clone(&a),
            b.node(),
            "nobody-home",
            FabricChoice::Auto,
            Duration::from_millis(30),
        )
        .unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)));
    }

    #[test]
    fn wan_stream_is_encrypted_but_transparent() {
        let (topo, a_ids, b_ids) = two_clusters_wan(1);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let a = Arc::clone(&tms[a_ids[0].0 as usize]);
        let b = Arc::clone(&tms[b_ids[0].0 as usize]);
        let listener = b.vlink_listen("secure").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = a
            .vlink_connect(b.node(), "secure", FabricChoice::Auto)
            .unwrap();
        let server = bt.join().unwrap();
        assert!(s.route().encrypt);
        let clock_before = a.clock().now();
        let data = padico_util::rng::payload(11, "secure", 10_000);
        s.write_all(&data).unwrap();
        assert!(a.clock().now() > clock_before, "cipher + wire time charged");
        let mut got = vec![0u8; data.len()];
        server.read_exact(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn cross_paradigm_circuit_over_wan_encrypts_transparently() {
        // A circuit spanning two clusters runs over the WAN (the only
        // common fabric) and encrypts — the middleware above sees nothing.
        let (topo, a, b) = two_clusters_wan(1);
        let group = vec![a[0], b[0]];
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let c0 = tms[a[0].0 as usize]
            .circuit(CircuitSpec::new("wan", group.clone()))
            .unwrap();
        let c1 = tms[b[0].0 as usize]
            .circuit(CircuitSpec::new("wan", group))
            .unwrap();
        assert_eq!(c0.route().fabric.kind(), FabricKind::Wan);
        assert!(c0.route().encrypt);
        assert!(!c0.route().straight);
        let data = padico_util::rng::payload(5, "wan-circuit", 512);
        c0.send(1, 11, Payload::from_vec(data.clone())).unwrap();
        let (src, h, body) = c1.recv().unwrap();
        assert_eq!((src, h), (0, 11));
        assert_eq!(body.to_vec(), data, "decrypted transparently");
    }

    #[test]
    fn trusted_route_skips_cipher_cost() {
        // Same payload, trusted SAN vs WAN: the trusted path must charge
        // strictly less sender time per byte (no cipher), which is the §6
        // optimization Padico anticipates.
        let len = 1 << 20;
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let listener = tms[1].vlink_listen("x").unwrap();
        let t = std::thread::spawn(move || listener.accept().unwrap());
        let s = tms[0]
            .vlink_connect(tms[1].node(), "x", FabricChoice::Kind(FabricKind::Myrinet))
            .unwrap();
        let _server = t.join().unwrap();
        let before = tms[0].clock().now();
        s.write_all(&vec![0u8; len]).unwrap();
        let trusted_cost = tms[0].clock().now() - before;

        let cipher_cost = padico_util::simtime::transfer_time(len, crate::security::CIPHER_MB_S);
        assert!(
            trusted_cost < cipher_cost,
            "trusted send ({trusted_cost} ns) must beat even just the cipher ({cipher_cost} ns)"
        );
    }

    #[test]
    fn cross_paradigm_stream_over_myrinet() {
        // The Figure 7 mechanism: a socket-shaped stream riding the SAN.
        let (a, b) = pair();
        let listener = b.vlink_listen("giop").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = a
            .vlink_connect(b.node(), "giop", FabricChoice::Kind(FabricKind::Myrinet))
            .unwrap();
        let server = bt.join().unwrap();
        assert_eq!(s.route().fabric.kind(), FabricKind::Myrinet);
        assert!(!s.route().straight, "stream on SAN is cross-paradigm");
        let data = padico_util::rng::payload(9, "vlink", 100_000);
        s.write_all(&data).unwrap();
        let mut got = vec![0u8; data.len()];
        server.read_exact(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn local_loopback_connection() {
        // Loopback is a core fast path: send_wire dispatches locally
        // without touching any fabric.
        let (a, _b) = pair();
        let listener = a.vlink_listen("self").unwrap();
        let a2 = Arc::clone(&a);
        let t = std::thread::spawn(move || {
            let s = listener.accept().unwrap();
            let mut b = [0u8; 3];
            s.read_exact(&mut b).unwrap();
            let _ = a2;
            b
        });
        let s = a
            .vlink_connect(a.node(), "self", FabricChoice::Auto)
            .unwrap();
        s.write_all(&[7, 8, 9]).unwrap();
        s.flush().unwrap();
        assert_eq!(t.join().unwrap(), [7, 8, 9]);
    }

    #[test]
    fn circuit_self_send_uses_loopback() {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let circuits: Vec<_> = tms
            .iter()
            .map(|tm| tm.circuit(CircuitSpec::new("lo", ids.clone())).unwrap())
            .collect();
        let before = circuits[0].clock().now();
        circuits[0].send(0, 7, Payload::from_vec(vec![9])).unwrap();
        let (src, h, p) = circuits[0].recv().unwrap();
        assert_eq!((src, h, p.to_vec()), (0, 7, vec![9]));
        assert_eq!(circuits[0].clock().now(), before);
    }

    fn shmem_circuits(name: &str) -> (Vec<Arc<PadicoTM>>, Vec<crate::circuit::Circuit>) {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let circuits = tms
            .iter()
            .map(|tm| {
                tm.circuit(
                    CircuitSpec::new(name, ids.clone())
                        .with_choice(FabricChoice::Kind(FabricKind::Shmem)),
                )
                .unwrap()
            })
            .collect();
        (tms, circuits)
    }

    #[test]
    fn send_over_shmem_preserves_segment_identity() {
        // The end-to-end zero-copy invariant through the unified send
        // loop: on a trusted no-kernel-copy fabric the receiver's body
        // segment is the *same allocation* the sender handed in — the
        // whole path is reference counting, never memcpy.
        let (_tms, circuits) = shmem_circuits("shm");
        let blob = bytes::Bytes::from(padico_util::rng::payload(21, "zc", 64 * 1024));
        let sent_ptr = blob.as_ptr();
        circuits[0].send(1, 5, Payload::from_bytes(blob)).unwrap();
        let (src, h, body) = circuits[1].recv().unwrap();
        assert_eq!((src, h), (0, 5));
        assert!(body.is_contiguous(), "body arrives as one segment");
        let got = body.segments().next().unwrap();
        assert_eq!(got.len(), 64 * 1024);
        assert_eq!(
            got.as_ptr(),
            sent_ptr,
            "receiver aliases the sender's buffer: zero physical copies"
        );
    }

    #[test]
    fn circuit_roundtrip_is_zero_copy_for_any_shape() {
        // Multi-segment gather lists of varying shapes survive a circuit
        // hop bit-exactly and every received segment still aliases sender
        // storage (no layer flattened the iovec).
        let (_tms, circuits) = shmem_circuits("shm-shapes");
        let shapes: &[&[usize]] = &[
            &[1],
            &[13, 1999],
            &[1024, 1, 4096, 7],
            &[500, 500, 500],
            &[1, 1, 1, 1, 1],
        ];
        for (case, shape) in shapes.iter().enumerate() {
            let mut payload = Payload::new();
            let mut ranges = Vec::new();
            for (i, len) in shape.iter().enumerate() {
                let seg = bytes::Bytes::from(vec![i as u8; *len]);
                ranges.push((seg.as_ptr() as usize, *len));
                payload.push_segment(seg);
            }
            let expect = payload.to_vec();
            circuits[0].send(1, case as u64, payload).unwrap();
            circuits[0].flush().unwrap();
            let (_, h, body) = circuits[1].recv().unwrap();
            assert_eq!(h, case as u64);
            assert_eq!(body.to_vec(), expect, "case {case}");
            for seg in body.segments() {
                let start = seg.as_ptr() as usize;
                assert!(
                    ranges.iter().any(|&(r_start, r_len)| {
                        r_start <= start && start + seg.len() <= r_start + r_len
                    }),
                    "case {case}: received segment does not alias sender storage"
                );
            }
        }
    }

    #[test]
    fn vlink_frame_preserves_segment_identity_on_trusted_route() {
        // A framed payload sent over the SAN must arrive as the very same
        // storage: the kind tag is peeled off the gather list, never
        // flattened into the body.
        let (a, b) = pair();
        let (tx, rx) = std::sync::mpsc::channel();
        crate::vlink::VLinkListener::on_accept(&b, "zc", move |stream| {
            let tx = tx.clone();
            // The handler owns its stream until end of stream.
            let server = Arc::clone(&stream);
            stream.on_frames(Arc::new(move |frame| match frame {
                Some(frame) => {
                    let _ = tx.send(frame);
                }
                None => server.stop_frames(),
            }))
        })
        .unwrap();
        let s = a
            .vlink_connect(b.node(), "zc", FabricChoice::Kind(FabricKind::Myrinet))
            .unwrap();
        let blob = bytes::Bytes::from(vec![0xAB; 64 * 1024]);
        let sent_ptr = blob.as_ptr();
        s.write_payload(Payload::from_bytes(blob)).unwrap();
        let frame = rx.recv().expect("one frame");
        assert!(frame.is_contiguous(), "frame should be one segment");
        let got = frame.to_contiguous();
        assert_eq!(got.len(), 64 * 1024);
        assert_eq!(
            got.as_ptr(),
            sent_ptr,
            "VLink frame must alias the sender's buffer end-to-end"
        );
    }

    #[test]
    fn going_reactive_mid_stream_loses_and_reorders_nothing() {
        // A link's channel keeps one handler for the link's whole life.
        // Frames queued before the switch drain through the frame handler
        // first, one landing mid-drain queues behind them, and later ones
        // follow: none lost, none reordered.
        fn send(stream: &VLinkStream, byte: u8) {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
        }
        const WAIT: Duration = Duration::from_secs(5);
        let (a, b) = pair();
        let listener = b.vlink_listen("mid").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let client = Arc::new(
            a.vlink_connect(b.node(), "mid", FabricChoice::Auto)
                .unwrap(),
        );
        let server = Arc::new(bt.join().unwrap());
        let sched = Arc::clone(a.topology().sched());
        for byte in 0..3 {
            send(&client, byte);
        }
        assert!(sched.quiesce(WAIT), "frames 0-2 wait in the inbox");
        let (tx, rx) = std::sync::mpsc::channel();
        let mid = Arc::clone(&client);
        server
            .on_frames(Arc::new(move |frame| {
                let Some(frame) = frame else { return };
                let byte = frame.to_vec()[0];
                if byte == 0 {
                    // Still draining the backlog on the caller's thread:
                    // land frame 3 in the inbox right now.
                    send(&mid, 3);
                    assert!(sched.quiesce(WAIT));
                }
                let _ = tx.send(byte);
            }))
            .unwrap();
        send(&client, 4);
        let got: Vec<u8> = (0..5)
            .map(|_| rx.recv_timeout(WAIT).expect("frame lost"))
            .collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        // A served link has no pull side any more.
        let err = server.read(&mut [0u8; 1]).unwrap_err();
        assert!(matches!(err, TmError::Protocol(_)), "{err}");
    }

    #[test]
    fn stopping_mid_drain_installs_no_handler() {
        // The backlog ends in FIN, and the frame handler, which owns its
        // stream, stops the stream there while the switch is still
        // draining. The stopped link must drop the handler rather than
        // install it, or handler and stream keep each other alive.
        const WAIT: Duration = Duration::from_secs(5);
        let (a, b) = pair();
        let listener = b.vlink_listen("fin").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let client = a
            .vlink_connect(b.node(), "fin", FabricChoice::Auto)
            .unwrap();
        let server = Arc::new(bt.join().unwrap());
        for byte in 0..3 {
            client.write_all(&[byte]).unwrap();
        }
        client.close().unwrap();
        assert!(
            a.topology().sched().quiesce(WAIT),
            "frames 0-2 and the FIN wait in the inbox"
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let owner = Arc::clone(&server);
        server
            .on_frames(Arc::new(move |frame| match frame {
                Some(frame) => {
                    let _ = tx.send(frame.to_vec()[0]);
                }
                None => owner.stop_frames(),
            }))
            .unwrap();
        // The whole backlog drained on this thread, inside `on_frames`.
        assert_eq!(rx.try_iter().collect::<Vec<u8>>(), [0, 1, 2]);
        let stream = Arc::downgrade(&server);
        drop(server);
        assert!(
            stream.upgrade().is_none(),
            "the handler outlived its stopped stream"
        );
    }

    fn coalesced_circuits(
        name: &str,
        kind: FabricKind,
    ) -> (Vec<Arc<PadicoTM>>, Vec<crate::circuit::Circuit>) {
        let (topo, ids) = single_cluster(2);
        let cfg = TmConfig {
            coalesce: true,
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let circuits = tms
            .iter()
            .map(|tm| {
                tm.circuit(
                    CircuitSpec::new(name, ids.clone()).with_choice(FabricChoice::Kind(kind)),
                )
                .unwrap()
            })
            .collect();
        (tms, circuits)
    }

    #[test]
    fn coalescing_aggregates_small_frames_and_preserves_order() {
        let (tms, circuits) = coalesced_circuits("co", FabricKind::Myrinet);
        // Ten sub-threshold frames, one oversize (bypasses the batch but
        // must not overtake it), then two more small ones.
        let mut sent = Vec::new();
        for i in 0..10u8 {
            sent.push(vec![i; 8]);
        }
        sent.push(vec![0xEE; 500]);
        sent.push(vec![0xAA; 3]);
        sent.push(vec![0xBB; 0]);
        for (i, body) in sent.iter().enumerate() {
            circuits[0]
                .send(1, i as u64, Payload::from_vec(body.clone()))
                .unwrap();
        }
        circuits[0].core().flush().unwrap();
        for (i, body) in sent.iter().enumerate() {
            let (src, h, got) = circuits[1].recv().unwrap();
            assert_eq!((src, h), (0, i as u64), "order preserved");
            assert_eq!(got.to_vec(), *body, "frame {i} byte-identical");
        }
        let (frames_coalesced, flushes) = tms[0].telemetry().coalesce_counts();
        assert!(
            frames_coalesced >= 12,
            "12 sub-threshold frames entered batches"
        );
        assert!(flushes > 0, "at least one batch flushed");
    }

    #[test]
    fn coalesced_loopback_roundtrip() {
        let (_tms, circuits) = coalesced_circuits("co-lo", FabricKind::Myrinet);
        circuits[0]
            .send(0, 3, Payload::from_vec(vec![1, 2]))
            .unwrap();
        circuits[0].send(0, 4, Payload::from_vec(vec![3])).unwrap();
        // recv flushes our own batch first, so no explicit flush needed.
        let (_, h, p) = circuits[0].recv().unwrap();
        assert_eq!((h, p.to_vec()), (3, vec![1, 2]));
        let (_, h, p) = circuits[0].recv().unwrap();
        assert_eq!((h, p.to_vec()), (4, vec![3]));
    }

    #[test]
    fn corrupted_aggregate_classifies_once_not_per_subframe() {
        let (tms, circuits) = coalesced_circuits("co-corrupt", FabricKind::Myrinet);
        let fabric = circuits[0].route().fabric;
        // Arm after setup: every wire message from here on is corrupted.
        fabric.faults().set_plan(padico_fabric::FaultPlan {
            seed: 7,
            corrupt_pct: 100,
            ..Default::default()
        });
        for i in 0..5u64 {
            circuits[0]
                .send(1, i, Payload::from_vec(vec![i as u8; 4]))
                .unwrap();
        }
        circuits[0].core().flush().unwrap();
        let err = circuits[1]
            .core()
            .recv_intact(Some(Duration::from_millis(50)))
            .unwrap_err();
        assert!(matches!(err, TmError::Timeout(_)), "{err}");
        let discards = tms[1].recovery().snapshot().corrupt_discards;
        assert_eq!(
            discards, 1,
            "one damaged aggregate = ONE corrupt discard, not five"
        );
    }

    #[test]
    fn dropped_aggregate_is_one_wire_loss() {
        let (_tms, circuits) = coalesced_circuits("co-drop", FabricKind::Myrinet);
        let fabric = circuits[0].route().fabric;
        fabric.faults().set_plan(padico_fabric::FaultPlan {
            seed: 9,
            drop_pct: 100,
            ..Default::default()
        });
        for i in 0..6u64 {
            circuits[0]
                .send(1, i, Payload::from_vec(vec![0; 8]))
                .unwrap();
        }
        circuits[0].core().flush().unwrap();
        assert_eq!(
            fabric.faults().counters().dropped,
            1,
            "six coalesced frames crossed as one wire message"
        );
    }

    #[test]
    fn breaker_trips_fails_fast_and_recovers_via_half_open_probe() {
        let cooldown = 5 * padico_util::simtime::MS;
        let (topo, _ids) = single_cluster(2);
        let cfg = TmConfig {
            breaker: Some(crate::runtime::BreakerPolicy {
                trip_after: 1,
                cooldown,
            }),
            // Uncoalesced so each write is its own wire attempt and the
            // breaker errors surface on the write, not a later flush.
            coalesce: false,
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let listener = tms[1].vlink_listen("brk").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = tms[0]
            .vlink_connect(tms[1].node(), "brk", FabricChoice::Auto)
            .unwrap();
        let server = bt.join().unwrap();
        // Partition EVERY fabric between the pair: failover has nowhere
        // to go, so consecutive attempts fail and trip route breakers.
        let (a, b) = (tms[0].node(), tms[1].node());
        for f in tms[0].net().fabrics() {
            f.faults().partition_pair(a, b);
        }
        let refusals = || -> u64 {
            tms[0]
                .net()
                .fabrics()
                .iter()
                .map(|f| f.fault_stats().link_down_refusals)
                .sum()
        };
        // With trip_after = 1, every failed attempt opens the fabric it
        // ran on; once all fabrics are quarantined the send fails fast.
        let err = s.write_all(b"ping").unwrap_err();
        assert!(
            matches!(err, TmError::CircuitOpen(_)),
            "all routes quarantined: {err}"
        );
        assert!(err.is_transient() && !err.is_link_level());
        let wire_attempts = refusals();
        assert!(wire_attempts > 0, "the tripping attempts touched the wire");
        // While open: fail fast with NO wire traffic on the route.
        let err = s.write_all(b"ping").unwrap_err();
        assert!(matches!(err, TmError::CircuitOpen(_)), "{err}");
        assert_eq!(
            refusals(),
            wire_attempts,
            "an open breaker must not generate wire traffic"
        );
        let counters = tms[0].telemetry().metrics().counters;
        assert!(counters["tm.breaker.opened"] >= 1, "{counters:?}");
        assert!(counters["tm.breaker.fast_failures"] >= 1, "{counters:?}");
        // Breaker tables are per node: the routes tripped on A stay
        // closed on B.
        assert!(tms.iter().all(|tm| tm.has_breaker_routes()));
        for f in tms[0].net().fabrics() {
            assert!(breaker_admit(&tms[1], f.id(), a).is_ok(), "B's route to A");
        }
        // Heal the links and let the cooldown elapse on the virtual
        // clock: the next send is the half-open probe and closes the
        // breaker.
        for f in tms[0].net().fabrics() {
            f.faults().heal_pair(a, b);
        }
        tms[0].clock().advance(cooldown);
        s.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        let counters = tms[0].telemetry().metrics().counters;
        assert!(counters["tm.breaker.probes"] >= 1, "{counters:?}");
        assert_eq!(counters["tm.breaker.closed"], 1, "{counters:?}");
    }

    #[test]
    fn both_adapters_expose_the_same_core_api() {
        // The trait is the upward-facing API: a function generic over
        // ArbitratedDriver serves a Circuit and a VLinkStream alike.
        fn fabric_kind_of(d: &impl ArbitratedDriver) -> FabricKind {
            assert!(d.link_peers().len() >= 2);
            let _ = d.clock().now();
            d.route().fabric.kind()
        }
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let c = tms[0]
            .circuit(CircuitSpec::new("trait", ids.clone()))
            .unwrap();
        let _other = tms[1].circuit(CircuitSpec::new("trait", ids)).unwrap();
        let listener = tms[1].vlink_listen("trait").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = tms[0]
            .vlink_connect(tms[1].node(), "trait", FabricChoice::Auto)
            .unwrap();
        let _server = bt.join().unwrap();
        let _ = fabric_kind_of(&c);
        let _ = fabric_kind_of(&s);
    }
}

#[cfg(test)]
mod proptests {
    //! Coalescing transparency: across random message mixes, delivery
    //! through a coalescing link is byte- and order-identical to an
    //! uncoalesced one.
    use super::*;
    use crate::circuit::CircuitSpec;
    use crate::runtime::{PadicoTM, TmConfig};
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;
    use proptest::prelude::*;

    /// Send `bodies` rank0 -> rank1 on a fresh two-node Myrinet circuit
    /// (coalescing per `coalesce`), then receive them all back.
    fn roundtrip(bodies: &[Vec<u8>], coalesce: bool) -> Vec<(u32, u64, Vec<u8>)> {
        let (topo, ids) = single_cluster(2);
        let cfg = TmConfig {
            coalesce,
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let circuits: Vec<_> = tms
            .iter()
            .map(|tm| {
                tm.circuit(
                    CircuitSpec::new("mix", ids.clone())
                        .with_choice(FabricChoice::Kind(FabricKind::Myrinet)),
                )
                .unwrap()
            })
            .collect();
        for (i, body) in bodies.iter().enumerate() {
            circuits[0]
                .send(1, i as u64, Payload::from_vec(body.clone()))
                .unwrap();
        }
        circuits[0].core().flush().unwrap();
        bodies
            .iter()
            .map(|_| {
                let (src, h, p) = circuits[1].recv().unwrap();
                (src, h, p.to_vec())
            })
            .collect()
    }

    proptest! {
        #[test]
        fn coalesced_delivery_matches_uncoalesced(
            bodies in proptest::collection::vec(
                // Lengths straddle the 64-byte coalescing threshold (the
                // 12-byte circuit header counts against it too).
                proptest::collection::vec(any::<u8>(), 0..150),
                1..12,
            ),
        ) {
            let plain = roundtrip(&bodies, false);
            let coalesced = roundtrip(&bodies, true);
            prop_assert_eq!(plain, coalesced);
        }
    }
}
