//! VLink — the distributed-oriented abstract interface.
//!
//! A VLink (paper §4.3.2) is a dynamic, connection-oriented byte stream:
//! the shape distributed middleware (an ORB's GIOP transport, a SOAP
//! stack) expects. Like Circuit, it is provided on top of *every*
//! arbitrated driver: straight on sockets, cross-paradigm over Myrinet —
//! which is precisely how CORBA reaches 240 MB/s in Figure 7: omniORB
//! talks to a socket-looking VLink that actually rides the SAN.
//!
//! The stream is a thin paradigm adapter over [`LinkCore`]: framing, the
//! handshake, and the per-direction cipher offsets live here; route
//! selection, retry, failover and span emission are the core's.
//!
//! ## Protocol
//!
//! * A listener binds a well-known channel derived from
//!   `"vlink:<service>@<node>"`.
//! * `connect` allocates two fresh channels (client→server and
//!   server→client), subscribes its receiving one, and sends `SYN` with
//!   both ids; the listener claims the other and replies `ACK`. Either
//!   side then exchanges `DATA` frames and closes with `FIN`.
//! * A listener either pulls connections with [`VLinkListener::accept`]
//!   or serves them with [`VLinkListener::on_accept`], whose SYNs are
//!   handled inline on a world-scheduler worker — no listener thread. A
//!   malformed SYN is counted (`tm.vlink.bad_syn`) and dropped; it never
//!   stops a listener.
//! * On untrusted routes every `DATA` frame is encrypted with a session
//!   key derived from the channel pair (toy cipher — see
//!   [`crate::security`]).

use padico_fabric::{Message, Paradigm, Payload};
use padico_util::ids::{ChannelId, NodeId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crate::arbitration::{fresh_channel, named_channel};
use crate::driver::{ArbitratedDriver, LinkCore};
use crate::error::TmError;
use crate::runtime::PadicoTM;
use crate::security::SessionKey;
use crate::selector::{FabricChoice, Route};

const KIND_SYN: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_FIN: u8 = 4;

/// SYN layout: kind, client→server channel, server→client channel, client
/// node, fabric-choice code.
const SYN_LEN: usize = 1 + 8 + 8 + 4 + 1;

/// The one-byte frame tag as a static segment: prepending it to a frame
/// is a gather-list append, not an allocation per frame.
fn kind_segment(kind: u8) -> bytes::Bytes {
    static KINDS: [u8; 4] = [KIND_SYN, KIND_ACK, KIND_DATA, KIND_FIN];
    bytes::Bytes::from_static(std::slice::from_ref(&KINDS[usize::from(kind) - 1]))
}

fn listener_channel(service: &str, node: NodeId) -> ChannelId {
    named_channel(&format!("vlink:{service}@{node}"))
}

/// Wire codes for the fabric choice carried in the SYN (index = code).
fn choice_codes() -> [FabricChoice; 6] {
    use padico_fabric::FabricKind::*;
    [
        FabricChoice::Auto,
        FabricChoice::Kind(Myrinet),
        FabricChoice::Kind(Sci),
        FabricChoice::Kind(Ethernet),
        FabricChoice::Kind(Wan),
        FabricChoice::Kind(Shmem),
    ]
}

fn encode_choice(choice: FabricChoice) -> u8 {
    choice_codes().iter().position(|&c| c == choice).expect("known choice") as u8
}

fn decode_choice(byte: u8) -> Option<FabricChoice> {
    choice_codes().get(usize::from(byte)).copied()
}

/// A validated SYN: the client's channel pair, its node, and the fabric
/// it asked for.
struct Syn {
    c2s: ChannelId,
    s2c: ChannelId,
    peer: NodeId,
    choice: FabricChoice,
}

impl Syn {
    /// Validate one delivery on a listener channel. A corrupted SYN is as
    /// good as a lost one (the client's connect retry re-sends it); a
    /// malformed one is counted in `tm.vlink.bad_syn`. Both are dropped:
    /// no bytes off the wire stop a listener from accepting.
    fn parse(tm: &PadicoTM, msg: &Message) -> Option<Syn> {
        if msg.corrupted {
            crate::faults::note(tm.recovery(), |r| &r.corrupt_discards);
            return None;
        }
        // SYN frames are sent as one segment, so this flatten is free.
        let syn = msg.payload.to_contiguous();
        let choice = (syn.len() == SYN_LEN && syn[0] == KIND_SYN)
            .then(|| decode_choice(syn[21]))
            .flatten();
        let Some(choice) = choice else {
            tm.telemetry().counter_add("tm.vlink.bad_syn", 1);
            return None;
        };
        Some(Syn {
            c2s: ChannelId(u64::from_le_bytes(syn[1..9].try_into().expect("8"))),
            s2c: ChannelId(u64::from_le_bytes(syn[9..17].try_into().expect("8"))),
            peer: NodeId(u32::from_le_bytes(syn[17..21].try_into().expect("4"))),
            choice,
        })
    }

    /// The listener's end of the handshake, un-ACKed: it receives on
    /// client→server and transmits on server→client.
    fn establish(&self, tm: &Arc<PadicoTM>) -> Result<VLinkStream, TmError> {
        let core = LinkCore::establish(
            Arc::clone(tm),
            vec![tm.node(), self.peer],
            Paradigm::Distributed,
            self.choice,
            "tm.vlink",
            self.c2s,
        )?;
        Ok(VLinkStream::assemble(
            core,
            self.peer,
            self.s2c,
            SessionKey::derive(self.c2s.0, self.s2c.0),
        ))
    }
}

/// Passive side of the VLink abstraction.
pub struct VLinkListener {
    tm: Arc<PadicoTM>,
    service: String,
    rx: crate::arbitration::ChannelRx,
}

impl VLinkListener {
    pub(crate) fn bind(tm: Arc<PadicoTM>, service: &str) -> Result<VLinkListener, TmError> {
        let rx = tm.net().subscribe(listener_channel(service, tm.node()))?;
        Ok(VLinkListener {
            tm,
            service: service.to_string(),
            rx,
        })
    }

    /// Serve `service` on `tm` without a thread: each SYN is validated
    /// inline on a world-scheduler worker, and `on_stream` receives the
    /// established stream *before* its ACK goes out. Nothing can arrive on
    /// the stream until the client sees that ACK, so `on_stream` may hand
    /// it to a reactive handler ([`VLinkStream::on_frames`]) with no frame
    /// able to slip past the handover, or to a thread of its own. An
    /// `Err` from `on_stream` withholds the ACK (the client's connect
    /// retries). `on_stream` runs on a scheduler worker and must not
    /// block. The listener stays up until [`VLinkListener::off_accept`].
    pub fn on_accept(
        tm: &Arc<PadicoTM>,
        service: &str,
        on_stream: impl Fn(Arc<VLinkStream>) -> Result<(), TmError> + Send + Sync + 'static,
    ) -> Result<(), TmError> {
        // The node's own registry holds this handler: a strong runtime
        // handle would keep the node alive forever.
        let weak_tm = Arc::downgrade(tm);
        tm.net().on_channel(
            listener_channel(service, tm.node()),
            Arc::new(move |msg: Message| {
                let Some(tm) = weak_tm.upgrade() else {
                    return;
                };
                msg.deliver(tm.clock());
                let Some(syn) = Syn::parse(&tm, &msg) else {
                    return;
                };
                let served = syn.establish(&tm).and_then(|stream| {
                    let stream = Arc::new(stream);
                    on_stream(Arc::clone(&stream))?;
                    stream.ack().inspect_err(|_| stream.stop_frames())
                });
                // Nobody to answer: the client's connect times out and
                // retries.
                if served.is_err() {
                    tm.telemetry().counter_add("tm.vlink.accept_failed", 1);
                }
            }),
        )
    }

    /// Stop a listener started with [`VLinkListener::on_accept`]: later
    /// SYNs park unanswered. Established streams are unaffected.
    /// Idempotent.
    pub fn off_accept(tm: &PadicoTM, service: &str) {
        tm.net().off_channel(listener_channel(service, tm.node()));
    }

    /// Accept one incoming connection. "Blocking" is bounded by the
    /// runtime's default deadline — a dead peer surfaces
    /// [`TmError::Timeout`] instead of hanging the acceptor forever.
    pub fn accept(&self) -> Result<VLinkStream, TmError> {
        let timeout = self.tm.config().default_deadline;
        let syn = loop {
            let msg = self.rx.recv_timeout(self.tm.clock(), timeout)?;
            if let Some(syn) = Syn::parse(&self.tm, &msg) {
                break syn;
            }
        };
        let stream = syn.establish(&self.tm)?;
        stream.ack()?;
        Ok(stream)
    }
}

/// One end of an established VLink byte stream.
pub struct VLinkStream {
    core: LinkCore,
    peer: NodeId,
    tx_channel: ChannelId,
    key: SessionKey,
    /// Bytes received but not yet read, plus EOF flag.
    buffer: Mutex<StreamBuffer>,
    /// Running keystream offsets per direction (encrypt / decrypt).
    tx_offset: Mutex<u64>,
    rx_offset: Mutex<u64>,
}

impl ArbitratedDriver for VLinkStream {
    fn core(&self) -> &LinkCore {
        &self.core
    }
}

/// Received-but-unread data, kept as the segments the wire delivered —
/// `read` copies into the caller's buffer (that copy is inherent to the
/// read(2)-style API); a reactive handler gets frames untouched.
#[derive(Default)]
struct StreamBuffer {
    segments: VecDeque<bytes::Bytes>,
    len: usize,
    eof: bool,
}

impl StreamBuffer {
    fn push(&mut self, seg: bytes::Bytes) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segments.push_back(seg);
        }
    }

    /// Copy up to `buf.len()` buffered bytes out; returns the count.
    fn copy_out(&mut self, buf: &mut [u8]) -> usize {
        let mut done = 0;
        while done < buf.len() {
            let Some(front) = self.segments.front_mut() else {
                break;
            };
            let n = front.len().min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&front[..n]);
            done += n;
            self.len -= n;
            if n == front.len() {
                self.segments.pop_front();
            } else {
                *front = front.slice(n..);
            }
        }
        done
    }
}

impl VLinkStream {
    fn assemble(
        core: LinkCore,
        peer: NodeId,
        tx_channel: ChannelId,
        key: SessionKey,
    ) -> VLinkStream {
        VLinkStream {
            core,
            peer,
            tx_channel,
            key,
            buffer: Mutex::new(StreamBuffer::default()),
            tx_offset: Mutex::new(0),
            rx_offset: Mutex::new(0),
        }
    }

    pub(crate) fn connect(
        tm: Arc<PadicoTM>,
        dst: NodeId,
        service: &str,
        choice: FabricChoice,
        timeout: Duration,
    ) -> Result<VLinkStream, TmError> {
        LinkCore::connect_with_retry(
            &tm,
            &[tm.node(), dst],
            Paradigm::Distributed,
            choice,
            "tm.vlink",
            timeout,
            |route, per_attempt| {
                VLinkStream::connect_once(&tm, dst, service, choice, route, per_attempt)
            },
        )
    }

    /// One handshake attempt. Each attempt uses fresh channels so a late
    /// ACK for a timed-out attempt cannot be mistaken for this one's.
    fn connect_once(
        tm: &Arc<PadicoTM>,
        dst: NodeId,
        service: &str,
        choice: FabricChoice,
        route: &Route,
        timeout: Duration,
    ) -> Result<VLinkStream, TmError> {
        let c2s = fresh_channel();
        let s2c = fresh_channel();
        let rx = tm.net().subscribe(s2c)?;
        let mut syn = padico_fabric::pool::lease(22);
        syn.push(KIND_SYN);
        syn.extend_from_slice(&c2s.0.to_le_bytes());
        syn.extend_from_slice(&s2c.0.to_le_bytes());
        syn.extend_from_slice(&tm.node().0.to_le_bytes());
        syn.push(encode_choice(choice));
        let syn = Payload::from_bytes(syn.freeze());
        let listener = listener_channel(service, dst);
        if dst == tm.node() {
            tm.net().send_local(listener, syn)?;
        } else {
            tm.net().send(route.fabric.id(), dst, listener, syn)?;
        }
        let core = LinkCore::adopt(
            Arc::clone(tm),
            vec![tm.node(), dst],
            Paradigm::Distributed,
            "tm.vlink",
            route.clone(),
            rx,
        );
        let stream = VLinkStream::assemble(core, dst, c2s, SessionKey::derive(c2s.0, s2c.0));
        // Wait for ACK (the core discards corrupted ones as lost).
        let ack = stream.core.recv_intact(Some(timeout))?;
        if ack.payload.first_byte() != Some(KIND_ACK) {
            return Err(TmError::Protocol("expected ACK".into()));
        }
        Ok(stream)
    }

    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Answer the client's SYN; flushed immediately — the client is
    /// blocked on it.
    fn ack(&self) -> Result<(), TmError> {
        self.send_frame(KIND_ACK, Payload::new())?;
        self.core.flush()
    }

    fn send_frame(&self, kind: u8, body: Payload) -> Result<(), TmError> {
        let mut wire = Payload::new();
        wire.push_segment(kind_segment(kind));
        wire.append(body);
        self.core.send_wire(self.peer, self.tx_channel, wire, "send")
    }

    /// Write all of `data` to the stream (one DATA frame).
    pub fn write_all(&self, data: &[u8]) -> Result<(), TmError> {
        self.write_payload(Payload::copy_from(data))
    }

    /// Push any coalesced frames to the wire now (no-op when coalescing
    /// is off). With coalescing on by default, call this at protocol
    /// barriers — end of an RPC write, before blocking on the peer's
    /// reply. Entering this stream's own receive path flushes
    /// implicitly, and [`VLinkStream::close`] flushes before the FIN.
    pub fn flush(&self) -> Result<(), TmError> {
        self.core.flush()
    }

    /// Write a payload to the stream without copying it (zero-copy path
    /// for single-segment payloads on trusted routes).
    pub fn write_payload(&self, body: Payload) -> Result<(), TmError> {
        let body = if self.core.encrypt() {
            self.apply_cipher(&self.tx_offset, &body)
        } else {
            body
        };
        self.send_frame(KIND_DATA, body)
    }

    /// Run the stream cipher over `body` at the given direction offset.
    /// The cipher must walk every byte: the copy is real work, charged at
    /// `CIPHER_MB_S`.
    fn apply_cipher(&self, offset: &Mutex<u64>, body: &Payload) -> Payload {
        let mut offset = offset.lock();
        let mut buf = padico_fabric::pool::lease(body.len());
        for seg in body.segments() {
            buf.extend_from_slice(seg);
        }
        self.key.apply(&mut buf, *offset);
        *offset += buf.len() as u64;
        self.core
            .clock()
            .advance(padico_util::simtime::transfer_time(
                buf.len(),
                crate::security::CIPHER_MB_S,
            ));
        Payload::from_bytes(buf.freeze())
    }

    /// Read up to `buf.len()` bytes; returns 0 at end-of-stream.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, TmError> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            {
                let mut b = self.buffer.lock();
                if b.len > 0 {
                    return Ok(b.copy_out(buf));
                }
                if b.eof {
                    return Ok(0);
                }
            }
            // Bounded by the runtime's default deadline — a silent peer
            // surfaces Timeout instead of blocking the reader forever.
            let msg = self.core.recv_intact(None)?;
            self.ingest(msg, |body, buffer| {
                for seg in body.segments() {
                    buffer.push(seg.clone());
                }
            })?;
        }
    }

    /// Read exactly `buf.len()` bytes or fail.
    pub fn read_exact(&self, buf: &mut [u8]) -> Result<(), TmError> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.read(&mut buf[done..])?;
            if n == 0 {
                return Err(TmError::Closed);
            }
            done += n;
        }
        Ok(())
    }

    /// Hand the stream over to a reactive frame handler (see
    /// [`LinkCore::go_reactive`]): every subsequent DATA frame is
    /// decrypted and run through `on_frame` inline on a world-scheduler
    /// worker, so no thread ever parks on this stream. `on_frame` receives `None`
    /// exactly once when the peer's FIN arrives (or on a framing error).
    ///
    /// Must be called while the stream is quiescent inbound (a client
    /// connection right after its handshake qualifies); afterwards the
    /// pull-style `read*` methods are unavailable. The handler holds the
    /// stream weakly: dropping the stream's last owner releases the
    /// handler too.
    pub fn on_frames(
        self: &Arc<Self>,
        on_frame: Arc<dyn Fn(Option<Payload>) + Send + Sync>,
    ) -> Result<(), TmError> {
        let this = Arc::downgrade(self);
        self.core.go_reactive(Arc::new(move |msg| {
            let Some(this) = this.upgrade() else {
                return;
            };
            let mut out = None;
            match this.ingest(msg, |body, _buffer| out = Some(body)) {
                Ok(()) => match out {
                    Some(frame) => on_frame(Some(frame)),
                    None => {
                        // No frame produced means a FIN landed.
                        if this.buffer.lock().eof {
                            on_frame(None);
                        }
                    }
                },
                Err(_) => on_frame(None),
            }
        }))
    }

    /// Release the handler installed by [`VLinkStream::on_frames`] and
    /// everything it captured; later frames park unread. A handler may
    /// stop its own stream (a server at end of stream does); the running
    /// invocation finishes normally.
    pub fn stop_frames(&self) {
        self.core.stop_reactive();
    }

    fn ingest(
        &self,
        msg: padico_fabric::Message,
        mut sink: impl FnMut(Payload, &mut StreamBuffer),
    ) -> Result<(), TmError> {
        // Peek the one-byte kind tag without flattening or restructuring
        // the gather list; only DATA frames pay for the split.
        let Some(kind) = msg.payload.first_byte() else {
            return Err(TmError::Protocol("empty frame".into()));
        };
        match kind {
            KIND_DATA => {
                let (_tag, body) = msg.payload.split_at(1);
                let body = if self.core.encrypt() {
                    self.apply_cipher(&self.rx_offset, &body)
                } else {
                    body
                };
                let mut b = self.buffer.lock();
                sink(body, &mut b);
                Ok(())
            }
            KIND_FIN => {
                self.buffer.lock().eof = true;
                Ok(())
            }
            other => Err(TmError::Protocol(format!("unexpected frame kind {other}"))),
        }
    }

    /// Close the sending direction (peer reads return EOF after draining).
    /// Flushes any coalesced frames so the FIN is on the wire when this
    /// returns.
    ///
    /// Closing is an explicit act and the ONLY source of FIN frames:
    /// merely dropping a stream is abortive — no FIN, no flush, no wire
    /// traffic. Streams are often dropped by dispatch workers or handlers
    /// (or on a timed-out connect attempt) at wall-clock mercy, and a
    /// drop-time FIN would land in whatever metrics window happens to be
    /// open — the exact nondeterminism that kept per-fabric `bytes.*`
    /// counters out of same-seed identity comparisons.
    pub fn close(&self) -> Result<(), TmError> {
        self.send_frame(KIND_FIN, Payload::new())?;
        self.core.flush()
    }
}

impl std::fmt::Debug for VLinkStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VLinkStream({} <-> {} on {})",
            self.core.tm().node(),
            self.peer,
            self.route().fabric.model().name
        )
    }
}

impl std::fmt::Debug for VLinkListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VLinkListener(`{}` on {})", self.service, self.tm.node())
    }
}

#[cfg(test)]
mod tests {
    //! Protocol-level tests (handshake, framing, buffering). Core-owned
    //! behavior — failover, timeouts, encryption, loopback, zero-copy —
    //! is tested once in [`crate::driver`], through both adapters.
    use super::*;
    use padico_fabric::topology::single_cluster;

    fn pair() -> (Arc<PadicoTM>, Arc<PadicoTM>) {
        let (topo, _ids) = single_cluster(2);
        let mut tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let b = tms.pop().unwrap();
        let a = tms.pop().unwrap();
        (a, b)
    }

    #[test]
    fn connect_accept_and_exchange() {
        let (a, b) = pair();
        let listener = b.vlink_listen("echo").unwrap();
        let bt = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let s = listener.accept().unwrap();
                let mut buf = [0u8; 5];
                s.read_exact(&mut buf).unwrap();
                s.write_all(&buf.map(|x| x + 1)).unwrap();
                let _ = b; // keep runtime alive during service
            })
        };
        let s = a
            .vlink_connect(b.node(), "echo", FabricChoice::Auto)
            .unwrap();
        s.write_all(&[1, 2, 3, 4, 5]).unwrap();
        let mut reply = [0u8; 5];
        s.read_exact(&mut reply).unwrap();
        assert_eq!(reply, [2, 3, 4, 5, 6]);
        bt.join().unwrap();
    }

    #[test]
    fn read_smaller_than_frame_buffers_rest() {
        let (a, b) = pair();
        let listener = b.vlink_listen("svc").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = a.vlink_connect(b.node(), "svc", FabricChoice::Auto).unwrap();
        let server = bt.join().unwrap();
        s.write_all(b"abcdef").unwrap();
        s.flush().unwrap();
        let mut part = [0u8; 2];
        server.read_exact(&mut part).unwrap();
        assert_eq!(&part, b"ab");
        let mut rest = [0u8; 4];
        server.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"cdef");
    }

    #[test]
    fn fin_yields_eof_after_drain() {
        let (a, b) = pair();
        let listener = b.vlink_listen("svc2").unwrap();
        let bt = std::thread::spawn(move || listener.accept().unwrap());
        let s = a.vlink_connect(b.node(), "svc2", FabricChoice::Auto).unwrap();
        let server = bt.join().unwrap();
        s.write_all(b"xy").unwrap();
        s.close().unwrap();
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"xy");
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after FIN");
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF is sticky");
    }

}
