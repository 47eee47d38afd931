//! Completion-driven request multiplexer: one per (node, peer endpoint).
//!
//! The [`RequestMux`] owns everything one pooled client connection needs
//! to pipeline invocations: the VLink stream, the write lock, the
//! pending-reply table, and request-id allocation. GIOP and ESIOP share
//! it — frames are auto-detected per message by [`decode_any`], the same
//! routine the server loop uses, so there is exactly one decode/routing
//! path in the ORB.
//!
//! The API is two-phase: [`RequestMux::submit`] registers interest and
//! writes the frame, returning a [`ReplyHandle`]; [`ReplyHandle::wait`]
//! blocks until the routed reply lands (or the deadline passes, which
//! sends a best-effort `CancelRequest` chasing the abandoned id). N
//! outstanding requests therefore cost N table entries, not N blocked
//! threads, and replies may return in any order — the table routes each
//! one to its handle by request id.
//!
//! Replies complete as scheduler events: the stream goes reactive
//! ([`VLinkStream::on_frames`]) and each reply completes its slot inline
//! on the world-scheduler worker that delivers the frame. No reader
//! thread exists at all.
//!
//! A handle dropped without being consumed deregisters its pending entry
//! (see [`ReplyHandle`]'s `Drop`), so a reply racing a cancel — or a
//! caller abandoning a submitted request on an error path — can never
//! leak a table slot.

use padico_fabric::Payload;
use padico_tm::vlink::VLinkStream;
use padico_tm::{ArbitratedDriver, TmError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{classify_transport, OrbError};
use crate::giop::{self, GiopMessage};
use crate::orb::WireProtocol;

/// Decode one inbound frame, auto-detecting its wire protocol from the
/// first byte. Both the client reply path and the server request loop
/// route through here — mixed-protocol grids work because detection is
/// per frame, not per connection.
pub fn decode_any(frame: &Payload) -> (WireProtocol, Result<GiopMessage, OrbError>) {
    let first = frame.segments().next().and_then(|s| s.first().copied());
    if first.is_some_and(crate::esiop::is_esiop) {
        (WireProtocol::Esiop, crate::esiop::decode(frame))
    } else {
        (WireProtocol::Giop, giop::decode(frame))
    }
}

/// Completion state of one outstanding request.
enum SlotState {
    /// No reply yet.
    Waiting,
    /// The routed reply, parked until the handle collects it.
    Ready(GiopMessage),
    /// The connection died before a reply arrived.
    Dead,
}

/// One outstanding request's completion slot. The waiter blocks on the
/// condvar (or is already gone) while a scheduler worker completes the
/// slot inline; `complete`/`kill` publish the terminal state exactly
/// once.
struct ReplySlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, msg: GiopMessage) {
        *self.state.lock() = SlotState::Ready(msg);
        self.cv.notify_all();
    }

    fn kill(&self) {
        let mut st = self.state.lock();
        if matches!(*st, SlotState::Waiting) {
            *st = SlotState::Dead;
            self.cv.notify_all();
        }
    }
}

/// Per-(node, peer) request multiplexer over one pooled VLink connection.
pub struct RequestMux {
    stream: Arc<VLinkStream>,
    /// Serializes frame *writes*; reads arrive as scheduler events.
    write_lock: Mutex<()>,
    /// Outstanding requests awaiting their reply, keyed by request id.
    pending: Mutex<HashMap<u32, Arc<ReplySlot>>>,
    /// Request-id allocator for this connection. Ids are per-mux (the
    /// wire only requires uniqueness among the connection's outstanding
    /// requests), which keeps allocation contention off the hot path.
    next_id: AtomicU32,
}

impl RequestMux {
    /// Wrap a freshly handshaken client `stream` in a mux and hand its
    /// inbound side to the mux's reply router. Anything already queued on
    /// the stream drains through the router first; a failure is
    /// reported, not worked around.
    pub fn establish(stream: Arc<VLinkStream>) -> Result<Arc<RequestMux>, OrbError> {
        let mux = Arc::new(RequestMux {
            stream: Arc::clone(&stream),
            write_lock: Mutex::new(()),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
        });
        // The router holds the mux weakly: dropping the mux's last owner
        // drops the stream, which releases this handler.
        let router = Arc::downgrade(&mux);
        stream.on_frames(Arc::new(move |frame| {
            if let Some(mux) = router.upgrade() {
                mux.on_frame(frame);
            }
        }))?;
        Ok(mux)
    }

    /// Allocate a fresh request id.
    pub fn next_request_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Outstanding (un-replied) requests.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Register interest in `request_id` (when a reply is expected), then
    /// send the frame. Returns the handle the caller waits on, or `None`
    /// for oneways.
    pub fn submit(
        self: &Arc<Self>,
        request_id: u32,
        frame: Payload,
        expect_reply: bool,
    ) -> Result<Option<ReplyHandle>, OrbError> {
        let slot = if expect_reply {
            let slot = ReplySlot::new();
            self.pending.lock().insert(request_id, Arc::clone(&slot));
            Some(slot)
        } else {
            None
        };
        let _w = self.write_lock.lock();
        // Reply completions ride scheduler events, not a recv on this core —
        // flush so a coalesced request cannot sit queued.
        if let Err(e) = self
            .stream
            .write_payload(frame)
            .and_then(|()| self.stream.flush())
        {
            if expect_reply {
                self.pending.lock().remove(&request_id);
            }
            return Err(e.into());
        }
        Ok(slot.map(|slot| ReplyHandle {
            mux: Arc::clone(self),
            request_id,
            slot,
            consumed: false,
        }))
    }

    /// Best-effort GIOP `CancelRequest` chasing an abandoned request —
    /// always GIOP-framed, since servers auto-detect per frame.
    fn send_cancel(&self, request_id: u32) {
        let _w = self.write_lock.lock();
        let _ = self
            .stream
            .write_payload(giop::encode_cancel(request_id))
            .and_then(|()| self.stream.flush());
    }

    /// Route one inbound frame (or EOF, as `None`).
    fn on_frame(&self, frame: Option<Payload>) {
        let Some(frame) = frame else {
            self.fail_all();
            return;
        };
        let Ok(msg) = decode_any(&frame).1 else {
            return;
        };
        let request_id = match &msg {
            GiopMessage::Reply { request_id, .. } | GiopMessage::LocateReply { request_id, .. } => {
                *request_id
            }
            GiopMessage::CloseConnection => {
                self.fail_all();
                return;
            }
            // Server-role traffic and stray cancels are not ours to
            // answer on a client connection.
            _ => return,
        };
        // A reply to an id no longer pending (the waiter timed out and
        // deregistered, or its handle was dropped) is simply discarded.
        let slot = self.pending.lock().remove(&request_id);
        if let Some(slot) = slot {
            slot.complete(msg);
        }
    }

    /// Connection is gone: wake every waiter with an error.
    fn fail_all(&self) {
        let drained: Vec<Arc<ReplySlot>> =
            self.pending.lock().drain().map(|(_, slot)| slot).collect();
        for slot in drained {
            slot.kill();
        }
    }
}

/// Handle to one submitted request's future reply.
///
/// Dropping an unconsumed handle deregisters its pending entry, so an
/// abandoned request (caller error path, reply racing a cancel) cannot
/// leak a table slot; a straggler reply to the stale id is discarded by
/// the reply router.
pub struct ReplyHandle {
    mux: Arc<RequestMux>,
    request_id: u32,
    slot: Arc<ReplySlot>,
    consumed: bool,
}

impl ReplyHandle {
    /// The request id this handle waits on.
    pub fn request_id(&self) -> u32 {
        self.request_id
    }

    /// Block until the routed reply for this request lands, for at most
    /// `deadline`.
    ///
    /// A lost reply (the request or the reply frame was dropped on the
    /// wire) surfaces as `TRANSIENT` after the deadline instead of
    /// blocking the caller forever; the pending entry is removed so a
    /// straggler reply to the stale id is simply discarded by the reply router.
    /// A best-effort GIOP `CancelRequest` chases the abandoned request so
    /// a server still working on it can suppress the (now unwanted)
    /// reply.
    pub fn wait(mut self, deadline: Duration) -> Result<GiopMessage, OrbError> {
        let start = std::time::Instant::now();
        let slot = Arc::clone(&self.slot);
        let mut st = slot.state.lock();
        loop {
            match std::mem::replace(&mut *st, SlotState::Waiting) {
                SlotState::Ready(msg) => {
                    // The reply router removed the pending entry when it
                    // completed the slot; nothing left to deregister.
                    self.consumed = true;
                    return Ok(msg);
                }
                SlotState::Dead => {
                    *st = SlotState::Dead;
                    drop(st);
                    self.consumed = true;
                    self.mux.pending.lock().remove(&self.request_id);
                    return Err(OrbError::CommFailure(TmError::Closed));
                }
                SlotState::Waiting => {}
            }
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                drop(st);
                self.consumed = true;
                self.mux.pending.lock().remove(&self.request_id);
                self.mux
                    .stream
                    .core()
                    .tm()
                    .telemetry()
                    .counter_add("orb.cancel.sent", 1);
                self.mux.send_cancel(self.request_id);
                return Err(classify_transport(TmError::Timeout(format!(
                    "GIOP reply to request {}",
                    self.request_id
                ))));
            };
            slot.cv.wait_for(&mut st, remaining);
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.consumed {
            self.mux.pending.lock().remove(&self.request_id);
        }
    }
}

/// Grow-on-demand dispatch workers for the server side of the serving
/// path: the mirror image of the pending-reply table. A pipelined client
/// can put thousands of requests behind one connection; dispatching each
/// on a fresh OS thread makes the server's thread count track the
/// backlog. The pool instead reuses an idle worker when one exists,
/// spawns while under its cap, and queues beyond it — the thread count
/// tracks *concurrent* dispatches, bounded, not submitted requests.
///
/// The cap cannot deadlock nested invocations: an inner call back into
/// this node rides the caller's own client mux, which arrives on a
/// *different* inbound connection with its own pool — never behind the
/// outer dispatch in this queue.
pub(crate) struct DispatchPool {
    inner: Arc<PoolInner>,
    name: String,
    cap: usize,
}

struct PoolInner {
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    jobs: std::collections::VecDeque<Box<dyn FnOnce() + Send>>,
    idle: usize,
    spawned: usize,
    closed: bool,
}

impl DispatchPool {
    /// An empty pool; workers appear on demand up to `cap`. `name`
    /// prefixes the worker thread names.
    pub fn new(name: String, cap: usize) -> DispatchPool {
        DispatchPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    jobs: std::collections::VecDeque::new(),
                    idle: 0,
                    spawned: 0,
                    closed: false,
                }),
                cv: Condvar::new(),
            }),
            name,
            cap: cap.max(1),
        }
    }

    /// Run `job` on an idle worker, a freshly spawned one while under
    /// the cap, or leave it queued for the next worker to free up. Never
    /// blocks the caller.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.inner.state.lock();
        st.jobs.push_back(Box::new(job));
        // Spawn on *backlog*, not on `idle == 0`: a woken worker only
        // leaves the idle count after it reacquires this lock, so
        // consecutive submits would each see the same idle worker,
        // collapse their wakeups onto it, and strand the surplus jobs
        // until some later submit. Backlog beyond the parked workers
        // always gets a thread of its own (while under the cap).
        if st.jobs.len() <= st.idle || st.spawned >= self.cap {
            self.inner.cv.notify_one();
            return;
        }
        st.spawned += 1;
        let worker = format!("{}-{}", self.name, st.spawned);
        drop(st);
        let inner = Arc::clone(&self.inner);
        // Spawn failure (resource exhaustion) leaves the job queued for
        // the surviving workers rather than losing it.
        let _ = std::thread::Builder::new().name(worker).spawn(move || {
            let mut st = inner.state.lock();
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    drop(st);
                    job();
                    st = inner.state.lock();
                    continue;
                }
                if st.closed {
                    return;
                }
                st.idle += 1;
                inner.cv.wait(&mut st);
                st.idle -= 1;
            }
        });
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        // Workers drain the remaining queue, then exit.
        self.inner.state.lock().closed = true;
        self.inner.cv.notify_all();
    }
}
