//! The ORB core: server loop, connection cache, request builder.
//!
//! One [`Orb`] instance runs per node (per middleware module). Its GIOP
//! endpoint is a VLink service, so whether requests ride Ethernet or
//! Myrinet is decided by PadicoTM's selector (or pinned by the experiment
//! through [`FabricChoice`]) — the ORB code itself is network-unaware,
//! which is the paper's whole point.
//!
//! The server side owns no thread. The endpoint is a reactive VLink
//! listener ([`VLinkListener::on_accept`]): handshakes and every inbound
//! frame run inline on a world-scheduler worker, which decodes, runs
//! admission, answers shed/locate/error replies on the spot, and hands
//! each admitted request to the connection's dispatch pool — servants
//! block on nested invocations, so they never run on a scheduler worker.
//!
//! The client side is a dynamic invocation interface: [`ObjectRef::request`]
//! returns a [`RequestBuilder`] onto which arguments are marshalled with
//! the profile's CDR strategy; [`RequestBuilder::invoke`] frames the GIOP
//! request, charges the profile's client-side costs, and blocks for the
//! reply. GridCCM's generated proxies drive exactly this interface.

use bytes::Bytes;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_tm::vlink::{VLinkListener, VLinkStream};
use padico_tm::TmError;
use padico_util::ids::NodeId;
use padico_util::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cdr::{CdrReader, CdrWriter};
use crate::error::OrbError;
use crate::giop::{self, GiopMessage, LocateStatus, ReplyStatus};
use crate::ior::Ior;
use crate::mux::{self, ReplyHandle, RequestMux};
use crate::poa::{Poa, Servant, ServerCtx};
use crate::profile::OrbProfile;
use padico_fabric::Payload;

/// Wire protocol spoken by a client connection. Servers auto-detect the
/// protocol of every incoming frame, so mixed-protocol grids work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireProtocol {
    /// The general inter-ORB protocol (default).
    #[default]
    Giop,
    /// The environment-specific fast path (see [`crate::esiop`]).
    Esiop,
}

impl WireProtocol {
    /// Frame a reply in this protocol.
    fn encode_reply(self, request_id: u32, status: ReplyStatus, body: Payload) -> Payload {
        match self {
            WireProtocol::Giop => giop::encode_reply(request_id, status, body),
            WireProtocol::Esiop => crate::esiop::encode_reply(request_id, status, body),
        }
    }

    /// Scale applied to the fixed per-request protocol cost.
    pub fn fixed_cost_factor(self) -> f64 {
        match self {
            WireProtocol::Giop => 1.0,
            WireProtocol::Esiop => crate::esiop::ESIOP_FIXED_COST_FACTOR,
        }
    }
}

/// A running ORB on one node.
pub struct Orb {
    tm: Arc<PadicoTM>,
    name: String,
    profile: OrbProfile,
    choice: FabricChoice,
    poa: Arc<Poa>,
    endpoint_service: String,
    /// Pooled client connections, one [`RequestMux`] per (node, peer
    /// endpoint): the mux owns the stream, the pending-reply table, and
    /// request-id allocation, so every invocation to the same peer
    /// pipelines over one connection.
    conns: Mutex<HashMap<(NodeId, String), Arc<RequestMux>>>,
    /// Inbound connections currently being served.
    server_conns: AtomicUsize,
    protocol: WireProtocol,
    admission: Arc<AdmissionController>,
    /// Replies suppressed because a CancelRequest beat the dispatch to
    /// completion. Deliberately NOT a registry counter: whether a cancel
    /// wins that race is wall-clock scheduling, and the metrics registry
    /// must stay byte-identical across same-seed runs.
    cancels_suppressed: std::sync::atomic::AtomicU64,
}

/// Bounded admission budget for inbound dispatches on one ORB endpoint.
///
/// Overload protection is shed-don't-queue: a request that cannot start
/// *immediately* is answered `TRANSIENT` on the spot instead of being
/// parked behind work that may itself be stuck. Queues convert overload
/// into latency for everyone; an instant shed converts it into a
/// retryable signal for one caller, and the transport's existing backoff
/// spreads the re-offered load out in time.
struct AdmissionController {
    /// Maximum concurrently dispatching requests; `None` = unbounded
    /// (admission control off, the default).
    budget: Option<u32>,
    /// The world's telemetry, where admission decisions are counted.
    telemetry: Arc<Telemetry>,
    inflight: AtomicU32,
    /// High-water mark of `inflight`; with a budget configured it can
    /// never exceed it — the overload chaos test asserts exactly that.
    peak: AtomicU32,
}

impl AdmissionController {
    fn new(budget: Option<u32>, telemetry: Arc<Telemetry>) -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            budget,
            telemetry,
            inflight: AtomicU32::new(0),
            peak: AtomicU32::new(0),
        })
    }

    /// Admit one dispatch (RAII permit) or refuse instantly. Counters
    /// only move when a budget is configured, so default-config runs
    /// keep their metrics snapshots unchanged.
    fn try_admit(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let Some(budget) = self.budget else {
            // Unbounded admission still counts in-flight dispatches:
            // `Orb::admission_inflight` is the quiescence probe tests
            // poll, and it must see running dispatches whether or not a
            // budget gates them. (The `orb.admission.admitted` counter
            // stays budget-only — it meters admission *decisions*.)
            let cur = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            self.peak.fetch_max(cur, Ordering::AcqRel);
            return Some(AdmissionPermit {
                ctl: Some(Arc::clone(self)),
            });
        };
        loop {
            let cur = self.inflight.load(Ordering::Acquire);
            if cur >= budget {
                self.telemetry.counter_add("orb.admission.shed", 1);
                return None;
            }
            if self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.peak.fetch_max(cur + 1, Ordering::AcqRel);
                self.telemetry.counter_add("orb.admission.admitted", 1);
                return Some(AdmissionPermit {
                    ctl: Some(Arc::clone(self)),
                });
            }
        }
    }
}

/// One admitted dispatch's slot in the inflight budget; freed on drop
/// (normal return and servant panic alike).
struct AdmissionPermit {
    ctl: Option<Arc<AdmissionController>>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(ctl) = &self.ctl {
            ctl.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Read the reason string out of an exceptional reply body (shed or
/// deadline replies carry one); malformed bodies degrade to a stock text
/// rather than masking the real failure with a marshal error.
fn reply_reason(body: &Payload) -> String {
    CdrReader::new(body)
        .read_string()
        .unwrap_or_else(|_| "unspecified".into())
}

impl Orb {
    /// Start an ORB: serve its GIOP endpoint reactively.
    ///
    /// `name` must be unique per node (it names the endpoint service).
    /// The endpoint holds the ORB: it keeps serving after the caller's
    /// last `Arc<Orb>` drops, until [`Orb::shutdown`].
    pub fn start(
        tm: Arc<PadicoTM>,
        name: &str,
        profile: OrbProfile,
        choice: FabricChoice,
    ) -> Result<Arc<Orb>, OrbError> {
        Self::start_with_protocol(tm, name, profile, choice, WireProtocol::Giop)
    }

    /// Start an ORB whose *client side* speaks the given wire protocol
    /// (the server side of every ORB auto-detects per frame).
    pub fn start_with_protocol(
        tm: Arc<PadicoTM>,
        name: &str,
        profile: OrbProfile,
        choice: FabricChoice,
        protocol: WireProtocol,
    ) -> Result<Arc<Orb>, OrbError> {
        let orb = Arc::new(Orb {
            tm: Arc::clone(&tm),
            name: name.to_string(),
            profile,
            choice,
            poa: Arc::new(Poa::new()),
            endpoint_service: format!("giop:{name}"),
            conns: Mutex::new(HashMap::new()),
            server_conns: AtomicUsize::new(0),
            protocol,
            admission: AdmissionController::new(
                tm.config().inflight_budget,
                Arc::clone(tm.telemetry()),
            ),
            cancels_suppressed: std::sync::atomic::AtomicU64::new(0),
        });
        let serving = Arc::clone(&orb);
        VLinkListener::on_accept(&tm, &orb.endpoint_service, move |stream| {
            ServerConn::serve(Arc::clone(&serving), stream)
        })?;
        Ok(orb)
    }

    pub fn node(&self) -> NodeId {
        self.tm.node()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn profile(&self) -> &OrbProfile {
        &self.profile
    }

    pub fn poa(&self) -> &Arc<Poa> {
        &self.poa
    }

    pub fn tm(&self) -> &Arc<PadicoTM> {
        &self.tm
    }

    /// Activate a servant and return its object reference.
    pub fn activate(&self, servant: Arc<dyn Servant>) -> Ior {
        let type_id = servant.repository_id().to_string();
        let key = self.poa.activate(servant);
        Ior {
            type_id,
            node: self.tm.node(),
            endpoint: self.endpoint_service.clone(),
            key,
        }
    }

    /// Deactivate an object previously activated on this ORB.
    pub fn deactivate(&self, ior: &Ior) -> Result<(), OrbError> {
        self.poa.deactivate(ior.key)
    }

    /// Obtain a client-side reference from an IOR.
    pub fn object_ref(self: &Arc<Self>, ior: Ior) -> ObjectRef {
        ObjectRef {
            orb: Arc::clone(self),
            ior,
        }
    }

    /// Obtain a client-side reference from a stringified IOR.
    pub fn string_to_object(self: &Arc<Self>, s: &str) -> Result<ObjectRef, OrbError> {
        Ok(self.object_ref(Ior::destringify(s)?))
    }

    /// Stop accepting connections: the endpoint's listener is released,
    /// so later handshakes go unanswered. Established connections drain on
    /// their own when peers close. Idempotent.
    pub fn shutdown(&self) {
        VLinkListener::off_accept(&self.tm, &self.endpoint_service);
    }

    /// Run one admitted request on a dispatch-pool worker (never on a
    /// scheduler worker: servants block on nested invocations).
    fn dispatch_request(&self, conn: &ServerConn, wire: WireProtocol, request: GiopMessage) {
        let GiopMessage::Request {
            request_id,
            response_expected,
            object_key,
            operation,
            trace_id,
            parent_span,
            deadline,
            body,
        } = request
        else {
            return;
        };
        let clock = self.tm.clock().share();
        let telemetry = self.tm.telemetry();
        // Adopt the caller's wire context so the servant's work (and any
        // nested invocations it makes) joins the caller's trace tree,
        // recorded into this (the serving) world's telemetry.
        let ctx_guard = (trace_id != 0).then(|| {
            padico_util::span::adopt(
                telemetry,
                padico_util::span::SpanCtx {
                    trace_id,
                    span_id: parent_span,
                },
            )
        });
        // A deadline that expired in flight short-circuits before any
        // servant work: the caller has already given up, so burning CPU
        // on the reply only steals time from requests that can still
        // make theirs. Answer the typed TIMEOUT instead.
        if deadline != 0 && clock.now() >= deadline {
            telemetry.counter_add("orb.deadline.expired_server", 1);
            telemetry.bump("orb.deadline.expired_server", clock.now());
            let cancelled = conn.cancel_reg.lock().remove(&request_id).unwrap_or(false);
            if response_expected && !cancelled {
                let mut w = CdrWriter::new(self.profile.strategy);
                w.write_string(&format!(
                    "deadline expired {} vns before dispatch of `{operation}`",
                    clock.now() - deadline
                ));
                let _ = conn.write(wire.encode_reply(
                    request_id,
                    ReplyStatus::DeadlineExceeded,
                    w.finish(),
                ));
            }
            return;
        }
        // Whatever budget remains bounds the servant's own outgoing
        // invocations: nested calls clamp to the ambient deadline.
        let ambient_deadline = (deadline != 0).then(|| crate::deadline::adopt(deadline));
        let dispatch_span = padico_util::span::child(
            &clock,
            self.tm.node().0,
            "orb.dispatch",
            format!("dispatch:{operation}:req{request_id}"),
        );
        self.profile
            .charge_server_scaled(&clock, body.len(), wire.fixed_cost_factor());
        let mut reply_writer = CdrWriter::new(self.profile.strategy);
        let status = match self.poa.resolve(object_key) {
            Ok(servant) => {
                let ctx = ServerCtx {
                    node: self.tm.node(),
                    clock: clock.share(),
                    caller: conn.stream.peer(),
                    telemetry: Arc::clone(telemetry),
                };
                // Every profile reads the body's gather list in place:
                // the copy a copying profile models is charged in virtual
                // time by `charge_server_scaled`, not made.
                let mut args = CdrReader::new(&body);
                // A panicking servant must not hang its client: panics
                // become system exceptions, as real POAs map them.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    servant.dispatch(&operation, &mut args, &mut reply_writer, &ctx)
                }))
                .unwrap_or_else(|_| {
                    Err(OrbError::System(format!(
                        "servant panicked in `{operation}`"
                    )))
                });
                match outcome {
                    Ok(()) => ReplyStatus::NoException,
                    Err(OrbError::User(id)) => {
                        reply_writer = CdrWriter::new(self.profile.strategy);
                        reply_writer.write_string(&id);
                        ReplyStatus::UserException
                    }
                    Err(other) => {
                        reply_writer = CdrWriter::new(self.profile.strategy);
                        reply_writer.write_string(&other.to_string());
                        ReplyStatus::SystemException
                    }
                }
            }
            Err(e) => {
                reply_writer.write_string(&e.to_string());
                ReplyStatus::SystemException
            }
        };
        // The dispatch is over: leave the cancel registry. A cancel that
        // arrived while the servant ran suppresses the reply write — the
        // client stopped waiting long ago and a stale reply would only be
        // discarded by its reader anyway.
        let cancelled = conn.cancel_reg.lock().remove(&request_id).unwrap_or(false);
        if cancelled {
            self.cancels_suppressed
                .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        }
        if response_expected && !cancelled {
            let reply_payload = reply_writer.finish();
            // The reply marshal path costs like a server-side charge on
            // the reply body.
            self.profile.charge_server_scaled(
                &clock,
                reply_payload.len(),
                wire.fixed_cost_factor(),
            );
            let frame = wire.encode_reply(request_id, status, reply_payload);
            // Close the dispatch span *before* the reply goes out: the
            // instant the client sees the reply it may snapshot the span
            // buffers, and everything server-side must already be there.
            drop(dispatch_span);
            drop(ambient_deadline);
            drop(ctx_guard);
            let _ = conn.write(frame);
        }
    }

    fn connection(&self, node: NodeId, endpoint: &str) -> Result<Arc<RequestMux>, OrbError> {
        {
            let conns = self.conns.lock();
            if let Some(c) = conns.get(&(node, endpoint.to_string())) {
                return Ok(Arc::clone(c));
            }
        }
        let stream = Arc::new(
            self.tm
                .vlink_connect(node, endpoint, self.choice)
                .map_err(OrbError::from)?,
        );
        let conn = RequestMux::establish(stream)?;
        self.conns
            .lock()
            .insert((node, endpoint.to_string()), Arc::clone(&conn));
        Ok(conn)
    }

    /// Drop the cached connection to an endpoint (tests simulate failures
    /// with this).
    pub fn drop_connection(&self, node: NodeId, endpoint: &str) {
        self.conns.lock().remove(&(node, endpoint.to_string()));
    }

    /// Outstanding (un-replied) client requests on the cached connection
    /// to `node`/`endpoint`; 0 when no connection is cached. Robustness
    /// tests use this to prove abandoned requests do not leak `pending`
    /// entries.
    pub fn pending_request_count(&self, node: NodeId, endpoint: &str) -> usize {
        self.conns
            .lock()
            .get(&(node, endpoint.to_string()))
            .map_or(0, |c| c.pending_len())
    }

    /// High-water mark of concurrently admitted dispatches over this
    /// ORB's lifetime. With [`padico_tm::TmConfig::inflight_budget`]
    /// configured this can never exceed the budget — the overload chaos
    /// test asserts exactly that.
    pub fn admission_inflight_peak(&self) -> u32 {
        self.admission.peak.load(Ordering::Acquire)
    }

    /// Dispatches currently admitted and still running. Tests poll this
    /// for quiescence so their follow-up traffic sees deterministic
    /// admission decisions.
    pub fn admission_inflight(&self) -> u32 {
        self.admission.inflight.load(Ordering::Acquire)
    }

    /// Inbound connections this ORB is serving right now; a connection
    /// leaves the count once its peer closed and its last dispatch ended.
    pub fn server_connections(&self) -> usize {
        self.server_conns.load(Ordering::Acquire)
    }

    /// Replies suppressed because a `CancelRequest` arrived while the
    /// dispatch was still running.
    pub fn cancels_suppressed(&self) -> u64 {
        self.cancels_suppressed
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Whether a failed GIOP exchange is worth another attempt: only
    /// transport-level failures the TM classifies as retryable (timeouts,
    /// down links, mapping losses). Marshal errors, user/system
    /// exceptions, and hard closes are final.
    fn transport_retryable(&self, err: &OrbError) -> bool {
        match err {
            OrbError::CommFailure(e) | OrbError::Transient(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Account one GIOP retry: charge the policy's backoff to the node's
    /// virtual clock and bump the recovery counters.
    fn note_giop_retry(&self, retry: u32, policy: &padico_tm::RetryPolicy) {
        self.tm
            .telemetry()
            .bump("recovery.giop_retries", self.tm.clock().now());
        let charged = policy.charge_backoff(self.tm.clock(), retry);
        let recovery = self.tm.recovery();
        padico_tm::faults::note(recovery, |r| &r.giop_retries);
        padico_tm::faults::note_backoff(recovery, charged);
    }
}

/// One inbound connection, served as scheduler completions: its frame
/// handler runs inline on a world-scheduler worker, and admitted requests
/// run on the connection's own dispatch pool. The stream's channel
/// handler owns the connection until the peer closes.
struct ServerConn {
    orb: Arc<Orb>,
    stream: Arc<VLinkStream>,
    /// Serializes reply writes from the frame handler and the pool.
    write_lock: Mutex<()>,
    pool: mux::DispatchPool,
    /// Requests this connection is still dispatching, keyed by request
    /// id; the flag flips to true when a CancelRequest arrives and the
    /// dispatch then suppresses its reply write. Entries are removed when
    /// the dispatch finishes, so a cancel racing a completed request is
    /// recognisably "late".
    cancel_reg: Mutex<HashMap<u32, bool>>,
}

impl ServerConn {
    /// Serve a freshly accepted, not yet ACKed stream: hand its frames to
    /// a connection handler, which then owns the connection.
    fn serve(orb: Arc<Orb>, stream: Arc<VLinkStream>) -> Result<(), TmError> {
        orb.server_conns.fetch_add(1, Ordering::AcqRel);
        let conn = Arc::new(ServerConn {
            pool: mux::DispatchPool::new(format!("orb-{}-dispatch", orb.tm.node()), 16),
            orb,
            stream: Arc::clone(&stream),
            write_lock: Mutex::new(()),
            cancel_reg: Mutex::new(HashMap::new()),
        });
        stream.on_frames(Arc::new(move |frame| conn.on_frame(frame)))
    }

    fn write(&self, frame: Payload) -> Result<(), TmError> {
        let _w = self.write_lock.lock();
        self.stream
            .write_payload(frame)
            .and_then(|()| self.stream.flush())
    }

    /// Stop serving: release the stream's handler, which owns this
    /// connection. Dispatches still running finish and drop it last.
    fn close(&self) {
        self.stream.stop_frames();
    }

    /// Handle one inbound frame (`None` at end of stream). Runs on a
    /// scheduler worker, so everything here is non-blocking: a request
    /// is admitted or shed *before* it reaches the pool — shed work never
    /// queues and answers TRANSIENT immediately (oneways are silently
    /// dropped; there is nobody to answer).
    fn on_frame(self: &Arc<Self>, frame: Option<Payload>) {
        let Some(frame) = frame else {
            return self.close();
        };
        // One decode/auto-detect path for the whole ORB: the same
        // routine the client-side mux reply router uses.
        let (wire, decoded) = mux::decode_any(&frame);
        let Ok(msg) = decoded else {
            let _ = self.write(giop::encode_message_error());
            return;
        };
        let orb = &self.orb;
        match msg {
            GiopMessage::Request {
                request_id,
                response_expected,
                ..
            } => {
                let Some(permit) = orb.admission.try_admit() else {
                    orb.tm
                        .telemetry()
                        .bump("orb.admission.shed", orb.tm.clock().now());
                    if response_expected {
                        let mut w = CdrWriter::new(orb.profile.strategy);
                        w.write_string("admission budget exhausted");
                        let _ = self.write(wire.encode_reply(
                            request_id,
                            ReplyStatus::Transient,
                            w.finish(),
                        ));
                    }
                    return;
                };
                self.cancel_reg.lock().insert(request_id, false);
                let conn = Arc::clone(self);
                self.pool.submit(move || {
                    let _slot = permit;
                    conn.orb.dispatch_request(&conn, wire, msg);
                });
            }
            GiopMessage::LocateRequest {
                request_id,
                object_key,
            } => {
                let status = if orb.poa.contains(object_key) {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                };
                if self
                    .write(giop::encode_locate_reply(request_id, status))
                    .is_err()
                {
                    self.close();
                }
            }
            GiopMessage::CancelRequest { request_id } => {
                // A cancel for a dispatch still in flight flags it so its
                // reply write is suppressed (the client has already given
                // up waiting); a cancel that lost the race against
                // completion is ignored, as real ORBs do.
                if let Some(flag) = self.cancel_reg.lock().get_mut(&request_id) {
                    *flag = true;
                }
            }
            GiopMessage::CloseConnection | GiopMessage::MessageError => self.close(),
            GiopMessage::Reply { .. } | GiopMessage::LocateReply { .. } => {
                // Client-role messages on a server connection.
                let _ = self.write(giop::encode_message_error());
            }
        }
    }
}

impl Drop for ServerConn {
    fn drop(&mut self) {
        self.orb.server_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Orb(`{}` on {} as {})",
            self.name,
            self.tm.node(),
            self.profile.name
        )
    }
}

/// Client-side reference to a (possibly remote) CORBA object.
#[derive(Clone)]
pub struct ObjectRef {
    orb: Arc<Orb>,
    ior: Ior,
}

impl ObjectRef {
    pub fn ior(&self) -> &Ior {
        &self.ior
    }

    /// The ORB this reference invokes through.
    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }

    /// Begin building an invocation.
    pub fn request(&self, operation: &str) -> RequestBuilder {
        RequestBuilder {
            target: self.clone(),
            operation: operation.to_string(),
            args: CdrWriter::new(self.orb.profile.strategy),
            idempotent: false,
        }
    }

    /// GIOP LocateRequest: is the object active at its endpoint?
    ///
    /// LocateRequest is idempotent by construction, so transient
    /// transport failures are retried within the TM's budget — this is
    /// the liveness probe parallel clients use to count survivors, and a
    /// single dropped frame must not misreport a healthy peer as dead.
    pub fn locate(&self) -> Result<bool, OrbError> {
        let orb = &self.orb;
        let policy = orb.tm.config().retry;
        let clock = orb.tm.clock();
        // Fixed end-to-end budget: retries spend it, they do not renew
        // it, and an ambient (server-side) deadline tightens it further.
        let deadline_vt = crate::deadline::clamp(
            clock.now() + orb.tm.config().default_deadline.as_nanos() as u64,
        );
        let mut retry = 0u32;
        loop {
            let remaining = deadline_vt.saturating_sub(clock.now());
            if remaining == 0 {
                orb.tm
                    .telemetry()
                    .counter_add("orb.deadline.expired_client", 1);
                return Err(OrbError::DeadlineExceeded(format!(
                    "locate budget spent after {retry} attempts"
                )));
            }
            let attempt = || -> Result<GiopMessage, OrbError> {
                let conn = orb.connection(self.ior.node, &self.ior.endpoint)?;
                let request_id = conn.next_request_id();
                let handle = conn
                    .submit(
                        request_id,
                        giop::encode_locate_request(request_id, self.ior.key),
                        true,
                    )?
                    .expect("reply expected");
                handle.wait(std::time::Duration::from_nanos(remaining))
            };
            match attempt() {
                Ok(GiopMessage::LocateReply { status, .. }) => {
                    return Ok(status == LocateStatus::ObjectHere)
                }
                Ok(other) => {
                    return Err(OrbError::Marshal(format!(
                        "expected LocateReply, got {other:?}"
                    )))
                }
                Err(err) => {
                    retry += 1;
                    if retry >= policy.max_attempts || !orb.transport_retryable(&err) {
                        return Err(err);
                    }
                    orb.note_giop_retry(retry, &policy);
                    orb.drop_connection(self.ior.node, &self.ior.endpoint);
                }
            }
        }
    }
}

impl std::fmt::Debug for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectRef({})", self.ior)
    }
}

/// A dynamic invocation in construction.
pub struct RequestBuilder {
    target: ObjectRef,
    operation: String,
    args: CdrWriter,
    idempotent: bool,
}

impl RequestBuilder {
    /// Declare the operation idempotent: the ORB may transparently
    /// re-issue the request after a transient transport failure, even
    /// when it cannot know whether the servant already executed it (the
    /// reply, not the request, may have been the frame that was lost).
    /// Without this flag a transient failure surfaces as
    /// [`OrbError::Transient`] after a single attempt and the *caller*
    /// decides whether re-issuing is safe — exactly CORBA's contract.
    pub fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    pub fn arg_u32(mut self, v: u32) -> Self {
        self.args.write_u32(v);
        self
    }

    pub fn arg_i32(mut self, v: i32) -> Self {
        self.args.write_i32(v);
        self
    }

    pub fn arg_u64(mut self, v: u64) -> Self {
        self.args.write_u64(v);
        self
    }

    pub fn arg_bool(mut self, v: bool) -> Self {
        self.args.write_bool(v);
        self
    }

    pub fn arg_string(mut self, v: &str) -> Self {
        self.args.write_string(v);
        self
    }

    /// `sequence<octet>` argument; zero-copy profiles splice it.
    pub fn arg_octet_seq(mut self, v: Bytes) -> Self {
        self.args.write_octet_seq(v);
        self
    }

    pub fn arg_i32_seq(mut self, v: &[i32]) -> Self {
        self.args.write_i32_seq(v);
        self
    }

    pub fn arg_f64_seq(mut self, v: &[f64]) -> Self {
        self.args.write_f64_seq(v);
        self
    }

    /// Access the raw CDR writer for compound arguments.
    pub fn writer(&mut self) -> &mut CdrWriter {
        &mut self.args
    }

    /// Invoke and wait for the reply; returns a reader over the reply
    /// body on `NO_EXCEPTION`.
    pub fn invoke(self) -> Result<CdrReader, OrbError> {
        self.submit_inner(true)
            .wait_inner()
            .map(|r| r.expect("reply present"))
    }

    /// Invoke without waiting for any reply (CORBA `oneway`). "Waiting"
    /// here is about the *reply*: a oneway whose send failed still rides
    /// the retry loop before the error surfaces.
    pub fn invoke_oneway(self) -> Result<(), OrbError> {
        self.submit_inner(false).wait_inner().map(|_| ())
    }

    /// Two-phase invoke: frame and send the request *now*, collect the
    /// reply *later* with [`AsyncReply::wait`]. N outstanding requests
    /// cost N pending-table entries on the pooled connection, not N
    /// blocked threads, and replies may complete out of order — the mux
    /// routes each one to its handle by request id. A send error is
    /// parked in the handle for `wait` to retry or surface, so a caller
    /// can fan out a whole batch before looking at any outcome.
    pub fn submit(self) -> AsyncReply {
        self.submit_inner(true)
    }

    fn submit_inner(self, response_expected: bool) -> AsyncReply {
        let orb = Arc::clone(&self.target.orb);
        let ior = self.target.ior.clone();
        let clock = orb.tm.clock();
        let args = self.args.finish();
        let factor = orb.protocol.fixed_cost_factor();
        orb.profile.charge_client_scaled(clock, args.len(), factor);
        // The marshalled arguments (not the framed request) are what we
        // keep for re-issue: each attempt gets a *fresh* request id so a
        // straggler reply to an abandoned attempt can never be mistaken
        // for the reply of the retry.
        let policy = if self.idempotent {
            orb.tm.config().retry
        } else {
            padico_tm::RetryPolicy::none()
        };
        // The end-to-end budget is an *absolute* virtual-time deadline
        // fixed once, before the first attempt: retries and their backoff
        // spend it, they do not renew it. When this invocation runs
        // inside a servant dispatch, the caller's propagated deadline
        // clamps the budget further — a nested call can never outlive the
        // request that spawned it.
        let deadline_vt = crate::deadline::clamp(
            clock.now() + orb.tm.config().default_deadline.as_nanos() as u64,
        );
        let parent_ctx = padico_util::span::current();
        let mut pending = AsyncReply {
            orb,
            ior,
            operation: self.operation,
            args,
            response_expected,
            policy,
            deadline_vt,
            retry: 0,
            prev_attempt_span: 0,
            parent_ctx,
            attempt: AttemptState::Failed(OrbError::System("unsent".into())),
        };
        pending.start_attempt();
        pending
    }
}

/// An invocation in flight: the request frame is on (or chasing) the
/// wire and its reply will be routed back by request id through the
/// peer's pooled [`RequestMux`] connection. Holding an `AsyncReply`
/// costs one pending-table entry, not a blocked thread; completion
/// arrives as a scheduler event.
///
/// Retries, breakers, admission, deadlines, and span propagation behave
/// exactly as in the blocking path: `invoke()` *is* `submit()` + `wait()`.
pub struct AsyncReply {
    orb: Arc<Orb>,
    ior: Ior,
    operation: String,
    /// The marshalled arguments (not the framed request) are what we
    /// keep for re-issue: each attempt gets a *fresh* request id so a
    /// straggler reply to an abandoned attempt can never be mistaken
    /// for the reply of the retry.
    args: Payload,
    response_expected: bool,
    policy: padico_tm::RetryPolicy,
    deadline_vt: u64,
    retry: u32,
    prev_attempt_span: u64,
    /// Trace context ambient at submit time. Attempts started later
    /// (retries inside `wait`) re-adopt it, so re-issues parent onto the
    /// caller's trace even when `wait` runs on another thread.
    parent_ctx: Option<padico_util::span::SpanCtx>,
    attempt: AttemptState,
}

/// Where the current GIOP attempt of an [`AsyncReply`] stands.
enum AttemptState {
    /// Sent; the mux completes `handle` when the reply is routed. The
    /// attempt span is detached — still recording, closed when the
    /// attempt resolves — exactly as the blocking path scoped it.
    Waiting {
        span: padico_util::span::SpanGuard,
        /// `None` for oneways (nothing to wait on).
        handle: Option<ReplyHandle>,
        /// Reply budget, fixed *before* the send like the blocking path:
        /// time the request spends on the wire spends the budget.
        budget: std::time::Duration,
    },
    /// The attempt never got airborne (budget already spent, or the send
    /// itself failed); `wait` applies the retry decision.
    Failed(OrbError),
}

impl AsyncReply {
    /// The operation this invocation targets.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// Block until the reply lands (or the budget is spent) and return a
    /// reader over the reply body on `NO_EXCEPTION`.
    pub fn wait(self) -> Result<CdrReader, OrbError> {
        self.wait_inner().map(|r| r.expect("reply present"))
    }

    /// Start one GIOP attempt: open its span, frame the request with a
    /// fresh request id, and hand it to the peer's mux.
    fn start_attempt(&mut self) {
        let orb = Arc::clone(&self.orb);
        let clock = orb.tm.clock();
        let remaining = self.deadline_vt.saturating_sub(clock.now());
        if remaining == 0 {
            orb.tm
                .telemetry()
                .counter_add("orb.deadline.expired_client", 1);
            self.attempt = AttemptState::Failed(OrbError::DeadlineExceeded(format!(
                "budget spent before attempt {} of `{}`",
                self.retry + 1,
                self.operation
            )));
            return;
        }
        // Install the submit-time context for the span parentage and the
        // transport's own tracing; restored on scope exit.
        let _ctx = self
            .parent_ctx
            .map(|ctx| padico_util::span::adopt(orb.tm.telemetry(), ctx));
        // One span per GIOP attempt; a re-issue links back to the
        // attempt it replaces so the trace shows the recovery story.
        let mut attempt_span = padico_util::span::child_retry(
            clock,
            orb.tm.node().0,
            "orb.giop",
            format!("request:{}:attempt{}", self.operation, self.retry + 1),
            self.prev_attempt_span,
        );
        // The wire carries (trace id, this attempt's span id) so the
        // server parents its dispatch span on this exact attempt.
        let (wire_trace, wire_parent) =
            padico_util::span::current().map_or((0, 0), |c| (c.trace_id, c.span_id));
        let sent = (|| -> Result<Option<ReplyHandle>, OrbError> {
            let conn = orb.connection(self.ior.node, &self.ior.endpoint)?;
            let request_id = conn.next_request_id();
            let frame = match orb.protocol {
                WireProtocol::Giop => giop::encode_request(
                    request_id,
                    self.response_expected,
                    self.ior.key,
                    &self.operation,
                    wire_trace,
                    wire_parent,
                    self.deadline_vt,
                    self.args.clone(),
                ),
                WireProtocol::Esiop => crate::esiop::encode_request(
                    request_id,
                    self.response_expected,
                    self.ior.key,
                    &self.operation,
                    wire_trace,
                    wire_parent,
                    self.deadline_vt,
                    self.args.clone(),
                ),
            };
            conn.submit(request_id, frame, self.response_expected)
        })();
        self.attempt = match sent {
            Ok(handle) => {
                // The span outlives this scope — it closes when the
                // attempt resolves in `wait` — so hand the thread its
                // previous context back now.
                attempt_span.detach();
                AttemptState::Waiting {
                    span: attempt_span,
                    handle,
                    budget: std::time::Duration::from_nanos(remaining),
                }
            }
            Err(err) => {
                // A send that never left this node still closes its
                // attempt span, exactly like the blocking path did.
                self.prev_attempt_span = attempt_span.id();
                drop(attempt_span);
                AttemptState::Failed(err)
            }
        };
    }

    /// Resolve the current attempt: wait for its routed reply (if one is
    /// expected), convert overload replies to typed errors *before* the
    /// retry decision — a shed (`Transient` status) is retryable and
    /// rides the normal backoff, an expired deadline is terminal — and
    /// close the attempt span.
    fn resolve_attempt(&mut self) -> Result<Option<GiopMessage>, OrbError> {
        let state = std::mem::replace(
            &mut self.attempt,
            AttemptState::Failed(OrbError::System("attempt already resolved".into())),
        );
        match state {
            AttemptState::Failed(err) => Err(err),
            AttemptState::Waiting {
                span,
                handle,
                budget,
            } => {
                let outcome = match handle {
                    None => Ok(None),
                    Some(handle) => handle.wait(budget).and_then(|msg| match msg {
                        GiopMessage::Reply {
                            status: ReplyStatus::Transient,
                            body,
                            ..
                        } => Err(OrbError::Transient(TmError::Overloaded(reply_reason(
                            &body,
                        )))),
                        GiopMessage::Reply {
                            status: ReplyStatus::DeadlineExceeded,
                            body,
                            ..
                        } => Err(OrbError::DeadlineExceeded(reply_reason(&body))),
                        other => Ok(Some(other)),
                    }),
                };
                self.prev_attempt_span = span.id();
                drop(span);
                outcome
            }
        }
    }

    fn wait_inner(mut self) -> Result<Option<CdrReader>, OrbError> {
        let orb = Arc::clone(&self.orb);
        let clock = orb.tm.clock();
        let factor = orb.protocol.fixed_cost_factor();
        let msg = loop {
            let outcome = self.resolve_attempt();
            let outcome_was_shed =
                matches!(&outcome, Err(OrbError::Transient(TmError::Overloaded(_))));
            match outcome {
                Ok(Some(msg)) => break msg,
                Ok(None) => return Ok(None),
                Err(err) => {
                    self.retry += 1;
                    if self.retry >= self.policy.max_attempts || !orb.transport_retryable(&err) {
                        return Err(err);
                    }
                    orb.note_giop_retry(self.retry, &self.policy);
                    // The cached connection may be the broken thing:
                    // evict it so the next attempt reconnects (and the
                    // VLink layer gets the chance to fail over). A shed
                    // reply proves the connection works — keep it.
                    if !outcome_was_shed {
                        orb.drop_connection(self.ior.node, &self.ior.endpoint);
                    }
                    self.start_attempt();
                }
            }
        };
        match msg {
            GiopMessage::Reply {
                request_id: _,
                status,
                body,
            } => {
                // Unmarshalling the reply costs like a client-side charge
                // on the reply length.
                orb.profile.charge_client_scaled(clock, body.len(), factor);
                // Read in place, as the server side does.
                let reader = CdrReader::new(&body);
                match status {
                    ReplyStatus::NoException => Ok(Some(reader)),
                    ReplyStatus::UserException => {
                        let mut r = reader;
                        Err(OrbError::User(r.read_string()?))
                    }
                    ReplyStatus::SystemException => {
                        let mut r = reader;
                        Err(OrbError::System(r.read_string()?))
                    }
                    // Converted to typed errors inside the retry loop;
                    // kept here so the conversion cannot silently vanish
                    // if the loop is restructured.
                    ReplyStatus::Transient => {
                        let mut r = reader;
                        Err(OrbError::Transient(TmError::Overloaded(
                            r.read_string().unwrap_or_else(|_| "unspecified".into()),
                        )))
                    }
                    ReplyStatus::DeadlineExceeded => {
                        let mut r = reader;
                        Err(OrbError::DeadlineExceeded(
                            r.read_string().unwrap_or_else(|_| "unspecified".into()),
                        ))
                    }
                }
            }
            other => Err(OrbError::Marshal(format!("expected Reply, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MarshalStrategy;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::{FabricKind, FaultPlan};
    use padico_util::stats::mb_per_s;

    struct Calculator;

    impl Servant for Calculator {
        fn repository_id(&self) -> &str {
            "IDL:Test/Calculator:1.0"
        }

        fn dispatch(
            &self,
            operation: &str,
            args: &mut CdrReader,
            reply: &mut CdrWriter,
            ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            match operation {
                "add" => {
                    let a = args.read_i32()?;
                    let b = args.read_i32()?;
                    reply.write_i32(a + b);
                    Ok(())
                }
                "sum_seq" => {
                    let v = args.read_f64_seq()?;
                    reply.write_f64(v.iter().sum());
                    Ok(())
                }
                "echo_blob" => {
                    let blob = args.read_octet_seq()?;
                    reply.write_octet_seq(blob);
                    Ok(())
                }
                "noop" => Ok(()),
                "fail_system" => Err(OrbError::System("deliberate".into())),
                "fail_user" => Err(OrbError::User("IDL:Test/Oops:1.0".into())),
                "busy_compute" => {
                    ctx.clock.advance(1_000_000); // 1 ms of "simulation"
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.into())),
            }
        }
    }

    fn orb_pair(profile_a: OrbProfile, profile_b: OrbProfile) -> (Arc<Orb>, Arc<Orb>) {
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let a = Orb::start(
            Arc::clone(&tms[0]),
            "client",
            profile_a,
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        let b = Orb::start(
            Arc::clone(&tms[1]),
            "server",
            profile_b,
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn remote_invocation_roundtrip() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        let mut reply = obj.request("add").arg_i32(40).arg_i32(2).invoke().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 42);
    }

    #[test]
    fn stringified_ior_reaches_the_object() {
        let (client, server) = orb_pair(OrbProfile::omniorb4(), OrbProfile::omniorb4());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.string_to_object(&ior.stringify()).unwrap();
        let mut reply = obj
            .request("sum_seq")
            .arg_f64_seq(&[1.0, 2.5, -0.5])
            .invoke()
            .unwrap();
        assert_eq!(reply.read_f64().unwrap(), 3.0);
    }

    #[test]
    fn blob_roundtrip_across_profiles() {
        // A Mico client can talk to an omniORB server: interoperability.
        let (client, server) = orb_pair(OrbProfile::mico(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        let blob = padico_util::rng::payload(17, "orb-blob", 100_000);
        let mut reply = obj
            .request("echo_blob")
            .arg_octet_seq(Bytes::from(blob.clone()))
            .invoke()
            .unwrap();
        assert_eq!(reply.read_octet_seq().unwrap(), Bytes::from(blob));
    }

    #[test]
    fn exceptions_propagate_with_kind() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        assert!(matches!(
            obj.request("fail_user").invoke(),
            Err(OrbError::User(id)) if id.contains("Oops")
        ));
        assert!(matches!(
            obj.request("fail_system").invoke(),
            Err(OrbError::System(_))
        ));
        assert!(matches!(
            obj.request("undefined_op").invoke(),
            Err(OrbError::System(msg)) if msg.contains("BAD_OPERATION")
        ));
    }

    #[test]
    fn invoking_a_deactivated_object_fails() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior.clone());
        assert!(obj.locate().unwrap());
        server.deactivate(&ior).unwrap();
        assert!(!obj.locate().unwrap());
        assert!(matches!(
            obj.request("noop").invoke(),
            Err(OrbError::System(msg)) if msg.contains("OBJECT_NOT_EXIST")
        ));
    }

    #[test]
    fn oneway_returns_without_server_work() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        obj.request("busy_compute").invoke_oneway().unwrap();
        // A twoway afterwards proves the connection survived and the
        // oneway was dispatched (FIFO per connection).
        let mut reply = obj.request("add").arg_i32(1).arg_i32(2).invoke().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 3);
    }

    #[test]
    fn zero_copy_profile_performs_zero_physical_copies() {
        // Acceptance check for the gather-list fast path: with a
        // zero-copy profile on a fabric without a kernel copy, the bulk
        // argument the servant sees IS the client's buffer — the splice
        // survived CDR, GIOP framing, VLink, the circuit, and dispatch.
        struct PtrRecorder(Mutex<Option<(usize, usize)>>);
        impl Servant for PtrRecorder {
            fn repository_id(&self) -> &str {
                "IDL:Test/PtrRecorder:1.0"
            }
            fn dispatch(
                &self,
                operation: &str,
                args: &mut CdrReader,
                reply: &mut CdrWriter,
                _ctx: &ServerCtx,
            ) -> Result<(), OrbError> {
                assert_eq!(operation, "take");
                let blob = args.read_octet_seq()?;
                *self.0.lock() = Some((blob.as_ptr() as usize, blob.len()));
                reply.write_bool(true);
                Ok(())
            }
        }
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let recorder = Arc::new(PtrRecorder(Mutex::new(None)));
        let ior = server.activate(Arc::clone(&recorder) as Arc<dyn Servant>);
        let obj = client.object_ref(ior);
        let blob = Bytes::from(vec![0x5A_u8; 1 << 16]);
        let blob_ptr = blob.as_ptr() as usize;
        let mut reply = obj
            .request("take")
            .arg_octet_seq(blob.clone())
            .invoke()
            .unwrap();
        assert!(reply.read_bool().unwrap());
        let (srv_ptr, srv_len) = recorder.0.lock().take().expect("servant ran");
        assert_eq!(srv_len, 1 << 16);
        assert_eq!(
            srv_ptr, blob_ptr,
            "servant must see the client's buffer, not a copy"
        );
    }

    #[test]
    fn zero_copy_profile_is_faster_than_copying_for_bulk() {
        // The Figure 7 mechanism, end to end: same 1 MiB echo, Myrinet
        // underneath; omniORB must beat Mico by roughly 4×.
        let len = 1 << 20;
        let measure = |profile: OrbProfile| {
            let (client, server) = orb_pair(profile.clone(), profile);
            let ior = server.activate(Arc::new(Calculator));
            let obj = client.object_ref(ior);
            let blob = Bytes::from(vec![7u8; len]);
            let clock = client.tm().clock();
            let start = clock.now();
            let mut reply = obj
                .request("echo_blob")
                .arg_octet_seq(blob)
                .invoke()
                .unwrap();
            reply.read_octet_seq().unwrap();
            // Round trip moved the payload twice.
            mb_per_s(2 * len, clock.now() - start)
        };
        let omni = measure(OrbProfile::omniorb3());
        let mico = measure(OrbProfile::mico());
        assert!(
            omni / mico > 2.5,
            "omniORB {omni:.1} MB/s should be ≫ Mico {mico:.1} MB/s"
        );
        assert!(
            (170.0..260.0).contains(&omni),
            "omniORB round-trip bandwidth {omni:.1} MB/s"
        );
    }

    #[test]
    fn small_invocation_latency_matches_paper_anchors() {
        let measure = |profile: OrbProfile| {
            let (client, server) = orb_pair(profile.clone(), profile);
            let ior = server.activate(Arc::new(Calculator));
            let obj = client.object_ref(ior);
            // Warm up the connection (SYN/ACK handshake charges once).
            obj.request("noop").invoke().unwrap();
            let clock = client.tm().clock();
            let start = clock.now();
            let rounds = 10;
            for _ in 0..rounds {
                obj.request("noop").invoke().unwrap();
            }
            // One-way latency estimate = RTT / 2.
            (clock.now() - start) as f64 / (rounds as f64) / 2.0 / 1_000.0
        };
        let omni = measure(OrbProfile::omniorb3());
        assert!(
            (14.0..27.0).contains(&omni),
            "omniORB one-way {omni:.1} µs, paper reports 20"
        );
        let mico = measure(OrbProfile::mico());
        assert!(
            (50.0..75.0).contains(&mico),
            "Mico one-way {mico:.1} µs, paper reports 62"
        );
        assert!(mico > omni * 2.0);
    }

    /// An ORB pair over Myrinet with tight deadlines, returning the
    /// Myrinet fabric so tests can arm fault plans on it. Faults are
    /// armed *after* this returns, so the connection warm-up each test
    /// does first isolates the request/reply recovery path.
    fn chaos_pair() -> (Arc<Orb>, Arc<Orb>, Arc<padico_fabric::SimFabric>) {
        use std::time::Duration;
        let (topo, ids) = single_cluster(2);
        let topo = Arc::new(topo);
        let fabric = topo
            .fabrics_between(ids[0], ids[1])
            .into_iter()
            .find(|f| f.kind() == FabricKind::Myrinet)
            .expect("cluster has Myrinet");
        let cfg = padico_tm::TmConfig {
            default_deadline: Duration::from_millis(60),
            connect_timeout: Duration::from_millis(250),
            retry: padico_tm::RetryPolicy {
                max_attempts: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::clone(&topo), cfg).unwrap();
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        let a = Orb::start(
            Arc::clone(&tms[0]),
            "client",
            OrbProfile::omniorb3(),
            choice,
        )
        .unwrap();
        let b = Orb::start(
            Arc::clone(&tms[1]),
            "server",
            OrbProfile::omniorb3(),
            choice,
        )
        .unwrap();
        (a, b, fabric)
    }

    #[test]
    fn idempotent_requests_survive_seeded_frame_drops() {
        let (client, server, fabric) = chaos_pair();
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        obj.request("add").arg_i32(1).arg_i32(1).invoke().unwrap(); // warm-up
        fabric.set_fault_plan(FaultPlan::drops(11, 20));
        for i in 0..10 {
            let mut reply = obj
                .request("add")
                .arg_i32(i)
                .arg_i32(1)
                .idempotent()
                .invoke()
                .unwrap();
            assert_eq!(reply.read_i32().unwrap(), i + 1);
        }
        let rec = client.tm().recovery().snapshot();
        assert!(
            rec.giop_retries > 0,
            "a 20% drop rate over 20 frames must trip at least one retry: {rec:?}"
        );
        assert!(rec.backoff_ns > 0, "retries charge backoff: {rec:?}");
        assert!(
            fabric.fault_stats().dropped > 0,
            "the plan actually dropped frames"
        );
    }

    #[test]
    fn non_idempotent_failure_is_transient_without_retry() {
        let (client, server, fabric) = chaos_pair();
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior);
        obj.request("noop").invoke().unwrap(); // warm-up
        fabric.set_fault_plan(FaultPlan::drops(1, 100));
        let err = obj
            .request("add")
            .arg_i32(1)
            .arg_i32(2)
            .invoke()
            .unwrap_err();
        assert!(
            matches!(err, OrbError::Transient(TmError::Timeout(_))),
            "lost exchange must surface as TRANSIENT, got {err}"
        );
        assert_eq!(
            client.tm().recovery().snapshot().giop_retries,
            0,
            "a request not declared idempotent must not be re-issued"
        );
    }

    #[test]
    fn shutdown_stops_accepting() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        server.shutdown();
        let obj = client.object_ref(ior);
        // New connections cannot be established after shutdown; either
        // the connect times out or the write fails.
        let result = obj.request("noop").invoke();
        assert!(result.is_err(), "invoke after shutdown should fail");
    }

    #[test]
    fn malformed_syns_do_not_stop_the_endpoint() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let listener =
            padico_tm::arbitration::named_channel(&format!("vlink:giop:server@{}", server.node()));
        // A SYN of the wrong length, then a well-formed one naming an
        // unknown fabric-choice code.
        let mut bad_choice = vec![1u8; 22];
        bad_choice[21] = 0xEE;
        for garbage in [vec![1u8, 2, 3], bad_choice] {
            server
                .tm()
                .net()
                .send_local(listener, Payload::from_vec(garbage))
                .unwrap();
        }
        let obj = client.object_ref(ior);
        let mut reply = obj.request("add").arg_i32(2).arg_i32(3).invoke().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 5);
    }

    /// Poll `cond` for up to five seconds: completions land on scheduler
    /// and pool workers, after the reply the test already holds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_secs(5) {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn closed_connections_release_their_state() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let ior = server.activate(Arc::new(Calculator));
        let obj = client.object_ref(ior.clone());
        obj.request("noop").invoke().unwrap();
        // Client side: the reply router holds the mux weakly, so evicting
        // the cached connection frees the mux and its stream (once the
        // scheduler worker that routed the reply has let go of it).
        let mux = client.connection(ior.node, &ior.endpoint).unwrap();
        let weak = Arc::downgrade(&mux);
        drop(mux);
        client.drop_connection(ior.node, &ior.endpoint);
        assert!(
            eventually(|| weak.upgrade().is_none()),
            "a dropped mux must not stay alive"
        );
        // Server side: a connection whose peer closes gives up its
        // dispatch pool and stream once its last dispatch ends.
        assert_eq!(server.server_connections(), 1);
        let stream = client
            .tm()
            .vlink_connect(
                ior.node,
                &ior.endpoint,
                FabricChoice::Kind(FabricKind::Myrinet),
            )
            .unwrap();
        assert_eq!(server.server_connections(), 2);
        let mut args = CdrWriter::new(MarshalStrategy::ZeroCopy);
        args.write_i32(20);
        args.write_i32(22);
        let request = giop::encode_request(7, true, ior.key, "add", 0, 0, 0, args.finish());
        stream.write_payload(request).unwrap();
        stream.flush().unwrap();
        // The reply is one small frame: one read returns all of it.
        let mut buf = [0u8; 256];
        let n = stream.read(&mut buf).unwrap();
        assert!(matches!(
            giop::decode(&Payload::copy_from(&buf[..n])).unwrap(),
            GiopMessage::Reply {
                request_id: 7,
                status: ReplyStatus::NoException,
                ..
            }
        ));
        stream.close().unwrap();
        assert!(
            eventually(|| server.server_connections() == 1),
            "closed connection still served: {}",
            server.server_connections()
        );
    }

    #[test]
    fn idle_endpoint_keeps_accepting_past_the_default_deadline() {
        let (topo, _ids) = single_cluster(2);
        let cfg = padico_tm::TmConfig {
            default_deadline: std::time::Duration::from_millis(50),
            ..Default::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        let client = Orb::start(
            Arc::clone(&tms[0]),
            "client",
            OrbProfile::omniorb3(),
            choice,
        )
        .unwrap();
        let server = Orb::start(
            Arc::clone(&tms[1]),
            "server",
            OrbProfile::omniorb3(),
            choice,
        )
        .unwrap();
        let obj = client.object_ref(server.activate(Arc::new(Calculator)));
        // Three default deadlines of idleness: the listener must not time
        // out, so the first connection made afterwards is still answered.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let mut reply = obj.request("add").arg_i32(40).arg_i32(2).invoke().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 42);
    }

    /// OS threads in this process (entries of `/proc/self/task`).
    #[cfg(target_os = "linux")]
    fn os_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn storm_outstanding_is_not_threads() {
        // Outstanding two-ways cost pending-table entries on the one
        // pooled connection, not blocked threads. Every handle is
        // submitted before any is consumed, and meanwhile the process
        // stays within a bounded handful of threads. The margins are
        // generous because sibling tests start and stop threads
        // concurrently.
        const SUBMITTERS: usize = 4;
        const PER_SUBMITTER: usize = 1_000;
        const TOTAL: usize = SUBMITTERS * PER_SUBMITTER;
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let obj = client.object_ref(server.activate(Arc::new(Calculator)));
        obj.request("noop").invoke().unwrap(); // connection warm-up
        let before = os_threads();
        let submitted = AtomicUsize::new(0);
        let drain = std::sync::Barrier::new(SUBMITTERS + 1);
        let peak_threads = std::thread::scope(|scope| {
            for worker in 0..SUBMITTERS {
                let (obj, submitted, drain) = (&obj, &submitted, &drain);
                scope.spawn(move || {
                    let handles: Vec<_> = (0..PER_SUBMITTER)
                        .map(|i| {
                            let v = (worker * PER_SUBMITTER + i) as i32;
                            let request = obj.request("add").arg_i32(v).arg_i32(1).idempotent();
                            (v, request.submit())
                        })
                        .collect();
                    submitted.fetch_add(1, Ordering::SeqCst);
                    drain.wait();
                    for (v, handle) in handles {
                        let got = handle.wait().unwrap().read_i32().unwrap();
                        assert_eq!(got, v + 1, "reply routed to the wrong handle");
                    }
                });
            }
            // Sample until every handle is in flight and none consumed.
            let mut peak = 0;
            loop {
                peak = peak.max(os_threads());
                if submitted.load(Ordering::SeqCst) == SUBMITTERS {
                    break;
                }
                std::thread::yield_now();
            }
            drain.wait();
            peak
        });
        assert!(
            peak_threads > 0 && peak_threads.saturating_sub(before) < 128,
            "the storm should add a bounded number of threads, saw \
             {peak_threads} (baseline {before})"
        );
        assert!(
            TOTAL >= 20 * peak_threads,
            "outstanding ({TOTAL}) should dwarf thread count ({peak_threads})"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn inbound_connections_cost_no_threads() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        let mut streams = Vec::new();
        // Sibling tests start and stop threads concurrently, so one quiet
        // window in a few attempts is the evidence; a thread per
        // connection would add eight in every attempt.
        let quiet = (0..5).any(|_| {
            let before = os_threads();
            for _ in 0..8 {
                streams.push(
                    client
                        .tm()
                        .vlink_connect(server.node(), "giop:server", choice)
                        .unwrap(),
                );
            }
            // Give a per-connection thread time to appear.
            std::thread::sleep(std::time::Duration::from_millis(20));
            os_threads() <= before
        });
        assert!(quiet, "opening 8 connections added OS threads every time");
        assert_eq!(server.server_connections(), streams.len());
    }

    #[test]
    fn requests_pipelined_behind_the_handshake_are_all_answered() {
        let (client, server) = orb_pair(OrbProfile::omniorb3(), OrbProfile::omniorb3());
        let obj = client.object_ref(server.activate(Arc::new(Calculator)));
        // The first submit connects; the other 63 follow right behind the
        // ACK, landing while the server is still setting the stream up.
        let pending: Vec<_> = (0..64)
            .map(|i| obj.request("add").arg_i32(i).arg_i32(1).submit())
            .collect();
        for (i, reply) in pending.into_iter().enumerate() {
            assert_eq!(reply.wait().unwrap().read_i32().unwrap(), i as i32 + 1);
        }
    }
}

#[cfg(test)]
mod esiop_tests {
    use super::*;
    use crate::cdr::{CdrReader, CdrWriter};
    use crate::poa::{Servant, ServerCtx};
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;

    struct Echo;

    impl Servant for Echo {
        fn repository_id(&self) -> &str {
            "IDL:Esiop/Echo:1.0"
        }

        fn dispatch(
            &self,
            op: &str,
            args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            match op {
                "echo" => {
                    let v = args.read_i32()?;
                    reply.write_i32(v);
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.into())),
            }
        }
    }

    fn pair(protocol: WireProtocol) -> (Arc<Orb>, Arc<Orb>) {
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        (
            Orb::start_with_protocol(
                Arc::clone(&tms[0]),
                "es",
                OrbProfile::omniorb3(),
                choice,
                protocol,
            )
            .unwrap(),
            Orb::start(Arc::clone(&tms[1]), "es", OrbProfile::omniorb3(), choice).unwrap(),
        )
    }

    #[test]
    fn esiop_interoperates_with_giop_servers() {
        // The server was started plain (GIOP default) and auto-detects.
        let (client, server) = pair(WireProtocol::Esiop);
        let obj = client.object_ref(server.activate(Arc::new(Echo)));
        let mut reply = obj.request("echo").arg_i32(7).invoke().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 7);
        // Errors still flow.
        assert!(obj.request("nope").invoke().is_err());
    }

    #[test]
    fn esiop_lowers_latency_as_the_paper_anticipates() {
        let measure = |protocol: WireProtocol| {
            let (client, server) = pair(protocol);
            let obj = client.object_ref(server.activate(Arc::new(Echo)));
            obj.request("echo").arg_i32(0).invoke().unwrap(); // warmup
            let clock = client.tm().clock();
            let start = clock.now();
            for _ in 0..10 {
                obj.request("echo").arg_i32(0).invoke().unwrap();
            }
            (clock.now() - start) as f64 / 10.0 / 2.0 / 1_000.0
        };
        let giop = measure(WireProtocol::Giop);
        let esiop = measure(WireProtocol::Esiop);
        assert!(
            esiop < giop - 1.0,
            "ESIOP one-way {esiop:.1} µs should undercut GIOP {giop:.1} µs by >1 µs"
        );
        assert!(esiop > 10.0, "still bounded below by the fabric");
    }
}
