//! The server-side GridCCM interception layer.
//!
//! A [`ParallelAdapter`] is the servant behind a parallel component's
//! derived-interface facet on **one** replica (rank `s` of `S`). Incoming
//! derived invocations from the client group are gathered per logical
//! invocation; when the expected set of client requests has arrived, the
//! user's [`ParallelServant`] runs **once** for the invocation — on one
//! of the pending dispatch threads, while the others wait — and every
//! pending request is answered with its client's share of the result.
//!
//! The user code therefore sees exactly the paper's model: one SPMD
//! upcall per logical invocation per node, with its local blocks already
//! assembled, and MPI available for internal communication (the Figure 8
//! benchmark's `MPI_Barrier` runs here).

use bytes::Bytes;
use padico_fabric::model::charge_copy;
use padico_mpi::Communicator;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::OrbError;
use padico_util::simtime::SimClock;
use padico_util::Telemetry;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::dist::DistSeq;
use crate::error::GridCcmError;
use crate::parallel::routing::{expected_clients, DistMeta};
use crate::parallel::wire::{
    assemble_block, read_arg, write_reply_dist, write_reply_replicated, write_reply_void,
    InvHeader, ParValue, WireArg,
};
use crate::parallel::GRIDCCM_SERVER_NS;
use crate::paridl::{InterceptionPlan, OpPlan, DERIVED_OP_PREFIX};
use crate::redistribute::{schedule_cached, sends_of};

/// What an SPMD upcall sees.
pub struct ParCtx {
    /// This replica's rank in the parallel component.
    pub rank: usize,
    /// Number of replicas.
    pub size: usize,
    /// The component's internal MPI communicator (absent only for
    /// unit-test adapters configured without one).
    pub comm: Option<Communicator>,
    /// The node's virtual clock (charge simulation compute time here).
    pub clock: SimClock,
}

/// Assembled arguments of one upcall.
pub struct ParArgs {
    values: Vec<ParValue>,
}

impl ParArgs {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, index: usize) -> Result<&ParValue, GridCcmError> {
        self.values
            .get(index)
            .ok_or_else(|| GridCcmError::Protocol(format!("argument index {index} out of range")))
    }

    /// The assembled local block of a distributed argument.
    pub fn dist(&self, index: usize) -> Result<&DistSeq, GridCcmError> {
        match self.get(index)? {
            ParValue::Dist(d) => Ok(d),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not distributed: {other:?}"
            ))),
        }
    }

    pub fn i32(&self, index: usize) -> Result<i32, GridCcmError> {
        match self.get(index)? {
            ParValue::I32(v) => Ok(*v),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not i32: {other:?}"
            ))),
        }
    }

    pub fn u64(&self, index: usize) -> Result<u64, GridCcmError> {
        match self.get(index)? {
            ParValue::U64(v) => Ok(*v),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not u64: {other:?}"
            ))),
        }
    }

    pub fn f64(&self, index: usize) -> Result<f64, GridCcmError> {
        match self.get(index)? {
            ParValue::F64(v) => Ok(*v),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not f64: {other:?}"
            ))),
        }
    }

    pub fn str(&self, index: usize) -> Result<&str, GridCcmError> {
        match self.get(index)? {
            ParValue::Str(v) => Ok(v),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not a string: {other:?}"
            ))),
        }
    }

    pub fn seq(&self, index: usize) -> Result<&Bytes, GridCcmError> {
        match self.get(index)? {
            ParValue::Seq { data, .. } => Ok(data),
            other => Err(GridCcmError::Protocol(format!(
                "argument {index} is not a sequence: {other:?}"
            ))),
        }
    }
}

/// User-implemented SPMD servant.
pub trait ParallelServant: Send + Sync {
    /// Repository id of the *source* interface.
    fn repository_id(&self) -> &str;

    /// One upcall per logical invocation per replica.
    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError>;
}

/// Per-replica configuration, set at `configuration_complete` time.
struct Configured {
    rank: usize,
    size: usize,
    comm: Option<Communicator>,
}

enum Outcome {
    Void,
    Replicated(ParValue),
    Dist(DistSeq),
}

/// How an invocation ended: its outcome, or the servant's error message.
type Finished = Result<Arc<Outcome>, String>;

/// A gathered invocation is keyed by `(inv_id, op)`.
type InvKey = (u64, String);

struct InvState {
    expected: BTreeSet<u32>,
    arrived: HashMap<u32, Vec<WireArg>>,
    /// Trace context shipped in each arrived chunk's header, by client
    /// rank: the upcall span is parented on the lowest expected rank's
    /// context so the tree shape does not depend on arrival order.
    ctxs: HashMap<u32, (u64, u64)>,
    outcome: Option<Finished>,
    replies_sent: usize,
}

struct InvSlot {
    mu: Mutex<InvState>,
    cv: Condvar,
}

/// A finished invocation kept for duplicates of its requests (a client
/// whose reply frame was lost re-sends the request; the servant must not
/// run twice, so the kept outcome answers it).
struct Retained {
    group: u64,
    seq: u64,
    /// The client ranks it served: all of them must acknowledge it.
    expected: BTreeSet<u32>,
    outcome: Finished,
}

impl Retained {
    /// Result bytes the kept outcome pins.
    fn bytes(&self) -> u64 {
        match self.outcome.as_deref() {
            Ok(Outcome::Replicated(v)) => v.byte_len() as u64,
            Ok(Outcome::Dist(d)) => d.data.len() as u64,
            Ok(Outcome::Void) | Err(_) => 0,
        }
    }

    /// Whether every rank it served has passed it, by `marks` (the
    /// watermarks of [`Dedup`]).
    fn acknowledged(&self, marks: &HashMap<(u64, u32), u64>) -> bool {
        self.expected
            .iter()
            .all(|&c| marks.get(&(self.group, c)).is_some_and(|&m| m > self.seq))
    }
}

/// What one pass over the dedup state released or kept, reported to the
/// world's telemetry once the adapter's lock is dropped.
#[derive(Default)]
struct DedupChange {
    released: u64,
    retained_bytes: i64,
}

impl DedupChange {
    fn report(&self, telemetry: &Telemetry) {
        if self.released > 0 {
            telemetry.counter_add("ccm.dedup.released", self.released);
        }
        if self.retained_bytes != 0 {
            telemetry.gauge_add("ccm.dedup.retained_bytes", self.retained_bytes);
        }
    }
}

/// Duplicate suppression acknowledged by the clients: open gathers,
/// finished outcomes still owed to some client, and each client rank's
/// completion watermark ([`InvHeader::done_below`]).
#[derive(Default)]
struct Dedup {
    open: HashMap<InvKey, Arc<InvSlot>>,
    retained: HashMap<InvKey, Retained>,
    /// Per `(group, client rank)`: every invocation of that rank below
    /// this sequence number has returned to its caller.
    done_below: HashMap<(u64, u32), u64>,
}

impl Dedup {
    fn watermark(&self, group: u64, rank: u32) -> u64 {
        self.done_below.get(&(group, rank)).copied().unwrap_or(0)
    }

    /// Raise `rank`'s watermark in `group` and drop every retained outcome
    /// whose expected ranks have all passed its sequence number.
    fn acknowledge(&mut self, group: u64, rank: u32, done_below: u64) -> DedupChange {
        let mut change = DedupChange::default();
        let mark = self.done_below.entry((group, rank)).or_insert(0);
        if done_below <= *mark {
            return change;
        }
        *mark = done_below;
        let Dedup {
            retained,
            done_below: marks,
            ..
        } = self;
        retained.retain(|_, r| {
            let passed = r.group == group && r.expected.contains(&rank) && r.acknowledged(marks);
            if passed {
                change.released += 1;
                change.retained_bytes -= r.bytes() as i64;
            }
            !passed
        });
        change
    }

    /// Close a gather whose every reply is out: keep its outcome unless
    /// all of its ranks have already moved past it.
    fn retire(&mut self, key: &InvKey, finished: Retained) -> DedupChange {
        self.open.remove(key);
        if finished.acknowledged(&self.done_below) {
            return DedupChange {
                released: 1,
                retained_bytes: 0,
            };
        }
        let retained_bytes = finished.bytes() as i64;
        self.retained.insert(key.clone(), finished);
        DedupChange {
            released: 0,
            retained_bytes,
        }
    }
}

/// The derived-interface servant of one replica.
///
/// **Duplicate requests.** Derived requests are idempotent, so the ORB may
/// deliver one twice. A duplicate of an invocation still gathering joins
/// the gather; a duplicate of a finished one is answered from its kept
/// outcome; a duplicate arriving after its client rank acknowledged the
/// invocation (its sequence number is below the rank's watermark) and the
/// outcome is gone is refused at once with
/// [`GridCcmError::AlreadyCompleted`], never by opening a new gather. The
/// servant runs at most once per invocation either way.
///
/// **Memory bound.** An outcome is kept only until every client rank it
/// served has acknowledged it, i.e. sent this replica any request issued
/// after the invocation returned. Only distributed results pin whole
/// blocks, and they come from full fan-out invocations, where every rank
/// of the group reaches every replica: the next such invocation's
/// requests acknowledge the previous one. So a replica holds at most one
/// distributed result per client group (plus one per call still in
/// progress when threads share a handle). Void and replicated outcomes of
/// sparse routings wait for their ranks' next request here; the
/// watermarks cost one `u64` per client rank.
pub struct ParallelAdapter {
    user: Arc<dyn ParallelServant>,
    plan: Arc<InterceptionPlan>,
    configured: Mutex<Option<Arc<Configured>>>,
    dedup: Mutex<Dedup>,
}

impl ParallelAdapter {
    pub fn new(user: Arc<dyn ParallelServant>, plan: Arc<InterceptionPlan>) -> Arc<Self> {
        Arc::new(ParallelAdapter {
            user,
            plan,
            configured: Mutex::new(None),
            dedup: Mutex::new(Dedup::default()),
        })
    }

    /// Finished invocations this replica keeps for duplicate requests,
    /// and the result bytes they pin.
    pub fn retained(&self) -> (usize, u64) {
        let dedup = self.dedup.lock();
        (
            dedup.retained.len(),
            dedup.retained.values().map(Retained::bytes).sum(),
        )
    }

    /// Bind the adapter to its replica identity. Called by the GridCCM
    /// component wrapper during `configuration_complete`.
    pub fn configure(&self, rank: usize, size: usize, comm: Option<Communicator>) {
        *self.configured.lock() = Some(Arc::new(Configured { rank, size, comm }));
    }

    pub fn plan(&self) -> &Arc<InterceptionPlan> {
        &self.plan
    }

    /// Run the user upcall once all expected client requests arrived.
    ///
    /// `eff_rank`/`eff_size` are the replica's rank and group size *in
    /// the invocation's (possibly degraded) view* — equal to
    /// `cfg.rank`/`cfg.size` on a healthy invocation, and the client's
    /// renumbering of the survivors otherwise.
    fn run_invocation(
        &self,
        cfg: &Configured,
        eff_rank: usize,
        eff_size: usize,
        op_plan: &OpPlan,
        state: &InvState,
        server: &ServerCtx,
    ) -> Result<Outcome, GridCcmError> {
        let clock = &server.clock;
        let client_size = state.arrived.len();
        debug_assert_eq!(client_size, state.expected.len());
        // Whichever dispatch thread happens to arrive last runs the
        // upcall; parent its span on the lowest expected client rank's
        // shipped context so the tree is identical across runs.
        let run_ctx = state
            .expected
            .iter()
            .next()
            .and_then(|r| state.ctxs.get(r))
            .filter(|(trace_id, _)| *trace_id != 0)
            .map(|&(trace_id, span_id)| padico_util::span::SpanCtx { trace_id, span_id });
        let _adopt = run_ctx.map(|ctx| padico_util::span::adopt(&server.telemetry, ctx));
        let _run_span = padico_util::span::child(
            clock,
            server.node.0,
            "ccm.run",
            format!("run:{}", op_plan.name),
        );
        let arity = op_plan.arg_dists.len();
        // Assemble the argument list.
        let mut values = Vec::with_capacity(arity);
        let lowest_client = *state.expected.iter().next().expect("nonempty") as usize;
        for index in 0..arity {
            if op_plan.arg_dists[index].is_some() {
                // Gather chunks of this argument from every arrived client.
                let mut all_chunks = Vec::new();
                let mut meta: Option<(u32, u64, crate::dist::Distribution)> = None;
                for args in state.arrived.values() {
                    match &args[index] {
                        WireArg::DistChunks {
                            elem_size,
                            global_elems,
                            dst_dist,
                            chunks,
                            ..
                        } => {
                            if let Some((es, ge, dd)) = &meta {
                                if es != elem_size || ge != global_elems || dd != dst_dist {
                                    return Err(GridCcmError::Protocol(
                                        "clients disagree on argument metadata".into(),
                                    ));
                                }
                            } else {
                                meta = Some((*elem_size, *global_elems, *dst_dist));
                            }
                            all_chunks.extend(chunks.iter().cloned());
                        }
                        WireArg::Replicated(_) => {
                            return Err(GridCcmError::Protocol(format!(
                                "argument {index} should be distributed"
                            )))
                        }
                    }
                }
                let (elem_size, global_elems, dst_dist) =
                    meta.expect("at least one client arrived");
                let local_elems = dst_dist.local_len(global_elems, eff_rank, eff_size);
                let block = assemble_block(elem_size, local_elems, &all_chunks)?;
                // The gather physically copied the block together.
                charge_copy(clock, block.len());
                values.push(ParValue::Dist(DistSeq::from_local(
                    elem_size,
                    global_elems,
                    dst_dist,
                    eff_rank,
                    eff_size,
                    block,
                )?));
            } else {
                // Replicated: all clients sent identical copies; take the
                // lowest rank's.
                let args = state
                    .arrived
                    .get(&(lowest_client as u32))
                    .expect("lowest client arrived");
                match &args[index] {
                    WireArg::Replicated(v) => values.push(v.clone()),
                    WireArg::DistChunks { .. } => {
                        return Err(GridCcmError::Protocol(format!(
                            "argument {index} should be replicated"
                        )))
                    }
                }
            }
        }

        let ctx = ParCtx {
            rank: eff_rank,
            size: eff_size,
            comm: cfg.comm.clone(),
            clock: clock.share(),
        };
        let result = self
            .user
            .invoke_parallel(&op_plan.name, &ParArgs { values }, &ctx)?;

        match (result, op_plan.result_dist) {
            (None, None) => Ok(Outcome::Void),
            (Some(ParValue::Dist(d)), Some(expected_dist)) => {
                if d.distribution != expected_dist || d.rank != eff_rank || d.size != eff_size {
                    return Err(GridCcmError::Distribution(format!(
                        "result block metadata mismatch: got {:?} rank {}/{}, plan says {:?} \
                         rank {}/{}",
                        d.distribution, d.rank, d.size, expected_dist, eff_rank, eff_size
                    )));
                }
                Ok(Outcome::Dist(d))
            }
            (Some(ParValue::Dist(_)), None) => Err(GridCcmError::Protocol(
                "servant returned a distributed result for a replicated operation".into(),
            )),
            (Some(v), None) => Ok(Outcome::Replicated(v)),
            (Some(_), Some(_)) => Err(GridCcmError::Protocol(
                "servant returned a replicated result for a distributed-result operation".into(),
            )),
            (None, Some(_)) => Err(GridCcmError::Protocol(
                "servant returned void for a distributed-result operation".into(),
            )),
        }
    }

    /// Marshal one client's share of an invocation outcome.
    fn write_outcome(
        &self,
        outcome: &Outcome,
        header: &InvHeader,
        reply: &mut CdrWriter,
    ) -> Result<(), OrbError> {
        match outcome {
            Outcome::Void => {
                write_reply_void(reply);
                Ok(())
            }
            Outcome::Replicated(v) => write_reply_replicated(reply, v).map_err(to_orb),
            Outcome::Dist(local) => {
                // This server's pieces of the result destined to the
                // requesting client rank (client side reassembles as
                // Block over its group). The server-side rank and size
                // come from the invocation's possibly-degraded view.
                let transfers = schedule_cached(
                    local.global_elems,
                    local.distribution,
                    header.target_size as usize,
                    crate::dist::Distribution::Block,
                    header.client_size as usize,
                )
                .map_err(to_orb)?;
                let mine: Vec<_> = sends_of(&transfers, header.target_rank as usize)
                    .filter(|t| t.dst_rank == header.client_rank as usize)
                    .copied()
                    .collect();
                write_reply_dist(reply, local, crate::dist::Distribution::Block, &mine)
                    .map_err(to_orb)
            }
        }
    }
}

/// How long a dispatch thread waits for the rest of a collective
/// invocation before abandoning it (wall-clock; generous next to any
/// healthy gather, tiny next to a leaked thread).
const ABANDON_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

impl Servant for ParallelAdapter {
    fn repository_id(&self) -> &str {
        &self.plan.derived_repo_id
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        let op_name = operation
            .strip_prefix(DERIVED_OP_PREFIX)
            .ok_or_else(|| OrbError::BadOperation(operation.into()))?;
        let cfg = self
            .configured
            .lock()
            .clone()
            .ok_or_else(|| OrbError::System("parallel component not configured yet".into()))?;
        let op_plan = self
            .plan
            .op(op_name)
            .map_err(|e| OrbError::BadOperation(e.to_string()))?
            .clone();

        ctx.clock.advance(GRIDCCM_SERVER_NS);
        let header = InvHeader::read(args).map_err(to_orb)?;
        // Requests arriving through the ORB already carry an ambient
        // span (the orb.dispatch span adopted the wire context); adopt
        // the header's context only when dispatched directly, as unit
        // tests do.
        let _hdr_adopt =
            (padico_util::span::current().is_none() && header.trace_id != 0).then(|| {
                padico_util::span::adopt(
                    &ctx.telemetry,
                    padico_util::span::SpanCtx {
                        trace_id: header.trace_id,
                        span_id: header.parent_span,
                    },
                )
            });
        // Same rule for the deadline: the ORB dispatch path has already
        // adopted the wire deadline; pick up the header's only when
        // dispatched directly, so the upcall (and its nested calls) stays
        // bounded by the original invocation's budget either way.
        let _hdr_deadline = (padico_orb::deadline::current().is_none() && header.deadline != 0)
            .then(|| padico_orb::deadline::adopt(header.deadline));
        let _chunk_span = padico_util::span::child(
            &ctx.clock,
            ctx.node.0,
            "ccm.dispatch",
            format!("dispatch:rank{}", header.client_rank),
        );
        // The client may address this replica under a degraded view
        // (surviving replicas renumbered 0..target_size); the view can
        // only shrink the configured group.
        if header.target_size == 0
            || header.target_rank >= header.target_size
            || header.target_size as usize > cfg.size
            || (header.target_size as usize == cfg.size && header.target_rank as usize != cfg.rank)
        {
            return Err(OrbError::System(format!(
                "bad degraded view: target rank {}/{} at replica {}/{}",
                header.target_rank, header.target_size, cfg.rank, cfg.size
            )));
        }
        let eff_rank = header.target_rank as usize;
        let eff_size = header.target_size as usize;
        if header.arg_count as usize != op_plan.arg_dists.len() {
            return Err(OrbError::Marshal(format!(
                "operation `{op_name}` expects {} arguments, request carries {}",
                op_plan.arg_dists.len(),
                header.arg_count
            )));
        }
        let mut wire_args = Vec::with_capacity(header.arg_count as usize);
        for _ in 0..header.arg_count {
            wire_args.push(read_arg(args).map_err(to_orb)?);
        }

        // Routing metadata mirrors the client's computation.
        let metas: Vec<DistMeta> = wire_args
            .iter()
            .filter_map(|a| match a {
                WireArg::DistChunks {
                    global_elems,
                    src_dist,
                    dst_dist,
                    ..
                } => Some(DistMeta {
                    global_elems: *global_elems,
                    src_dist: *src_dist,
                    dst_dist: *dst_dist,
                }),
                WireArg::Replicated(_) => None,
            })
            .collect();
        let expected = expected_clients(
            eff_rank,
            header.client_size as usize,
            eff_size,
            op_plan.result_dist.is_some(),
            &metas,
        )
        .map_err(to_orb)?;
        if !expected.contains(&header.client_rank) {
            return Err(OrbError::System(format!(
                "client rank {} is not expected at server rank {eff_rank}",
                header.client_rank
            )));
        }

        let key = (header.inv_id, op_name.to_string());
        let seq = header.seq();
        // The request's acknowledgement goes first, then the lookup: a
        // duplicate of a finished invocation (the ORB re-issued a request
        // whose reply frame was lost) is answered from its kept outcome,
        // and one its own rank has already acknowledged is stale. Both
        // checks and the slot lookup share the dedup lock, so a slot
        // retiring concurrently cannot slip between them.
        enum Found {
            Done(Finished),
            Stale,
            Slot(Arc<InvSlot>),
        }
        let (found, change) = {
            let mut dedup = self.dedup.lock();
            let change = dedup.acknowledge(header.group, header.client_rank, header.done_below);
            let found = if let Some(kept) = dedup.retained.get(&key) {
                Found::Done(kept.outcome.clone())
            } else if seq < dedup.watermark(header.group, header.client_rank) {
                Found::Stale
            } else {
                Found::Slot(Arc::clone(dedup.open.entry(key.clone()).or_insert_with(
                    || {
                        Arc::new(InvSlot {
                            mu: Mutex::new(InvState {
                                expected: expected.clone(),
                                arrived: HashMap::new(),
                                ctxs: HashMap::new(),
                                outcome: None,
                                replies_sent: 0,
                            }),
                            cv: Condvar::new(),
                        })
                    },
                )))
            };
            (found, change)
        };
        change.report(&ctx.telemetry);
        let slot = match found {
            Found::Done(outcome) => {
                let outcome = outcome.map_err(|msg| OrbError::System(format!("GridCCM: {msg}")))?;
                return self.write_outcome(&outcome, &header, reply);
            }
            Found::Stale => {
                ctx.telemetry.counter_add("ccm.dedup.stale_duplicates", 1);
                return Err(to_orb(GridCcmError::AlreadyCompleted {
                    inv_id: header.inv_id,
                }));
            }
            Found::Slot(slot) => slot,
        };

        let outcome = {
            let mut state = slot.mu.lock();
            if state.expected != expected {
                return Err(OrbError::System(
                    "clients disagree on the expected-sender set".into(),
                ));
            }
            let duplicate = state.arrived.contains_key(&header.client_rank);
            if !duplicate {
                state.arrived.insert(header.client_rank, wire_args);
                state
                    .ctxs
                    .insert(header.client_rank, (header.trace_id, header.parent_span));
                if state.arrived.len() == state.expected.len() {
                    // Last chunk in: this thread runs the user operation.
                    let outcome = self
                        .run_invocation(&cfg, eff_rank, eff_size, &op_plan, &state, ctx)
                        .map(Arc::new)
                        .map_err(|e| e.to_string());
                    state.outcome = Some(outcome);
                    slot.cv.notify_all();
                }
            }
            while state.outcome.is_none() {
                // An expected client may never arrive (it failed its
                // round and re-planned under a fresh invocation id);
                // abandon the partial gather rather than park this
                // dispatch thread forever.
                if slot.cv.wait_for(&mut state, ABANDON_TIMEOUT).timed_out()
                    && state.outcome.is_none()
                {
                    if !duplicate {
                        state.arrived.remove(&header.client_rank);
                        if state.arrived.is_empty() {
                            self.dedup.lock().open.remove(&key);
                        }
                    }
                    return Err(OrbError::System(format!(
                        "GridCCM: abandoned incomplete collective invocation {} of `{op_name}`",
                        header.inv_id
                    )));
                }
            }
            let outcome = state.outcome.clone().expect("set above");
            if !duplicate {
                state.replies_sent += 1;
                if state.replies_sent == state.expected.len() {
                    // Retire the slot but keep the outcome for late
                    // duplicates until its ranks acknowledge it,
                    // atomically w.r.t. the lookup above.
                    let finished = Retained {
                        group: header.group,
                        seq,
                        expected: state.expected.clone(),
                        outcome: outcome.clone(),
                    };
                    self.dedup
                        .lock()
                        .retire(&key, finished)
                        .report(&ctx.telemetry);
                }
            }
            outcome
        };

        let outcome = outcome.map_err(|msg| OrbError::System(format!("GridCCM: {msg}")))?;
        self.write_outcome(&outcome, &header, reply)
    }
}

fn to_orb(e: GridCcmError) -> OrbError {
    match e {
        // A transport failure underneath a nested call keeps its CORBA
        // class (TRANSIENT / COMM_FAILURE) so the client's retry logic
        // still sees it; everything else is server-side state and
        // surfaces as an opaque system exception.
        GridCcmError::Orb(inner) if inner.is_transport() => inner,
        other => OrbError::System(format!("GridCCM: {other}")),
    }
}

// Integration-level behaviour (gather, upcall-once, result routing) is
// exercised end-to-end in `crates/core/tests/gridccm_e2e.rs` and in the
// workspace integration suite; unit tests here cover the argument
// container and the duplicate-suppression rules, dispatching by hand.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::parallel::wire::write_replicated;
    use crate::paridl::{ArgDef, InterfaceDef, OpDef, ParamKind};
    use padico_orb::profile::MarshalStrategy;
    use padico_util::ids::NodeId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const GROUP: u64 = 0x6c0b_a1a5;

    /// Answers `bump` with how many upcalls it has run so far, so a
    /// re-run servant would answer differently.
    struct Counter(AtomicUsize);

    impl ParallelServant for Counter {
        fn repository_id(&self) -> &str {
            "IDL:Test/Counter:1.0"
        }

        fn invoke_parallel(
            &self,
            _op: &str,
            _args: &ParArgs,
            _ctx: &ParCtx,
        ) -> Result<Option<ParValue>, GridCcmError> {
            let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
            Ok(Some(ParValue::I32(n as i32)))
        }
    }

    /// One replica of one, serving a one-rank client group.
    fn counter_adapter() -> (Arc<ParallelAdapter>, Arc<Counter>, ServerCtx) {
        let interface = InterfaceDef {
            repo_id: "IDL:Test/Counter:1.0".into(),
            ops: vec![OpDef::new(
                "bump",
                vec![ArgDef::new("x", ParamKind::Long)],
                Some(ParamKind::Long),
            )],
        };
        let xml = r#"<parallelism interface="IDL:Test/Counter:1.0"></parallelism>"#;
        let plan = Arc::new(InterceptionPlan::compile(&interface, xml).unwrap());
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        let adapter = ParallelAdapter::new(Arc::clone(&counter) as _, plan);
        adapter.configure(0, 1, None);
        let ctx = ServerCtx {
            node: NodeId(0),
            clock: SimClock::new(),
            caller: NodeId(1),
            telemetry: Telemetry::new(),
        };
        (adapter, counter, ctx)
    }

    /// The derived `bump` request of invocation `seq` from a sequential
    /// one-rank client: every earlier invocation has returned.
    fn bump_request(seq: u64) -> padico_fabric::Payload {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        InvHeader {
            inv_id: GROUP + seq,
            group: GROUP,
            done_below: seq,
            client_rank: 0,
            client_size: 1,
            target_rank: 0,
            target_size: 1,
            arg_count: 1,
            trace_id: 0,
            parent_span: 0,
            deadline: 0,
        }
        .write(&mut w);
        write_replicated(&mut w, &ParValue::I32(7)).unwrap();
        w.finish()
    }

    fn dispatch(
        adapter: &ParallelAdapter,
        request: &padico_fabric::Payload,
        ctx: &ServerCtx,
    ) -> Result<Bytes, OrbError> {
        let mut reply = CdrWriter::new(MarshalStrategy::Copying);
        adapter.dispatch("_par_bump", &mut CdrReader::new(request), &mut reply, ctx)?;
        Ok(reply.finish().to_contiguous())
    }

    #[test]
    fn lost_reply_duplicate_is_answered_with_the_same_bytes() {
        let (adapter, counter, ctx) = counter_adapter();
        let request = bump_request(1);
        let first = dispatch(&adapter, &request, &ctx).unwrap();
        // The reply frame was lost: the ORB re-issues the same request.
        let again = dispatch(&adapter, &request, &ctx).unwrap();
        assert_eq!(first, again);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "the servant ran twice");
        assert_eq!(adapter.retained().0, 1);
        // The next invocation acknowledges the first and releases it.
        dispatch(&adapter, &bump_request(2), &ctx).unwrap();
        assert_eq!(adapter.retained().0, 1);
        assert_eq!(ctx.telemetry.metrics().counter("ccm.dedup.released"), 1);
    }

    #[test]
    fn acknowledged_duplicate_is_refused_at_once_and_never_reruns() {
        // A duplicate that arrives long after its invocation returned (300
        // invocations later) must neither re-run the servant nor open a
        // gather slot that would park a dispatch worker.
        let (adapter, counter, ctx) = counter_adapter();
        for seq in 1..=300 {
            dispatch(&adapter, &bump_request(seq), &ctx).unwrap();
        }
        let start = std::time::Instant::now();
        let err = dispatch(&adapter, &bump_request(1), &ctx).unwrap_err();
        assert!(
            start.elapsed() < ABANDON_TIMEOUT / 5,
            "the stale duplicate waited {:?}",
            start.elapsed()
        );
        assert!(
            GridCcmError::Orb(err.clone()).is_already_completed(),
            "{err}"
        );
        assert_eq!(counter.0.load(Ordering::SeqCst), 300, "the servant re-ran");
        // Only the last invocation's outcome is still kept.
        assert_eq!(adapter.retained(), (1, 8));
        let metrics = ctx.telemetry.metrics();
        assert_eq!(metrics.counter("ccm.dedup.released"), 299);
        assert_eq!(metrics.counter("ccm.dedup.stale_duplicates"), 1);
        assert_eq!(metrics.counter("ccm.dedup.retained_bytes"), 8);
    }

    #[test]
    fn outcome_is_kept_until_every_expected_rank_acknowledges_it() {
        let finished = |seq| Retained {
            group: GROUP,
            seq,
            expected: BTreeSet::from([0, 1]),
            outcome: Ok(Arc::new(Outcome::Replicated(ParValue::U64(seq)))),
        };
        let key = |seq| (GROUP + seq, "op".to_string());
        let mut dedup = Dedup::default();
        assert_eq!(dedup.retire(&key(1), finished(1)).retained_bytes, 8);
        // Rank 0 moved on; rank 1 may still re-ask.
        assert_eq!(dedup.acknowledge(GROUP, 0, 2).released, 0);
        // Another group's rank 1 acknowledges nothing here.
        assert_eq!(dedup.acknowledge(GROUP + 1, 1, 9).released, 0);
        let change = dedup.acknowledge(GROUP, 1, 2);
        assert_eq!((change.released, change.retained_bytes), (1, -8));
        assert!(dedup.retained.is_empty());
        // A gather retiring after all its ranks moved past it keeps nothing.
        dedup.acknowledge(GROUP, 0, 4);
        dedup.acknowledge(GROUP, 1, 4);
        let change = dedup.retire(&key(3), finished(3));
        assert_eq!((change.released, change.retained_bytes), (1, 0));
        assert!(dedup.retained.is_empty());
    }

    #[test]
    fn par_args_typed_accessors() {
        let d = DistSeq::from_i32_local(3, Distribution::Block, 0, 1, &[1, 2, 3]).unwrap();
        let args = ParArgs {
            values: vec![
                ParValue::I32(-4),
                ParValue::F64(0.5),
                ParValue::Str("x".into()),
                ParValue::Dist(d.clone()),
                ParValue::Seq {
                    elem_size: 1,
                    data: Bytes::from_static(b"ab"),
                },
                ParValue::U64(9),
            ],
        };
        assert_eq!(args.len(), 6);
        assert!(!args.is_empty());
        assert_eq!(args.i32(0).unwrap(), -4);
        assert_eq!(args.f64(1).unwrap(), 0.5);
        assert_eq!(args.str(2).unwrap(), "x");
        assert_eq!(args.dist(3).unwrap(), &d);
        assert_eq!(&args.seq(4).unwrap()[..], b"ab");
        assert_eq!(args.u64(5).unwrap(), 9);
        // Type mismatches and range errors.
        assert!(args.i32(1).is_err());
        assert!(args.dist(0).is_err());
        assert!(args.get(9).is_err());
    }
}
