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
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::dist::DistSeq;
use crate::error::GridCcmError;
use crate::paridl::{InterceptionPlan, OpPlan, DERIVED_OP_PREFIX};
use crate::parallel::routing::{expected_clients, DistMeta};
use crate::parallel::wire::{
    assemble_block, read_arg, write_reply_dist, write_reply_replicated, write_reply_void,
    InvHeader, ParValue, WireArg,
};
use crate::parallel::GRIDCCM_SERVER_NS;
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
        self.values.get(index).ok_or_else(|| {
            GridCcmError::Protocol(format!("argument index {index} out of range"))
        })
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

struct InvState {
    expected: BTreeSet<u32>,
    arrived: HashMap<u32, Vec<WireArg>>,
    /// Trace context shipped in each arrived chunk's header, by client
    /// rank: the upcall span is parented on the lowest expected rank's
    /// context so the tree shape does not depend on arrival order.
    ctxs: HashMap<u32, (u64, u64)>,
    outcome: Option<Result<Arc<Outcome>, String>>,
    replies_sent: usize,
}

struct InvSlot {
    mu: Mutex<InvState>,
    cv: Condvar,
}

/// How many finished invocations keep their outcome for duplicate
/// requests (a client whose reply frame was lost re-sends the request;
/// the servant must not run twice, so the cached outcome answers it).
const COMPLETED_CAP: usize = 256;

/// Bounded FIFO of completed invocation outcomes.
#[derive(Default)]
struct CompletedCache {
    outcomes: HashMap<(u64, String), Result<Arc<Outcome>, String>>,
    order: std::collections::VecDeque<(u64, String)>,
}

impl CompletedCache {
    fn insert(&mut self, key: (u64, String), outcome: Result<Arc<Outcome>, String>) {
        if self.outcomes.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key);
            while self.order.len() > COMPLETED_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.outcomes.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, key: &(u64, String)) -> Option<Result<Arc<Outcome>, String>> {
        self.outcomes.get(key).cloned()
    }
}

/// The derived-interface servant of one replica.
pub struct ParallelAdapter {
    user: Arc<dyn ParallelServant>,
    plan: Arc<InterceptionPlan>,
    configured: Mutex<Option<Arc<Configured>>>,
    invocations: Mutex<HashMap<(u64, String), Arc<InvSlot>>>,
    completed: Mutex<CompletedCache>,
}

impl ParallelAdapter {
    pub fn new(user: Arc<dyn ParallelServant>, plan: Arc<InterceptionPlan>) -> Arc<Self> {
        Arc::new(ParallelAdapter {
            user,
            plan,
            configured: Mutex::new(None),
            invocations: Mutex::new(HashMap::new()),
            completed: Mutex::new(CompletedCache::default()),
        })
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
        let _hdr_adopt = (padico_util::span::current().is_none() && header.trace_id != 0)
            .then(|| {
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
            || (header.target_size as usize == cfg.size
                && header.target_rank as usize != cfg.rank)
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
        // A duplicate of a finished invocation (the ORB re-issued a
        // request whose reply frame was lost) is answered from the
        // completed cache — the servant must not run twice. The cache
        // check and the slot lookup share the invocations lock so a slot
        // retiring concurrently cannot slip between them.
        enum Found {
            Done(Result<Arc<Outcome>, String>),
            Slot(Arc<InvSlot>),
        }
        let found = {
            let mut invocations = self.invocations.lock();
            match self.completed.lock().get(&key) {
                Some(outcome) => Found::Done(outcome),
                None => Found::Slot(Arc::clone(invocations.entry(key.clone()).or_insert_with(
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
                ))),
            }
        };
        let slot = match found {
            Found::Done(outcome) => {
                let outcome =
                    outcome.map_err(|msg| OrbError::System(format!("GridCCM: {msg}")))?;
                return self.write_outcome(&outcome, &header, reply);
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
                            self.invocations.lock().remove(&key);
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
                    // Retire the slot but keep the outcome around for
                    // late duplicates, atomically w.r.t. the lookup above.
                    let mut invocations = self.invocations.lock();
                    self.completed.lock().insert(key.clone(), outcome.clone());
                    invocations.remove(&key);
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
// exercised end-to-end in `client.rs` tests and in the workspace
// integration suite; unit tests here cover the argument container.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

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
