//! The client-side GridCCM interception layer.
//!
//! A [`ParallelRef`] is one client rank's handle to a parallel component:
//! it plays the role of the generated layer in Figure 4 that intercepts
//! `o->m(matrix n)` and issues `o1->m(MatrixDis n1); o2->m(MatrixDis n2);
//! …` — here concurrently, one derived invocation per target server
//! node. A sequential client is simply the `client_size == 1` case.
//!
//! Invocations are **collective** across the client group: every rank
//! must call [`ParallelRef::invoke`] with the same operation sequence
//! (the usual SPMD contract), so the layers can derive matching
//! invocation ids without extra coordination.
//!
//! # Degraded operation
//!
//! When a derived invocation fails with a transport error even after the
//! ORB's own retries, the handle probes every replica with a GIOP
//! `LocateRequest`, marks unreachable ones dead, and **re-plans** the
//! invocation over the survivors: the surviving replicas are renumbered
//! `0..S'` (carried to the server in the wire header's `target_rank` /
//! `target_size` fields) and the scatter schedules are recomputed for a
//! server group of size `S'`. The invocation only fails once fewer than
//! [`ParallelRef::with_quorum`] replicas answer the probe.
//!
//! The SPMD contract extends to failures: re-planning assumes every
//! client rank observes the same failure and retries the same rounds
//! (true for full fan-out routings — distributed results or replicated
//! invocations — under the deterministic fault fabric). A sparse scatter
//! whose failure only some ranks observe surfaces the transport error
//! instead of silently diverging.

use padico_orb::orb::ObjectRef;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::dist::Distribution;
use crate::error::GridCcmError;
use crate::paridl::{InterceptionPlan, OpPlan};
use crate::parallel::routing::{targets_of, DistMeta};
use crate::parallel::wire::{
    assemble_block, read_reply, write_dist_chunks, write_replicated, InvHeader, ParValue,
    WireReply,
};
use crate::parallel::GRIDCCM_CLIENT_NS;
use crate::redistribute::{schedule_cached, sends_of, TransferRun};
use crate::dist::DistSeq;

/// Client-rank handle to a parallel component.
pub struct ParallelRef {
    /// Identity of the client group (must be grid-unique; invocation ids
    /// derive from it).
    group_name: String,
    plan: Arc<InterceptionPlan>,
    /// Derived-interface facet references, one per server rank.
    replicas: Vec<ObjectRef>,
    my_rank: usize,
    group_size: usize,
    /// Minimum number of live replicas a degraded invocation may run on.
    quorum: usize,
    /// Replica ranks that failed a liveness probe (monotone: a replica
    /// marked dead stays out of every later plan).
    dead: Mutex<BTreeSet<usize>>,
    base: u64,
    seq: AtomicU64,
}

impl ParallelRef {
    /// Build a handle for client rank `my_rank` of `group_size`.
    ///
    /// `replicas[s]` must be the derived facet of server rank `s`; every
    /// client rank must pass the same `group_name` and replica order.
    pub fn new(
        group_name: impl Into<String>,
        plan: Arc<InterceptionPlan>,
        replicas: Vec<ObjectRef>,
        my_rank: usize,
        group_size: usize,
    ) -> Result<ParallelRef, GridCcmError> {
        if replicas.is_empty() {
            return Err(GridCcmError::Protocol("no server replicas".into()));
        }
        if my_rank >= group_size {
            return Err(GridCcmError::Protocol(format!(
                "client rank {my_rank} out of range for group of {group_size}"
            )));
        }
        let group_name = group_name.into();
        // Stable 64-bit id from the group name.
        let mut base: u64 = 0xcbf2_9ce4_8422_2325;
        for b in group_name.as_bytes() {
            base ^= u64::from(*b);
            base = base.wrapping_mul(0x1000_0000_01b3);
        }
        let quorum = replicas.len();
        Ok(ParallelRef {
            group_name,
            plan,
            replicas,
            my_rank,
            group_size,
            quorum,
            dead: Mutex::new(BTreeSet::new()),
            base,
            seq: AtomicU64::new(1),
        })
    }

    /// Allow degraded invocations over as few as `quorum` live replicas
    /// (default: all of them, i.e. no degradation tolerated).
    pub fn with_quorum(mut self, quorum: usize) -> Result<ParallelRef, GridCcmError> {
        if quorum == 0 || quorum > self.replicas.len() {
            return Err(GridCcmError::Protocol(format!(
                "quorum {quorum} out of range for {} replicas",
                self.replicas.len()
            )));
        }
        self.quorum = quorum;
        Ok(self)
    }

    pub fn server_size(&self) -> usize {
        self.replicas.len()
    }

    /// Replica ranks currently considered dead.
    pub fn dead_replicas(&self) -> BTreeSet<usize> {
        self.dead.lock().clone()
    }

    pub fn client_rank(&self) -> usize {
        self.my_rank
    }

    pub fn client_size(&self) -> usize {
        self.group_size
    }

    pub fn group_name(&self) -> &str {
        &self.group_name
    }

    pub fn plan(&self) -> &Arc<InterceptionPlan> {
        &self.plan
    }

    fn validate_args(&self, op: &OpPlan, args: &[ParValue]) -> Result<(), GridCcmError> {
        if args.len() != op.arg_dists.len() {
            return Err(GridCcmError::Protocol(format!(
                "operation `{}` takes {} arguments, got {}",
                op.name,
                op.arg_dists.len(),
                args.len()
            )));
        }
        for (index, (arg, dist)) in args.iter().zip(&op.arg_dists).enumerate() {
            match (arg, dist) {
                (ParValue::Dist(d), Some(_)) => {
                    if d.rank != self.my_rank || d.size != self.group_size {
                        return Err(GridCcmError::Distribution(format!(
                            "argument {index}: local block is rank {}/{} but this handle \
                             is rank {}/{}",
                            d.rank, d.size, self.my_rank, self.group_size
                        )));
                    }
                }
                (ParValue::Dist(_), None) => {
                    return Err(GridCcmError::Protocol(format!(
                        "argument {index} of `{}` is replicated; pass a plain value",
                        op.name
                    )))
                }
                (_, Some(_)) => {
                    return Err(GridCcmError::Protocol(format!(
                        "argument {index} of `{}` is distributed; pass ParValue::Dist",
                        op.name
                    )))
                }
                (_, None) => {}
            }
        }
        Ok(())
    }

    /// Invoke a (possibly parallel) operation collectively.
    ///
    /// Distributed arguments must be this rank's [`DistSeq`] local
    /// blocks; a distributed result comes back as this rank's local block
    /// under a block distribution over the client group.
    pub fn invoke(
        &self,
        op_name: &str,
        args: Vec<ParValue>,
    ) -> Result<Option<ParValue>, GridCcmError> {
        let op = self.plan.op(op_name)?.clone();
        self.validate_args(&op, &args)?;
        let policy = self.replicas[0].orb().tm().config().retry;
        let max_rounds = policy.max_attempts.max(1);
        let inv_id = self
            .base
            .wrapping_add(self.seq.fetch_add(1, Ordering::Relaxed));
        let derived = InterceptionPlan::derived_op(op_name);

        // Root of the invocation's span tree: the deterministic
        // invocation id doubles as the trace id, so every rank of the
        // client group roots its spans in the same tree.
        let tm = self.replicas[0].orb().tm();
        let _root = padico_util::span::root(
            tm.telemetry(),
            tm.clock(),
            tm.node().0,
            inv_id,
            "ccm.invoke",
            format!("invoke:{op_name}:rank{}", self.my_rank),
        );

        let mut round: u32 = 0;
        let mut prev_round_span = 0u64;
        loop {
            let dead = self.dead.lock().clone();
            let survivors: Vec<usize> = (0..self.replicas.len())
                .filter(|s| !dead.contains(s))
                .collect();
            if survivors.len() < self.quorum {
                return Err(GridCcmError::QuorumLost {
                    alive: survivors.len(),
                    total: self.replicas.len(),
                });
            }
            // A retried round is a fresh logical invocation as far as the
            // servers are concerned (the degraded view may differ), so it
            // gets its own deterministic id.
            let round_id = inv_id.wrapping_add(u64::from(round) << 48);
            let round_span = padico_util::span::child_retry(
                tm.clock(),
                tm.node().0,
                "ccm.round",
                format!("round{round}"),
                prev_round_span,
            );
            let outcome = self.invoke_round(&op, &derived, &args, &survivors, round_id);
            prev_round_span = round_span.id();
            drop(round_span);
            match outcome {
                Ok(replies) => return self.assemble(&op, replies),
                Err(e) if round + 1 < max_rounds && e.is_transport_failure() => {
                    self.probe_replicas();
                    round += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Probe every not-yet-dead replica with a GIOP locate request and
    /// mark the unreachable ones dead.
    fn probe_replicas(&self) {
        let mut dead = self.dead.lock();
        for (s, replica) in self.replicas.iter().enumerate() {
            if dead.contains(&s) {
                continue;
            }
            if !matches!(replica.locate(), Ok(true)) {
                dead.insert(s);
            }
        }
    }

    /// Run one scatter/gather round over the surviving replicas
    /// (renumbered `0..survivors.len()`), returning the per-virtual-rank
    /// replies in rank order.
    fn invoke_round(
        &self,
        op: &OpPlan,
        derived: &str,
        args: &[ParValue],
        survivors: &[usize],
        inv_id: u64,
    ) -> Result<Vec<WireReply>, GridCcmError> {
        let server_size = survivors.len();

        // Schedules and routing metadata for the distributed arguments,
        // over the degraded server group.
        let tm = self.replicas[0].orb().tm();
        let redist_span = padico_util::span::child(
            tm.clock(),
            tm.node().0,
            "ccm.redistribute",
            format!("schedule:{}", op.name),
        );
        let mut schedules: Vec<Option<std::sync::Arc<Vec<TransferRun>>>> =
            Vec::with_capacity(args.len());
        let mut metas = Vec::new();
        for (arg, dist) in args.iter().zip(&op.arg_dists) {
            match (arg, dist) {
                (ParValue::Dist(d), Some(server_dist)) => {
                    metas.push(DistMeta {
                        global_elems: d.global_elems,
                        src_dist: d.distribution,
                        dst_dist: *server_dist,
                    });
                    schedules.push(Some(schedule_cached(
                        d.global_elems,
                        d.distribution,
                        self.group_size,
                        *server_dist,
                        server_size,
                    )?));
                }
                _ => schedules.push(None),
            }
        }
        let targets: BTreeSet<usize> = targets_of(
            self.my_rank,
            self.group_size,
            server_size,
            op.result_dist.is_some(),
            &metas,
        )?;
        drop(redist_span);

        // One derived invocation per target server, pipelined over each
        // peer's pooled mux connection: every submit returns immediately
        // with a reply handle, so N targets cost N outstanding requests
        // and zero fan-out threads; the replies are collected afterwards
        // in rank order. Marshalling and sending stay on this thread, so
        // the span context and ambient deadline of a parallel call made
        // from inside a servant dispatch apply to every derived request
        // without any capture-and-adopt dance.
        let mut inflight = Vec::with_capacity(targets.len());
        for &v in &targets {
            let target = &self.replicas[survivors[v]];
            let tm = target.orb().tm();
            let mut target_span = padico_util::span::child(
                tm.clock(),
                tm.node().0,
                "ccm.target",
                format!("target:{v}"),
            );
            let submitted =
                self.submit_one(target, derived, op, args, &schedules, v, server_size, inv_id);
            // The span stays open (detached) until this target's reply
            // resolves, so it still covers the full derived invocation.
            target_span.detach();
            inflight.push((v, target_span, submitted));
        }
        let mut replies: Vec<(usize, Result<WireReply, GridCcmError>)> = inflight
            .into_iter()
            .map(|(v, span, submitted)| {
                let outcome = submitted.and_then(|pending| {
                    let mut reply = pending.wait()?;
                    read_reply(&mut reply)
                });
                drop(span);
                (v, outcome)
            })
            .collect();
        replies.sort_by_key(|(v, _)| *v);

        // Surface a non-transport error over a transport one: the former
        // is a protocol bug a retry cannot fix.
        let mut transport: Option<GridCcmError> = None;
        let mut good = Vec::with_capacity(replies.len());
        for (_v, reply) in replies {
            match reply {
                Ok(r) => good.push(r),
                Err(e) if e.is_transport_failure() => {
                    transport.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        match transport {
            Some(e) => Err(e),
            None => Ok(good),
        }
    }

    fn assemble(
        &self,
        op: &OpPlan,
        replies: Vec<WireReply>,
    ) -> Result<Option<ParValue>, GridCcmError> {
        // Assemble the result.
        let mut replicated: Option<ParValue> = None;
        let mut dist_meta: Option<(u32, u64, Distribution)> = None;
        let mut dist_chunks = Vec::new();
        for reply in replies {
            match reply {
                WireReply::Void => {}
                WireReply::Replicated(v) => {
                    if let Some(prev) = &replicated {
                        if prev != &v {
                            return Err(GridCcmError::Protocol(
                                "servers returned diverging replicated results".into(),
                            ));
                        }
                    }
                    replicated = Some(v);
                }
                WireReply::Dist {
                    elem_size,
                    global_elems,
                    dst_dist,
                    chunks,
                    ..
                } => {
                    if let Some((es, ge, dd)) = &dist_meta {
                        if *es != elem_size || *ge != global_elems || *dd != dst_dist {
                            return Err(GridCcmError::Protocol(
                                "servers disagree on result metadata".into(),
                            ));
                        }
                    } else {
                        dist_meta = Some((elem_size, global_elems, dst_dist));
                    }
                    dist_chunks.extend(chunks);
                }
            }
        }
        match (op.result_dist, dist_meta, replicated) {
            (Some(_), Some(_), Some(_)) => Err(GridCcmError::Protocol(
                "servers returned both replicated and distributed results".into(),
            )),
            (Some(_), Some((elem_size, global_elems, dst_dist)), None) => {
                let local_elems = dst_dist.local_len(global_elems, self.my_rank, self.group_size);
                let block = assemble_block(elem_size, local_elems, &dist_chunks)?;
                // Reassembling the result block physically copied it.
                padico_fabric::model::charge_copy(
                    self.replicas[0].orb().tm().clock(),
                    block.len(),
                );
                Ok(Some(ParValue::Dist(DistSeq::from_local(
                    elem_size,
                    global_elems,
                    dst_dist,
                    self.my_rank,
                    self.group_size,
                    block,
                )?)))
            }
            (Some(_), None, _) => Err(GridCcmError::Protocol(
                "no result chunks came back for a distributed-result operation".into(),
            )),
            (None, Some(_), _) => Err(GridCcmError::Protocol(
                "unexpected distributed result".into(),
            )),
            (None, None, replicated) => Ok(replicated),
        }
    }

    /// Marshal and send one derived request; the returned handle resolves
    /// to the reply (`invoke_round` waits on all targets after the whole
    /// batch is airborne).
    #[allow(clippy::too_many_arguments)]
    fn submit_one(
        &self,
        target: &ObjectRef,
        derived: &str,
        op: &OpPlan,
        args: &[ParValue],
        schedules: &[Option<std::sync::Arc<Vec<TransferRun>>>],
        server_rank: usize,
        server_size: usize,
        inv_id: u64,
    ) -> Result<padico_orb::orb::AsyncReply, GridCcmError> {
        // The GridCCM layer's own bookkeeping cost per derived request.
        target.orb().tm().clock().advance(GRIDCCM_CLIENT_NS);
        // Derived requests are idempotent: the adapter de-duplicates by
        // (inv_id, op), so the ORB may re-issue them after a lost frame.
        let mut request = target.request(derived).idempotent();
        // Ship the current span context in the chunk header: the adapter
        // parents its gather/run spans on the sending rank's span. The
        // ambient deadline rides along so the server-side upcall inherits
        // the original caller's remaining budget.
        let (trace_id, parent_span) =
            padico_util::span::current().map_or((0, 0), |c| (c.trace_id, c.span_id));
        let deadline = padico_orb::deadline::current().unwrap_or(0);
        let w = request.writer();
        InvHeader {
            inv_id,
            client_rank: self.my_rank as u32,
            client_size: self.group_size as u32,
            target_rank: server_rank as u32,
            target_size: server_size as u32,
            arg_count: args.len() as u32,
            trace_id,
            parent_span,
            deadline,
        }
        .write(w);
        for (index, (arg, sched)) in args.iter().zip(schedules).enumerate() {
            match (arg, sched) {
                (ParValue::Dist(d), Some(transfers)) => {
                    let mine: Vec<TransferRun> = sends_of(transfers, self.my_rank)
                        .filter(|t| t.dst_rank == server_rank)
                        .copied()
                        .collect();
                    let server_dist = op.arg_dists[index].expect("validated as distributed");
                    write_dist_chunks(w, d, server_dist, &mine)?;
                }
                (v, None) => write_replicated(w, v)?,
                _ => unreachable!("validated"),
            }
        }
        Ok(request.submit())
    }
}

impl std::fmt::Debug for ParallelRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParallelRef(`{}` rank {}/{} -> {} server replicas)",
            self.group_name,
            self.my_rank,
            self.group_size,
            self.replicas.len()
        )
    }
}
