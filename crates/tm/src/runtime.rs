//! The per-node PadicoTM runtime façade.
//!
//! One [`PadicoTM`] instance is the "process" running on one grid node: it
//! bundles the node's virtual clock, its arbitration layer
//! ([`crate::arbitration::NetAccess`]), its module registry, and the
//! abstraction-layer constructors ([`PadicoTM::circuit`],
//! [`PadicoTM::vlink_listen`], [`PadicoTM::vlink_connect`]).

use padico_fabric::{Paradigm, Topology};
use padico_util::ids::{FabricId, NodeId};
use padico_util::simtime::SimClock;
use padico_util::stats::RecoveryStats;
use padico_util::Telemetry;
use std::sync::Arc;
use std::time::Duration;

use crate::arbitration::NetAccess;
use crate::circuit::{Circuit, CircuitSpec};
use crate::error::TmError;
use crate::faults::RetryPolicy;
use crate::module::ModuleManager;
use crate::selector::{self, FabricChoice, Route};
use crate::vlink::{VLinkListener, VLinkStream};

/// Tunable runtime knobs, shared by all middleware on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmConfig {
    /// Default deadline for blocking receive paths that used to wait
    /// forever (VLink accept, stream reads, Circuit recv). Generous so the
    /// happy path never trips it; chaos tests shrink it.
    pub default_deadline: Duration,
    /// Deadline for one VLink connect handshake attempt.
    pub connect_timeout: Duration,
    /// Retry budget + backoff for stream ops, handshakes, and failover.
    pub retry: RetryPolicy,
    /// Small-message coalescing policy for every link on this node.
    /// On by default with [`CoalescePolicy::default`]; `None` sends each
    /// frame as its own wire message (the envelope changes the wire
    /// format, so set it alike on every node).
    pub coalesce: Option<CoalescePolicy>,
    /// Bounded inflight-dispatch budget for this node's ORB endpoint.
    /// `None` (the default) admits everything; `Some(b)` load-sheds
    /// request `b+1` with a TRANSIENT reply instead of queueing it.
    pub inflight_budget: Option<u32>,
    /// Per-route circuit breaker policy for every link on this node.
    /// `None` (the default) never trips; routes are re-probed on every
    /// call exactly as before.
    pub breaker: Option<BreakerPolicy>,
    /// Head-based trace sampling policy, installed on the world's
    /// telemetry at boot (one policy per world; the last node booted in a
    /// world wins, so set it alike on every node like `coalesce`).
    /// `Always` records every trace; `SampleEvery(n)` keeps ~1/n of the
    /// causal trees, selected by trace-id hash, which is how tracing stays
    /// on at 100k nodes within the events/s overhead budget.
    pub trace_sampling: padico_util::span::TraceSampling,
}

/// Knobs for the per-route circuit breaker in
/// [`crate::driver::LinkCore`]: `trip_after` consecutive transient send
/// failures open the route; while open every send fails fast with
/// [`TmError::CircuitOpen`]; after `cooldown` virtual nanoseconds one
/// half-open probe is let through and its outcome closes or re-opens
/// the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures (counting every wire attempt, not
    /// top-level calls) that trip the breaker open.
    pub trip_after: u32,
    /// Virtual time the breaker stays open before admitting one
    /// half-open probe.
    pub cooldown: padico_util::simtime::VtDuration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            trip_after: 4,
            cooldown: 5 * padico_util::simtime::MS,
        }
    }
}

/// Knobs for small-message coalescing (see [`crate::driver::LinkCore`]):
/// frames at or under `max_frame` bytes to the same destination within
/// one virtual tick are batched into a single wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Frames larger than this bypass batching (sent immediately, after
    /// flushing anything queued, to preserve FIFO order).
    pub max_frame: usize,
    /// Flush the batch once it holds this many payload bytes.
    pub max_batch_bytes: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_frame: 64,
            max_batch_bytes: 4096,
        }
    }
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            default_deadline: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            coalesce: Some(CoalescePolicy::default()),
            inflight_budget: None,
            breaker: None,
            trace_sampling: padico_util::span::TraceSampling::Always,
        }
    }
}

/// Worlds at or above this node count boot with sharded parallel
/// construction in [`PadicoTM::boot_all_with_config`].
pub const PARALLEL_BOOT_THRESHOLD: usize = 64;

/// The PadicoTM runtime of one grid node.
pub struct PadicoTM {
    topology: Arc<Topology>,
    node: NodeId,
    clock: SimClock,
    net: Arc<NetAccess>,
    modules: ModuleManager,
    config: TmConfig,
    /// Node-wide circuit-breaker route table, shared by every
    /// [`crate::driver::LinkCore`] on this node: breaker state is a
    /// property of the *route* (fabric, peer), not of any one link, so a
    /// connection torn down and rebuilt by a higher layer's retry loop
    /// still sees the tripped state.
    breaker_routes: Arc<parking_lot::Mutex<std::collections::HashMap<(FabricId, NodeId), crate::driver::BreakerState>>>,
}

impl PadicoTM {
    /// Boot the runtime on one node of `topology`.
    pub fn boot(topology: Arc<Topology>, node: NodeId) -> Result<Arc<PadicoTM>, TmError> {
        PadicoTM::boot_with_config(topology, node, TmConfig::default())
    }

    /// Boot with explicit runtime knobs.
    pub fn boot_with_config(
        topology: Arc<Topology>,
        node: NodeId,
        config: TmConfig,
    ) -> Result<Arc<PadicoTM>, TmError> {
        let clock = SimClock::new();
        topology.telemetry().set_sampling(config.trace_sampling);
        let net = NetAccess::bring_up(&topology, node, clock.share())?;
        Ok(Arc::new(PadicoTM {
            topology,
            node,
            clock,
            net,
            modules: ModuleManager::new(),
            config,
            breaker_routes: Arc::new(parking_lot::Mutex::new(
                std::collections::HashMap::new(),
            )),
        }))
    }

    /// Boot a runtime on every node of `topology`; index `i` of the result
    /// is the runtime of `NodeId(i)`.
    pub fn boot_all(topology: Arc<Topology>) -> Result<Vec<Arc<PadicoTM>>, TmError> {
        PadicoTM::boot_all_with_config(topology, TmConfig::default())
    }

    /// [`PadicoTM::boot_all`] with explicit runtime knobs on every node.
    ///
    /// Large worlds boot in parallel: node construction only touches
    /// per-node state plus lock-guarded shared tables (fabric endpoint
    /// maps, the world scheduler's handler slots, both keyed by node
    /// id), so construction is sharded across `available_parallelism`
    /// worker threads. Small worlds (< [`PARALLEL_BOOT_THRESHOLD`]
    /// nodes) boot serially — thread setup would cost more than it
    /// saves, and tests stay single-threaded.
    pub fn boot_all_with_config(
        topology: Arc<Topology>,
        config: TmConfig,
    ) -> Result<Vec<Arc<PadicoTM>>, TmError> {
        let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        if ids.len() < PARALLEL_BOOT_THRESHOLD {
            return ids
                .into_iter()
                .map(|id| PadicoTM::boot_with_config(Arc::clone(&topology), id, config))
                .collect();
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(ids.len());
        let chunk = ids.len().div_ceil(workers);
        let mut out: Vec<Option<Arc<PadicoTM>>> = Vec::new();
        out.resize_with(ids.len(), || None);
        let mut first_err: Option<TmError> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (slot_chunk, id_chunk) in out.chunks_mut(chunk).zip(ids.chunks(chunk)) {
                let topology = Arc::clone(&topology);
                handles.push(scope.spawn(move || -> Result<(), TmError> {
                    for (slot, &id) in slot_chunk.iter_mut().zip(id_chunk) {
                        *slot = Some(PadicoTM::boot_with_config(
                            Arc::clone(&topology),
                            id,
                            config,
                        )?);
                    }
                    Ok(())
                }));
            }
            for handle in handles {
                if let Err(e) = handle.join().expect("boot worker panicked") {
                    first_err.get_or_insert(e);
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(out
            .into_iter()
            .map(|tm| tm.expect("boot worker filled every slot"))
            .collect())
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The world's telemetry (shared by every node of the topology).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.topology.telemetry()
    }

    /// The node's virtual clock. All middleware on the node shares it.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The node's arbitration layer.
    pub fn net(&self) -> &Arc<NetAccess> {
        &self.net
    }

    /// The node's module registry.
    pub fn modules(&self) -> &ModuleManager {
        &self.modules
    }

    /// The node's runtime knobs.
    pub fn config(&self) -> &TmConfig {
        &self.config
    }

    /// The node-wide circuit-breaker route table (one entry per
    /// (fabric, peer) route that has seen traffic).
    pub(crate) fn breaker_routes(
        &self,
    ) -> Arc<parking_lot::Mutex<std::collections::HashMap<(FabricId, NodeId), crate::driver::BreakerState>>>
    {
        Arc::clone(&self.breaker_routes)
    }

    /// The node's recovery counters (retries, failovers, backoff charged);
    /// the world's telemetry sums every node's into `recovery.*`.
    pub fn recovery(&self) -> &RecoveryStats {
        self.net.recovery()
    }

    /// Select a route from this node towards `peers` (see
    /// [`crate::selector::select`]).
    pub fn select(
        &self,
        peers: &[NodeId],
        paradigm: Paradigm,
        choice: FabricChoice,
    ) -> Result<Route, TmError> {
        selector::select(&self.topology, peers, paradigm, choice)
    }

    /// Like [`PadicoTM::select`], but skipping fabrics that already failed
    /// — the failover path of VLink/Circuit route re-selection.
    pub fn select_excluding(
        &self,
        peers: &[NodeId],
        paradigm: Paradigm,
        choice: FabricChoice,
        excluded: &[FabricId],
    ) -> Result<Route, TmError> {
        selector::select_excluding(&self.topology, peers, paradigm, choice, excluded)
    }

    /// Build this node's member of a [`Circuit`] — the parallel-oriented
    /// abstract interface. Every node in `spec.group` must call this with
    /// an identical spec.
    pub fn circuit(self: &Arc<Self>, spec: CircuitSpec) -> Result<Circuit, TmError> {
        Circuit::build(Arc::clone(self), spec)
    }

    /// Bind a VLink listener — the distributed-oriented abstract
    /// interface's passive side.
    pub fn vlink_listen(self: &Arc<Self>, service: &str) -> Result<VLinkListener, TmError> {
        VLinkListener::bind(Arc::clone(self), service)
    }

    /// Connect a VLink stream to `service` on `dst`.
    pub fn vlink_connect(
        self: &Arc<Self>,
        dst: NodeId,
        service: &str,
        choice: FabricChoice,
    ) -> Result<VLinkStream, TmError> {
        VLinkStream::connect(
            Arc::clone(self),
            dst,
            service,
            choice,
            self.config.connect_timeout,
        )
    }
}

impl std::fmt::Debug for PadicoTM {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PadicoTM({})", self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;

    #[test]
    fn boot_all_indexes_by_node_id() {
        let (topo, ids) = single_cluster(3);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        assert_eq!(tms.len(), 3);
        for (i, tm) in tms.iter().enumerate() {
            assert_eq!(tm.node(), ids[i]);
        }
    }

    #[test]
    fn each_node_has_its_own_clock() {
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        tms[0].clock().advance(100);
        assert_eq!(tms[1].clock().now(), 0);
    }

    #[test]
    fn select_exposes_selector() {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let r = tms[0]
            .select(&[ids[0], ids[1]], Paradigm::Parallel, FabricChoice::Auto)
            .unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Shmem);
    }

    #[test]
    fn two_runtimes_on_one_topology_coexist() {
        // PadicoTM attaches per node; booting all nodes of a cluster
        // exercises one exclusive Myrinet attach per node.
        let (topo, _ids) = single_cluster(4);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        assert_eq!(tms.len(), 4);
    }
}
