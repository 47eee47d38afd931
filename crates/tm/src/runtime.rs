//! The per-node PadicoTM runtime façade.
//!
//! One [`PadicoTM`] instance is the "process" running on one grid node: it
//! bundles the node's virtual clock, its arbitration layer
//! ([`crate::arbitration::NetAccess`]), its module registry, and the
//! abstraction-layer constructors ([`PadicoTM::circuit`],
//! [`PadicoTM::vlink_listen`], [`PadicoTM::vlink_connect`]).

use padico_fabric::{NodeInfo, NodeStep, Paradigm, Topology};
use padico_util::ids::{FabricId, NodeId};
use padico_util::simtime::SimClock;
use padico_util::stats::RecoveryStats;
use padico_util::Telemetry;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use crate::arbitration::NetAccess;
use crate::circuit::{Circuit, CircuitSpec};
use crate::error::TmError;
use crate::faults::RetryPolicy;
use crate::module::ModuleManager;
use crate::selector::{self, FabricChoice, Route};
use crate::vlink::{VLinkListener, VLinkStream};

/// Tunable runtime knobs, shared by all middleware of one world: every
/// node booted by [`PadicoTM::boot_all_with_config`] holds the same one.
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
    /// Small-message coalescing on every link in the world (see
    /// [`crate::driver::LinkCore::send_wire`]). On by default; `false`
    /// sends each frame as its own wire message.
    pub coalesce: bool,
    /// Bounded inflight-dispatch budget for each node's ORB endpoint.
    /// `None` (the default) admits everything; `Some(b)` load-sheds
    /// request `b+1` with a TRANSIENT reply instead of queueing it.
    pub inflight_budget: Option<u32>,
    /// Per-route circuit breaker policy for every link in the world.
    /// `None` (the default) never trips, and no node allocates a route
    /// table; routes are re-probed on every call exactly as before.
    pub breaker: Option<BreakerPolicy>,
    /// Head-based trace sampling policy, installed once on the world's
    /// telemetry by [`PadicoTM::boot_all_with_config`]. `Always` records
    /// every trace; `SampleEvery(n)` keeps ~1/n of the causal trees,
    /// selected by trace-id hash, which is how tracing stays on at 100k
    /// nodes within the events/s overhead budget.
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

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            default_deadline: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            coalesce: true,
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
    net: Arc<NetAccess>,
    /// The world's knobs, one allocation shared by every node.
    config: Arc<TmConfig>,
    /// Created on first use: a `world_ring` node never loads a module
    /// or keeps a breaker route, so it pays one empty slot for both.
    lazy: OnceLock<Box<Lazy>>,
}

/// The parts of a node that most nodes of a large world never use.
#[derive(Default)]
struct Lazy {
    modules: ModuleManager,
    /// Node-wide circuit-breaker route table, shared by every
    /// [`crate::driver::LinkCore`] on this node: breaker state is a
    /// property of the *route* (fabric, peer), not of any one link, so a
    /// connection torn down and rebuilt by a higher layer's retry loop
    /// still sees the tripped state. Only breaker-enabled worlds fill it.
    breaker_routes: parking_lot::Mutex<BreakerTable>,
}

/// Breaker state per (fabric, peer) route of one node.
type BreakerTable = std::collections::HashMap<(FabricId, NodeId), crate::driver::BreakerState>;

impl PadicoTM {
    /// Boot the runtime on one node of `topology`, not yet registered
    /// with the world scheduler.
    fn boot_node(
        topology: Arc<Topology>,
        node: NodeId,
        config: Arc<TmConfig>,
    ) -> Result<Arc<PadicoTM>, TmError> {
        let net = NetAccess::attach(&topology, node, SimClock::new())?;
        Ok(Arc::new(PadicoTM {
            topology,
            net,
            config,
            lazy: OnceLock::new(),
        }))
    }

    /// Boot a runtime on every node of `topology`; index `i` of the result
    /// is the runtime of `NodeId(i)`.
    pub fn boot_all(topology: Arc<Topology>) -> Result<Vec<Arc<PadicoTM>>, TmError> {
        PadicoTM::boot_all_with_config(topology, TmConfig::default())
    }

    /// [`PadicoTM::boot_all`] with explicit runtime knobs: one
    /// `config` for the whole world, whose trace sampling policy is
    /// installed on the world's telemetry.
    ///
    /// Large worlds boot in parallel, one block of nodes per available
    /// core, each on a scoped thread while the calling thread waits (a
    /// calling thread that booted a block itself cost `world_ring` 3–5 %
    /// of its events/s in alternating runs: half the nodes' records then
    /// come from its allocator arena, and a serial boot of every node
    /// cost 4.4 %). Besides its own records and fabric slots, a node's boot
    /// writes only the reference counts of the world objects it holds a
    /// share of (topology, knobs, scheduler, fabrics): a shared fabric
    /// binds its service port under the slot's lock alone. Each block
    /// then registers with the scheduler under one lock. Small worlds
    /// (< [`PARALLEL_BOOT_THRESHOLD`] nodes), and any world on one core,
    /// boot serially on the calling thread.
    pub fn boot_all_with_config(
        topology: Arc<Topology>,
        config: TmConfig,
    ) -> Result<Vec<Arc<PadicoTM>>, TmError> {
        topology.telemetry().set_sampling(config.trace_sampling);
        let config = Arc::new(config);
        let nodes = topology.nodes();
        let sched = topology.sched();
        let boot = |part: &[NodeInfo]| {
            let tms = part
                .iter()
                .map(|n| PadicoTM::boot_node(Arc::clone(&topology), n.id, Arc::clone(&config)))
                .collect::<Result<Vec<_>, _>>()?;
            sched.register_all(
                tms.iter()
                    .map(|tm| (tm.node(), Arc::downgrade(&tm.net) as Weak<dyn NodeStep>))
                    .collect(),
            );
            Ok(tms)
        };
        if nodes.len() < PARALLEL_BOOT_THRESHOLD {
            return boot(nodes);
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        if workers == 1 {
            return boot(nodes);
        }
        std::thread::scope(|scope| {
            let boot = &boot;
            let blocks: Vec<_> = nodes
                .chunks(nodes.len().div_ceil(workers))
                .map(|block| scope.spawn(move || boot(block)))
                .collect();
            let mut out = Vec::with_capacity(nodes.len());
            for handle in blocks {
                out.extend(handle.join().expect("boot worker panicked")?);
            }
            Ok(out)
        })
    }

    pub fn node(&self) -> NodeId {
        self.net.node()
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
        self.net.clock()
    }

    /// The node's arbitration layer.
    pub fn net(&self) -> &Arc<NetAccess> {
        &self.net
    }

    /// The node's module registry.
    pub fn modules(&self) -> &ModuleManager {
        &self.lazy().modules
    }

    fn lazy(&self) -> &Lazy {
        self.lazy.get_or_init(Box::default)
    }

    /// The world's runtime knobs.
    pub fn config(&self) -> &TmConfig {
        &self.config
    }

    /// The world's breaker policy and this node's route table (one
    /// entry per (fabric, peer) route that has seen traffic), locked;
    /// `None` in a world without a breaker, which never fills a table.
    pub(crate) fn breaker(
        &self,
    ) -> Option<(BreakerPolicy, parking_lot::MutexGuard<'_, BreakerTable>)> {
        let policy = self.config.breaker?;
        Some((policy, self.lazy().breaker_routes.lock()))
    }

    /// Whether this node has created its lazy parts (module registry and
    /// breaker route table).
    #[cfg(test)]
    pub(crate) fn has_lazy_parts(&self) -> bool {
        self.lazy.get().is_some()
    }

    /// Whether this node keeps a breaker route.
    #[cfg(test)]
    pub(crate) fn has_breaker_routes(&self) -> bool {
        self.lazy
            .get()
            .is_some_and(|lazy| !lazy.breaker_routes.lock().is_empty())
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
        write!(f, "PadicoTM({})", self.node())
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
