//! Grid topology: nodes, machines, security zones, and the fabrics that
//! connect them.
//!
//! A [`Topology`] is the static description of the computing infrastructure
//! an experiment or deployment runs on: which simulated machines exist,
//! which network fabrics connect which nodes, and which security zone each
//! node lives in (the paper's §2 "communication security" scenario: data
//! must be secured on insecure networks, but encryption can be disabled
//! inside a trusted parallel machine).

use crate::fabric::SimFabric;
use crate::presets::FabricPreset;
use crate::sched::WorldSched;
use padico_util::ids::{FabricId, NodeId};
use padico_util::Telemetry;
use std::sync::{Arc, OnceLock};

/// Trust level of a node's location (paper §2 / §6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SecurityZone {
    /// Inside a trusted machine room — encryption can be disabled.
    Trusted,
    /// On an open network — traffic must be secured.
    Untrusted,
}

/// Static description of one grid node.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    pub id: NodeId,
    /// Human name, e.g. `"paraski3"`.
    pub name: String,
    /// Machine/cluster the node belongs to, e.g. `"cluster-a"`. Nodes of
    /// one machine may be connected by shared memory and are assumed
    /// mutually trusted. One string shared by all nodes of the machine.
    pub machine: Arc<str>,
    pub zone: SecurityZone,
}

/// The static grid: nodes plus fabric instances.
#[derive(Debug)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    fabrics: Vec<Arc<SimFabric>>,
    /// The world's one telemetry handle: every layer of every node
    /// booted on this topology reports here, and nowhere else.
    telemetry: Arc<Telemetry>,
    /// The world's discrete-event scheduler, started lazily when the
    /// first node boots (a topology used only by raw fabric clients
    /// never pays for the worker pool).
    sched: OnceLock<Arc<WorldSched>>,
}

/// Heap shards in the world scheduler. Fixed so node→shard placement is
/// a pure function of the node id.
const SCHED_SHARDS: usize = 64;

impl Drop for Topology {
    fn drop(&mut self) {
        // Workers hold an Arc to the scheduler, so they must be stopped
        // explicitly; the topology outlives every node of its world.
        if let Some(sched) = self.sched.get() {
            sched.stop();
        }
    }
}

impl Topology {
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Linear in the node count: names serve deployment lookups, and a
    /// name index would cost every node of a 100k-node world a copy of
    /// its name.
    pub fn node_by_name(&self, name: &str) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.name == name)
    }

    pub fn fabrics(&self) -> &[Arc<SimFabric>] {
        &self.fabrics
    }

    pub fn fabric(&self, id: FabricId) -> Option<&Arc<SimFabric>> {
        self.fabrics.iter().find(|f| f.id() == id)
    }

    /// All fabrics a given node is wired to.
    pub fn fabrics_of(&self, node: NodeId) -> impl Iterator<Item = &Arc<SimFabric>> {
        self.fabrics.iter().filter(move |f| f.has_member(node))
    }

    /// All fabrics connecting both `a` and `b`.
    pub fn fabrics_between(&self, a: NodeId, b: NodeId) -> Vec<Arc<SimFabric>> {
        self.fabrics
            .iter()
            .filter(|f| f.has_member(a) && f.has_member(b))
            .cloned()
            .collect()
    }

    /// Whether the pair can communicate without crossing an untrusted
    /// domain: both nodes trusted **and** on the same machine.
    pub fn link_is_trusted(&self, a: NodeId, b: NodeId) -> bool {
        match (self.node(a), self.node(b)) {
            (Some(na), Some(nb)) => {
                na.zone == SecurityZone::Trusted
                    && nb.zone == SecurityZone::Trusted
                    && na.machine == nb.machine
            }
            _ => false,
        }
    }

    /// The world's telemetry: metrics, vt windows, spans and recovery
    /// totals of everything running on this topology.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The world scheduler serving this topology's nodes.
    /// Started on first call: 64 shards, and a worker pool of one worker
    /// per available core (clamped to 1..=4 — the workload is event
    /// dispatch, not computation). One worker starts with it; each
    /// further one only once the running workers fall behind (see
    /// [`WorldSched`]), so a world that never builds a backlog keeps one
    /// thread. Handlers must not block: under `taskset -c 0`, or until a
    /// backlog starts a second worker, the pool is one worker, and a
    /// handler waiting for another delivery would wait for itself.
    pub fn sched(&self) -> &Arc<WorldSched> {
        self.sched.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .clamp(1, 4);
            WorldSched::start(SCHED_SHARDS, workers, Arc::clone(&self.telemetry))
        })
    }

    /// The world scheduler, only if some node already started it.
    /// Introspection paths (the control service's `snapshot()`) use this
    /// so that *observing* a raw-fabric topology does not boot a worker
    /// pool it never asked for.
    pub fn sched_started(&self) -> Option<&Arc<WorldSched>> {
        self.sched.get()
    }

    /// Nodes of a given machine, in id order.
    pub fn machine_nodes(&self, machine: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| &*n.machine == machine)
            .map(|n| n.id)
            .collect()
    }
}

/// Builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeInfo>,
    fabric_plans: Vec<(FabricPreset, Vec<NodeId>)>,
}

impl TopologyBuilder {
    /// Add a node; returns its id.
    pub fn node(&mut self, name: &str, machine: &str, zone: SecurityZone) -> NodeId {
        self.push(name.to_string(), machine, zone)
    }

    /// Add a node named `name`; nodes of one machine share its name
    /// string.
    fn push(&mut self, name: String, machine: &str, zone: SecurityZone) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let machine = match self.nodes.iter().rev().find(|n| &*n.machine == machine) {
            Some(n) => Arc::clone(&n.machine),
            None => Arc::from(machine),
        };
        self.nodes.push(NodeInfo {
            id,
            name,
            machine,
            zone,
        });
        id
    }

    /// Add `count` nodes named `prefix0..prefixN` on one machine.
    pub fn machine(
        &mut self,
        prefix: &str,
        machine: &str,
        count: usize,
        zone: SecurityZone,
    ) -> Vec<NodeId> {
        self.nodes.reserve(count);
        (0..count)
            .map(|i| self.push(format!("{prefix}{i}"), machine, zone))
            .collect()
    }

    /// Plan a fabric connecting `members`.
    pub fn fabric(&mut self, preset: FabricPreset, members: Vec<NodeId>) -> &mut Self {
        self.fabric_plans.push((preset, members));
        self
    }

    pub fn build(self) -> Topology {
        let telemetry = Telemetry::for_nodes(self.nodes.len());
        let fabrics = self
            .fabric_plans
            .into_iter()
            .enumerate()
            .map(|(i, (preset, members))| {
                preset.build(FabricId(i as u32), members, Arc::clone(&telemetry))
            })
            .collect();
        Topology {
            nodes: self.nodes,
            fabrics,
            telemetry,
            sched: OnceLock::new(),
        }
    }
}

/// The paper's first deployment configuration: two parallel machines (each
/// with an internal Myrinet SAN and a LAN) coupled by a wide-area network.
/// Returns the topology plus the node ids of each cluster.
pub fn two_clusters_wan(per_cluster: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    use crate::presets;
    let mut b = Topology::builder();
    let a = b.machine("a", "cluster-a", per_cluster, SecurityZone::Trusted);
    let c = b.machine("b", "cluster-b", per_cluster, SecurityZone::Trusted);
    b.fabric(presets::myrinet2000(), a.clone());
    b.fabric(presets::myrinet2000(), c.clone());
    b.fabric(presets::ethernet100(), a.clone());
    b.fabric(presets::ethernet100(), c.clone());
    let mut all = a.clone();
    all.extend(&c);
    b.fabric(presets::wan(), all);
    (b.build(), a, c)
}

/// The paper's second deployment configuration: one parallel machine large
/// enough to run both codes (single Myrinet SAN + LAN + shared memory).
pub fn single_cluster(nodes: usize) -> (Topology, Vec<NodeId>) {
    use crate::presets;
    let mut b = Topology::builder();
    let ids = b.machine("n", "cluster", nodes, SecurityZone::Trusted);
    b.fabric(presets::myrinet2000(), ids.clone());
    b.fabric(presets::ethernet100(), ids.clone());
    b.fabric(presets::shmem(), ids.clone());
    (b.build(), ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricKind;
    use crate::presets;

    #[test]
    fn builder_assigns_sequential_ids_and_names() {
        let mut b = Topology::builder();
        let n0 = b.node("alpha", "m1", SecurityZone::Trusted);
        let n1 = b.node("beta", "m1", SecurityZone::Untrusted);
        let t = b.build();
        assert_eq!(n0, NodeId(0));
        assert_eq!(n1, NodeId(1));
        assert_eq!(t.node_by_name("beta").unwrap().id, n1);
        assert!(t.node_by_name("gamma").is_none());
        assert_eq!(t.machine_nodes("m1"), vec![n0, n1]);
    }

    #[test]
    fn fabrics_between_filters_by_membership() {
        let (t, a, b) = two_clusters_wan(2);
        // Intra-cluster: Myrinet + Ethernet + WAN.
        let intra = t.fabrics_between(a[0], a[1]);
        assert_eq!(intra.len(), 3);
        assert!(intra.iter().any(|f| f.kind() == FabricKind::Myrinet));
        // Inter-cluster: only the WAN.
        let inter = t.fabrics_between(a[0], b[0]);
        assert_eq!(inter.len(), 1);
        assert_eq!(inter[0].kind(), FabricKind::Wan);
    }

    #[test]
    fn single_cluster_has_three_fabrics_everywhere() {
        let (t, ids) = single_cluster(4);
        assert_eq!(ids.len(), 4);
        for &n in &ids {
            assert_eq!(t.fabrics_of(n).count(), 3);
        }
        assert_eq!(t.fabrics_between(ids[0], ids[3]).len(), 3);
    }

    #[test]
    fn trust_requires_same_machine_and_trusted_zone() {
        let (t, a, b) = two_clusters_wan(2);
        assert!(t.link_is_trusted(a[0], a[1]), "same trusted cluster");
        assert!(
            !t.link_is_trusted(a[0], b[0]),
            "cross-cluster traffic crosses the WAN"
        );
        let mut builder = Topology::builder();
        let u = builder.node("u", "dmz", SecurityZone::Untrusted);
        let v = builder.node("v", "dmz", SecurityZone::Untrusted);
        builder.fabric(presets::ethernet100(), vec![u, v]);
        let t2 = builder.build();
        assert!(!t2.link_is_trusted(u, v), "untrusted zone is never trusted");
        assert!(!t2.link_is_trusted(u, NodeId(99)), "unknown node");
    }

    #[test]
    fn fabric_lookup_by_id() {
        let (t, _ids) = single_cluster(2);
        let f0 = t.fabrics()[0].id();
        assert!(t.fabric(f0).is_some());
        assert!(t.fabric(FabricId(99)).is_none());
    }
}
