//! The Padico façade: boot a whole simulated grid in one call.
//!
//! A [`Grid`] owns everything a Padico deployment needs on every node:
//! the PadicoTM runtime, an ORB, a CCM container, a node daemon, a
//! per-node factory registry — plus the grid-wide naming service (on node
//! 0) used for machine discovery. Examples and benchmarks build on this
//! instead of repeating fifty lines of bring-up.

use padico_ccm::container::Container;
use padico_ccm::deploy::{start_daemon, Deployer, NodeProps};
use padico_ccm::naming::{start_naming, NamingClient};
use padico_ccm::package::FactoryRegistry;
use padico_ccm::CcmComponent;
use padico_fabric::{SecurityZone, Topology};
use padico_orb::orb::Orb;
use padico_orb::profile::OrbProfile;
use padico_orb::Ior;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_util::ids::NodeId;
use std::sync::Arc;

use crate::error::GridCcmError;
use crate::parallel::component::NodeEnv;

/// Everything running on one grid node.
pub struct GridNode {
    pub env: NodeEnv,
    pub container: Arc<Container>,
    pub factories: Arc<FactoryRegistry>,
    /// Node name in the topology (and in daemon advertisements).
    pub name: String,
}

/// A booted grid.
pub struct Grid {
    topology: Arc<Topology>,
    nodes: Vec<GridNode>,
    naming_ior: Ior,
}

impl Grid {
    /// Boot PadicoTM + ORB + container + daemon on every node of
    /// `topology`, with the naming service on node 0.
    pub fn boot(
        topology: Topology,
        profile: OrbProfile,
        choice: FabricChoice,
    ) -> Result<Grid, GridCcmError> {
        Grid::boot_with_config(topology, profile, choice, padico_tm::TmConfig::default())
    }

    /// Like [`Grid::boot`] with an explicit PadicoTM configuration —
    /// chaos tests shorten the deadlines and widen the retry budget.
    pub fn boot_with_config(
        topology: Topology,
        profile: OrbProfile,
        choice: FabricChoice,
        config: padico_tm::TmConfig,
    ) -> Result<Grid, GridCcmError> {
        let topology = Arc::new(topology);
        let tms = PadicoTM::boot_all_with_config(Arc::clone(&topology), config)?;
        let mut nodes = Vec::with_capacity(tms.len());
        let mut naming_ior: Option<Ior> = None;
        for tm in &tms {
            let orb = Orb::start(Arc::clone(tm), "padico", profile.clone(), choice)?;
            let container = Container::new(Arc::clone(&orb));
            if naming_ior.is_none() {
                naming_ior = Some(start_naming(&orb));
            }
            let naming =
                NamingClient::new(orb.object_ref(naming_ior.clone().expect("set on first node")));
            let info = topology.node(tm.node()).expect("node exists");
            let factories = FactoryRegistry::new();
            start_daemon(
                &container,
                NodeProps {
                    name: info.name().to_string(),
                    machine: info.machine().to_string(),
                    trusted: info.zone == SecurityZone::Trusted,
                },
                Arc::clone(&factories),
                &naming,
            )?;
            nodes.push(GridNode {
                env: NodeEnv {
                    tm: Arc::clone(tm),
                    orb,
                },
                container,
                factories,
                name: info.name().to_string(),
            });
        }
        Ok(Grid {
            topology,
            nodes,
            naming_ior: naming_ior.expect("at least one node"),
        })
    }

    /// One trusted cluster of `n` nodes (Myrinet + Ethernet + shmem),
    /// omniORB-profile ORBs, automatic fabric selection.
    pub fn single_cluster(n: usize) -> Result<Grid, GridCcmError> {
        let (topology, _ids) = padico_fabric::topology::single_cluster(n);
        Grid::boot(topology, OrbProfile::omniorb3(), FabricChoice::Auto)
    }

    /// Two trusted clusters of `per_cluster` nodes coupled by a WAN (the
    /// paper's first deployment configuration).
    pub fn two_clusters(per_cluster: usize) -> Result<Grid, GridCcmError> {
        let (topology, _a, _b) = padico_fabric::topology::two_clusters_wan(per_cluster);
        Grid::boot(topology, OrbProfile::omniorb3(), FabricChoice::Auto)
    }

    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &GridNode {
        &self.nodes[i]
    }

    pub fn nodes(&self) -> &[GridNode] {
        &self.nodes
    }

    /// The node hosting a given topology node id.
    pub fn node_by_id(&self, id: NodeId) -> &GridNode {
        &self.nodes[id.0 as usize]
    }

    /// The node by topology name.
    pub fn node_by_name(&self, name: &str) -> Option<&GridNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// A naming client bound through node `i`'s ORB.
    pub fn naming(&self, i: usize) -> NamingClient {
        NamingClient::new(self.nodes[i].env.orb.object_ref(self.naming_ior.clone()))
    }

    /// A plain CCM deployer driving from node 0.
    pub fn deployer(&self) -> Deployer {
        Deployer::new(Arc::clone(&self.nodes[0].env.orb), self.naming(0))
    }

    /// Register a component factory under `symbol` on every node; the
    /// factory receives the node's [`NodeEnv`] (clock, TM, ORB), which is
    /// how GridCCM components get their MPI substrate.
    pub fn register_factory(
        &self,
        symbol: &str,
        factory: impl Fn(&NodeEnv) -> Arc<dyn CcmComponent> + Send + Sync + 'static,
    ) {
        let factory = Arc::new(factory);
        for node in &self.nodes {
            let env = node.env.clone();
            let factory = Arc::clone(&factory);
            node.factories.register(symbol, move || factory(&env));
        }
    }
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Grid({} nodes)", self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_single_cluster_and_discover() {
        let grid = Grid::single_cluster(3).unwrap();
        assert_eq!(grid.len(), 3);
        assert!(!grid.is_empty());
        let daemons = grid.deployer().discover().unwrap();
        assert_eq!(daemons.len(), 3);
        assert_eq!(grid.node(1).name, "n1");
        assert!(grid.node_by_name("n2").is_some());
        assert!(grid.node_by_name("zz").is_none());
    }

    #[test]
    fn two_clusters_boot() {
        let grid = Grid::two_clusters(2).unwrap();
        assert_eq!(grid.len(), 4);
        // Naming reachable through any node (cross-cluster via WAN).
        let names = grid.naming(3).list("daemon/").unwrap();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn per_node_factories_capture_their_environment() {
        use padico_ccm::component::{ComponentDescriptor, PortRegistry};
        use padico_orb::poa::Servant;

        struct Probe {
            registry: Arc<PortRegistry>,
            node: NodeId,
        }
        impl CcmComponent for Probe {
            fn descriptor(&self) -> ComponentDescriptor {
                ComponentDescriptor {
                    name: format!("Probe{}", self.node.0),
                    repo_id: "IDL:Test/Probe:1.0".into(),
                    ports: vec![],
                }
            }
            fn registry(&self) -> &Arc<PortRegistry> {
                &self.registry
            }
            fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, padico_ccm::CcmError> {
                Err(padico_ccm::CcmError::NoSuchPort(name.into()))
            }
        }

        let grid = Grid::single_cluster(2).unwrap();
        grid.register_factory("probe", |env| {
            Arc::new(Probe {
                registry: Arc::new(PortRegistry::new()),
                node: env.tm.node(),
            })
        });
        let c0 = grid.node(0).factories.instantiate("probe").unwrap();
        let c1 = grid.node(1).factories.instantiate("probe").unwrap();
        assert_eq!(c0.descriptor().name, "Probe0");
        assert_eq!(c1.descriptor().name, "Probe1");
    }
}
