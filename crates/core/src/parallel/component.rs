//! Packaging a parallel servant as a CCM component.
//!
//! [`GridCcmComponent`] is the glue between the CCM world (containers,
//! deployment, lifecycle) and the GridCCM runtime: its *parallel facets*
//! expose the derived interface through a [`ParallelAdapter`], and at
//! `configuration_complete` time it reads the replica identity the
//! GridCCM deployer stored in reserved attributes, builds the component's
//! internal MPI world, and arms the adapters.
//!
//! Reserved attributes (set by `grid_deploy`, names start with
//! `_gridccm_`):
//!
//! | attribute | meaning |
//! |---|---|
//! | `_gridccm_rank` | this replica's rank |
//! | `_gridccm_size` | number of replicas |
//! | `_gridccm_job` | grid-unique instance name (MPI job id) |
//! | `_gridccm_group` | comma-separated node ids of all replicas in rank order |
//! | `_gridccm_conn_<receptacle>` | parallel connection bundle (`;`-joined replica IORs) |

use padico_ccm::component::{
    AttrValue, CcmComponent, ComponentContext, ComponentDescriptor, PortDesc, PortKind,
    PortRegistry,
};
use padico_ccm::CcmError;
use padico_mpi::Communicator;
use padico_orb::orb::Orb;
use padico_orb::poa::Servant;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_util::ids::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::GridCcmError;
use crate::parallel::adapter::{ParCtx, ParallelAdapter, ParallelServant};
use crate::parallel::client::ParallelRef;
use crate::paridl::InterceptionPlan;

/// What a component factory gets from the node it is instantiated on.
#[derive(Clone)]
pub struct NodeEnv {
    pub tm: Arc<PadicoTM>,
    pub orb: Arc<Orb>,
}

/// One parallel facet: a name, the compiled plan, and the SPMD servant.
pub struct ParallelPort {
    pub name: String,
    pub plan: Arc<InterceptionPlan>,
    pub servant: Arc<dyn ParallelServant>,
}

struct Runtime {
    rank: usize,
    size: usize,
    job: String,
    comm: Option<Communicator>,
}

/// A CCM component wrapping parallel servants.
pub struct GridCcmComponent {
    type_name: String,
    repo_id: String,
    env: NodeEnv,
    registry: Arc<PortRegistry>,
    parallel_ports: Vec<ParallelPort>,
    extra_ports: Vec<PortDesc>,
    adapters: Mutex<HashMap<String, Arc<ParallelAdapter>>>,
    runtime: Mutex<Option<Arc<Runtime>>>,
    /// Cached parallel-connection handles per receptacle: the handle owns
    /// the invocation-id sequence, so it must live as long as the
    /// connection (rebuilding it per call would replay ids).
    connections: Mutex<HashMap<String, Arc<ParallelRef>>>,
}

impl GridCcmComponent {
    pub fn new(
        type_name: impl Into<String>,
        repo_id: impl Into<String>,
        env: NodeEnv,
        parallel_ports: Vec<ParallelPort>,
        extra_ports: Vec<PortDesc>,
    ) -> Arc<GridCcmComponent> {
        Arc::new(GridCcmComponent {
            type_name: type_name.into(),
            repo_id: repo_id.into(),
            env,
            registry: Arc::new(PortRegistry::new()),
            parallel_ports,
            extra_ports,
            adapters: Mutex::new(HashMap::new()),
            runtime: Mutex::new(None),
            connections: Mutex::new(HashMap::new()),
        })
    }

    /// The replica's SPMD context once configured (rank, size, MPI).
    pub fn context(&self) -> Option<ParCtx> {
        let rt = self.runtime.lock().clone()?;
        Some(ParCtx {
            rank: rt.rank,
            size: rt.size,
            comm: rt.comm.clone(),
            clock: self.env.tm.clock().share(),
        })
    }

    /// Resolve a *parallel connection* stored by the GridCCM deployer on
    /// the given receptacle: a [`ParallelRef`] towards the provider's
    /// replicas. `plan` must be the provider interface's compiled plan.
    pub fn parallel_connection(
        &self,
        receptacle: &str,
        plan: Arc<InterceptionPlan>,
    ) -> Result<Arc<ParallelRef>, GridCcmError> {
        if let Some(cached) = self.connections.lock().get(receptacle) {
            return Ok(Arc::clone(cached));
        }
        let attr = format!("_gridccm_conn_{receptacle}");
        let bundle = match self.registry.attribute(&attr) {
            Some(AttrValue::Str(s)) => s,
            _ => {
                return Err(GridCcmError::Protocol(format!(
                    "receptacle `{receptacle}` has no parallel connection"
                )))
            }
        };
        let rt = self
            .runtime
            .lock()
            .clone()
            .ok_or_else(|| GridCcmError::Protocol("component not configured yet".into()))?;
        let replicas = bundle
            .split(';')
            .map(|s| {
                padico_orb::Ior::destringify(s)
                    .map(|ior| self.env.orb.object_ref(ior))
                    .map_err(GridCcmError::from)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let handle = Arc::new(ParallelRef::new(
            format!("{}:{receptacle}", rt.job),
            plan,
            replicas,
            rt.rank,
            rt.size,
        )?);
        self.connections
            .lock()
            .insert(receptacle.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    fn attr_i64(&self, name: &str) -> Option<i64> {
        match self.registry.attribute(name) {
            Some(AttrValue::Long(v)) => Some(i64::from(v)),
            _ => None,
        }
    }

    fn attr_str(&self, name: &str) -> Option<String> {
        match self.registry.attribute(name) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

impl CcmComponent for GridCcmComponent {
    fn descriptor(&self) -> ComponentDescriptor {
        let mut ports: Vec<PortDesc> = self
            .parallel_ports
            .iter()
            .map(|p| PortDesc::new(p.name.clone(), PortKind::Facet, p.plan.repo_id.clone()))
            .collect();
        ports.extend(self.extra_ports.iter().cloned());
        // Reserved attributes for the GridCCM deployer.
        for reserved in ["_gridccm_rank", "_gridccm_size"] {
            ports.push(PortDesc::new(reserved, PortKind::Attribute, "long"));
        }
        for reserved in ["_gridccm_job", "_gridccm_group"] {
            ports.push(PortDesc::new(reserved, PortKind::Attribute, "string"));
        }
        // One connection-bundle attribute per user receptacle.
        for p in &self.extra_ports {
            if matches!(p.kind, PortKind::Receptacle | PortKind::MultiplexReceptacle) {
                ports.push(PortDesc::new(
                    format!("_gridccm_conn_{}", p.name),
                    PortKind::Attribute,
                    "string",
                ));
            }
        }
        ComponentDescriptor {
            name: self.type_name.clone(),
            repo_id: self.repo_id.clone(),
            ports,
        }
    }

    fn registry(&self) -> &Arc<PortRegistry> {
        &self.registry
    }

    fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError> {
        let port = self
            .parallel_ports
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CcmError::NoSuchPort(name.to_string()))?;
        let mut adapters = self.adapters.lock();
        let adapter = adapters.entry(name.to_string()).or_insert_with(|| {
            ParallelAdapter::new(Arc::clone(&port.servant), Arc::clone(&port.plan))
        });
        Ok(Arc::clone(adapter) as Arc<dyn Servant>)
    }

    fn configuration_complete(&self, _ctx: &ComponentContext) -> Result<(), CcmError> {
        let rank = self.attr_i64("_gridccm_rank").unwrap_or(0) as usize;
        let size = self.attr_i64("_gridccm_size").unwrap_or(1) as usize;
        let job = self
            .attr_str("_gridccm_job")
            .unwrap_or_else(|| format!("seq-{}", self.type_name));
        let comm = if size > 1 {
            let group_text = self.attr_str("_gridccm_group").ok_or_else(|| {
                CcmError::Lifecycle("parallel replica without _gridccm_group".into())
            })?;
            let group: Vec<NodeId> = group_text
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<u32>()
                        .map(NodeId)
                        .map_err(|_| CcmError::Lifecycle(format!("bad group entry `{t}`")))
                })
                .collect::<Result<_, _>>()?;
            if group.len() != size {
                return Err(CcmError::Lifecycle(format!(
                    "group lists {} nodes for {} replicas",
                    group.len(),
                    size
                )));
            }
            Some(
                padico_mpi::init_world(&self.env.tm, &job, group, FabricChoice::Auto)
                    .map_err(|e| CcmError::Lifecycle(format!("MPI world: {e}")))?,
            )
        } else {
            None
        };
        // Arm every parallel facet adapter (create any not yet exposed).
        for port in &self.parallel_ports {
            let mut adapters = self.adapters.lock();
            let adapter = adapters.entry(port.name.clone()).or_insert_with(|| {
                ParallelAdapter::new(Arc::clone(&port.servant), Arc::clone(&port.plan))
            });
            adapter.configure(rank, size, comm.clone());
        }
        *self.runtime.lock() = Some(Arc::new(Runtime {
            rank,
            size,
            job,
            comm,
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::adapter::ParArgs;
    use crate::parallel::wire::ParValue;
    use crate::paridl::{ArgDef, InterfaceDef, OpDef, ParamKind};

    struct NullServant;

    impl ParallelServant for NullServant {
        fn repository_id(&self) -> &str {
            "IDL:Test/Null:1.0"
        }

        fn invoke_parallel(
            &self,
            _op: &str,
            _args: &ParArgs,
            _ctx: &ParCtx,
        ) -> Result<Option<ParValue>, GridCcmError> {
            Ok(None)
        }
    }

    fn env() -> NodeEnv {
        let (topo, _ids) = padico_fabric::topology::single_cluster(1);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let orb = Orb::start(
            Arc::clone(&tms[0]),
            "test",
            padico_orb::profile::OrbProfile::omniorb3(),
            FabricChoice::Auto,
        )
        .unwrap();
        NodeEnv {
            tm: Arc::clone(&tms[0]),
            orb,
        }
    }

    fn plan() -> Arc<InterceptionPlan> {
        let interface = InterfaceDef {
            repo_id: "IDL:Test/Null:1.0".into(),
            ops: vec![OpDef::new(
                "go",
                vec![ArgDef::new("x", ParamKind::Long)],
                None,
            )],
        };
        Arc::new(InterceptionPlan::all_replicated(&interface))
    }

    fn component(env: NodeEnv) -> Arc<GridCcmComponent> {
        GridCcmComponent::new(
            "Null",
            "IDL:Test/NullComponent:1.0",
            env,
            vec![ParallelPort {
                name: "work".into(),
                plan: plan(),
                servant: Arc::new(NullServant),
            }],
            vec![PortDesc::new(
                "upstream",
                PortKind::Receptacle,
                "IDL:Test/Null:1.0",
            )],
        )
    }

    #[test]
    fn descriptor_declares_parallel_facets_and_reserved_attrs() {
        let c = component(env());
        let d = c.descriptor();
        assert_eq!(d.port("work").unwrap().kind, PortKind::Facet);
        assert_eq!(d.port("upstream").unwrap().kind, PortKind::Receptacle);
        for reserved in [
            "_gridccm_rank",
            "_gridccm_size",
            "_gridccm_job",
            "_gridccm_group",
            "_gridccm_conn_upstream",
        ] {
            assert!(
                d.port(reserved).is_some(),
                "missing reserved port {reserved}"
            );
        }
    }

    #[test]
    fn facet_servant_is_the_adapter_and_configuration_arms_it() {
        let c = component(env());
        let servant = c.facet_servant("work").unwrap();
        assert_eq!(servant.repository_id(), "IDL:Test/Null:1.0:par");
        assert!(c.context().is_none(), "not configured yet");
        // Sequential configuration (no reserved attributes set).
        let ctx = ComponentContext::new(Arc::clone(c.registry()));
        c.configuration_complete(&ctx).unwrap();
        let par_ctx = c.context().unwrap();
        assert_eq!((par_ctx.rank, par_ctx.size), (0, 1));
        assert!(par_ctx.comm.is_none());
    }

    #[test]
    fn unknown_facet_rejected() {
        let c = component(env());
        assert!(c.facet_servant("nope").is_err());
    }

    #[test]
    fn parallel_configuration_requires_group() {
        let c = component(env());
        c.registry()
            .set_attribute("_gridccm_rank", AttrValue::Long(0));
        c.registry()
            .set_attribute("_gridccm_size", AttrValue::Long(2));
        c.registry()
            .set_attribute("_gridccm_job", AttrValue::Str("j".into()));
        let ctx = ComponentContext::new(Arc::clone(c.registry()));
        let err = c.configuration_complete(&ctx).unwrap_err();
        assert!(matches!(err, CcmError::Lifecycle(_)));
    }

    #[test]
    fn parallel_connection_requires_configuration_and_bundle() {
        let c = component(env());
        let err = c.parallel_connection("upstream", plan()).unwrap_err();
        assert!(matches!(err, GridCcmError::Protocol(_)));
    }
}
