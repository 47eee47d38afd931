//! Node daemons and the deployment engine.
//!
//! Every grid node runs a **node daemon** (the paper's "component
//! server"): a CORBA object through which a deployer uploads software
//! packages (binary deployment), queries node properties (machine
//! discovery), and instantiates components. The [`Deployer`] consumes an
//! [`crate::assembly::Assembly`] plus the packages it references and
//! drives the whole CCM deployment dance remotely:
//!
//! 1. discover daemons through the naming service,
//! 2. match each instance's placement constraint *and* its package's
//!    localization constraint against the discovered machines,
//! 3. upload packages and create component instances,
//! 4. set attributes and wire facet/receptacle and event connections,
//! 5. broadcast `configuration_complete`, then `ccm_activate`.
//!
//! Parallel (GridCCM) instances are *placed* here — one replica per node
//! — but their inter-component wiring is done by the GridCCM layer in
//! `padico-core`, which knows about data redistribution.

use bytes::Bytes;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::{Ior, OrbError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::assembly::{Assembly, Placement};
use crate::container::{Container, RemoteComponent};
use crate::error::CcmError;
use crate::naming::NamingClient;
use crate::package::{FactoryRegistry, Package};

/// Static properties a daemon advertises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeProps {
    /// Node name (unique), e.g. `"a0"`.
    pub name: String,
    /// Machine/cluster name, e.g. `"cluster-a"`.
    pub machine: String,
    /// Whether the node sits in a trusted zone.
    pub trusted: bool,
}

/// The node daemon servant.
pub struct NodeDaemon {
    container: Arc<Container>,
    props: NodeProps,
    factories: Arc<FactoryRegistry>,
    packages: Mutex<HashMap<String, Package>>,
}

impl NodeDaemon {
    pub fn new(
        container: Arc<Container>,
        props: NodeProps,
        factories: Arc<FactoryRegistry>,
    ) -> Arc<NodeDaemon> {
        Arc::new(NodeDaemon {
            container,
            props,
            factories,
            packages: Mutex::new(HashMap::new()),
        })
    }

    fn install_package(&self, archive: &[u8]) -> Result<(), CcmError> {
        let package = Package::from_archive(archive)?;
        if !package.allows_machine(&self.props.machine) {
            return Err(CcmError::Deployment(format!(
                "package `{}` is not allowed on machine `{}` (localization constraint)",
                package.name, self.props.machine
            )));
        }
        self.packages.lock().insert(package.name.clone(), package);
        Ok(())
    }

    fn create_component(&self, package_name: &str, instance_name: &str) -> Result<Ior, CcmError> {
        let factory_symbol = {
            let packages = self.packages.lock();
            packages
                .get(package_name)
                .ok_or_else(|| {
                    CcmError::NotFound(format!(
                        "package `{package_name}` not installed on {}",
                        self.props.name
                    ))
                })?
                .factory_symbol
                .clone()
        };
        let component = self.factories.instantiate(&factory_symbol)?;
        let handle = self.container.install(instance_name, component)?;
        Ok(handle.meta_ior().clone())
    }
}

impl Servant for NodeDaemon {
    fn repository_id(&self) -> &str {
        "IDL:PadicoCCM/NodeDaemon:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "node_info" => {
                reply.write_string(&self.props.name);
                reply.write_string(&self.props.machine);
                reply.write_bool(self.props.trusted);
                Ok(())
            }
            "install_package" => {
                let archive = args.read_octet_seq()?;
                self.install_package(&archive).map_err(|e| e.to_wire())
            }
            "has_package" => {
                let name = args.read_string()?;
                reply.write_bool(self.packages.lock().contains_key(&name));
                Ok(())
            }
            "create_component" => {
                let package_name = args.read_string()?;
                let instance_name = args.read_string()?;
                let ior = self
                    .create_component(&package_name, &instance_name)
                    .map_err(|e| e.to_wire())?;
                reply.write_string(&ior.stringify());
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Start a node daemon on a container and advertise it in the naming
/// service as `daemon/<node name>`.
pub fn start_daemon(
    container: &Arc<Container>,
    props: NodeProps,
    factories: Arc<FactoryRegistry>,
    naming: &NamingClient,
) -> Result<Ior, CcmError> {
    let name = props.name.clone();
    let daemon = NodeDaemon::new(Arc::clone(container), props, factories);
    let ior = container.orb().activate(daemon);
    naming.rebind(&format!("daemon/{name}"), &ior)?;
    Ok(ior)
}

/// Client handle to a remote node daemon.
#[derive(Clone, Debug)]
pub struct RemoteDaemon {
    obj: ObjectRef,
}

impl RemoteDaemon {
    pub fn new(obj: ObjectRef) -> RemoteDaemon {
        RemoteDaemon { obj }
    }

    pub fn node_info(&self) -> Result<NodeProps, CcmError> {
        let mut reply = self
            .obj
            .request("node_info")
            .invoke()
            .map_err(CcmError::from)?;
        Ok(NodeProps {
            name: reply.read_string().map_err(CcmError::from)?,
            machine: reply.read_string().map_err(CcmError::from)?,
            trusted: reply.read_bool().map_err(CcmError::from)?,
        })
    }

    pub fn install_package(&self, package: &Package) -> Result<(), CcmError> {
        self.obj
            .request("install_package")
            .arg_octet_seq(Bytes::from(package.to_archive()))
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn has_package(&self, name: &str) -> Result<bool, CcmError> {
        let mut reply = self
            .obj
            .request("has_package")
            .arg_string(name)
            .invoke()
            .map_err(CcmError::from)?;
        reply.read_bool().map_err(CcmError::from)
    }

    /// Create a component and return a client handle to it.
    pub fn create_component(
        &self,
        orb: &Arc<Orb>,
        package: &str,
        instance: &str,
    ) -> Result<RemoteComponent, CcmError> {
        let mut reply = self
            .obj
            .request("create_component")
            .arg_string(package)
            .arg_string(instance)
            .invoke()
            .map_err(CcmError::from)?;
        let ior = Ior::destringify(&reply.read_string().map_err(CcmError::from)?)?;
        Ok(RemoteComponent::new(orb.object_ref(ior)))
    }
}

/// A discovered daemon with its advertised properties.
#[derive(Clone, Debug)]
pub struct DaemonInfo {
    pub props: NodeProps,
    pub daemon: RemoteDaemon,
}

/// One deployed component instance (possibly one replica of several).
#[derive(Clone, Debug)]
pub struct DeployedInstance {
    /// Node name the replica landed on.
    pub node: String,
    pub component: RemoteComponent,
}

/// A deployed assembly.
#[derive(Debug, Default)]
pub struct DeployedApp {
    pub name: String,
    /// Instance id → replicas (length 1 for sequential components).
    pub components: HashMap<String, Vec<DeployedInstance>>,
}

impl DeployedApp {
    /// The single replica of a sequential component.
    pub fn component(&self, id: &str) -> Option<&RemoteComponent> {
        self.components
            .get(id)
            .and_then(|v| v.first())
            .map(|i| &i.component)
    }

    /// All replicas of a component.
    pub fn replicas(&self, id: &str) -> &[DeployedInstance] {
        self.components.get(id).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The deployment engine.
pub struct Deployer {
    orb: Arc<Orb>,
    naming: NamingClient,
}

impl Deployer {
    pub fn new(orb: Arc<Orb>, naming: NamingClient) -> Deployer {
        Deployer { orb, naming }
    }

    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }

    /// Machine discovery: resolve every advertised daemon and fetch its
    /// properties.
    pub fn discover(&self) -> Result<Vec<DaemonInfo>, CcmError> {
        let mut out = Vec::new();
        for name in self.naming.list("daemon/")? {
            let ior = self.naming.resolve(&name)?;
            let daemon = RemoteDaemon::new(self.orb.object_ref(ior));
            let props = daemon.node_info()?;
            out.push(DaemonInfo { props, daemon });
        }
        Ok(out)
    }

    /// Nodes satisfying both the instance placement and the package
    /// localization constraint.
    fn candidates<'a>(
        daemons: &'a [DaemonInfo],
        placement: &Placement,
        package: &Package,
    ) -> Vec<&'a DaemonInfo> {
        daemons
            .iter()
            .filter(|d| match placement {
                Placement::Any => true,
                Placement::Node(n) => &d.props.name == n,
                Placement::Machine(m) => &d.props.machine == m,
            })
            .filter(|d| package.allows_machine(&d.props.machine))
            .collect()
    }

    /// Deploy an assembly. `packages` must contain every package the
    /// assembly references.
    pub fn deploy(
        &self,
        assembly: &Assembly,
        packages: &[Package],
    ) -> Result<DeployedApp, CcmError> {
        assembly.validate()?;
        let daemons = self.discover()?;
        if daemons.is_empty() {
            return Err(CcmError::Deployment("no node daemons discovered".into()));
        }
        let package_of = |name: &str| -> Result<&Package, CcmError> {
            packages
                .iter()
                .find(|p| p.name == name)
                .ok_or_else(|| CcmError::NotFound(format!("package `{name}`")))
        };

        let mut app = DeployedApp {
            name: assembly.name.clone(),
            ..Default::default()
        };
        // Spread load: prefer nodes with fewer instances placed so far.
        let mut load: HashMap<String, usize> = HashMap::new();

        // Place and create.
        for instance in &assembly.components {
            let package = package_of(&instance.package)?;
            let mut candidates = Self::candidates(&daemons, &instance.placement, package);
            candidates.sort_by_key(|d| {
                (
                    load.get(&d.props.name).copied().unwrap_or(0),
                    d.props.name.clone(),
                )
            });
            if candidates.len() < instance.replicas {
                return Err(CcmError::Deployment(format!(
                    "component `{}` needs {} node(s) but only {} satisfy placement {:?} \
                     and the package's localization constraint",
                    instance.id,
                    instance.replicas,
                    candidates.len(),
                    instance.placement
                )));
            }
            let mut replicas = Vec::with_capacity(instance.replicas);
            for (k, daemon_info) in candidates.iter().take(instance.replicas).enumerate() {
                if !daemon_info.daemon.has_package(&package.name)? {
                    daemon_info.daemon.install_package(package)?;
                }
                let instance_name = if instance.replicas == 1 {
                    instance.id.clone()
                } else {
                    format!("{}#{k}", instance.id)
                };
                let component = daemon_info.daemon.create_component(
                    &self.orb,
                    &package.name,
                    &instance_name,
                )?;
                for (attr, value) in &instance.attributes {
                    component.set_attribute(attr, value)?;
                }
                *load.entry(daemon_info.props.name.clone()).or_insert(0) += 1;
                replicas.push(DeployedInstance {
                    node: daemon_info.props.name.clone(),
                    component,
                });
            }
            app.components.insert(instance.id.clone(), replicas);
        }

        // Wire synchronous connections.
        for conn in &assembly.connections {
            let provider_inst = assembly.component(&conn.provider).expect("validated");
            let user_inst = assembly.component(&conn.user).expect("validated");
            if provider_inst.replicas > 1 || user_inst.replicas > 1 {
                return Err(CcmError::Deployment(format!(
                    "connection `{}` touches a parallel component; deploy through the \
                     GridCCM deployer (padico-core) instead",
                    conn.id
                )));
            }
            let provider = app.component(&conn.provider).expect("created above");
            let user = app.component(&conn.user).expect("created above");
            let facet = provider.provide_facet(&conn.facet)?;
            user.connect(&conn.receptacle, &facet)?;
        }

        // Wire event connections.
        for conn in &assembly.event_connections {
            let publisher = app.component(&conn.publisher).expect("created above");
            let consumer = app.component(&conn.consumer).expect("created above");
            let sink = consumer.get_consumer(&conn.sink)?;
            publisher.subscribe(&conn.source, &sink)?;
        }

        // Lifecycle.
        for replicas in app.components.values() {
            for instance in replicas {
                instance.component.configuration_complete()?;
            }
        }
        for replicas in app.components.values() {
            for instance in replicas {
                instance.component.ccm_activate()?;
            }
        }
        Ok(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::AttrValue;
    use crate::container::tests::FieldComponent;
    use crate::naming::start_naming;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::{SecurityZone, Topology};
    use padico_orb::profile::OrbProfile;
    use padico_tm::runtime::PadicoTM;
    use padico_tm::selector::FabricChoice;

    struct Fixture {
        deployer: Deployer,
        #[allow(dead_code)]
        containers: Vec<Arc<Container>>,
    }

    fn fixture_from(topo: Topology) -> Fixture {
        let topo = Arc::new(topo);
        let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
        let factories = FactoryRegistry::new();
        factories.register("make_field", || FieldComponent::new(11) as _);
        let mut containers = Vec::new();
        let mut naming_client_for_deployer = None;
        let mut naming_ior = None;
        for (i, tm) in tms.iter().enumerate() {
            let orb = Orb::start(
                Arc::clone(tm),
                "ccm",
                OrbProfile::omniorb3(),
                FabricChoice::Auto,
            )
            .unwrap();
            let container = Container::new(Arc::clone(&orb));
            if i == 0 {
                naming_ior = Some(start_naming(&orb));
            }
            let naming = NamingClient::new(
                orb.object_ref(naming_ior.clone().expect("naming started on node 0")),
            );
            let info = topo.node(tm.node()).unwrap();
            start_daemon(
                &container,
                NodeProps {
                    name: info.name().to_string(),
                    machine: info.machine().to_string(),
                    trusted: info.zone == SecurityZone::Trusted,
                },
                Arc::clone(&factories),
                &naming,
            )
            .unwrap();
            if i == 0 {
                naming_client_for_deployer = Some(naming);
            }
            containers.push(container);
        }
        let deployer = Deployer::new(
            Arc::clone(containers[0].orb()),
            naming_client_for_deployer.unwrap(),
        );
        Fixture {
            deployer,
            containers,
        }
    }

    fn fixture(nodes: usize) -> Fixture {
        let (topo, _ids) = single_cluster(nodes);
        fixture_from(topo)
    }

    #[test]
    fn discovery_finds_all_daemons() {
        let f = fixture(3);
        let daemons = f.deployer.discover().unwrap();
        assert_eq!(daemons.len(), 3);
        let names: Vec<&str> = daemons.iter().map(|d| d.props.name.as_str()).collect();
        assert_eq!(names, vec!["n0", "n1", "n2"]);
        assert!(daemons.iter().all(|d| d.props.trusted));
    }

    #[test]
    fn full_assembly_deployment() {
        let f = fixture(2);
        let assembly = Assembly::parse(
            r#"<assembly name="pair">
                 <component id="provider" package="field">
                   <placement node="n0"/>
                   <attribute name="scale" type="double" value="2.5"/>
                 </component>
                 <component id="user" package="field">
                   <placement node="n1"/>
                 </component>
                 <connection id="c">
                   <provides component="provider" facet="field"/>
                   <uses component="user" receptacle="input"/>
                 </connection>
                 <event-connection id="e">
                   <publisher component="user" source="tick"/>
                   <consumer component="provider" sink="steer"/>
                 </event-connection>
               </assembly>"#,
        )
        .unwrap();
        let package = Package::new("field", "1.0", "make_field");
        let app = f.deployer.deploy(&assembly, &[package]).unwrap();
        assert_eq!(app.components.len(), 2);
        let provider = app.component("provider").unwrap();
        assert_eq!(
            provider.get_attribute("scale").unwrap(),
            AttrValue::Double(2.5)
        );
        // The user component's receptacle reaches the provider's facet.
        let user = app.component("user").unwrap();
        let desc = user.get_descriptor().unwrap();
        assert_eq!(desc.name, "Field");
        // Verify placement followed the explicit node names.
        assert_eq!(app.replicas("provider")[0].node, "n0");
        assert_eq!(app.replicas("user")[0].node, "n1");
    }

    #[test]
    fn localization_constraint_blocks_wrong_machines() {
        // Two machines; the package is pinned to cluster-b, the placement
        // asks for cluster-a: deployment must fail with a clear error.
        let mut b = Topology::builder();
        let n0 = b.node("a0", "cluster-a", SecurityZone::Trusted);
        let n1 = b.node("b0", "cluster-b", SecurityZone::Trusted);
        b.fabric(padico_fabric::presets::ethernet100(), vec![n0, n1]);
        let f = fixture_from(b.build());

        let assembly = Assembly::parse(
            r#"<assembly name="secret">
                 <component id="chem" package="chemistry">
                   <placement machine="cluster-a"/>
                 </component>
               </assembly>"#,
        )
        .unwrap();
        let package =
            Package::new("chemistry", "1.0", "make_field").restrict_to_machines(&["cluster-b"]);
        let err = f
            .deployer
            .deploy(&assembly, std::slice::from_ref(&package))
            .unwrap_err();
        assert!(
            matches!(&err, CcmError::Deployment(msg) if msg.contains("localization")),
            "{err:?}"
        );

        // Dropping the placement lets the engine honour the constraint.
        let assembly2 = Assembly::parse(
            r#"<assembly name="secret">
                 <component id="chem" package="chemistry"/>
               </assembly>"#,
        )
        .unwrap();
        let app = f.deployer.deploy(&assembly2, &[package]).unwrap();
        assert_eq!(app.replicas("chem")[0].node, "b0");
    }

    #[test]
    fn replica_placement_spreads_over_nodes() {
        let f = fixture(4);
        let assembly = Assembly::parse(
            r#"<assembly name="par">
                 <component id="sim" package="field">
                   <parallel replicas="3"/>
                 </component>
               </assembly>"#,
        )
        .unwrap();
        let package = Package::new("field", "1.0", "make_field");
        let app = f.deployer.deploy(&assembly, &[package]).unwrap();
        let nodes: Vec<&str> = app
            .replicas("sim")
            .iter()
            .map(|r| r.node.as_str())
            .collect();
        assert_eq!(nodes, vec!["n0", "n1", "n2"]);
    }

    #[test]
    fn too_few_nodes_for_replicas_fails() {
        let f = fixture(2);
        let assembly = Assembly::parse(
            r#"<assembly name="par">
                 <component id="sim" package="field">
                   <parallel replicas="3"/>
                 </component>
               </assembly>"#,
        )
        .unwrap();
        let package = Package::new("field", "1.0", "make_field");
        let err = f.deployer.deploy(&assembly, &[package]).unwrap_err();
        assert!(matches!(err, CcmError::Deployment(_)));
    }

    #[test]
    fn wiring_parallel_components_is_deferred_to_gridccm() {
        let f = fixture(3);
        let assembly = Assembly::parse(
            r#"<assembly name="par">
                 <component id="sim" package="field">
                   <parallel replicas="2"/>
                 </component>
                 <component id="vis" package="field"/>
                 <connection id="c">
                   <provides component="sim" facet="field"/>
                   <uses component="vis" receptacle="input"/>
                 </connection>
               </assembly>"#,
        )
        .unwrap();
        let package = Package::new("field", "1.0", "make_field");
        let err = f.deployer.deploy(&assembly, &[package]).unwrap_err();
        assert!(
            matches!(&err, CcmError::Deployment(msg) if msg.contains("GridCCM")),
            "{err:?}"
        );
    }

    #[test]
    fn missing_package_is_reported() {
        let f = fixture(1);
        let assembly =
            Assembly::parse(r#"<assembly name="x"><component id="a" package="ghost"/></assembly>"#)
                .unwrap();
        assert!(matches!(
            f.deployer.deploy(&assembly, &[]),
            Err(CcmError::NotFound(_))
        ));
    }
}
