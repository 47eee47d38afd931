//! Deployment of assemblies containing parallel components.
//!
//! The plain CCM deployer (padico-ccm) refuses to wire connections that
//! touch a parallel component. [`GridDeployer`] handles them:
//!
//! * replicas get the reserved `_gridccm_*` attributes (rank, size, job,
//!   group) so each [`crate::parallel::GridCcmComponent`] can build its
//!   internal MPI world at `configuration_complete`;
//! * **parallel → parallel** connections store the provider's replica
//!   facet IORs as a bundle attribute on every user replica (the user's
//!   interception layer turns it into a [`crate::parallel::ParallelRef`]);
//! * **parallel → sequential** connections get a proxy (paper §4.2.1)
//!   installed next to replica 0, whose IOR is connected to the plain
//!   receptacle;
//! * **sequential → parallel** connections simply connect the provider's
//!   facet to every user replica.

use padico_ccm::assembly::{Assembly, Placement};
use padico_ccm::component::AttrValue;
use padico_ccm::deploy::{DaemonInfo, DeployedApp, DeployedInstance};
use padico_ccm::package::Package;
use padico_ccm::CcmError;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::GridCcmError;
use crate::padico::Grid;
use crate::paridl::{InterceptionPlan, InterfaceDef};
use crate::parallel::proxy::install_proxy;

/// Interface metadata the deployer needs to wire parallel connections,
/// registered per interface repository id.
struct RegisteredInterface {
    interface: InterfaceDef,
    plan: Arc<InterceptionPlan>,
}

/// Deployment engine aware of GridCCM parallel components.
pub struct GridDeployer<'g> {
    grid: &'g Grid,
    interfaces: HashMap<String, RegisteredInterface>,
}

impl<'g> GridDeployer<'g> {
    pub fn new(grid: &'g Grid) -> GridDeployer<'g> {
        GridDeployer {
            grid,
            interfaces: HashMap::new(),
        }
    }

    /// Register the compiled plan (and interface) of a parallel facet
    /// type, keyed by the interface repository id used in port
    /// declarations.
    pub fn register_interface(&mut self, interface: InterfaceDef, plan: Arc<InterceptionPlan>) {
        self.interfaces
            .insert(interface.repo_id.clone(), RegisteredInterface { interface, plan });
    }

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

    /// Deploy an assembly, including parallel components and their
    /// connections.
    pub fn deploy(
        &self,
        assembly: &Assembly,
        packages: &[Package],
    ) -> Result<DeployedApp, GridCcmError> {
        assembly.validate().map_err(GridCcmError::from)?;
        let deployer = self.grid.deployer();
        let daemons = deployer.discover()?;
        if daemons.is_empty() {
            return Err(CcmError::Deployment("no node daemons discovered".into()).into());
        }
        let package_of = |name: &str| -> Result<&Package, GridCcmError> {
            packages
                .iter()
                .find(|p| p.name == name)
                .ok_or_else(|| CcmError::NotFound(format!("package `{name}`")).into())
        };

        let mut app = DeployedApp {
            name: assembly.name.clone(),
            ..Default::default()
        };
        // Spread load: prefer nodes with fewer instances placed so far.
        let mut load: HashMap<String, usize> = HashMap::new();

        // 1. Place and create, stamping GridCCM identity on replicas.
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
                    "component `{}` needs {} node(s) but only {} match",
                    instance.id,
                    instance.replicas,
                    candidates.len()
                ))
                .into());
            }
            let chosen = &candidates[..instance.replicas];
            let job = format!("{}/{}", assembly.name, instance.id);
            let group: Vec<String> = chosen
                .iter()
                .map(|d| {
                    self.grid
                        .node_by_name(&d.props.name)
                        .map(|n| n.env.tm.node().0.to_string())
                        .ok_or_else(|| {
                            GridCcmError::Protocol(format!(
                                "daemon `{}` is not part of this grid",
                                d.props.name
                            ))
                        })
                })
                .collect::<Result<_, _>>()?;
            let group_text = group.join(",");

            let mut replicas = Vec::with_capacity(instance.replicas);
            for (k, daemon_info) in chosen.iter().enumerate() {
                if !daemon_info.daemon.has_package(&package.name)? {
                    daemon_info.daemon.install_package(package)?;
                }
                let instance_name = if instance.replicas == 1 {
                    instance.id.clone()
                } else {
                    format!("{}#{k}", instance.id)
                };
                let component = daemon_info.daemon.create_component(
                    deployer.orb(),
                    &package.name,
                    &instance_name,
                )?;
                for (attr, value) in &instance.attributes {
                    component.set_attribute(attr, value)?;
                }
                if instance.replicas > 1 {
                    component.set_attribute("_gridccm_rank", &AttrValue::Long(k as i32))?;
                    component
                        .set_attribute("_gridccm_size", &AttrValue::Long(instance.replicas as i32))?;
                    component.set_attribute("_gridccm_job", &AttrValue::Str(job.clone()))?;
                    component
                        .set_attribute("_gridccm_group", &AttrValue::Str(group_text.clone()))?;
                }
                *load.entry(daemon_info.props.name.clone()).or_insert(0) += 1;
                replicas.push(DeployedInstance {
                    node: daemon_info.props.name.clone(),
                    component,
                });
            }
            app.components.insert(instance.id.clone(), replicas);
        }

        // 2. Wire connections.
        for conn in &assembly.connections {
            let provider_inst = assembly.component(&conn.provider).expect("validated");
            let user_inst = assembly.component(&conn.user).expect("validated");
            let provider_replicas = app.replicas(&conn.provider).to_vec();
            let user_replicas = app.replicas(&conn.user).to_vec();
            match (provider_inst.replicas > 1, user_inst.replicas > 1) {
                (false, false) => {
                    let facet = provider_replicas[0].component.provide_facet(&conn.facet)?;
                    user_replicas[0].component.connect(&conn.receptacle, &facet)?;
                }
                (false, true) => {
                    // Sequential provider, parallel user: every replica
                    // holds a plain connection to the one facet.
                    let facet = provider_replicas[0].component.provide_facet(&conn.facet)?;
                    for replica in &user_replicas {
                        replica.component.connect(&conn.receptacle, &facet)?;
                    }
                }
                (true, user_parallel) => {
                    // Parallel provider: gather the derived facet IORs.
                    let facet_iors = provider_replicas
                        .iter()
                        .map(|r| r.component.provide_facet(&conn.facet))
                        .collect::<Result<Vec<_>, _>>()?;
                    let facet_type = provider_replicas[0]
                        .component
                        .get_descriptor()?
                        .port(&conn.facet)
                        .ok_or_else(|| {
                            GridCcmError::Protocol(format!(
                                "provider has no facet `{}`",
                                conn.facet
                            ))
                        })?
                        .type_id
                        .clone();
                    let registered = self.interfaces.get(&facet_type).ok_or_else(|| {
                        GridCcmError::Descriptor(format!(
                            "no interface registered for `{facet_type}`; call \
                             register_interface before deploying"
                        ))
                    })?;
                    if user_parallel {
                        let bundle = facet_iors
                            .iter()
                            .map(|i| i.stringify())
                            .collect::<Vec<_>>()
                            .join(";");
                        for replica in &user_replicas {
                            replica.component.set_attribute(
                                &format!("_gridccm_conn_{}", conn.receptacle),
                                &AttrValue::Str(bundle.clone()),
                            )?;
                        }
                    } else {
                        // Install the proxy next to provider replica 0.
                        let proxy_node =
                            self.grid.node_by_name(&provider_replicas[0].node).ok_or_else(
                                || GridCcmError::Protocol("provider node not in grid".into()),
                            )?;
                        let proxy_ior = install_proxy(
                            &proxy_node.env.orb,
                            registered.interface.clone(),
                            Arc::clone(&registered.plan),
                            facet_iors,
                            &format!("{}/{}", assembly.name, conn.id),
                        )?;
                        user_replicas[0]
                            .component
                            .connect(&conn.receptacle, &proxy_ior)?;
                    }
                }
            }
        }

        // 3. Event connections (sequential endpoints only).
        for conn in &assembly.event_connections {
            let publisher_inst = assembly.component(&conn.publisher).expect("validated");
            let consumer_inst = assembly.component(&conn.consumer).expect("validated");
            if publisher_inst.replicas > 1 || consumer_inst.replicas > 1 {
                return Err(GridCcmError::Descriptor(format!(
                    "event-connection `{}` touches a parallel component; events \
                     between parallel components are not part of GridCCM",
                    conn.id
                )));
            }
            let publisher = app.component(&conn.publisher).expect("created");
            let consumer = app.component(&conn.consumer).expect("created");
            let sink = consumer.get_consumer(&conn.sink)?;
            publisher.subscribe(&conn.source, &sink)?;
        }

        // 4. Lifecycle: configure everything, then activate.
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

// End-to-end behaviour is exercised in the workspace integration tests
// and the examples; unit tests for the pure pieces live in the modules
// they test.
