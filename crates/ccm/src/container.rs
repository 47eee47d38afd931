//! The CCM execution model: containers.
//!
//! A [`Container`] hosts component instances on one node. Installing a
//! component activates its facet and event-sink servants on the node's
//! ORB and exposes the component's *equivalent interface* (the
//! introspection/wiring operations: `provide_facet`, `connect`,
//! `subscribe`, attribute access, lifecycle) as one more CORBA object, so
//! a remote deployment engine can assemble an application entirely
//! through ORB calls — the CCM deployment model's premise.
//!
//! Lifecycle enforced per instance:
//! `Installed → (configuration_complete) → Configured → (ccm_activate) →
//! Active ⇄ Passive → (ccm_remove) → gone`.

use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::{Ior, OrbError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::component::{AttrValue, CcmComponent, ComponentContext, ComponentDescriptor, PortKind};
use crate::error::CcmError;
use crate::events::SinkServant;

/// Lifecycle states of an installed component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lifecycle {
    Installed,
    Configured,
    Active,
    Passive,
}

struct Core {
    name: String,
    component: Arc<dyn CcmComponent>,
    descriptor: ComponentDescriptor,
    facets: HashMap<String, Ior>,
    sinks: HashMap<String, Ior>,
    orb: Arc<Orb>,
    state: Mutex<Lifecycle>,
}

impl Core {
    fn ctx(&self) -> ComponentContext {
        ComponentContext::new(Arc::clone(self.component.registry()))
    }

    fn provide_facet(&self, name: &str) -> Result<Ior, CcmError> {
        self.facets
            .get(name)
            .cloned()
            .ok_or_else(|| CcmError::NoSuchPort(format!("facet {name}")))
    }

    fn get_consumer(&self, sink: &str) -> Result<Ior, CcmError> {
        self.sinks
            .get(sink)
            .cloned()
            .ok_or_else(|| CcmError::NoSuchPort(format!("event sink {sink}")))
    }

    fn connect(&self, receptacle: &str, target_ior: Ior) -> Result<(), CcmError> {
        let target = self.orb.object_ref(target_ior);
        self.component
            .registry()
            .connect(&self.descriptor, receptacle, target)
    }

    fn disconnect(&self, receptacle: &str) -> Result<(), CcmError> {
        self.component.registry().disconnect(receptacle)
    }

    fn subscribe(&self, source: &str, sink_ior: Ior) -> Result<(), CcmError> {
        let sink = self.orb.object_ref(sink_ior);
        self.component
            .registry()
            .subscribe(&self.descriptor, source, sink)
    }

    fn set_attribute(&self, name: &str, value: AttrValue) -> Result<(), CcmError> {
        match self.descriptor.port(name) {
            Some(p) if p.kind == PortKind::Attribute => {
                self.component.registry().set_attribute(name, value);
                Ok(())
            }
            _ => Err(CcmError::NoSuchPort(format!("attribute {name}"))),
        }
    }

    fn get_attribute(&self, name: &str) -> Result<AttrValue, CcmError> {
        self.component
            .registry()
            .attribute(name)
            .ok_or_else(|| CcmError::NotFound(format!("attribute {name} not set")))
    }

    fn configuration_complete(&self) -> Result<(), CcmError> {
        let mut state = self.state.lock();
        if *state != Lifecycle::Installed {
            return Err(CcmError::Lifecycle(format!(
                "configuration_complete in state {state:?}"
            )));
        }
        self.component.configuration_complete(&self.ctx())?;
        *state = Lifecycle::Configured;
        Ok(())
    }

    fn ccm_activate(&self) -> Result<(), CcmError> {
        let mut state = self.state.lock();
        match *state {
            Lifecycle::Configured | Lifecycle::Passive => {
                self.component.ccm_activate(&self.ctx())?;
                *state = Lifecycle::Active;
                Ok(())
            }
            other => Err(CcmError::Lifecycle(format!(
                "ccm_activate in state {other:?}"
            ))),
        }
    }

    fn ccm_passivate(&self) -> Result<(), CcmError> {
        let mut state = self.state.lock();
        if *state != Lifecycle::Active {
            return Err(CcmError::Lifecycle(format!(
                "ccm_passivate in state {:?}",
                *state
            )));
        }
        self.component.ccm_passivate()?;
        *state = Lifecycle::Passive;
        Ok(())
    }
}

/// Local handle to an installed component.
#[derive(Clone)]
pub struct ComponentHandle {
    core: Arc<Core>,
    meta: Ior,
}

impl ComponentHandle {
    /// The component's equivalent-interface object reference (what remote
    /// deployers talk to).
    pub fn meta_ior(&self) -> &Ior {
        &self.meta
    }

    pub fn name(&self) -> &str {
        &self.core.name
    }

    pub fn descriptor(&self) -> &ComponentDescriptor {
        &self.core.descriptor
    }

    pub fn state(&self) -> Lifecycle {
        *self.core.state.lock()
    }

    pub fn provide_facet(&self, name: &str) -> Result<Ior, CcmError> {
        self.core.provide_facet(name)
    }

    pub fn get_consumer(&self, sink: &str) -> Result<Ior, CcmError> {
        self.core.get_consumer(sink)
    }

    pub fn connect(&self, receptacle: &str, target: Ior) -> Result<(), CcmError> {
        self.core.connect(receptacle, target)
    }

    pub fn disconnect(&self, receptacle: &str) -> Result<(), CcmError> {
        self.core.disconnect(receptacle)
    }

    pub fn subscribe(&self, source: &str, sink: Ior) -> Result<(), CcmError> {
        self.core.subscribe(source, sink)
    }

    pub fn set_attribute(&self, name: &str, value: AttrValue) -> Result<(), CcmError> {
        self.core.set_attribute(name, value)
    }

    pub fn configuration_complete(&self) -> Result<(), CcmError> {
        self.core.configuration_complete()
    }

    pub fn ccm_activate(&self) -> Result<(), CcmError> {
        self.core.ccm_activate()
    }

    pub fn ccm_passivate(&self) -> Result<(), CcmError> {
        self.core.ccm_passivate()
    }
}

/// The component's equivalent interface as a CORBA servant.
struct ComponentServant {
    core: Arc<Core>,
}

impl Servant for ComponentServant {
    fn repository_id(&self) -> &str {
        &self.core.descriptor.repo_id
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        let wire = |r: Result<(), CcmError>| r.map_err(|e| e.to_wire());
        match operation {
            "get_descriptor" => {
                let d = &self.core.descriptor;
                reply.write_string(&d.name);
                reply.write_string(&d.repo_id);
                reply.write_u32(d.ports.len() as u32);
                for p in &d.ports {
                    reply.write_string(&p.name);
                    reply.write_u8(match p.kind {
                        PortKind::Facet => 0,
                        PortKind::Receptacle => 1,
                        PortKind::MultiplexReceptacle => 2,
                        PortKind::EventSource => 3,
                        PortKind::EventSink => 4,
                        PortKind::Attribute => 5,
                    });
                    reply.write_string(&p.type_id);
                }
                Ok(())
            }
            "provide_facet" => {
                let name = args.read_string()?;
                let ior = self.core.provide_facet(&name).map_err(|e| e.to_wire())?;
                reply.write_string(&ior.stringify());
                Ok(())
            }
            "get_consumer" => {
                let name = args.read_string()?;
                let ior = self.core.get_consumer(&name).map_err(|e| e.to_wire())?;
                reply.write_string(&ior.stringify());
                Ok(())
            }
            "connect" => {
                let receptacle = args.read_string()?;
                let ior = Ior::destringify(&args.read_string()?)?;
                wire(self.core.connect(&receptacle, ior))
            }
            "disconnect" => {
                let receptacle = args.read_string()?;
                wire(self.core.disconnect(&receptacle))
            }
            "subscribe" => {
                let source = args.read_string()?;
                let ior = Ior::destringify(&args.read_string()?)?;
                wire(self.core.subscribe(&source, ior))
            }
            "set_attribute" => {
                let name = args.read_string()?;
                let value = AttrValue::read(args)?;
                wire(self.core.set_attribute(&name, value))
            }
            "get_attribute" => {
                let name = args.read_string()?;
                let value = self.core.get_attribute(&name).map_err(|e| e.to_wire())?;
                value.write(reply);
                Ok(())
            }
            "configuration_complete" => wire(self.core.configuration_complete()),
            "ccm_activate" => wire(self.core.ccm_activate()),
            "ccm_passivate" => wire(self.core.ccm_passivate()),
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// A container hosting component instances on one node.
pub struct Container {
    orb: Arc<Orb>,
    instances: Mutex<HashMap<String, ComponentHandle>>,
}

impl Container {
    pub fn new(orb: Arc<Orb>) -> Arc<Container> {
        Arc::new(Container {
            orb,
            instances: Mutex::new(HashMap::new()),
        })
    }

    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }

    /// Install a component instance under a unique name; activates its
    /// ports on the ORB and returns the handle.
    pub fn install(
        &self,
        name: &str,
        component: Arc<dyn CcmComponent>,
    ) -> Result<ComponentHandle, CcmError> {
        {
            let instances = self.instances.lock();
            if instances.contains_key(name) {
                return Err(CcmError::Lifecycle(format!(
                    "instance `{name}` already installed"
                )));
            }
        }
        let descriptor = component.descriptor();
        let mut facets = HashMap::new();
        for port in descriptor.ports_of_kind(PortKind::Facet) {
            let servant = component.facet_servant(&port.name)?;
            facets.insert(port.name.clone(), self.orb.activate(servant));
        }
        let mut sinks = HashMap::new();
        for port in descriptor.ports_of_kind(PortKind::EventSink) {
            let servant = Arc::new(SinkServant {
                component: Arc::clone(&component),
                sink_name: port.name.clone(),
                event_type_id: port.type_id.clone(),
            });
            sinks.insert(port.name.clone(), self.orb.activate(servant));
        }
        let core = Arc::new(Core {
            name: name.to_string(),
            component,
            descriptor,
            facets,
            sinks,
            orb: Arc::clone(&self.orb),
            state: Mutex::new(Lifecycle::Installed),
        });
        let meta = self.orb.activate(Arc::new(ComponentServant {
            core: Arc::clone(&core),
        }));
        let handle = ComponentHandle { core, meta };
        self.instances
            .lock()
            .insert(name.to_string(), handle.clone());
        Ok(handle)
    }

    /// Remove an instance: lifecycle `ccm_remove`, then deactivate every
    /// servant the install created.
    pub fn remove(&self, name: &str) -> Result<(), CcmError> {
        let handle = self
            .instances
            .lock()
            .remove(name)
            .ok_or_else(|| CcmError::NotFound(format!("instance `{name}`")))?;
        handle.core.component.ccm_remove()?;
        for ior in handle
            .core
            .facets
            .values()
            .chain(handle.core.sinks.values())
        {
            let _ = self.orb.deactivate(ior);
        }
        let _ = self.orb.deactivate(&handle.meta);
        Ok(())
    }

    /// Look up an installed instance.
    pub fn instance(&self, name: &str) -> Option<ComponentHandle> {
        self.instances.lock().get(name).cloned()
    }

    /// Names of installed instances (sorted).
    pub fn instances(&self) -> Vec<String> {
        let mut names: Vec<String> = self.instances.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Remote-side client for a component's equivalent interface.
#[derive(Clone, Debug)]
pub struct RemoteComponent {
    obj: ObjectRef,
}

impl RemoteComponent {
    pub fn new(obj: ObjectRef) -> RemoteComponent {
        RemoteComponent { obj }
    }

    pub fn object(&self) -> &ObjectRef {
        &self.obj
    }

    pub fn provide_facet(&self, name: &str) -> Result<Ior, CcmError> {
        let mut reply = self
            .obj
            .request("provide_facet")
            .arg_string(name)
            .invoke()
            .map_err(CcmError::from)?;
        Ok(Ior::destringify(
            &reply.read_string().map_err(CcmError::from)?,
        )?)
    }

    pub fn get_consumer(&self, sink: &str) -> Result<Ior, CcmError> {
        let mut reply = self
            .obj
            .request("get_consumer")
            .arg_string(sink)
            .invoke()
            .map_err(CcmError::from)?;
        Ok(Ior::destringify(
            &reply.read_string().map_err(CcmError::from)?,
        )?)
    }

    pub fn connect(&self, receptacle: &str, target: &Ior) -> Result<(), CcmError> {
        self.obj
            .request("connect")
            .arg_string(receptacle)
            .arg_string(&target.stringify())
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn disconnect(&self, receptacle: &str) -> Result<(), CcmError> {
        self.obj
            .request("disconnect")
            .arg_string(receptacle)
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn subscribe(&self, source: &str, sink: &Ior) -> Result<(), CcmError> {
        self.obj
            .request("subscribe")
            .arg_string(source)
            .arg_string(&sink.stringify())
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn set_attribute(&self, name: &str, value: &AttrValue) -> Result<(), CcmError> {
        let mut req = self.obj.request("set_attribute").arg_string(name);
        value.write(req.writer());
        req.invoke().map(|_| ()).map_err(CcmError::from)
    }

    pub fn get_attribute(&self, name: &str) -> Result<AttrValue, CcmError> {
        let mut reply = self
            .obj
            .request("get_attribute")
            .arg_string(name)
            .invoke()
            .map_err(CcmError::from)?;
        AttrValue::read(&mut reply).map_err(CcmError::from)
    }

    pub fn configuration_complete(&self) -> Result<(), CcmError> {
        self.obj
            .request("configuration_complete")
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn ccm_activate(&self) -> Result<(), CcmError> {
        self.obj
            .request("ccm_activate")
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn ccm_passivate(&self) -> Result<(), CcmError> {
        self.obj
            .request("ccm_passivate")
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    /// Fetch the remote component's descriptor.
    pub fn get_descriptor(&self) -> Result<ComponentDescriptor, CcmError> {
        let mut r = self
            .obj
            .request("get_descriptor")
            .invoke()
            .map_err(CcmError::from)?;
        let name = r.read_string().map_err(CcmError::from)?;
        let repo_id = r.read_string().map_err(CcmError::from)?;
        let count = r.read_u32().map_err(CcmError::from)? as usize;
        let mut ports = Vec::with_capacity(count);
        for _ in 0..count {
            let pname = r.read_string().map_err(CcmError::from)?;
            let kind = match r.read_u8().map_err(CcmError::from)? {
                0 => PortKind::Facet,
                1 => PortKind::Receptacle,
                2 => PortKind::MultiplexReceptacle,
                3 => PortKind::EventSource,
                4 => PortKind::EventSink,
                5 => PortKind::Attribute,
                other => return Err(CcmError::Descriptor(format!("bad port kind {other}"))),
            };
            let type_id = r.read_string().map_err(CcmError::from)?;
            ports.push(crate::component::PortDesc {
                name: pname,
                kind,
                type_id,
            });
        }
        Ok(ComponentDescriptor {
            name,
            repo_id,
            ports,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::component::{PortDesc, PortRegistry};
    use crate::events::Event;
    use padico_fabric::topology::single_cluster;
    use padico_orb::profile::OrbProfile;
    use padico_tm::runtime::PadicoTM;
    use padico_tm::selector::FabricChoice;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

    /// A minimal "field provider" component used across the CCM tests:
    /// one facet (`field`, op `get_value`), one receptacle (`input`), one
    /// event source (`tick`), one sink (`steer`), one attribute (`scale`).
    pub(crate) struct FieldState {
        pub registry: Arc<PortRegistry>,
        pub value: AtomicI64,
        pub events_seen: AtomicUsize,
        pub configured: AtomicUsize,
        pub activated: AtomicUsize,
        pub removed: AtomicUsize,
    }

    pub(crate) struct FieldComponent {
        pub state: Arc<FieldState>,
    }

    impl FieldComponent {
        pub fn new(value: i64) -> Arc<FieldComponent> {
            Arc::new(FieldComponent {
                state: Arc::new(FieldState {
                    registry: Arc::new(PortRegistry::new()),
                    value: AtomicI64::new(value),
                    events_seen: AtomicUsize::new(0),
                    configured: AtomicUsize::new(0),
                    activated: AtomicUsize::new(0),
                    removed: AtomicUsize::new(0),
                }),
            })
        }
    }

    struct FieldFacet {
        state: Arc<FieldState>,
    }

    impl Servant for FieldFacet {
        fn repository_id(&self) -> &str {
            "IDL:Test/Field:1.0"
        }

        fn dispatch(
            &self,
            operation: &str,
            _args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            match operation {
                "get_value" => {
                    reply.write_i64(self.state.value.load(Ordering::SeqCst));
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.into())),
            }
        }
    }

    impl CcmComponent for FieldComponent {
        fn descriptor(&self) -> ComponentDescriptor {
            ComponentDescriptor {
                name: "Field".into(),
                repo_id: "IDL:Test/FieldComponent:1.0".into(),
                ports: vec![
                    PortDesc::new("field", PortKind::Facet, "IDL:Test/Field:1.0"),
                    PortDesc::new("input", PortKind::Receptacle, "IDL:Test/Field:1.0"),
                    PortDesc::new("tick", PortKind::EventSource, "IDL:Test/Tick:1.0"),
                    PortDesc::new("steer", PortKind::EventSink, "IDL:Test/Tick:1.0"),
                    PortDesc::new("scale", PortKind::Attribute, "double"),
                ],
            }
        }

        fn registry(&self) -> &Arc<PortRegistry> {
            &self.state.registry
        }

        fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError> {
            match name {
                "field" => Ok(Arc::new(FieldFacet {
                    state: Arc::clone(&self.state),
                })),
                other => Err(CcmError::NoSuchPort(other.into())),
            }
        }

        fn push_event(&self, sink: &str, _event: Event) -> Result<(), CcmError> {
            if sink != "steer" {
                return Err(CcmError::NoSuchPort(sink.into()));
            }
            self.state.events_seen.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn configuration_complete(&self, _ctx: &ComponentContext) -> Result<(), CcmError> {
            self.state.configured.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn ccm_activate(&self, _ctx: &ComponentContext) -> Result<(), CcmError> {
            self.state.activated.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn ccm_remove(&self) -> Result<(), CcmError> {
            self.state.removed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    pub(crate) fn two_containers() -> (Arc<Container>, Arc<Container>) {
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let orb0 = Orb::start(
            Arc::clone(&tms[0]),
            "ccm",
            OrbProfile::omniorb3(),
            FabricChoice::Auto,
        )
        .unwrap();
        let orb1 = Orb::start(
            Arc::clone(&tms[1]),
            "ccm",
            OrbProfile::omniorb3(),
            FabricChoice::Auto,
        )
        .unwrap();
        (Container::new(orb0), Container::new(orb1))
    }

    #[test]
    fn install_activates_ports_and_lifecycle_runs() {
        let (c0, _c1) = two_containers();
        let comp = FieldComponent::new(5);
        let state = Arc::clone(&comp.state);
        let handle = c0.install("field0", comp).unwrap();
        assert_eq!(handle.state(), Lifecycle::Installed);
        assert!(handle.provide_facet("field").is_ok());
        assert!(handle.get_consumer("steer").is_ok());
        handle.configuration_complete().unwrap();
        assert_eq!(handle.state(), Lifecycle::Configured);
        handle.ccm_activate().unwrap();
        assert_eq!(handle.state(), Lifecycle::Active);
        handle.ccm_passivate().unwrap();
        assert_eq!(handle.state(), Lifecycle::Passive);
        handle.ccm_activate().unwrap();
        assert_eq!(state.configured.load(Ordering::SeqCst), 1);
        assert_eq!(state.activated.load(Ordering::SeqCst), 2);
        c0.remove("field0").unwrap();
        assert_eq!(state.removed.load(Ordering::SeqCst), 1);
        assert!(c0.instance("field0").is_none());
    }

    #[test]
    fn lifecycle_violations_are_rejected() {
        let (c0, _c1) = two_containers();
        let handle = c0.install("f", FieldComponent::new(0)).unwrap();
        assert!(matches!(handle.ccm_activate(), Err(CcmError::Lifecycle(_))));
        handle.configuration_complete().unwrap();
        assert!(matches!(
            handle.configuration_complete(),
            Err(CcmError::Lifecycle(_))
        ));
        assert!(matches!(
            handle.ccm_passivate(),
            Err(CcmError::Lifecycle(_))
        ));
    }

    #[test]
    fn duplicate_instance_names_rejected() {
        let (c0, _c1) = two_containers();
        c0.install("x", FieldComponent::new(0)).unwrap();
        assert!(matches!(
            c0.install("x", FieldComponent::new(1)),
            Err(CcmError::Lifecycle(_))
        ));
        assert_eq!(c0.instances(), vec!["x".to_string()]);
    }

    #[test]
    fn remote_wiring_through_equivalent_interface() {
        // Deployer-style wiring: all calls go through the ORB.
        let (c0, c1) = two_containers();
        let provider = c0.install("provider", FieldComponent::new(42)).unwrap();
        let user_comp = FieldComponent::new(0);
        let user_state = Arc::clone(&user_comp.state);
        let user = c1.install("user", user_comp).unwrap();

        // A third party (here: c1's ORB) wires them remotely.
        let remote_provider =
            RemoteComponent::new(c1.orb().object_ref(provider.meta_ior().clone()));
        let remote_user = RemoteComponent::new(c1.orb().object_ref(user.meta_ior().clone()));

        let facet = remote_provider.provide_facet("field").unwrap();
        remote_user.connect("input", &facet).unwrap();
        remote_user
            .set_attribute("scale", &AttrValue::Double(2.0))
            .unwrap();
        remote_provider.configuration_complete().unwrap();
        remote_user.configuration_complete().unwrap();
        remote_provider.ccm_activate().unwrap();
        remote_user.ccm_activate().unwrap();

        // The user component can now call through its receptacle.
        let conn = user_state.registry.receptacle("input").unwrap();
        let mut reply = conn.request("get_value").invoke().unwrap();
        assert_eq!(reply.read_i64().unwrap(), 42);
        assert_eq!(
            remote_user.get_attribute("scale").unwrap(),
            AttrValue::Double(2.0)
        );
    }

    #[test]
    fn remote_errors_carry_ccm_diagnostics() {
        let (c0, c1) = two_containers();
        let handle = c0.install("p", FieldComponent::new(1)).unwrap();
        let remote = RemoteComponent::new(c1.orb().object_ref(handle.meta_ior().clone()));
        let err = remote.provide_facet("no_such_facet").unwrap_err();
        assert!(
            matches!(&err, CcmError::Remote(msg) if msg.contains("no_such_facet")),
            "{err:?}"
        );
        let err = remote.get_attribute("unset").unwrap_err();
        assert!(matches!(err, CcmError::Remote(_)));
    }

    #[test]
    fn simple_receptacle_rejects_second_connection() {
        let (c0, _c1) = two_containers();
        let a = c0.install("a", FieldComponent::new(1)).unwrap();
        let b = c0.install("b", FieldComponent::new(2)).unwrap();
        let facet = a.provide_facet("field").unwrap();
        b.connect("input", facet.clone()).unwrap();
        assert!(matches!(
            b.connect("input", facet.clone()),
            Err(CcmError::AlreadyConnected(_))
        ));
        b.disconnect("input").unwrap();
        b.connect("input", facet).unwrap();
    }

    #[test]
    fn events_flow_from_source_to_sink() {
        let (c0, c1) = two_containers();
        let publisher_comp = FieldComponent::new(0);
        let publisher_state = Arc::clone(&publisher_comp.state);
        let publisher = c0.install("pub", publisher_comp).unwrap();
        let consumer_comp = FieldComponent::new(0);
        let consumer_state = Arc::clone(&consumer_comp.state);
        let consumer = c1.install("sub", consumer_comp).unwrap();

        let sink_ior = consumer.get_consumer("steer").unwrap();
        publisher.subscribe("tick", sink_ior).unwrap();
        publisher.configuration_complete().unwrap();
        publisher.ccm_activate().unwrap();

        // The publisher emits through its context.
        let ctx = ComponentContext::new(Arc::clone(&publisher_state.registry));
        let delivered = ctx
            .emit("tick", &Event::new("IDL:Test/Tick:1.0", vec![1]))
            .unwrap();
        assert_eq!(delivered, 1);
        // Oneway delivery: poll for arrival.
        for _ in 0..200 {
            if consumer_state.events_seen.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(consumer_state.events_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn remote_descriptor_introspection() {
        let (c0, c1) = two_containers();
        let handle = c0.install("f", FieldComponent::new(1)).unwrap();
        let remote = RemoteComponent::new(c1.orb().object_ref(handle.meta_ior().clone()));
        let desc = remote.get_descriptor().unwrap();
        assert_eq!(desc.name, "Field");
        assert_eq!(desc.ports.len(), 5);
        assert_eq!(desc.port("field").unwrap().kind, PortKind::Facet);
        assert_eq!(desc.port("steer").unwrap().kind, PortKind::EventSink);
    }
}
