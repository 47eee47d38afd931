//! The CCM abstract model: components and their ports.
//!
//! A component interacts with the world through typed ports (paper
//! Figure 2): **facets** (provided interfaces), **receptacles** (used
//! interfaces, simple or multiplex), **event sources/sinks**, and
//! **attributes**. [`CcmComponent`] is the trait user components
//! implement; [`PortRegistry`] is the embeddable state holder that gives
//! them the connection/attribute machinery for free.

use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::ObjectRef;
use padico_orb::poa::Servant;
use padico_orb::OrbError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::CcmError;
use crate::events::Event;

/// Kind of a component port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortKind {
    /// Provided interface.
    Facet,
    /// Used interface, at most one connection.
    Receptacle,
    /// Used interface, any number of connections.
    MultiplexReceptacle,
    /// Event publisher.
    EventSource,
    /// Event consumer.
    EventSink,
    /// Configuration attribute.
    Attribute,
}

/// Description of one port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortDesc {
    pub name: String,
    pub kind: PortKind,
    /// Interface repository id (facets/receptacles) or event/attribute
    /// type id.
    pub type_id: String,
}

impl PortDesc {
    pub fn new(name: impl Into<String>, kind: PortKind, type_id: impl Into<String>) -> PortDesc {
        PortDesc {
            name: name.into(),
            kind,
            type_id: type_id.into(),
        }
    }
}

/// Introspectable description of a component type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentDescriptor {
    /// Component type name, e.g. `"ChemistryComponent"`.
    pub name: String,
    /// Repository id of the component's equivalent interface.
    pub repo_id: String,
    pub ports: Vec<PortDesc>,
}

impl ComponentDescriptor {
    pub fn port(&self, name: &str) -> Option<&PortDesc> {
        self.ports.iter().find(|p| p.name == name)
    }

    pub fn ports_of_kind(&self, kind: PortKind) -> impl Iterator<Item = &PortDesc> {
        self.ports.iter().filter(move |p| p.kind == kind)
    }
}

/// Typed attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    Long(i32),
    Double(f64),
    Str(String),
    Boolean(bool),
}

impl AttrValue {
    /// CDR-encode with a leading type tag.
    pub fn write(&self, w: &mut CdrWriter) {
        match self {
            AttrValue::Long(v) => {
                w.write_u8(0);
                w.write_i32(*v);
            }
            AttrValue::Double(v) => {
                w.write_u8(1);
                w.write_f64(*v);
            }
            AttrValue::Str(v) => {
                w.write_u8(2);
                w.write_string(v);
            }
            AttrValue::Boolean(v) => {
                w.write_u8(3);
                w.write_bool(*v);
            }
        }
    }

    /// Decode a tagged value.
    pub fn read(r: &mut CdrReader) -> Result<AttrValue, OrbError> {
        Ok(match r.read_u8()? {
            0 => AttrValue::Long(r.read_i32()?),
            1 => AttrValue::Double(r.read_f64()?),
            2 => AttrValue::Str(r.read_string()?),
            3 => AttrValue::Boolean(r.read_bool()?),
            other => return Err(OrbError::Marshal(format!("bad attr tag {other}"))),
        })
    }

    /// Parse from an assembly descriptor's `(type, text)` pair.
    pub fn parse(kind: &str, text: &str) -> Result<AttrValue, CcmError> {
        fn bad<E>(kind: &str, text: &str) -> impl FnOnce(E) -> CcmError {
            let msg = format!("bad {kind} attribute value `{text}`");
            move |_| CcmError::Descriptor(msg)
        }
        Ok(match kind {
            "long" => AttrValue::Long(text.parse().map_err(bad(kind, text))?),
            "double" => AttrValue::Double(text.parse().map_err(bad(kind, text))?),
            "string" => AttrValue::Str(text.to_string()),
            "boolean" => AttrValue::Boolean(text.parse().map_err(bad(kind, text))?),
            other => {
                return Err(CcmError::Descriptor(format!(
                    "unknown attribute type `{other}`"
                )))
            }
        })
    }
}

/// Connection and attribute state every component embeds.
#[derive(Default)]
pub struct PortRegistry {
    receptacles: Mutex<HashMap<String, Vec<ObjectRef>>>,
    subscribers: Mutex<HashMap<String, Vec<ObjectRef>>>,
    attributes: Mutex<HashMap<String, AttrValue>>,
}

impl PortRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn connect(
        &self,
        desc: &ComponentDescriptor,
        receptacle: &str,
        target: ObjectRef,
    ) -> Result<(), CcmError> {
        let port = desc
            .port(receptacle)
            .ok_or_else(|| CcmError::NoSuchPort(receptacle.to_string()))?;
        match port.kind {
            PortKind::Receptacle => {
                let mut slots = self.receptacles.lock();
                let slot = slots.entry(receptacle.to_string()).or_default();
                if !slot.is_empty() {
                    return Err(CcmError::AlreadyConnected(receptacle.to_string()));
                }
                slot.push(target);
                Ok(())
            }
            PortKind::MultiplexReceptacle => {
                self.receptacles
                    .lock()
                    .entry(receptacle.to_string())
                    .or_default()
                    .push(target);
                Ok(())
            }
            _ => Err(CcmError::NoSuchPort(format!(
                "{receptacle} is not a receptacle"
            ))),
        }
    }

    pub(crate) fn disconnect(&self, receptacle: &str) -> Result<(), CcmError> {
        match self.receptacles.lock().remove(receptacle) {
            Some(_) => Ok(()),
            None => Err(CcmError::NoSuchPort(format!(
                "{receptacle} has no connection"
            ))),
        }
    }

    pub(crate) fn subscribe(
        &self,
        desc: &ComponentDescriptor,
        source: &str,
        sink: ObjectRef,
    ) -> Result<(), CcmError> {
        let port = desc
            .port(source)
            .ok_or_else(|| CcmError::NoSuchPort(source.to_string()))?;
        if port.kind != PortKind::EventSource {
            return Err(CcmError::NoSuchPort(format!(
                "{source} is not an event source"
            )));
        }
        self.subscribers
            .lock()
            .entry(source.to_string())
            .or_default()
            .push(sink);
        Ok(())
    }

    /// The single connection of a simple receptacle.
    pub fn receptacle(&self, name: &str) -> Option<ObjectRef> {
        self.receptacles
            .lock()
            .get(name)
            .and_then(|v| v.first().cloned())
    }

    /// All connections of a (multiplex) receptacle.
    pub fn receptacles(&self, name: &str) -> Vec<ObjectRef> {
        self.receptacles
            .lock()
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Subscribed sinks of an event source.
    pub fn subscribers(&self, source: &str) -> Vec<ObjectRef> {
        self.subscribers
            .lock()
            .get(source)
            .cloned()
            .unwrap_or_default()
    }

    pub fn set_attribute(&self, name: &str, value: AttrValue) {
        self.attributes.lock().insert(name.to_string(), value);
    }

    pub fn attribute(&self, name: &str) -> Option<AttrValue> {
        self.attributes.lock().get(name).cloned()
    }
}

/// What a component sees of its container at lifecycle time.
pub struct ComponentContext {
    registry: Arc<PortRegistry>,
}

impl ComponentContext {
    /// Build a context over a registry. Containers do this internally;
    /// it is public so custom hosts and test harnesses can drive the
    /// lifecycle directly.
    pub fn new(registry: Arc<PortRegistry>) -> Self {
        ComponentContext { registry }
    }

    /// The connected object of a simple receptacle (the "uses" side).
    pub fn get_connection(&self, receptacle: &str) -> Result<ObjectRef, CcmError> {
        self.registry
            .receptacle(receptacle)
            .ok_or_else(|| CcmError::NoSuchPort(format!("{receptacle} not connected")))
    }

    /// All connections of a multiplex receptacle.
    pub fn get_connections(&self, receptacle: &str) -> Vec<ObjectRef> {
        self.registry.receptacles(receptacle)
    }

    /// Push an event to every subscriber of `source` (oneway).
    pub fn emit(&self, source: &str, event: &Event) -> Result<usize, CcmError> {
        let sinks = self.registry.subscribers(source);
        for sink in &sinks {
            event.push_to(sink)?;
        }
        Ok(sinks.len())
    }

    /// Read an attribute set by configuration.
    pub fn attribute(&self, name: &str) -> Option<AttrValue> {
        self.registry.attribute(name)
    }
}

/// A CCM component implementation.
pub trait CcmComponent: Send + Sync {
    /// Introspectable type description.
    fn descriptor(&self) -> ComponentDescriptor;

    /// The embedded port registry.
    fn registry(&self) -> &Arc<PortRegistry>;

    /// Produce the servant implementing a facet. Called once per facet at
    /// install time.
    fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError>;

    /// Deliver an event to one of the component's sinks.
    fn push_event(&self, sink: &str, _event: Event) -> Result<(), CcmError> {
        Err(CcmError::NoSuchPort(format!("event sink {sink}")))
    }

    /// All connections are made; attributes are set.
    fn configuration_complete(&self, _ctx: &ComponentContext) -> Result<(), CcmError> {
        Ok(())
    }

    /// The container moves the component to the running state.
    fn ccm_activate(&self, _ctx: &ComponentContext) -> Result<(), CcmError> {
        Ok(())
    }

    /// The container suspends the component.
    fn ccm_passivate(&self) -> Result<(), CcmError> {
        Ok(())
    }

    /// The component is being destroyed.
    fn ccm_remove(&self) -> Result<(), CcmError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_orb::profile::MarshalStrategy;

    fn desc() -> ComponentDescriptor {
        ComponentDescriptor {
            name: "Transport".into(),
            repo_id: "IDL:Coupling/Transport:1.0".into(),
            ports: vec![
                PortDesc::new("porosity", PortKind::Facet, "IDL:Coupling/Field:1.0"),
                PortDesc::new("density", PortKind::Receptacle, "IDL:Coupling/Field:1.0"),
                PortDesc::new(
                    "observers",
                    PortKind::MultiplexReceptacle,
                    "IDL:Coupling/Observer:1.0",
                ),
                PortDesc::new("step_done", PortKind::EventSource, "IDL:Coupling/Tick:1.0"),
                PortDesc::new("steer", PortKind::EventSink, "IDL:Coupling/Tick:1.0"),
                PortDesc::new("tolerance", PortKind::Attribute, "double"),
            ],
        }
    }

    #[test]
    fn descriptor_lookup() {
        let d = desc();
        assert_eq!(d.port("porosity").unwrap().kind, PortKind::Facet);
        assert!(d.port("nope").is_none());
        assert_eq!(d.ports_of_kind(PortKind::Facet).count(), 1);
        assert_eq!(d.ports_of_kind(PortKind::EventSource).count(), 1);
    }

    #[test]
    fn attr_value_cdr_roundtrip() {
        for v in [
            AttrValue::Long(-7),
            AttrValue::Double(2.75),
            AttrValue::Str("ok".into()),
            AttrValue::Boolean(true),
        ] {
            let mut w = CdrWriter::new(MarshalStrategy::Copying);
            v.write(&mut w);
            let mut r = CdrReader::new(&w.finish());
            assert_eq!(AttrValue::read(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn attr_value_parse() {
        assert_eq!(AttrValue::parse("long", "42").unwrap(), AttrValue::Long(42));
        assert_eq!(
            AttrValue::parse("double", "0.5").unwrap(),
            AttrValue::Double(0.5)
        );
        assert_eq!(
            AttrValue::parse("boolean", "true").unwrap(),
            AttrValue::Boolean(true)
        );
        assert!(AttrValue::parse("long", "xyz").is_err());
        assert!(AttrValue::parse("matrix", "1").is_err());
    }

    #[test]
    fn registry_attribute_store() {
        let reg = PortRegistry::new();
        assert!(reg.attribute("tolerance").is_none());
        reg.set_attribute("tolerance", AttrValue::Double(1e-6));
        assert_eq!(reg.attribute("tolerance"), Some(AttrValue::Double(1e-6)));
        reg.set_attribute("tolerance", AttrValue::Double(1e-3));
        assert_eq!(reg.attribute("tolerance"), Some(AttrValue::Double(1e-3)));
    }

    // Receptacle connect/disconnect rules need ObjectRefs, which need a
    // running ORB — covered by container tests.
}
