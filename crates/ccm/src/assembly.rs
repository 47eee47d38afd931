//! Assembly descriptors: the CAD-style XML describing which components an
//! application is made of, where they may run, and how they are wired.
//!
//! ```xml
//! <assembly name="coupling">
//!   <component id="chem" package="chemistry">
//!     <placement machine="company-x-cluster"/>
//!     <attribute name="tolerance" type="double" value="0.001"/>
//!   </component>
//!   <component id="trans" package="transport">
//!     <placement node="a0"/>
//!   </component>
//!   <connection id="c1">
//!     <provides component="chem" facet="density"/>
//!     <uses component="trans" receptacle="density"/>
//!   </connection>
//!   <event-connection id="e1">
//!     <publisher component="trans" source="step_done"/>
//!     <consumer component="chem" sink="steer"/>
//!   </event-connection>
//! </assembly>
//! ```

use padico_util::xml::{self, Element};

use crate::component::AttrValue;
use crate::error::CcmError;

/// Where a component instance may be placed.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Any node whose machine the package allows.
    #[default]
    Any,
    /// A specific node by name.
    Node(String),
    /// Any node of a machine.
    Machine(String),
}

/// One component instance in the assembly.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentInstance {
    /// Instance id, unique in the assembly.
    pub id: String,
    /// Package (component type) to instantiate.
    pub package: String,
    pub placement: Placement,
    /// Attribute settings applied before `configuration_complete`.
    pub attributes: Vec<(String, AttrValue)>,
    /// GridCCM extension: number of SPMD replicas (1 = sequential).
    pub replicas: usize,
}

/// A facet → receptacle connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    pub id: String,
    pub provider: String,
    pub facet: String,
    pub user: String,
    pub receptacle: String,
}

/// An event source → sink connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventConnection {
    pub id: String,
    pub publisher: String,
    pub source: String,
    pub consumer: String,
    pub sink: String,
}

/// A parsed assembly.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Assembly {
    pub name: String,
    pub components: Vec<ComponentInstance>,
    pub connections: Vec<Connection>,
    pub event_connections: Vec<EventConnection>,
}

impl Assembly {
    /// Parse from CAD-style XML.
    pub fn parse(text: &str) -> Result<Assembly, CcmError> {
        let root = xml::parse(text)?;
        if root.name != "assembly" {
            return Err(CcmError::Descriptor(format!(
                "expected <assembly>, found <{}>",
                root.name
            )));
        }
        let name = root
            .get_attr("name")
            .ok_or_else(|| CcmError::Descriptor("assembly without name".into()))?
            .to_string();

        let mut components = Vec::new();
        for el in root.find_all("component") {
            components.push(Self::parse_component(el)?);
        }
        let mut assembly = Assembly {
            name,
            components,
            connections: Vec::new(),
            event_connections: Vec::new(),
        };
        for el in root.find_all("connection") {
            assembly.connections.push(Self::parse_connection(el)?);
        }
        for el in root.find_all("event-connection") {
            assembly
                .event_connections
                .push(Self::parse_event_connection(el)?);
        }
        assembly.validate()?;
        Ok(assembly)
    }

    fn parse_component(el: &Element) -> Result<ComponentInstance, CcmError> {
        let id = el
            .get_attr("id")
            .ok_or_else(|| CcmError::Descriptor("component without id".into()))?
            .to_string();
        let package = el
            .get_attr("package")
            .ok_or_else(|| CcmError::Descriptor(format!("component {id} without package")))?
            .to_string();
        let placement = match el.find("placement") {
            None => Placement::Any,
            Some(p) => match (p.get_attr("node"), p.get_attr("machine")) {
                (Some(node), None) => Placement::Node(node.to_string()),
                (None, Some(machine)) => Placement::Machine(machine.to_string()),
                (None, None) => Placement::Any,
                (Some(_), Some(_)) => {
                    return Err(CcmError::Descriptor(format!(
                        "component {id}: placement cannot name both node and machine"
                    )))
                }
            },
        };
        let mut attributes = Vec::new();
        for attr in el.find_all("attribute") {
            let name = attr
                .get_attr("name")
                .ok_or_else(|| CcmError::Descriptor("attribute without name".into()))?;
            let kind = attr.get_attr("type").unwrap_or("string");
            let value = attr
                .get_attr("value")
                .ok_or_else(|| CcmError::Descriptor(format!("attribute {name} without value")))?;
            attributes.push((name.to_string(), AttrValue::parse(kind, value)?));
        }
        let replicas = match el.find("parallel") {
            None => 1,
            Some(p) => p
                .get_attr("replicas")
                .ok_or_else(|| CcmError::Descriptor("parallel without replicas".into()))?
                .parse::<usize>()
                .map_err(|_| CcmError::Descriptor("bad replicas count".into()))?,
        };
        if replicas == 0 {
            return Err(CcmError::Descriptor(format!(
                "component {id}: replicas must be at least 1"
            )));
        }
        Ok(ComponentInstance {
            id,
            package,
            placement,
            attributes,
            replicas,
        })
    }

    fn parse_connection(el: &Element) -> Result<Connection, CcmError> {
        let id = el.get_attr("id").unwrap_or("conn").to_string();
        let provides = el
            .find("provides")
            .ok_or_else(|| CcmError::Descriptor(format!("connection {id} without <provides>")))?;
        let uses = el
            .find("uses")
            .ok_or_else(|| CcmError::Descriptor(format!("connection {id} without <uses>")))?;
        let attr = |e: &Element, a: &str| -> Result<String, CcmError> {
            e.get_attr(a)
                .map(str::to_string)
                .ok_or_else(|| CcmError::Descriptor(format!("connection {id}: missing {a}")))
        };
        Ok(Connection {
            provider: attr(provides, "component")?,
            facet: attr(provides, "facet")?,
            user: attr(uses, "component")?,
            receptacle: attr(uses, "receptacle")?,
            id,
        })
    }

    fn parse_event_connection(el: &Element) -> Result<EventConnection, CcmError> {
        let id = el.get_attr("id").unwrap_or("event").to_string();
        let publisher = el.find("publisher").ok_or_else(|| {
            CcmError::Descriptor(format!("event-connection {id} without <publisher>"))
        })?;
        let consumer = el.find("consumer").ok_or_else(|| {
            CcmError::Descriptor(format!("event-connection {id} without <consumer>"))
        })?;
        let attr = |e: &Element, a: &str| -> Result<String, CcmError> {
            e.get_attr(a)
                .map(str::to_string)
                .ok_or_else(|| CcmError::Descriptor(format!("event-connection {id}: missing {a}")))
        };
        Ok(EventConnection {
            publisher: attr(publisher, "component")?,
            source: attr(publisher, "source")?,
            consumer: attr(consumer, "component")?,
            sink: attr(consumer, "sink")?,
            id,
        })
    }

    /// Cross-reference validation: unique ids, connections name known
    /// components.
    pub fn validate(&self) -> Result<(), CcmError> {
        let mut seen = std::collections::HashSet::new();
        for c in &self.components {
            if !seen.insert(&c.id) {
                return Err(CcmError::Descriptor(format!(
                    "duplicate component id `{}`",
                    c.id
                )));
            }
        }
        let known = |id: &str| self.components.iter().any(|c| c.id == id);
        for conn in &self.connections {
            for end in [&conn.provider, &conn.user] {
                if !known(end) {
                    return Err(CcmError::Descriptor(format!(
                        "connection `{}` names unknown component `{end}`",
                        conn.id
                    )));
                }
            }
        }
        for conn in &self.event_connections {
            for end in [&conn.publisher, &conn.consumer] {
                if !known(end) {
                    return Err(CcmError::Descriptor(format!(
                        "event-connection `{}` names unknown component `{end}`",
                        conn.id
                    )));
                }
            }
        }
        Ok(())
    }

    /// Instance by id.
    pub fn component(&self, id: &str) -> Option<&ComponentInstance> {
        self.components.iter().find(|c| c.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUPLING: &str = r#"
        <assembly name="coupling">
          <component id="chem" package="chemistry">
            <placement machine="company-x-cluster"/>
            <attribute name="tolerance" type="double" value="0.001"/>
            <attribute name="label" value="run-1"/>
          </component>
          <component id="trans" package="transport">
            <placement node="a0"/>
            <parallel replicas="4"/>
          </component>
          <connection id="c1">
            <provides component="chem" facet="density"/>
            <uses component="trans" receptacle="density"/>
          </connection>
          <event-connection id="e1">
            <publisher component="trans" source="step_done"/>
            <consumer component="chem" sink="steer"/>
          </event-connection>
        </assembly>"#;

    #[test]
    fn parse_full_assembly() {
        let a = Assembly::parse(COUPLING).unwrap();
        assert_eq!(a.name, "coupling");
        assert_eq!(a.components.len(), 2);
        let chem = a.component("chem").unwrap();
        assert_eq!(
            chem.placement,
            Placement::Machine("company-x-cluster".into())
        );
        assert_eq!(chem.replicas, 1);
        assert_eq!(chem.attributes.len(), 2);
        assert_eq!(chem.attributes[0].1, AttrValue::Double(0.001));
        assert_eq!(chem.attributes[1].1, AttrValue::Str("run-1".into()));
        let trans = a.component("trans").unwrap();
        assert_eq!(trans.placement, Placement::Node("a0".into()));
        assert_eq!(trans.replicas, 4);
        assert_eq!(a.connections.len(), 1);
        assert_eq!(a.connections[0].facet, "density");
        assert_eq!(a.event_connections.len(), 1);
        assert_eq!(a.event_connections[0].sink, "steer");
    }

    #[test]
    fn default_placement_is_any() {
        let a = Assembly::parse(r#"<assembly name="x"><component id="c" package="p"/></assembly>"#)
            .unwrap();
        assert_eq!(a.component("c").unwrap().placement, Placement::Any);
        assert_eq!(a.component("c").unwrap().replicas, 1);
    }

    #[test]
    fn validation_catches_dangling_references() {
        let bad = r#"
            <assembly name="x">
              <component id="a" package="p"/>
              <connection id="c">
                <provides component="a" facet="f"/>
                <uses component="ghost" receptacle="r"/>
              </connection>
            </assembly>"#;
        let err = Assembly::parse(bad).unwrap_err();
        assert!(matches!(err, CcmError::Descriptor(msg) if msg.contains("ghost")));
    }

    #[test]
    fn validation_catches_duplicate_ids() {
        let bad = r#"
            <assembly name="x">
              <component id="a" package="p"/>
              <component id="a" package="q"/>
            </assembly>"#;
        assert!(matches!(
            Assembly::parse(bad),
            Err(CcmError::Descriptor(msg)) if msg.contains("duplicate")
        ));
    }

    #[test]
    fn malformed_placement_and_replicas_rejected() {
        let both = r#"
            <assembly name="x">
              <component id="a" package="p"><placement node="n" machine="m"/></component>
            </assembly>"#;
        assert!(Assembly::parse(both).is_err());
        let zero = r#"
            <assembly name="x">
              <component id="a" package="p"><parallel replicas="0"/></component>
            </assembly>"#;
        assert!(Assembly::parse(zero).is_err());
    }

    #[test]
    fn missing_required_attrs_rejected() {
        assert!(
            Assembly::parse(r#"<assembly><component id="a" package="p"/></assembly>"#).is_err()
        );
        assert!(
            Assembly::parse(r#"<assembly name="x"><component package="p"/></assembly>"#).is_err()
        );
        assert!(Assembly::parse(r#"<assembly name="x"><component id="a"/></assembly>"#).is_err());
        assert!(Assembly::parse("<not-assembly/>").is_err());
    }
}
