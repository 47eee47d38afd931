//! # padico-ccm
//!
//! A CORBA-Component-Model-style component framework on top of the mini
//! ORB — the substrate GridCCM extends. The paper leans on CCM because it
//! "manages the whole life cycle of a component" (§3.2); this crate
//! implements the pieces that life cycle needs:
//!
//! * [`component`] — the **abstract model**: components with facets,
//!   receptacles (single and multiplex), event sources/sinks and
//!   attributes ([`component::CcmComponent`], [`component::PortRegistry`]);
//! * [`container`] — the **execution model**: containers host component
//!   instances on a node, activate their facets and event sinks on the
//!   ORB, expose the component's equivalent-interface operations
//!   (`provide_facet`, `connect`, `configuration_complete`, …) remotely,
//!   and drive the lifecycle;
//! * [`home`] — component homes (factories), exposed as CORBA objects;
//! * [`package`] — the **deployment model**'s software packages: a flat
//!   `.car` archive (stand-in for CCM's ZIP) holding the OSD-style XML
//!   descriptor and a factory symbol standing in for the binary, plus the
//!   localization constraints of the paper's "company X" scenario;
//! * [`assembly`] — CAD-style assembly descriptors (components,
//!   placements, connections, attribute settings) parsed from XML;
//! * [`naming`] — a minimal naming service used for machine discovery;
//! * [`deploy`] — node daemons and the deployment engine: discover
//!   machines, match placement + localization constraints, instantiate
//!   components through homes, wire connections, broadcast
//!   `configuration_complete`;
//! * [`events`] — the event channel: sources push to subscribed sinks
//!   through oneway invocations.

pub mod assembly;
pub mod component;
pub mod container;
pub mod deploy;
pub mod error;
pub mod events;
pub mod home;
pub mod naming;
pub mod package;

pub use component::{
    AttrValue, CcmComponent, ComponentContext, ComponentDescriptor, PortDesc, PortKind,
    PortRegistry,
};
pub use container::Container;
pub use error::CcmError;
pub use events::Event;
