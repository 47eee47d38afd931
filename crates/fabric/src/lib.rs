//! # padico-fabric
//!
//! Simulated network hardware for the Padico grid.
//!
//! The paper's testbed had Myrinet-2000 SANs (driven through BIP/GM via
//! Madeleine), switched Ethernet-100 (TCP), and mentions SCI. None of that
//! hardware is available here, so this crate provides *fabric drivers* that
//! reproduce the behaviours the paper's results depend on:
//!
//! * every message **really moves its bytes** between endpoint queues
//!   (payloads are segmented [`bytes::Bytes`] hand-offs, so a zero-copy
//!   middleware path genuinely avoids copies and a copying path genuinely
//!   pays for them), and
//! * every message is **charged virtual time** according to a calibrated
//!   [`model::LinkModel`]: per-message host overhead, per-packet overhead,
//!   line rate, propagation latency, kernel-copy crossings, rendezvous
//!   round-trips, and NIC serialization through
//!   [`padico_util::simtime::ResourceTimeline`]s.
//!
//! The quirks that make multi-middleware arbitration *necessary* in the
//! paper are modelled too: Myrinet-style fabrics grant **exclusive** NIC
//! access (a second raw client on the same node is refused, like BIP/GM),
//! and SCI-style fabrics have a **bounded mapping table**. PadicoTM's
//! arbitration layer (crate `padico-tm`) is the component that turns these
//! exclusive resources into cooperatively shared ones.

pub mod error;
pub mod fabric;
pub mod faults;
pub mod model;
pub mod payload;
pub mod presets;
pub mod sched;
pub mod topology;

pub use error::FabricError;
pub use fabric::{
    AccessMode, EndpointAddr, FabricEndpoint, FabricKind, Message, MessageSink, Paradigm, PortSink,
    SimFabric,
};
pub use faults::{FaultInjector, FaultPlan, FaultSnapshot};
pub use model::LinkModel;
pub use payload::{pool, Payload};
pub use sched::{LaneSample, NodeHandler, NodeStep, SchedStats, WorldSched};
pub use topology::{NodeInfo, NodeName, SecurityZone, Topology, TopologyBuilder};
