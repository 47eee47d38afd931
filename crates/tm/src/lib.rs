//! # padico-tm — the PadicoTM communication runtime
//!
//! PadicoTM is the paper's answer to running several middleware systems
//! (CORBA, MPI, SOAP, …) *in the same process* over heterogeneous grid
//! networks without conflicts. It is a three-level runtime
//! (paper §4.3, Figure 6):
//!
//! 1. **Arbitration layer** ([`arbitration`]) — the *only* client of the
//!    low-level network resources. It attaches once per node to every
//!    fabric, multiplexes logical channels over each attachment, and hands
//!    every node's inbound traffic to one world-wide progress engine so
//!    that concurrent middleware polling loops cooperate instead of
//!    competing.
//! 2. **Abstraction layer** ([`driver`], [`circuit`], [`vlink`],
//!    [`selector`]) — two paradigm-true interfaces offered on top of
//!    *every* arbitrated driver: [`circuit::Circuit`] (parallel-oriented:
//!    static group, logical ranks, messages) and [`vlink::VLinkStream`]
//!    (distributed-oriented: dynamic streams). Both are thin adapters
//!    over one shared link state machine, [`driver::LinkCore`], which
//!    owns route selection, retry/backoff, cross-paradigm failover and
//!    span emission exactly once; the [`driver::ArbitratedDriver`] trait
//!    is the upward-facing capability API. Mappings can be *straight*
//!    (Circuit on Myrinet) or *cross-paradigm* (VLink on Myrinet, Circuit
//!    on sockets); the [`selector`] picks the best fabric automatically
//!    and transparently.
//! 3. **Personality layer** ([`personality`]) — thin syntax adapters that
//!    make Circuit look like Madeleine or FastMessages and VLink look like
//!    BSD sockets or POSIX AIO, so legacy middleware ports run unchanged.
//!
//! Middleware systems themselves are dynamically loadable [`module`]s.
//!
//! Entry point: [`runtime::PadicoTM`], one instance per grid node.

pub mod arbitration;
pub mod circuit;
pub mod driver;
pub mod error;
pub mod faults;
pub mod module;
pub mod personality;
pub mod runtime;
pub mod security;
pub mod selector;
pub mod vlink;

pub use arbitration::{ChannelHandler, ChannelRx, NetAccess, NodeCell, TM_SERVICE_PORT};
pub use circuit::{Circuit, CircuitSpec};
pub use driver::{ArbitratedDriver, LinkCore};
pub use error::TmError;
pub use faults::{is_retryable, RetryPolicy};
pub use module::{ModuleManager, PadicoModule};
pub use padico_util::span::TraceSampling;
pub use runtime::{BreakerPolicy, CoalescePolicy, PadicoTM, TmConfig};
pub use selector::{FabricChoice, Route};
pub use vlink::{VLinkListener, VLinkStream};
