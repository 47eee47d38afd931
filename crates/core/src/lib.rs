//! # padico-core — GridCCM
//!
//! The paper's primary contribution: **parallel CORBA components**. An
//! SPMD code (using MPI internally) is encapsulated in a component whose
//! every node takes part in inter-component communication; a generated
//! interception layer between user code and CORBA stub scatters, gathers
//! and redistributes the distributed arguments (paper §4.2, Figures 3-5).
//! The IDL is not modified, and parallel components interoperate with
//! standard sequential components through proxies.
//!
//! * [`dist`] — block / cyclic / block-cyclic distributed 1-D sequences
//!   ([`dist::DistSeq`]), the `Matrix → MatrixDis` transformation of
//!   Figure 4 (2-D arrays map to sequences of sequences, i.e. row-blocks);
//! * [`redistribute`] — M→N redistribution schedules: which byte ranges
//!   each source rank ships to each destination rank, for any pair of
//!   distributions;
//! * [`paridl`] — the GridCCM "compiler" (Figure 5): consumes an
//!   interface description plus the XML parallelism descriptor and emits
//!   an [`paridl::InterceptionPlan`] — the metadata the runtime
//!   interception layers execute — together with the derived internal
//!   interface;
//! * [`parallel`] — the runtime: client-side interception
//!   ([`parallel::ParallelRef`]) that fans one logical invocation out as
//!   chunked invocations of the derived interface, the server-side
//!   gather/dispatch adapter ([`parallel::ParallelAdapter`]), and the
//!   sequential-client proxy ([`parallel::proxy`]);
//! * [`grid_deploy`] — deployment of assemblies containing parallel
//!   components (placement of replicas, MPI world setup, parallel
//!   connection wiring);
//! * [`padico`] — the top-level façade ([`padico::Grid`]): boot a whole
//!   simulated grid (topology → PadicoTM → ORBs → containers → daemons →
//!   naming) in one call;
//! * [`observability`] — one merged snapshot of spans, latency
//!   histograms, byte counters, recovery totals and schedule-cache
//!   stats, with Perfetto export and critical-path analysis.

pub mod dist;
pub mod dist2d;
pub mod error;
pub mod grid_deploy;
pub mod observability;
pub mod padico;
pub mod parallel;
pub mod paridl;
pub mod redistribute;

pub use dist::{DistSeq, Distribution};
pub use dist2d::DistMatrix;
pub use error::GridCcmError;
pub use padico::Grid;
pub use parallel::{ParallelAdapter, ParallelRef, ParallelServant};
pub use paridl::InterceptionPlan;
