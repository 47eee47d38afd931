//! # padico-util
//!
//! Foundation utilities shared by every Padico crate:
//!
//! * [`simtime`] — the deterministic virtual-time substrate. All experiment
//!   figures in the paper are reproduced in virtual time so that the *shape*
//!   of the results (who wins, by what factor, where crossovers fall) is a
//!   function of the modelled mechanisms, not of the host machine.
//! * [`telemetry`] — one world's telemetry handle: it owns that world's
//!   metrics, timeseries windows, span buffers, sampling policy and
//!   recovery totals, so worlds sharing a process never mix.
//! * [`span`] — causally-linked, virtual-time-stamped spans with cross-node
//!   context propagation, a critical-path analyzer and a Chrome-trace
//!   (Perfetto) exporter.
//! * [`metrics`] — named counters and virtual-time histograms (per-layer
//!   latency, bytes on the wire).
//! * [`timeseries`] — the flight recorder's windowed view of the same
//!   observations: counters/histograms folded into fixed-width
//!   virtual-time windows in a bounded ring, so campaigns show *when*
//!   sheds, breaker trips, steals and retries happened.
//! * [`stats`] — small statistics helpers for the benchmark harness
//!   (mean, percentiles, throughput conversion).
//! * [`xml`] — a minimal XML parser/writer. CCM deployment descriptors are
//!   XML documents (OSD/CAD vocabularies); no XML crate is on the allowed
//!   dependency list, so we implement the subset we need.
//! * [`rng`] — seeded deterministic RNG plumbing for workload generators.
//! * [`ids`] — small typed identifier helpers used across the workspace.

pub mod ids;
pub mod metrics;
pub mod rng;
pub mod simtime;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod timeseries;
pub mod xml;

pub use simtime::{SimClock, Vt, VtDuration};
pub use telemetry::Telemetry;
