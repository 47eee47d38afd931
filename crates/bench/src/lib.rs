//! # padico-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§4.4), regenerating the same rows and series in virtual
//! time. Binaries under `src/bin/` print the tables. Wall-clock cost is
//! measured by the separate `benchmark/` harness, not here.
//!
//! | paper artefact | module | binary |
//! |---|---|---|
//! | Figure 7 (bandwidth curves) | [`fig7`] | `fig7_bandwidth` |
//! | §4.4 latency numbers | [`latency`] | `latency_table` |
//! | §4.4 concurrent CORBA+MPI | [`concurrent`] | `concurrent_share` |
//! | Figure 8 (parallel components) | [`fig8`] | `fig8_parallel` |
//! | §4.4 Fast-Ethernet scaling | [`fig8`] (Ethernet config) | `fastethernet_scaling` |
//! | §4.3 no-overhead / layering claims | [`ablation`] | `ablation_layers` |
//!
//! [`probe`] builds the 2-node rig of each layer (raw fabric, Circuit,
//! MPI, ORB, VLink) once; [`fig7`], [`latency`], [`ablation`] and
//! [`concurrent`] read those rigs rather than building their own.
//!
//! `fig7_bandwidth`, `latency_table` and `ablation_layers` print the same
//! bytes on every run; `tests/paper_figures.rs` compares their output
//! with `expected/`.

pub mod ablation;
pub mod concurrent;
pub mod fig7;
pub mod fig8;
pub mod latency;
pub mod probe;
pub mod report;
