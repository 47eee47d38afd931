//! The five workloads. Each is a closed loop: Padico's callers are coupled
//! codes that wait for their reply before they issue the next request.

pub mod coexist;
pub mod gridccm;
pub mod rpc;
pub mod world;

use crate::harness::{Params, Phases};

/// Called by a workload when its generators are about to start: fixes the
/// warm-up/window timeline (and starts the traced run's process monitor).
pub type Begin<'a> = &'a mut dyn FnMut(&Params) -> Phases;

/// Set up `workload` exactly as its measured run does, report the seconds
/// it took, and do nothing else.
pub fn setup_only(workload: &str, seed: u64) -> Option<f64> {
    Some(match workload {
        "rpc_pingpong" | "rpc_pipelined" => rpc::setup(seed).1,
        "gridccm_coupling" => gridccm::setup(seed).1,
        "coexist_mpi_corba" => coexist::setup(seed).1,
        "world_ring" => world::setup(seed).1,
        _ => return None,
    })
}
