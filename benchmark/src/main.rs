//! `padico-benchmark`: sustained wall-clock workloads over the Padico
//! stack and an outside-in layer ledger. See `benchmark/README.md`.
//!
//! The process started by `run.sh` only orchestrates: every set-up
//! repetition, every measured workload and every ledger probe runs in a
//! child process of its own (`child …`), because pools, registries and NIC
//! timelines of the stack are process-global and a fresh process is the
//! only clean start.

mod alloc;
mod harness;
mod ledger;
mod orchestrate;
mod rig;
mod spans;
mod stats;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: padico-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR]
workloads: rpc_pingpong rpc_pipelined gridccm_coupling coexist_mpi_corba world_ring";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("child") {
        harness::child_main(&args[1..])
    } else {
        orchestrate::main(&args)
    };
    std::process::exit(code);
}
