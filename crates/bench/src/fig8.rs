//! Figure 8: performance between two parallel components (N client nodes
//! invoking N server nodes) over PadicoTM, plus the §4.4 Fast-Ethernet
//! scaling experiment (same shape, Ethernet fabric, Mico and OpenCCM-Java
//! profiles).
//!
//! The workload is the paper's: a parallel component invokes an operation
//! of a second parallel component with a vector of integers as argument;
//! the invoked operation only contains an `MPI_Barrier`. Latency is the
//! small-vector RTT/2 of the collective invocation; aggregate bandwidth
//! moves `N × block` bytes per invocation and divides by the slowest
//! client's one-way time.

use padico_core::dist::{DistSeq, Distribution};
use padico_core::error::GridCcmError;
use padico_core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico_core::parallel::client::ParallelRef;
use padico_core::parallel::wire::ParValue;
use padico_core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico_fabric::topology::single_cluster;
use padico_fabric::FabricKind;
use padico_orb::orb::Orb;
use padico_orb::profile::OrbProfile;
use padico_orb::Ior;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_util::stats::mb_per_s;
use std::sync::Arc;

fn store_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Bench/Store:1.0".into(),
        ops: vec![OpDef::new(
            "store",
            vec![ArgDef::new("values", ParamKind::Sequence)],
            None,
        )],
    }
}

const STORE_PAR_XML: &str = r#"
    <parallelism interface="IDL:Bench/Store:1.0">
      <operation name="store">
        <argument index="0" distribution="block"/>
      </operation>
    </parallelism>"#;

/// The paper's server operation: receive the vector, run `MPI_Barrier`.
struct StoreServant;

impl ParallelServant for StoreServant {
    fn repository_id(&self) -> &str {
        "IDL:Bench/Store:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        debug_assert_eq!(op, "store");
        let _local = args.dist(0)?;
        if let Some(comm) = &ctx.comm {
            comm.barrier()?;
        }
        Ok(None)
    }
}

/// One row of Figure 8.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRow {
    pub nodes: usize,
    pub latency_us: f64,
    pub aggregate_mb_s: f64,
}

/// Run the N→N experiment with the given ORB profile and fabric.
pub fn run_parallel_pair(
    n: usize,
    profile: OrbProfile,
    fabric: FabricKind,
    block_bytes: usize,
    rounds: usize,
) -> ParallelRow {
    let (topo, ids) = single_cluster(2 * n);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(fabric);
    let plan = Arc::new(InterceptionPlan::compile(&store_interface(), STORE_PAR_XML).unwrap());

    // Servers on nodes 0..n with an internal MPI world.
    let server_group: Vec<_> = ids[..n].to_vec();
    let mut server_iors: Vec<Ior> = Vec::with_capacity(n);
    let mut server_orbs = Vec::with_capacity(n);
    for (rank, tm) in tms.iter().enumerate().take(n) {
        let orb = Orb::start(Arc::clone(tm), "fig8", profile.clone(), choice).unwrap();
        let adapter = ParallelAdapter::new(
            Arc::new(StoreServant) as Arc<dyn ParallelServant>,
            Arc::clone(&plan),
        );
        let comm = padico_mpi::init_world(tm, "fig8-srv", server_group.clone(), choice).unwrap();
        adapter.configure(rank, n, Some(comm));
        server_iors.push(orb.activate(adapter));
        server_orbs.push(orb);
    }

    // Clients on nodes n..2n; the client side is itself a parallel
    // component with an internal MPI world, used here to synchronize the
    // ranks between warmup and measurement (otherwise start skew bleeds
    // into the timing).
    let client_group: Vec<_> = ids[n..].to_vec();
    let elems_per_rank = (block_bytes / 4).max(1);
    let global_elems = (elems_per_rank * n) as u64;
    let mut handles = Vec::with_capacity(n);
    for rank in 0..n {
        let tm = Arc::clone(&tms[n + rank]);
        let profile = profile.clone();
        let plan = Arc::clone(&plan);
        let server_iors = server_iors.clone();
        let client_group = client_group.clone();
        handles.push(std::thread::spawn(move || {
            let orb = Orb::start(tm.clone(), "fig8c", profile, choice).unwrap();
            let comm = padico_mpi::init_world(&tm, "fig8-cli-world", client_group, choice).unwrap();
            let replicas = server_iors
                .into_iter()
                .map(|ior| orb.object_ref(ior))
                .collect();
            let client = ParallelRef::new("fig8-cli", plan, replicas, rank, n).unwrap();
            let local_vals = vec![7i32; elems_per_rank];
            let local =
                DistSeq::from_i32_local(global_elems, Distribution::Block, rank, n, &local_vals)
                    .unwrap();
            // Warmup (connection + first invocation), then line the ranks
            // up before the timed window.
            client
                .invoke("store", vec![ParValue::Dist(local.clone())])
                .unwrap();
            comm.barrier().unwrap();
            let clock = tm.clock();
            let start = clock.now();
            for _ in 0..rounds {
                client
                    .invoke("store", vec![ParValue::Dist(local.clone())])
                    .unwrap();
            }
            clock.now() - start
        }));
    }
    let elapsed: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let slowest = *elapsed.iter().max().unwrap();
    let one_way_ns = slowest as f64 / rounds as f64 / 2.0;
    let latency_us = one_way_ns / 1_000.0;
    // The argument travels one way and the reply is empty, so aggregate
    // bandwidth divides by the full round-trip time (unlike the echo
    // benchmarks, where data crosses twice).
    let bytes_per_round = elems_per_rank * 4 * n;
    let aggregate_mb_s = mb_per_s(bytes_per_round * rounds, slowest.max(1));
    ParallelRow {
        nodes: n,
        latency_us,
        aggregate_mb_s,
    }
}

/// Figure 8 (Myrinet, Mico-based, as in the paper): latency rows use a
/// tiny vector, bandwidth rows a large one.
pub fn run_figure8(rounds: usize) -> Vec<(ParallelRow, ParallelRow)> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let latency = run_parallel_pair(
                n,
                OrbProfile::mico(),
                FabricKind::Myrinet,
                4, // one int per rank
                rounds,
            );
            let bandwidth = run_parallel_pair(
                n,
                OrbProfile::mico(),
                FabricKind::Myrinet,
                512 << 10,
                rounds,
            );
            (latency, bandwidth)
        })
        .collect()
}

/// §4.4 Fast-Ethernet scaling: aggregate bandwidth from 1→1 to 8→8 for
/// the Mico-based and Java (OpenCCM) CCM platforms.
pub fn run_fastethernet(rounds: usize) -> Vec<(usize, f64, f64)> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let mico = run_parallel_pair(
                n,
                OrbProfile::mico(),
                FabricKind::Ethernet,
                256 << 10,
                rounds,
            );
            let java = run_parallel_pair(
                n,
                OrbProfile::java_like(),
                FabricKind::Ethernet,
                256 << 10,
                rounds,
            );
            (n, mico.aggregate_mb_s, java.aggregate_mb_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_shape_bandwidth_aggregates_and_latency_grows_slowly() {
        let r1 = run_parallel_pair(1, OrbProfile::mico(), FabricKind::Myrinet, 512 << 10, 4);
        let r4 = run_parallel_pair(4, OrbProfile::mico(), FabricKind::Myrinet, 512 << 10, 4);
        // 1→1 anchor: paper says 43 MB/s.
        assert!(
            (36.0..52.0).contains(&r1.aggregate_mb_s),
            "1→1 aggregate {:.1} MB/s vs paper 43",
            r1.aggregate_mb_s
        );
        // Aggregation: 4→4 should approach 4× the 1→1 value (paper:
        // 144/43 ≈ 3.3). Timelines place reservations by virtual arrival
        // time (DESIGN.md §6), so the ratio is stable run to run; the
        // remaining shortfall is the serialized per-request GridCCM and
        // protocol work.
        let ratio = r4.aggregate_mb_s / r1.aggregate_mb_s;
        assert!(
            ratio > 2.2,
            "4→4 / 1→1 bandwidth ratio {ratio:.2}, paper shows ≈3.3"
        );

        let l1 = run_parallel_pair(1, OrbProfile::mico(), FabricKind::Myrinet, 4, 3);
        let l4 = run_parallel_pair(4, OrbProfile::mico(), FabricKind::Myrinet, 4, 3);
        // 1→1 latency ≈ Mico latency (paper: 62 µs) + GridCCM layer.
        assert!(
            (55.0..85.0).contains(&l1.latency_us),
            "1→1 latency {:.1} µs vs paper 62",
            l1.latency_us
        );
        // Latency grows with N (barrier + fan-out) but far sub-linearly.
        assert!(l4.latency_us > l1.latency_us);
        assert!(
            l4.latency_us < 3.0 * l1.latency_us,
            "4→4 latency {:.1} should grow slowly vs {:.1}",
            l4.latency_us,
            l1.latency_us
        );
    }

    #[test]
    fn fastethernet_anchors() {
        let m1 = run_parallel_pair(1, OrbProfile::mico(), FabricKind::Ethernet, 256 << 10, 2);
        assert!(
            (8.3..11.3).contains(&m1.aggregate_mb_s),
            "MicoCCM 1→1 on Fast-Ethernet {:.2} MB/s vs paper 9.8",
            m1.aggregate_mb_s
        );
        let j1 = run_parallel_pair(
            1,
            OrbProfile::java_like(),
            FabricKind::Ethernet,
            256 << 10,
            2,
        );
        assert!(
            (7.0..9.6).contains(&j1.aggregate_mb_s),
            "OpenCCM 1→1 on Fast-Ethernet {:.2} MB/s vs paper 8.3",
            j1.aggregate_mb_s
        );
        assert!(m1.aggregate_mb_s > j1.aggregate_mb_s, "C++ beats Java CCM");
    }
}
