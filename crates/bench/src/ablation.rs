//! Ablations for the §4.3 design claims.
//!
//! * **No added overhead**: the paper says MPI on PadicoTM "is very
//!   similar to MPICH/Madeleine … PadicoTM adds no significant overhead
//!   neither for bandwidth nor for latency". We compare raw-fabric
//!   ping-pong (the Madeleine-level baseline) against the same exchange
//!   through the full arbitration + Circuit + MPI stack.
//! * **Cross-paradigm mappings**: Circuit over sockets and VLink over
//!   Myrinet both work and their costs come from the fabric, not the
//!   abstraction (the "no bottleneck of features" claim).
//! * **Security toggle**: the §6 optimization — disabling encryption
//!   inside a trusted SAN — quantified.

use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricKind, Payload};
use padico_mpi::init_world;
use padico_tm::circuit::CircuitSpec;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_util::ids::ChannelId;
use padico_util::simtime::SimClock;
use padico_util::stats::mb_per_s;
use std::sync::Arc;

/// Layer under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Direct fabric endpoints (the Madeleine-level baseline).
    RawFabric,
    /// PadicoTM arbitration + Circuit abstraction.
    Circuit,
    /// Full MPI on top.
    Mpi,
}

/// Ping-pong `(latency_us, bandwidth_mb_s)` of one layer over one fabric.
pub fn layer_pingpong(layer: Layer, fabric_kind: FabricKind, rounds: usize) -> (f64, f64) {
    let small = 4usize;
    let large = 1 << 20;
    match layer {
        Layer::RawFabric => {
            let (topo, ids) = single_cluster(2);
            let fabric = topo
                .fabrics()
                .iter()
                .find(|f| f.kind() == fabric_kind)
                .unwrap()
                .clone();
            let a = fabric.attach(ids[0], "bench").unwrap();
            let b = fabric.attach(ids[1], "bench").unwrap();
            let ca = SimClock::new();
            let cb = SimClock::new();
            let pingpong = |size: usize| -> u64 {
                let payload = vec![0u8; size];
                let start = ca.now();
                for _ in 0..rounds {
                    a.send(
                        &ca,
                        b.addr(),
                        ChannelId(1),
                        Payload::from_vec(payload.clone()),
                    )
                    .unwrap();
                    let msg = b.recv(&cb).unwrap();
                    b.send(&cb, a.addr(), ChannelId(1), msg.payload).unwrap();
                    a.recv(&ca).unwrap();
                }
                ca.now() - start
            };
            let lat = pingpong(small) as f64 / rounds as f64 / 2.0 / 1_000.0;
            let bw_elapsed = pingpong(large);
            (lat, mb_per_s(2 * large * rounds, bw_elapsed))
        }
        Layer::Circuit => {
            let (topo, ids) = single_cluster(2);
            let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
            let spec = CircuitSpec::new("abl", ids).with_choice(FabricChoice::Kind(fabric_kind));
            let c0 = tms[0].circuit(spec.clone()).unwrap();
            let c1 = Arc::new(tms[1].circuit(spec).unwrap());
            let clock = tms[0].clock().clone();
            let pingpong = |size: usize| -> u64 {
                let payload = vec![0u8; size];
                let echo = std::thread::spawn({
                    let payload = payload.clone();
                    let c1 = Arc::clone(&c1);
                    move || {
                        for _ in 0..rounds {
                            c1.recv().unwrap();
                            c1.send(0, 0, Payload::from_vec(payload.clone())).unwrap();
                            // The echo is this side's protocol barrier:
                            // nothing else will flush a coalesced reply
                            // (the pinger is already blocked in recv).
                            c1.flush().unwrap();
                        }
                    }
                });
                let start = clock.now();
                for _ in 0..rounds {
                    c0.send(1, 0, Payload::from_vec(payload.clone())).unwrap();
                    c0.recv().unwrap();
                }
                let elapsed = clock.now() - start;
                echo.join().unwrap();
                elapsed
            };
            let lat = pingpong(small) as f64 / rounds as f64 / 2.0 / 1_000.0;
            let bw_elapsed = pingpong(large);
            (lat, mb_per_s(2 * large * rounds, bw_elapsed))
        }
        Layer::Mpi => {
            let (topo, ids) = single_cluster(2);
            let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
            let choice = FabricChoice::Kind(fabric_kind);
            let comm0 = init_world(&tms[0], "abl", ids.clone(), choice).unwrap();
            let comm1 = init_world(&tms[1], "abl", ids, choice).unwrap();
            let clock = tms[0].clock().clone();
            let pingpong = |size: usize| -> u64 {
                let payload = vec![0u8; size];
                let echo = std::thread::spawn({
                    let comm1 = comm1.clone();
                    let payload = payload.clone();
                    move || {
                        for _ in 0..rounds {
                            comm1.recv_bytes(0, 0).unwrap();
                            comm1
                                .send_bytes(0, 0, Payload::from_vec(payload.clone()))
                                .unwrap();
                        }
                    }
                });
                let start = clock.now();
                for _ in 0..rounds {
                    comm0
                        .send_bytes(1, 0, Payload::from_vec(payload.clone()))
                        .unwrap();
                    comm0.recv_bytes(1, 0).unwrap();
                }
                let elapsed = clock.now() - start;
                echo.join().unwrap();
                elapsed
            };
            let lat = pingpong(small) as f64 / rounds as f64 / 2.0 / 1_000.0;
            let bw_elapsed = pingpong(large);
            (lat, mb_per_s(2 * large * rounds, bw_elapsed))
        }
    }
}

/// Cross-paradigm check: VLink (distributed abstraction) bandwidth over a
/// parallel fabric vs its native socket fabric.
pub fn vlink_bandwidth(fabric: FabricKind, rounds: usize) -> f64 {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let listener = tms[1].vlink_listen("abl").unwrap();
    let size = 1 << 20;
    let echo = std::thread::spawn(move || {
        let s = listener.accept().unwrap();
        for _ in 0..rounds {
            let mut buf = vec![0u8; size];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        }
    });
    let s = tms[0]
        .vlink_connect(tms[1].node(), "abl", FabricChoice::Kind(fabric))
        .unwrap();
    let clock = tms[0].clock();
    let payload = vec![0u8; size];
    let start = clock.now();
    for _ in 0..rounds {
        s.write_all(&payload).unwrap();
        let mut buf = vec![0u8; size];
        s.read_exact(&mut buf).unwrap();
    }
    let elapsed = clock.now() - start;
    echo.join().unwrap();
    mb_per_s(2 * size * rounds, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padicotm_adds_no_significant_overhead() {
        // The §4.4 claim: MPI on PadicoTM ≈ the low-level baseline.
        let (raw_lat, raw_bw) = layer_pingpong(Layer::RawFabric, FabricKind::Myrinet, 5);
        let (mpi_lat, mpi_bw) = layer_pingpong(Layer::Mpi, FabricKind::Myrinet, 5);
        assert!(
            mpi_bw > 0.93 * raw_bw,
            "MPI bandwidth {mpi_bw:.1} should be within 7 % of raw {raw_bw:.1}"
        );
        assert!(
            mpi_lat - raw_lat < 6.0,
            "MPI latency {mpi_lat:.1} adds < 6 µs over raw {raw_lat:.1} \
             (the paper's MPICH/Madeleine comparison shows the same few-µs \
             protocol cost at both levels)"
        );
        let (circ_lat, circ_bw) = layer_pingpong(Layer::Circuit, FabricKind::Myrinet, 5);
        assert!(circ_bw >= mpi_bw * 0.99, "Circuit sits between raw and MPI");
        assert!(circ_lat <= mpi_lat);
    }

    #[test]
    fn cross_paradigm_mapping_costs_come_from_the_fabric() {
        // VLink over Myrinet ≈ Myrinet line rate; VLink over Ethernet ≈
        // Ethernet line rate: the abstraction does not flatten them.
        let over_myrinet = vlink_bandwidth(FabricKind::Myrinet, 3);
        let over_ethernet = vlink_bandwidth(FabricKind::Ethernet, 3);
        assert!(
            over_myrinet > 200.0,
            "VLink/Myrinet {over_myrinet:.1} MB/s keeps SAN speed"
        );
        assert!(
            (8.0..12.5).contains(&over_ethernet),
            "VLink/Ethernet {over_ethernet:.1} MB/s at TCP speed"
        );
        assert!(over_myrinet / over_ethernet > 15.0);
    }
}
