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

use crate::probe::{Probe, VLinkProbe};
use bytes::Bytes;
use padico_fabric::FabricKind;

/// Ping-pong `(latency_us, bandwidth_mb_s)` of one layer's rig: 4 B
/// round trips for latency, 1 MiB ones for bandwidth.
pub fn layer_pingpong(rig: &dyn Probe, rounds: usize) -> (f64, f64) {
    let small = Bytes::from(vec![0u8; 4]);
    let large = Bytes::from(vec![0u8; 1 << 20]);
    (
        rig.one_way_us(&small, rounds),
        rig.bandwidth_mb_s(&large, rounds),
    )
}

/// Cross-paradigm check: VLink (distributed abstraction) bandwidth over a
/// parallel fabric vs its native socket fabric.
pub fn vlink_bandwidth(fabric: FabricKind, rounds: usize) -> f64 {
    VLinkProbe::new(fabric).bandwidth_mb_s(&Bytes::from(vec![0u8; 1 << 20]), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{CircuitProbe, FabricProbe, MpiProbe};

    #[test]
    fn padicotm_adds_no_significant_overhead() {
        // The §4.4 claim: MPI on PadicoTM ≈ the low-level baseline.
        let (raw_lat, raw_bw) = layer_pingpong(&FabricProbe::new(FabricKind::Myrinet), 5);
        let (mpi_lat, mpi_bw) = layer_pingpong(&MpiProbe::new(FabricKind::Myrinet), 5);
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
        let (circ_lat, circ_bw) = layer_pingpong(&CircuitProbe::new(FabricKind::Myrinet), 5);
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
