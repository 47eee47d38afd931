//! Figure 7: bandwidth of MPI and four CORBA implementations over
//! Myrinet-2000 on top of PadicoTM, with TCP/Ethernet-100 as reference.
//!
//! Methodology (as in the paper's era): ping-pong between two nodes; for
//! each message size, bandwidth is `size / (RTT/2)`. CORBA runs an `echo`
//! operation carrying an octet sequence both ways; MPI echoes a tagged
//! message; the TCP reference echoes over a raw VLink socket stream. All
//! timing is virtual, so the curves are deterministic.

use crate::probe::{MpiProbe, OrbProbe, Probe, VLinkProbe};
use bytes::Bytes;
use padico_fabric::FabricKind;
use padico_orb::orb::WireProtocol;
use padico_orb::profile::OrbProfile;
use padico_util::stats::{size_sweep, Series};

/// Message sizes of the sweep (32 B … 1 MiB, as in Figure 7's x-axis).
pub fn sweep() -> Vec<usize> {
    size_sweep(32, 1 << 20)
}

/// One bandwidth curve read off `rig`: per size, one warm-up round trip,
/// then `rounds` timed ones.
pub fn curve(label: impl Into<String>, rig: &dyn Probe, sizes: &[usize], rounds: usize) -> Series {
    let mut series = Series::new(label);
    for &size in sizes {
        let blob = Bytes::from(padico_util::rng::payload(7, "fig7", size));
        rig.round_trip(&blob);
        series.push(size, rig.bandwidth_mb_s(&blob, rounds));
    }
    series
}

/// Ping-pong bandwidth of one ORB profile over one fabric.
pub fn orb_bandwidth(
    profile: OrbProfile,
    fabric: FabricKind,
    sizes: &[usize],
    rounds: usize,
) -> Series {
    let label = format!("{}/{}", profile.name, fabric);
    curve(
        label,
        &OrbProbe::new(profile, fabric, WireProtocol::Giop),
        sizes,
        rounds,
    )
}

/// Ping-pong bandwidth of the MPI subset over one fabric.
pub fn mpi_bandwidth(fabric: FabricKind, sizes: &[usize], rounds: usize) -> Series {
    curve(
        format!("MPI/{fabric}"),
        &MpiProbe::new(fabric),
        sizes,
        rounds,
    )
}

/// Ping-pong bandwidth of a raw VLink byte stream (the TCP reference).
pub fn tcp_reference(sizes: &[usize], rounds: usize) -> Series {
    let rig = VLinkProbe::new(FabricKind::Ethernet);
    curve("TCP/Ethernet-100", &rig, sizes, rounds)
}

/// The full Figure 7: five Myrinet curves plus the Ethernet reference.
pub fn run(rounds: usize) -> Vec<Series> {
    let sizes = sweep();
    let mut out = Vec::new();
    for profile in [
        OrbProfile::omniorb3(),
        OrbProfile::omniorb4(),
        OrbProfile::mico(),
        OrbProfile::orbacus(),
    ] {
        out.push(orb_bandwidth(profile, FabricKind::Myrinet, &sizes, rounds));
    }
    out.push(mpi_bandwidth(FabricKind::Myrinet, &sizes, rounds));
    out.push(tcp_reference(&sizes, rounds));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_shape_holds() {
        // Reduced sweep, enough to check the peaks and ordering.
        let sizes = vec![32, 4 << 10, 1 << 20];
        let omni = orb_bandwidth(OrbProfile::omniorb3(), FabricKind::Myrinet, &sizes, 3);
        let mico = orb_bandwidth(OrbProfile::mico(), FabricKind::Myrinet, &sizes, 3);
        let orbacus = orb_bandwidth(OrbProfile::orbacus(), FabricKind::Myrinet, &sizes, 3);
        let mpi = mpi_bandwidth(FabricKind::Myrinet, &sizes, 3);
        let tcp = tcp_reference(&sizes, 3);

        // Peak anchors (±10 %).
        let omni_peak = omni.peak();
        assert!(
            (216.0..264.0).contains(&omni_peak),
            "omniORB peak {omni_peak}"
        );
        let mpi_peak = mpi.peak();
        assert!((216.0..264.0).contains(&mpi_peak), "MPI peak {mpi_peak}");
        let mico_peak = mico.peak();
        assert!((49.0..61.0).contains(&mico_peak), "Mico peak {mico_peak}");
        let orbacus_peak = orbacus.peak();
        assert!(
            (56.0..70.0).contains(&orbacus_peak),
            "ORBacus peak {orbacus_peak}"
        );
        let tcp_peak = tcp.peak();
        assert!((9.0..12.5).contains(&tcp_peak), "TCP peak {tcp_peak}");

        // Orderings of the figure.
        assert!(omni_peak > 3.5 * mico_peak, "omniORB ≫ Mico");
        assert!(orbacus_peak > mico_peak, "ORBacus above Mico");
        assert!(mico_peak > 4.0 * tcp_peak, "even Mico beats TCP reference");
        // Curves rise with message size.
        assert!(omni.at(32).unwrap() < omni.at(1 << 20).unwrap());
    }

    #[test]
    fn determinism_of_virtual_time() {
        let sizes = vec![1 << 10];
        let a = orb_bandwidth(OrbProfile::mico(), FabricKind::Myrinet, &sizes, 2);
        let b = orb_bandwidth(OrbProfile::mico(), FabricKind::Myrinet, &sizes, 2);
        assert_eq!(a.points, b.points, "virtual-time runs are reproducible");
    }
}
