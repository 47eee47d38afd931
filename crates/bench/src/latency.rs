//! §4.4 latency table: small-message one-way latency (RTT/2) of MPI and
//! each CORBA implementation over Myrinet-2000 on PadicoTM.
//!
//! Paper anchors: MPI 11 µs, omniORB 20 µs, ORBacus 54 µs, Mico 62 µs.

use crate::probe::{MpiProbe, OrbProbe, Probe};
use bytes::Bytes;
use padico_fabric::FabricKind;
use padico_orb::orb::WireProtocol;
use padico_orb::profile::OrbProfile;

/// One-way latency of an empty CORBA invocation, µs.
pub fn orb_latency_us(profile: OrbProfile, fabric: FabricKind, rounds: usize) -> f64 {
    orb_latency_us_with(profile, fabric, rounds, WireProtocol::Giop)
}

/// Same, choosing the client wire protocol (GIOP vs the ESIOP fast path
/// the paper anticipates in §4.4).
pub fn orb_latency_us_with(
    profile: OrbProfile,
    fabric: FabricKind,
    rounds: usize,
    protocol: WireProtocol,
) -> f64 {
    OrbProbe::new(profile, fabric, protocol).one_way_us(&Bytes::new(), rounds)
}

/// One-way latency of a 4-byte MPI ping-pong, µs.
pub fn mpi_latency_us(fabric: FabricKind, rounds: usize) -> f64 {
    let rig = MpiProbe::new(fabric);
    let four = Bytes::from(vec![0u8; 4]);
    rig.round_trip(&four); // warmup
    rig.one_way_us(&four, rounds)
}

/// The full latency table: `(label, measured µs, paper µs)`.
pub fn run(rounds: usize) -> Vec<(String, f64, &'static str)> {
    vec![
        (
            "MPI / Myrinet-2000".into(),
            mpi_latency_us(FabricKind::Myrinet, rounds),
            "11 µs",
        ),
        (
            "omniORB-3 / Myrinet-2000".into(),
            orb_latency_us(OrbProfile::omniorb3(), FabricKind::Myrinet, rounds),
            "20 µs",
        ),
        (
            "omniORB-4 / Myrinet-2000".into(),
            orb_latency_us(OrbProfile::omniorb4(), FabricKind::Myrinet, rounds),
            "≈20 µs",
        ),
        (
            "ORBacus / Myrinet-2000".into(),
            orb_latency_us(OrbProfile::orbacus(), FabricKind::Myrinet, rounds),
            "54 µs",
        ),
        (
            "Mico / Myrinet-2000".into(),
            orb_latency_us(OrbProfile::mico(), FabricKind::Myrinet, rounds),
            "62 µs",
        ),
        (
            "omniORB-3 + ESIOP / Myrinet-2000".into(),
            orb_latency_us_with(
                OrbProfile::omniorb3(),
                FabricKind::Myrinet,
                rounds,
                WireProtocol::Esiop,
            ),
            "< 20 µs (anticipated)",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_anchors_within_15_percent() {
        let mpi = mpi_latency_us(FabricKind::Myrinet, 10);
        assert!((9.3..12.7).contains(&mpi), "MPI {mpi} µs vs paper 11");
        let omni = orb_latency_us(OrbProfile::omniorb3(), FabricKind::Myrinet, 10);
        assert!(
            (17.0..23.0).contains(&omni),
            "omniORB {omni} µs vs paper 20"
        );
        let orbacus = orb_latency_us(OrbProfile::orbacus(), FabricKind::Myrinet, 10);
        assert!(
            (46.0..62.0).contains(&orbacus),
            "ORBacus {orbacus} µs vs paper 54"
        );
        let mico = orb_latency_us(OrbProfile::mico(), FabricKind::Myrinet, 10);
        assert!((53.0..71.0).contains(&mico), "Mico {mico} µs vs paper 62");
        // Ordering.
        assert!(mpi < omni && omni < orbacus && orbacus < mico);
    }
}
