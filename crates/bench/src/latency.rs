//! §4.4 latency table: small-message one-way latency (RTT/2) of MPI and
//! each CORBA implementation over Myrinet-2000 on PadicoTM.
//!
//! Paper anchors: MPI 11 µs, omniORB 20 µs, ORBacus 54 µs, Mico 62 µs.

use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricKind, Payload};
use padico_mpi::init_world;
use padico_orb::orb::Orb;
use padico_orb::profile::OrbProfile;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use std::sync::Arc;

use crate::fig7::EchoServant;
use padico_orb::orb::WireProtocol;

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
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(fabric);
    let client = Orb::start_with_protocol(
        Arc::clone(&tms[0]),
        "lat",
        profile.clone(),
        choice,
        protocol,
    )
    .unwrap();
    let server = Orb::start(Arc::clone(&tms[1]), "lat", profile, choice).unwrap();
    let obj = client.object_ref(server.activate(Arc::new(EchoServant)));
    obj.request("noop").invoke().unwrap(); // connection warmup
    let clock = tms[0].clock();
    let start = clock.now();
    for _ in 0..rounds {
        obj.request("noop").invoke().unwrap();
    }
    (clock.now() - start) as f64 / rounds as f64 / 2.0 / 1_000.0
}

/// One-way latency of a 4-byte MPI ping-pong, µs.
pub fn mpi_latency_us(fabric: FabricKind, rounds: usize) -> f64 {
    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(fabric);
    let comm0 = init_world(&tms[0], "lat", ids.clone(), choice).unwrap();
    let comm1 = init_world(&tms[1], "lat", ids, choice).unwrap();
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds + 1 {
            comm1.recv_bytes(0, 0).unwrap();
            comm1
                .send_bytes(0, 0, Payload::from_vec(vec![0u8; 4]))
                .unwrap();
        }
    });
    // Warmup.
    comm0
        .send_bytes(1, 0, Payload::from_vec(vec![0u8; 4]))
        .unwrap();
    comm0.recv_bytes(1, 0).unwrap();
    let clock = tms[0].clock();
    let start = clock.now();
    for _ in 0..rounds {
        comm0
            .send_bytes(1, 0, Payload::from_vec(vec![0u8; 4]))
            .unwrap();
        comm0.recv_bytes(1, 0).unwrap();
    }
    let elapsed = clock.now() - start;
    echo.join().unwrap();
    elapsed as f64 / rounds as f64 / 2.0 / 1_000.0
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
