//! Figure 7: bandwidth of MPI and four CORBA implementations over
//! Myrinet-2000 on top of PadicoTM, with TCP/Ethernet-100 as reference.
//!
//! Methodology (as in the paper's era): ping-pong between two nodes; for
//! each message size, bandwidth is `size / (RTT/2)`. CORBA runs an `echo`
//! operation carrying an octet sequence both ways; MPI echoes a tagged
//! message; the TCP reference echoes over a raw VLink socket stream. All
//! timing is virtual, so the curves are deterministic.

use bytes::Bytes;
use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricKind, Payload};
use padico_mpi::init_world;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::Orb;
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::profile::OrbProfile;
use padico_orb::OrbError;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_tm::VLinkListener;
use padico_util::stats::{mb_per_s, size_sweep, Series};
use std::sync::Arc;

/// Message sizes of the sweep (32 B … 1 MiB, as in Figure 7's x-axis).
pub fn sweep() -> Vec<usize> {
    size_sweep(32, 1 << 20)
}

/// Echo servant used by the CORBA curves.
pub struct EchoServant;

impl Servant for EchoServant {
    fn repository_id(&self) -> &str {
        "IDL:Bench/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "echo" => {
                let blob = args.read_octet_seq()?;
                reply.write_octet_seq(blob);
                Ok(())
            }
            "noop" => Ok(()),
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Ping-pong bandwidth of one ORB profile over one fabric.
pub fn orb_bandwidth(
    profile: OrbProfile,
    fabric: FabricKind,
    sizes: &[usize],
    rounds: usize,
) -> Series {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(fabric);
    let client_orb = Orb::start(Arc::clone(&tms[0]), "bench", profile.clone(), choice).unwrap();
    let server_orb = Orb::start(Arc::clone(&tms[1]), "bench", profile.clone(), choice).unwrap();
    let ior = server_orb.activate(Arc::new(EchoServant));
    let obj = client_orb.object_ref(ior);
    // Warm the connection (handshake costs once).
    obj.request("noop").invoke().unwrap();

    let mut series = Series::new(format!("{}/{}", profile.name, fabric));
    let clock = tms[0].clock();
    for &size in sizes {
        let blob = Bytes::from(padico_util::rng::payload(7, "fig7", size));
        // Warmup.
        obj.request("echo")
            .arg_octet_seq(blob.clone())
            .invoke()
            .unwrap()
            .read_octet_seq()
            .unwrap();
        let start = clock.now();
        for _ in 0..rounds {
            let mut reply = obj
                .request("echo")
                .arg_octet_seq(blob.clone())
                .invoke()
                .unwrap();
            reply.read_octet_seq().unwrap();
        }
        let elapsed = clock.now() - start;
        // One-way convention: size / (RTT/2).
        series.push(size, mb_per_s(2 * size * rounds, elapsed));
    }
    series
}

/// Ping-pong bandwidth of the MPI subset over one fabric.
pub fn mpi_bandwidth(fabric: FabricKind, sizes: &[usize], rounds: usize) -> Series {
    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(fabric);
    let comm0 = init_world(&tms[0], "fig7", ids.clone(), choice).unwrap();
    let comm1 = init_world(&tms[1], "fig7", ids, choice).unwrap();

    let mut series = Series::new(format!("MPI/{fabric}"));
    let clock = tms[0].clock().clone();
    for &size in sizes {
        let blob = Bytes::from(padico_util::rng::payload(8, "fig7-mpi", size));
        let echo = {
            let comm1 = comm1.clone();
            let blob = blob.clone();
            std::thread::spawn(move || {
                for _ in 0..rounds + 1 {
                    let (_status, _payload) = comm1.recv_bytes(0, 0).unwrap();
                    comm1
                        .send_bytes(0, 0, Payload::from_bytes(blob.clone()))
                        .unwrap();
                }
            })
        };
        // Warmup round.
        comm0
            .send_bytes(1, 0, Payload::from_bytes(blob.clone()))
            .unwrap();
        comm0.recv_bytes(1, 0).unwrap();
        let start = clock.now();
        for _ in 0..rounds {
            comm0
                .send_bytes(1, 0, Payload::from_bytes(blob.clone()))
                .unwrap();
            comm0.recv_bytes(1, 0).unwrap();
        }
        let elapsed = clock.now() - start;
        echo.join().unwrap();
        series.push(size, mb_per_s(2 * size * rounds, elapsed));
    }
    series
}

/// Ping-pong bandwidth of a raw VLink byte stream (the TCP reference).
pub fn tcp_reference(sizes: &[usize], rounds: usize) -> Series {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    // Reactive echo: each frame bounces back inline on the server node's
    // scheduler worker.
    VLinkListener::on_accept(&tms[1], "echo", |stream| {
        let echo = Arc::clone(&stream);
        stream.on_frames(Arc::new(move |frame| match frame {
            Some(frame) => {
                let _ = echo.write_payload(frame).and_then(|()| echo.flush());
            }
            None => echo.stop_frames(),
        }))
    })
    .unwrap();
    let stream = tms[0]
        .vlink_connect(
            tms[1].node(),
            "echo",
            FabricChoice::Kind(FabricKind::Ethernet),
        )
        .unwrap();
    let clock = tms[0].clock();
    let mut series = Series::new("TCP/Ethernet-100");
    for &size in sizes {
        let blob = padico_util::rng::payload(9, "fig7-tcp", size);
        let roundtrip = |payload: &[u8]| {
            stream.write_all(payload).unwrap();
            let mut buf = vec![0u8; payload.len()];
            stream.read_exact(&mut buf).unwrap();
        };
        roundtrip(&blob); // warmup
        let start = clock.now();
        for _ in 0..rounds {
            roundtrip(&blob);
        }
        let elapsed = clock.now() - start;
        series.push(size, mb_per_s(2 * size * rounds, elapsed));
    }
    stream.close().unwrap();
    series
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
