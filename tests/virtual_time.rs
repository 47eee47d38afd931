//! Cross-crate virtual-time invariants: determinism, cost ordering across
//! fabrics, and the encryption toggle — the properties the experiment
//! harness relies on.

use bytes::Bytes;
use padico::fabric::topology::{single_cluster, two_clusters_wan};
use padico::fabric::FabricKind;
#[allow(unused_imports)]
use padico::fabric::Topology;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::orb::Orb;
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::runtime::PadicoTM;
use padico::tm::selector::FabricChoice;
use std::sync::Arc;

struct Echo;

impl Servant for Echo {
    fn repository_id(&self) -> &str {
        "IDL:Vt/Echo:1.0"
    }

    fn dispatch(
        &self,
        _op: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        let blob = args.read_octet_seq()?;
        reply.write_octet_seq(blob);
        Ok(())
    }
}

/// A 2-node cluster wired with every SAN/LAN technology (single_cluster
/// omits SCI, which the ordering test needs).
fn all_fabrics_cluster() -> padico::fabric::Topology {
    use padico::fabric::{presets, SecurityZone, Topology};
    let mut b = Topology::builder();
    let ids = b.machine("n", "cluster", 2, SecurityZone::Trusted);
    b.fabric(presets::myrinet2000(), ids.clone());
    b.fabric(presets::sci(), ids.clone());
    b.fabric(presets::ethernet100(), ids.clone());
    b.fabric(presets::shmem(), ids);
    b.build()
}

/// Virtual cost (ns) of a CORBA echo round trip over the chosen fabric.
fn echo_cost(choice: FabricChoice, size: usize, cross_cluster: bool) -> u64 {
    let (tms, a, b) = if cross_cluster {
        let (topo, ca, cb) = two_clusters_wan(1);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        (tms, ca[0].0 as usize, cb[0].0 as usize)
    } else {
        let tms = PadicoTM::boot_all(Arc::new(all_fabrics_cluster())).unwrap();
        (tms, 0, 1)
    };
    let client = Orb::start(Arc::clone(&tms[a]), "vt", OrbProfile::omniorb3(), choice).unwrap();
    let server = Orb::start(Arc::clone(&tms[b]), "vt", OrbProfile::omniorb3(), choice).unwrap();
    let obj = client.object_ref(server.activate(Arc::new(Echo)));
    let blob = Bytes::from(vec![9u8; size]);
    // Warmup (connection handshake).
    obj.request("echo")
        .arg_octet_seq(blob.clone())
        .invoke()
        .unwrap()
        .read_octet_seq()
        .unwrap();
    let clock = tms[a].clock();
    let start = clock.now();
    obj.request("echo")
        .arg_octet_seq(blob)
        .invoke()
        .unwrap()
        .read_octet_seq()
        .unwrap();
    clock.now() - start
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    let size = 128 << 10;
    let a = echo_cost(FabricChoice::Kind(FabricKind::Myrinet), size, false);
    let b = echo_cost(FabricChoice::Kind(FabricKind::Myrinet), size, false);
    assert_eq!(a, b, "two fresh single-flow runs must cost identically");
}

#[test]
fn fabric_cost_ordering_matches_the_hardware() {
    let size = 128 << 10;
    let shmem = echo_cost(FabricChoice::Kind(FabricKind::Shmem), size, false);
    let myrinet = echo_cost(FabricChoice::Kind(FabricKind::Myrinet), size, false);
    let sci = echo_cost(FabricChoice::Kind(FabricKind::Sci), size, false);
    let ethernet = echo_cost(FabricChoice::Kind(FabricKind::Ethernet), size, false);
    let wan = echo_cost(FabricChoice::Auto, size, true); // only route is the WAN
    assert!(
        shmem < myrinet && myrinet < sci && sci < ethernet && ethernet < wan,
        "cost ordering violated: shmem {shmem} < myrinet {myrinet} < sci {sci} \
         < ethernet {ethernet} < wan {wan}"
    );
}

#[test]
fn encryption_is_paid_only_on_untrusted_routes() {
    // Same payload; the WAN route pays the cipher on top of the slower
    // wire, and the cipher alone is a measurable share.
    let size = 256 << 10;
    let trusted = echo_cost(FabricChoice::Kind(FabricKind::Ethernet), size, false);
    let untrusted = echo_cost(FabricChoice::Auto, size, true);
    // Cipher at 18 MB/s on 2×256 KiB ≈ 29 ms (both directions, both ends
    // decrypt): the WAN run must exceed the Ethernet run by far more than
    // the line-rate difference alone (2.5 vs 11.2 MB/s ≈ 4.5×).
    assert!(
        untrusted > 4 * trusted,
        "untrusted {untrusted} vs trusted {trusted}"
    );
}

#[test]
fn auto_selection_picks_the_cheapest_fabric() {
    // With Auto on a single cluster, the selector must do at least as
    // well as the best explicit choice.
    let size = 64 << 10;
    let auto = echo_cost(FabricChoice::Auto, size, false);
    let shmem = echo_cost(FabricChoice::Kind(FabricKind::Shmem), size, false);
    assert_eq!(auto, shmem, "Auto should ride the fastest fabric (shmem)");
}

#[test]
fn mpi_and_corba_costs_are_consistent_between_stacks() {
    // MPI ping-pong and CORBA echo over the same fabric with the same
    // payload must land within 2× of each other (they share the fabric
    // model; the ORB adds protocol weight).
    use padico::fabric::Payload;
    let size = 256 << 10;
    let corba = echo_cost(FabricChoice::Kind(FabricKind::Myrinet), size, false);

    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(FabricKind::Myrinet);
    let c0 = padico::mpi::init_world(&tms[0], "vt", ids.clone(), choice).unwrap();
    let c1 = padico::mpi::init_world(&tms[1], "vt", ids, choice).unwrap();
    let echo = std::thread::spawn(move || {
        for _ in 0..2 {
            let (_s, payload) = c1.recv_bytes(0, 0).unwrap();
            c1.send_bytes(0, 0, payload).unwrap();
        }
    });
    let payload = Payload::from_vec(vec![1u8; size]);
    c0.send_bytes(1, 0, payload.clone()).unwrap();
    c0.recv_bytes(1, 0).unwrap();
    let clock = tms[0].clock();
    let start = clock.now();
    c0.send_bytes(1, 0, payload).unwrap();
    c0.recv_bytes(1, 0).unwrap();
    let mpi = clock.now() - start;
    echo.join().unwrap();

    assert!(
        corba < 2 * mpi && mpi < corba,
        "CORBA {corba} and MPI {mpi} should be close, CORBA slightly heavier"
    );
}
