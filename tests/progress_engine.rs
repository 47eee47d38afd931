//! Concurrency stress over the unified progress engine (§4.4).
//!
//! A CORBA-style flow (ORB oneway pushes over Ethernet) and an MPI-style
//! flow (circuit sends over Myrinet) target the *same* receiver node on
//! disjoint channels, so every inbound message of both middlewares drains
//! through that node's one step function on the world scheduler. The
//! paper's claim is that arbitration-layer multiplexing costs nothing
//! measurable: each flow's virtual completion latency when both run
//! together must stay within 10 % of its solo run.
//!
//! The two flows are sized to take about the same virtual span (Ethernet
//! ≈11 MB/s vs Myrinet ≈240 MB/s), so they genuinely overlap instead of
//! one finishing while the other has barely started.

use bytes::Bytes;
use padico::fabric::topology::single_cluster;
use padico::fabric::{FabricKind, Payload};
use padico::mpi::{init_world, Communicator};
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::orb::{ObjectRef, Orb};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::runtime::PadicoTM;
use padico::tm::selector::FabricChoice;
use std::sync::Arc;

const PIECE: usize = 64 << 10;
/// Ethernet flow: 6 × 64 KiB ≈ 34 ms of virtual time at ~11 MB/s.
const CORBA_PIECES: usize = 6;
/// Myrinet flow: 128 × 64 KiB ≈ 35 ms of virtual time at ~240 MB/s.
const MPI_PIECES: usize = 128;

struct SinkServant;

impl Servant for SinkServant {
    fn repository_id(&self) -> &str {
        "IDL:Stress/Sink:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        _reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "push" => {
                let blob = args.read_octet_seq()?;
                assert_eq!(blob.len(), PIECE, "CORBA piece arrived truncated");
                Ok(())
            }
            "drain" => Ok(()),
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Nodes: 0 = CORBA client, 1 = MPI sender, 2 = shared receiver (ORB
/// server + MPI rank 1) whose one step function carries both flows.
struct Rig {
    tms: Vec<Arc<PadicoTM>>,
    obj: ObjectRef,
    mpi_tx: Communicator,
    mpi_rx: Communicator,
    blob: Bytes,
}

fn rig() -> Rig {
    let (topo, ids) = single_cluster(3);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let eth = FabricChoice::Kind(FabricKind::Ethernet);
    let myri = FabricChoice::Kind(FabricKind::Myrinet);
    let client_orb =
        Orb::start(Arc::clone(&tms[0]), "stress", OrbProfile::omniorb3(), eth).unwrap();
    let server_orb =
        Orb::start(Arc::clone(&tms[2]), "stress", OrbProfile::omniorb3(), eth).unwrap();
    let obj = client_orb.object_ref(server_orb.activate(Arc::new(SinkServant)));
    obj.request("drain").invoke().unwrap(); // connection warmup
    drop(server_orb); // the ORB's endpoint listener keeps its own Arc
    let group = vec![ids[1], ids[2]];
    let mpi_tx = init_world(&tms[1], "stress", group.clone(), myri).unwrap();
    let mpi_rx = init_world(&tms[2], "stress", group, myri).unwrap();
    Rig {
        tms,
        obj,
        mpi_tx,
        mpi_rx,
        blob: Bytes::from(padico::util::rng::payload(17, "progress", PIECE)),
    }
}

impl Rig {
    /// Run the MPI-style flow; the returned thread yields the flow's
    /// virtual span as seen from the sending node.
    fn run_mpi(&self) -> std::thread::JoinHandle<u64> {
        let rx_comm = self.mpi_rx.clone();
        let rx = std::thread::spawn(move || {
            for _ in 0..MPI_PIECES {
                let (_, piece) = rx_comm.recv_bytes(0, 0).unwrap();
                assert_eq!(piece.len(), PIECE, "MPI piece arrived truncated");
            }
            rx_comm.send_bytes(0, 1, Payload::new()).unwrap(); // fence
        });
        let tx_comm = self.mpi_tx.clone();
        let clock = self.tms[1].clock().share();
        let blob = self.blob.clone();
        std::thread::spawn(move || {
            let start = clock.now();
            for _ in 0..MPI_PIECES {
                tx_comm
                    .send_bytes(1, 0, Payload::from_bytes(blob.clone()))
                    .unwrap();
            }
            tx_comm.recv_bytes(1, 1).unwrap(); // fence
            rx.join().unwrap();
            clock.now() - start
        })
    }

    /// Run the CORBA-style flow; yields the flow's virtual span as seen
    /// from the client node.
    fn run_corba(&self) -> std::thread::JoinHandle<u64> {
        let obj = self.obj.clone();
        let clock = self.tms[0].clock().share();
        let blob = self.blob.clone();
        std::thread::spawn(move || {
            let start = clock.now();
            for _ in 0..CORBA_PIECES {
                obj.request("push")
                    .arg_octet_seq(blob.clone())
                    .invoke_oneway()
                    .unwrap();
            }
            obj.request("drain").invoke().unwrap(); // fence
            clock.now() - start
        })
    }
}

fn within(shared: u64, solo: u64, what: &str) {
    let ratio = shared as f64 / solo as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "{what}: shared span {shared} vs solo {solo} ns ({ratio:.3}×), \
         multiplexing must stay within 10 %"
    );
}

#[test]
fn concurrent_corba_and_mpi_flows_keep_solo_latency() {
    // Solo baselines, each on a fresh grid so clocks start cold.
    let mpi_solo = rig().run_mpi().join().unwrap();
    let corba_solo = rig().run_corba().join().unwrap();

    // Both flows together through the shared receiver's one step
    // function on the world scheduler.
    let r = rig();
    let mpi = r.run_mpi();
    let corba = r.run_corba();
    let mpi_shared = mpi.join().unwrap();
    let corba_shared = corba.join().unwrap();
    // Neither flow got a private reader: every piece of both stepped
    // through the receiver's one cell.
    let steps = r.tms[2].net().cell().steps();
    assert!(
        steps >= (MPI_PIECES + CORBA_PIECES) as u64,
        "receiver cell stepped {steps} events for both flows"
    );

    within(mpi_shared, mpi_solo, "MPI flow");
    within(corba_shared, corba_solo, "CORBA flow");
}

/// The scheduler starts a second worker only on backlog: a 2-node RPC
/// rig, one two-way outstanding at a time, never leaves one, so its
/// world runs on the one worker started at boot whatever the core count.
#[test]
fn a_two_node_rpc_rig_keeps_one_scheduler_worker() {
    let (topo, _) = single_cluster(2);
    let topo = Arc::new(topo);
    let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
    let eth = FabricChoice::Kind(FabricKind::Ethernet);
    let client = Orb::start(Arc::clone(&tms[0]), "rig", OrbProfile::omniorb3(), eth).unwrap();
    let server = Orb::start(Arc::clone(&tms[1]), "rig", OrbProfile::omniorb3(), eth).unwrap();
    let obj = client.object_ref(server.activate(Arc::new(SinkServant)));
    for _ in 0..1_000 {
        obj.request("drain").invoke().unwrap();
    }
    let stats = topo.sched().stats();
    assert!(stats.delivered >= 2_000, "{} events", stats.delivered);
    assert_eq!(stats.workers, 1, "no backlog, no second worker");
}
