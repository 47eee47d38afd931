//! The PadicoTM story (paper §4.3): several middleware systems in one
//! process, cooperatively sharing one high-performance network.
//!
//! This example demonstrates, in order:
//!
//! 1. the **conflict** PadicoTM solves — two raw clients cannot both open
//!    an exclusive Myrinet NIC;
//! 2. **dynamically loadable middleware modules** — MPI and a CORBA ORB
//!    loaded side by side on every node, through the module registry;
//! 3. **cooperative sharing** — a CORBA stream and an MPI stream pushed
//!    through the same NIC at the same time, each getting about half of
//!    Myrinet's 240 MB/s (the §4.4 concurrent result);
//! 4. **personalities** — the same circuit driven through the Madeleine
//!    and FastMessages personalities, and a VLink socket through the BSD
//!    personality.
//!
//! ```text
//! cargo run --example multi_middleware
//! ```

use padico::fabric::topology::single_cluster;
use padico::fabric::{FabricKind, Payload};
use padico::mpi::init_world;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::orb::Orb;
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::circuit::CircuitSpec;
use padico::tm::module::PadicoModule;
use padico::tm::personality::bsd_socket::SocketApi;
use padico::tm::personality::fastmsg::FmChannel;
use padico::tm::personality::madeleine::{MadChannel, SendMode};
use padico::tm::runtime::PadicoTM;
use padico::tm::selector::FabricChoice;
use padico::tm::TmError;
use padico::util::stats::mb_per_s;
use std::sync::Arc;

struct SinkServant;

impl Servant for SinkServant {
    fn repository_id(&self) -> &str {
        "IDL:Demo/Sink:1.0"
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
                let _ = args.read_octet_seq()?;
                Ok(())
            }
            "drain" => Ok(()),
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// A middleware module wrapper, as PadicoTM would dlopen it.
struct MpiModule;

impl PadicoModule for MpiModule {
    fn name(&self) -> &str {
        "mpi"
    }
    fn init(&self, tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        println!("  [{}] MPI module initialized", tm.node());
        Ok(())
    }
}

struct OrbModule;

impl PadicoModule for OrbModule {
    fn name(&self) -> &str {
        "orb.omni"
    }
    fn init(&self, tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        println!("  [{}] omniORB module initialized", tm.node());
        Ok(())
    }
}

fn main() {
    let (topo, ids) = single_cluster(2);
    let topo = Arc::new(topo);

    // --- 1. The conflict: exclusive NIC access without PadicoTM. -------
    let myrinet = topo
        .fabrics()
        .iter()
        .find(|f| f.kind() == FabricKind::Myrinet)
        .unwrap()
        .clone();
    let raw_mpi = myrinet.attach(ids[0], "raw-mpich").unwrap();
    match myrinet.attach(ids[0], "raw-corba") {
        Err(e) => println!("without PadicoTM: second middleware refused: {e}"),
        Ok(_) => unreachable!("Myrinet NICs are exclusive"),
    }
    drop(raw_mpi);

    // --- 2. PadicoTM up, modules loaded side by side. ------------------
    let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
    println!(
        "PadicoTM up on {} nodes; loading middleware modules:",
        tms.len()
    );
    for tm in &tms {
        tm.modules().load(tm, Arc::new(MpiModule)).unwrap();
        tm.modules().load(tm, Arc::new(OrbModule)).unwrap();
    }
    println!(
        "  modules on {}: {:?}",
        tms[0].node(),
        tms[0].modules().loaded()
    );

    // --- 3. CORBA + MPI concurrently over the same Myrinet NIC. --------
    let choice = FabricChoice::Kind(FabricKind::Myrinet);
    let client_orb =
        Orb::start(Arc::clone(&tms[0]), "demo", OrbProfile::omniorb3(), choice).unwrap();
    let server_orb =
        Orb::start(Arc::clone(&tms[1]), "demo", OrbProfile::omniorb3(), choice).unwrap();
    let obj = client_orb.object_ref(server_orb.activate(Arc::new(SinkServant)));
    obj.request("drain").invoke().unwrap();
    let comm0 = init_world(&tms[0], "demo", ids.clone(), choice).unwrap();
    let comm1 = init_world(&tms[1], "demo", ids.clone(), choice).unwrap();

    let pieces = 16usize;
    let piece = 256 << 10;
    let blob = padico::util::rng::payload(1, "demo", piece);
    let start = tms[0].clock().now();
    let mpi_thread = {
        let comm0 = comm0.clone();
        let blob = blob.clone();
        std::thread::spawn(move || {
            for _ in 0..pieces {
                comm0
                    .send_bytes(1, 0, Payload::from_vec(blob.clone()))
                    .unwrap();
            }
        })
    };
    let mpi_rx = std::thread::spawn(move || {
        for _ in 0..pieces {
            comm1.recv_bytes(0, 0).unwrap();
        }
    });
    let corba_thread = {
        let obj = obj.clone();
        let blob = bytes::Bytes::from(blob.clone());
        std::thread::spawn(move || {
            for _ in 0..pieces {
                obj.request("push")
                    .arg_octet_seq(blob.clone())
                    .invoke_oneway()
                    .unwrap();
            }
            obj.request("drain").invoke().unwrap();
        })
    };
    mpi_thread.join().unwrap();
    corba_thread.join().unwrap();
    mpi_rx.join().unwrap();
    let elapsed = tms[0].clock().now() - start;
    let per_flow = mb_per_s(pieces * piece, elapsed);
    println!(
        "CORBA + MPI concurrently: {:.0} MB/s per flow, {:.0} MB/s aggregate \
         (paper: 120 each of Myrinet's 240)",
        per_flow,
        2.0 * per_flow
    );

    // --- 4. Personalities: legacy APIs over the abstract interfaces. ---
    // Madeleine pack/unpack over a circuit.
    let spec = CircuitSpec::new("legacy", ids.clone()).with_choice(choice);
    let c0 = tms[0].circuit(spec.clone()).unwrap();
    let c1 = tms[1].circuit(spec).unwrap();
    let mad_tx = MadChannel::new(&c0);
    let mut conn = mad_tx.begin_packing(1);
    conn.pack(b"header", SendMode::SaferSide);
    conn.pack_bytes(bytes::Bytes::from_static(b"body-zero-copy"));
    conn.end_packing().unwrap();
    let mad_rx = MadChannel::new(&c1);
    let mut inc = mad_rx.begin_unpacking().unwrap();
    let mut header = [0u8; 6];
    inc.unpack(&mut header).unwrap();
    let mut body = [0u8; 14];
    inc.unpack(&mut body).unwrap();
    inc.end_unpacking().unwrap();
    println!(
        "Madeleine personality: unpacked `{}` + `{}`",
        String::from_utf8_lossy(&header),
        String::from_utf8_lossy(&body)
    );

    // FastMessages handler dispatch over the same circuit.
    let fm_rx = FmChannel::new(&c1);
    fm_rx.register(
        3,
        Box::new(|src, payload| {
            println!(
                "FastMessages personality: handler 3 got {} bytes from rank {src}",
                payload.len()
            );
        }),
    );
    let fm_tx = FmChannel::new(&c0);
    fm_tx.send(1, 3, Payload::from_vec(vec![0; 128])).unwrap();
    fm_rx.poll_one().unwrap();

    // BSD sockets over VLink.
    let server_api = Arc::new(SocketApi::new(Arc::clone(&tms[1])));
    let lfd = server_api.socket();
    server_api.bind(lfd, "daytime").unwrap();
    server_api.listen(lfd).unwrap();
    let srv = Arc::clone(&server_api);
    let t = std::thread::spawn(move || {
        let cfd = srv.accept(lfd).unwrap();
        let mut buf = [0u8; 16];
        let n = srv.recv(cfd, &mut buf).unwrap();
        srv.send(cfd, &buf[..n]).unwrap();
    });
    let client_api = SocketApi::new(Arc::clone(&tms[0]));
    let fd = client_api.socket();
    client_api.connect(fd, tms[1].node(), "daytime").unwrap();
    client_api.send(fd, b"what time is it").unwrap();
    let mut buf = [0u8; 16];
    let n = client_api.recv(fd, &mut buf).unwrap();
    println!(
        "BSD-socket personality: echoed `{}`",
        String::from_utf8_lossy(&buf[..n])
    );
    t.join().unwrap();

    // Modules can be unloaded at runtime, "dynamically changed" (§4.3.4).
    tms[0].modules().unload(&tms[0], "orb.omni").unwrap();
    println!(
        "after unload, modules on {}: {:?}",
        tms[0].node(),
        tms[0].modules().loaded()
    );
}
