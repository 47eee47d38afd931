//! One 2-node probe rig per layer of the stack, each built here once:
//! raw fabric endpoints (the Madeleine level), a Circuit, MPI, an ORB
//! two-way to the one bench servant, and a VLink stream. Node 0 sends a
//! payload, node 1 sends the same bytes back, and the round trip is read
//! on node 0's virtual clock. The figure modules read these rigs; each
//! keeps its own sizes, rounds and warm-ups.

use bytes::Bytes;
use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricEndpoint, FabricKind, Payload, Topology};
use padico_mpi::{init_world, Communicator};
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{ObjectRef, Orb, WireProtocol};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::profile::OrbProfile;
use padico_orb::OrbError;
use padico_tm::circuit::{Circuit, CircuitSpec};
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_tm::{VLinkListener, VLinkStream};
use padico_util::ids::{ChannelId, NodeId};
use padico_util::simtime::{SimClock, VtDuration};
use padico_util::stats::mb_per_s;
use std::sync::Arc;

/// A 2-node rig that bounces a payload off node 1.
pub trait Probe {
    /// Node 0's clock, on which round trips are read.
    fn clock(&self) -> &SimClock;

    /// Send `payload` to node 1 and wait for the same bytes back.
    fn exchange(&self, payload: &Bytes);

    /// One round trip of `payload`: its virtual time on node 0's clock.
    fn round_trip(&self, payload: &Bytes) -> VtDuration {
        self.round_trips(payload, 1)
    }

    /// `rounds` back-to-back round trips: their total virtual time.
    fn round_trips(&self, payload: &Bytes, rounds: usize) -> VtDuration {
        let start = self.clock().now();
        for _ in 0..rounds {
            self.exchange(payload);
        }
        self.clock().now() - start
    }

    /// One-way latency over `rounds` round trips (RTT/2), µs.
    fn one_way_us(&self, payload: &Bytes, rounds: usize) -> f64 {
        self.round_trips(payload, rounds) as f64 / rounds as f64 / 2.0 / 1_000.0
    }

    /// One-way bandwidth over `rounds` round trips (`size / (RTT/2)`),
    /// MB/s.
    fn bandwidth_mb_s(&self, payload: &Bytes, rounds: usize) -> f64 {
        mb_per_s(
            2 * payload.len() * rounds,
            self.round_trips(payload, rounds),
        )
    }
}

/// A booted 2-node cluster (Myrinet-2000 and Ethernet-100, one trusted
/// zone): the world under every rig but the raw one, and under
/// experiments that run two layers side by side.
pub struct Pair {
    pub tms: Vec<Arc<PadicoTM>>,
    ids: Vec<NodeId>,
}

impl Pair {
    pub fn boot() -> Pair {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        Pair { tms, ids }
    }

    /// Both ranks of an MPI world over `fabric`.
    pub fn mpi(&self, fabric: FabricKind) -> (Communicator, Communicator) {
        let rank = |tm| init_world(tm, "probe", self.ids.clone(), FabricChoice::Kind(fabric));
        (rank(&self.tms[0]).unwrap(), rank(&self.tms[1]).unwrap())
    }
}

/// Raw fabric endpoints with one clock a node: no PadicoTM in the path.
pub struct FabricProbe {
    ends: [(FabricEndpoint, SimClock); 2],
    _topo: Topology,
}

impl FabricProbe {
    pub fn new(fabric: FabricKind) -> FabricProbe {
        let (topo, ids) = single_cluster(2);
        let fabric = topo.fabrics().iter().find(|f| f.kind() == fabric).unwrap();
        let end = |id| (fabric.attach(id, "bench").unwrap(), SimClock::new());
        FabricProbe {
            ends: [end(ids[0]), end(ids[1])],
            _topo: topo,
        }
    }
}

impl Probe for FabricProbe {
    fn clock(&self) -> &SimClock {
        &self.ends[0].1
    }

    fn exchange(&self, payload: &Bytes) {
        let [(a, ca), (b, cb)] = &self.ends;
        let ping = Payload::from_bytes(payload.clone());
        a.send(ca, b.addr(), ChannelId(1), ping).unwrap();
        let msg = b.recv(cb).unwrap();
        b.send(cb, a.addr(), ChannelId(1), msg.payload).unwrap();
        a.recv(ca).unwrap();
    }
}

/// A Circuit over both nodes; rank 1 echoes inline. Each node's clock
/// moves only with its own calls, so the caller's thread can play both.
pub struct CircuitProbe {
    ranks: [Circuit; 2],
    pair: Pair,
}

impl CircuitProbe {
    pub fn new(fabric: FabricKind) -> CircuitProbe {
        let pair = Pair::boot();
        let spec = CircuitSpec::new("probe", pair.ids.clone());
        let spec = spec.with_choice(FabricChoice::Kind(fabric));
        let rank = |tm: &Arc<PadicoTM>| tm.circuit(spec.clone()).unwrap();
        let ranks = [rank(&pair.tms[0]), rank(&pair.tms[1])];
        CircuitProbe { ranks, pair }
    }
}

impl Probe for CircuitProbe {
    fn clock(&self) -> &SimClock {
        self.pair.tms[0].clock()
    }

    fn exchange(&self, payload: &Bytes) {
        let [c0, c1] = &self.ranks;
        c0.send(1, 0, Payload::from_bytes(payload.clone())).unwrap();
        // No receive on node 0 flushes a coalesced ping before rank 1
        // waits for it.
        c0.flush().unwrap();
        let (_src, _header, echo) = c1.recv().unwrap();
        c1.send(0, 0, echo).unwrap();
        c1.flush().unwrap();
        c0.recv().unwrap();
    }
}

/// MPI over both nodes; rank 1 echoes inline (an MPI send is its own
/// coalescing barrier).
pub struct MpiProbe {
    ranks: (Communicator, Communicator),
    pair: Pair,
}

impl MpiProbe {
    pub fn new(fabric: FabricKind) -> MpiProbe {
        let pair = Pair::boot();
        let ranks = pair.mpi(fabric);
        MpiProbe { ranks, pair }
    }
}

impl Probe for MpiProbe {
    fn clock(&self) -> &SimClock {
        self.pair.tms[0].clock()
    }

    fn exchange(&self, payload: &Bytes) {
        let (comm0, comm1) = &self.ranks;
        let ping = Payload::from_bytes(payload.clone());
        comm0.send_bytes(1, 0, ping).unwrap();
        let (_status, echo) = comm1.recv_bytes(0, 0).unwrap();
        comm1.send_bytes(0, 0, echo).unwrap();
        comm0.recv_bytes(1, 0).unwrap();
    }
}

/// The bench servant: `noop`, `echo` (an octet sequence back), `push`
/// (an octet sequence in, nothing back) and `drain` (a fence).
struct BenchServant;

impl Servant for BenchServant {
    fn repository_id(&self) -> &str {
        "IDL:Bench/Probe:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "echo" => reply.write_octet_seq(args.read_octet_seq()?),
            "push" => drop(args.read_octet_seq()?),
            "noop" | "drain" => {}
            other => return Err(OrbError::BadOperation(other.into())),
        }
        Ok(())
    }
}

/// An ORB client on node 0 holding a reference to the bench servant on
/// node 1, its connection warmed by one `noop`.
pub struct OrbProbe {
    obj: ObjectRef,
    tm: Arc<PadicoTM>,
}

impl OrbProbe {
    /// On a 2-node world of its own.
    pub fn new(profile: OrbProfile, fabric: FabricKind, protocol: WireProtocol) -> OrbProbe {
        OrbProbe::over(&Pair::boot(), profile, fabric, protocol)
    }

    /// On `pair`, beside whatever else runs there. The client speaks
    /// `protocol`; the server detects it per frame.
    pub fn over(
        pair: &Pair,
        profile: OrbProfile,
        fabric: FabricKind,
        protocol: WireProtocol,
    ) -> OrbProbe {
        let choice = FabricChoice::Kind(fabric);
        let tm = Arc::clone(&pair.tms[0]);
        let client =
            Orb::start_with_protocol(Arc::clone(&tm), "probe", profile.clone(), choice, protocol)
                .unwrap();
        // The server ORB's endpoint listener keeps it alive, and `obj`
        // the client.
        let server = Orb::start(Arc::clone(&pair.tms[1]), "probe", profile, choice).unwrap();
        let obj = client.object_ref(server.activate(Arc::new(BenchServant)));
        obj.request("noop").invoke().unwrap();
        OrbProbe { obj, tm }
    }

    /// The reference to node 1's servant.
    pub fn obj(&self) -> &ObjectRef {
        &self.obj
    }
}

impl Probe for OrbProbe {
    fn clock(&self) -> &SimClock {
        self.tm.clock()
    }

    /// One two-way `echo` of `payload`; an empty payload is one `noop`,
    /// a request with no body at all.
    fn exchange(&self, payload: &Bytes) {
        if payload.is_empty() {
            self.obj.request("noop").invoke().unwrap();
            return;
        }
        let request = self.obj.request("echo").arg_octet_seq(payload.clone());
        request.invoke().unwrap().read_octet_seq().unwrap();
    }
}

/// A VLink stream from node 0 to a reactive echo on node 1: each frame
/// bounces back inline on node 1's scheduler worker.
pub struct VLinkProbe {
    stream: VLinkStream,
    pair: Pair,
}

impl VLinkProbe {
    pub fn new(fabric: FabricKind) -> VLinkProbe {
        let pair = Pair::boot();
        VLinkListener::on_accept(&pair.tms[1], "echo", |stream| {
            let echo = Arc::clone(&stream);
            stream.on_frames(Arc::new(move |frame| match frame {
                Some(frame) => {
                    let _ = echo.write_payload(frame).and_then(|()| echo.flush());
                }
                None => echo.stop_frames(),
            }))
        })
        .unwrap();
        let choice = FabricChoice::Kind(fabric);
        let stream = pair.tms[0].vlink_connect(pair.tms[1].node(), "echo", choice);
        VLinkProbe {
            stream: stream.unwrap(),
            pair,
        }
    }
}

impl Probe for VLinkProbe {
    fn clock(&self) -> &SimClock {
        self.pair.tms[0].clock()
    }

    fn exchange(&self, payload: &Bytes) {
        self.stream.write_all(payload).unwrap();
        let mut buf = vec![0u8; payload.len()];
        self.stream.read_exact(&mut buf).unwrap();
    }
}

impl Drop for VLinkProbe {
    fn drop(&mut self) {
        let _ = self.stream.close();
    }
}
