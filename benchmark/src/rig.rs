//! Shared bring-up: the 2-node ORB rig every RPC workload and probe uses,
//! and the benchmark's own echo servant.

use crate::spans;
use crate::stats::now_ns;
use padico::fabric::topology::single_cluster;
use padico::fabric::FabricKind;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::orb::{ObjectRef, Orb};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::runtime::PadicoTM;
use padico::tm::selector::FabricChoice;
use padico::util::ids::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every RPC path is pinned to the SAN, as in the paper's CORBA rows.
pub const MYRINET: FabricChoice = FabricChoice::Kind(FabricKind::Myrinet);

/// `echo(u64) -> u64`. The value on the wire is `op_id ^ key`, so the
/// servant can label its span with the caller's operation id.
pub struct EchoServant {
    pub key: u64,
    /// Entry/exit stamps of the latest call, for the ledger's
    /// request-path / servant / reply-path split (one caller, one
    /// outstanding request).
    pub last: Arc<Stamps>,
}

#[derive(Default)]
pub struct Stamps {
    pub op_id: AtomicU64,
    pub enter_ns: AtomicU64,
    pub exit_ns: AtomicU64,
}

impl Servant for EchoServant {
    fn repository_id(&self) -> &str {
        "IDL:PadicoBenchmark/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        if operation != "echo" {
            return Err(OrbError::BadOperation(operation.into()));
        }
        let enter_ns = now_ns();
        let value = args.read_u64()?;
        let op_id = value ^ self.key;
        let _span = spans::span_in_op("servant.echo", op_id);
        reply.write_u64(value);
        self.last.op_id.store(op_id, Ordering::Relaxed);
        self.last.enter_ns.store(enter_ns, Ordering::Relaxed);
        self.last.exit_ns.store(now_ns(), Ordering::Release);
        Ok(())
    }
}

/// Two booted nodes of one cluster.
pub struct Pair {
    pub tms: Vec<Arc<PadicoTM>>,
    pub ids: Vec<NodeId>,
}

pub fn boot_pair() -> Pair {
    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).expect("2-node cluster boots");
    Pair { tms, ids }
}

/// Client ORB on node 0, server ORB with the echo servant on node 1.
pub struct RpcRig {
    pub pair: Pair,
    pub obj: ObjectRef,
    pub key: u64,
    pub stamps: Arc<Stamps>,
    _server: Arc<Orb>,
}

pub fn rpc_rig(seed: u64) -> RpcRig {
    let pair = boot_pair();
    let client = Orb::start(
        Arc::clone(&pair.tms[0]),
        "bench",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .expect("client orb starts");
    let server = Orb::start(
        Arc::clone(&pair.tms[1]),
        "bench",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .expect("server orb starts");
    let key = crate::stats::mix(seed);
    let stamps = Arc::new(Stamps::default());
    let obj = client.object_ref(server.activate(Arc::new(EchoServant {
        key,
        last: Arc::clone(&stamps),
    })));
    RpcRig {
        pair,
        obj,
        key,
        stamps,
        _server: server,
    }
}

impl RpcRig {
    /// One checked two-way; `false` on any error or wrong answer.
    #[inline]
    pub fn echo(&self, op_id: u64) -> bool {
        let value = op_id ^ self.key;
        let _span = spans::span("invoke", op_id);
        match self.obj.request("echo").arg_u64(value).invoke() {
            Ok(mut reply) => reply.read_u64().is_ok_and(|v| v == value),
            Err(_) => false,
        }
    }
}
