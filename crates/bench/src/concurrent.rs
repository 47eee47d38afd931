//! §4.4 concurrent benchmark: CORBA and MPI running **at the same time**
//! over the same Myrinet NIC, through one arbitration layer.
//!
//! Paper: "Concurrent benchmarks (CORBA and MPI at the same time) show
//! the bandwidth is efficiently shared: each gets 120 MB/s."
//!
//! Methodology: each flow pushes `pieces × piece_len` bytes from node 0
//! to node 1 and ends with a fence. We measure each flow *alone* and
//! then both *together* under virtual time. Efficient sharing means the
//! combined run takes about the sum of the alone times (nothing is lost
//! to the arbitration) and each flow's effective rate in the combined
//! run is about half its alone rate — i.e. ≈120 of Myrinet's 240 MB/s.

use crate::probe::{OrbProbe, Pair};
use bytes::Bytes;
use padico_fabric::{FabricKind, Payload};
use padico_mpi::Communicator;
use padico_orb::orb::{ObjectRef, WireProtocol};
use padico_orb::profile::OrbProfile;
use padico_util::stats::mb_per_s;

/// Result of the concurrent experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShareResult {
    /// MPI stream bandwidth running alone, MB/s.
    pub mpi_alone_mb_s: f64,
    /// CORBA stream bandwidth running alone, MB/s.
    pub corba_alone_mb_s: f64,
    /// Each flow's effective bandwidth when both run together, MB/s
    /// (flow bytes / combined duration).
    pub mpi_shared_mb_s: f64,
    pub corba_shared_mb_s: f64,
    /// Combined bytes / combined duration, MB/s.
    pub aggregate_mb_s: f64,
}

struct Rig {
    pair: Pair,
    obj: ObjectRef,
    comm0: Communicator,
    comm1: Communicator,
    blob: Bytes,
    pieces: usize,
}

fn rig(piece_len: usize, pieces: usize) -> Rig {
    let pair = Pair::boot();
    let fabric = FabricKind::Myrinet;
    let orb = OrbProbe::over(&pair, OrbProfile::omniorb3(), fabric, WireProtocol::Giop);
    let (comm0, comm1) = pair.mpi(fabric);
    Rig {
        obj: orb.obj().clone(),
        pair,
        comm0,
        comm1,
        blob: Bytes::from(padico_util::rng::payload(12, "concurrent", piece_len)),
        pieces,
    }
}

impl Rig {
    fn run_mpi(&self) -> std::thread::JoinHandle<()> {
        let comm1 = self.comm1.clone();
        let pieces = self.pieces;
        let rx = std::thread::spawn(move || {
            for _ in 0..pieces {
                comm1.recv_bytes(0, 0).unwrap();
            }
            // Fence reply.
            comm1.send_bytes(0, 1, Payload::new()).unwrap();
        });
        let comm0 = self.comm0.clone();
        let blob = self.blob.clone();
        let pieces = self.pieces;
        std::thread::spawn(move || {
            for _ in 0..pieces {
                comm0
                    .send_bytes(1, 0, Payload::from_bytes(blob.clone()))
                    .unwrap();
            }
            comm0.recv_bytes(1, 1).unwrap(); // fence
            rx.join().unwrap();
        })
    }

    fn run_corba(&self) -> std::thread::JoinHandle<()> {
        let obj = self.obj.clone();
        let blob = self.blob.clone();
        let pieces = self.pieces;
        std::thread::spawn(move || {
            for _ in 0..pieces {
                obj.request("push")
                    .arg_octet_seq(blob.clone())
                    .invoke_oneway()
                    .unwrap();
            }
            obj.request("drain").invoke().unwrap(); // fence
        })
    }

    /// Virtual span of running the given flows to completion.
    fn span(&self, mpi: bool, corba: bool) -> u64 {
        let tms = &self.pair.tms;
        let start = tms[0].clock().now().max(tms[1].clock().now());
        let mut handles = Vec::new();
        if mpi {
            handles.push(self.run_mpi());
        }
        if corba {
            handles.push(self.run_corba());
        }
        for h in handles {
            h.join().unwrap();
        }
        let end = tms[0].clock().now().max(tms[1].clock().now());
        end - start
    }
}

/// Run the experiment: `pieces` messages of `piece_len` bytes per flow.
pub fn run(piece_len: usize, pieces: usize) -> ShareResult {
    let bytes = piece_len * pieces;
    // Alone baselines (fresh rigs so clocks and NIC timelines start cold).
    let mpi_alone = {
        let r = rig(piece_len, pieces);
        mb_per_s(bytes, r.span(true, false))
    };
    let corba_alone = {
        let r = rig(piece_len, pieces);
        mb_per_s(bytes, r.span(false, true))
    };
    // Together.
    let r = rig(piece_len, pieces);
    let together = r.span(true, true);
    ShareResult {
        mpi_alone_mb_s: mpi_alone,
        corba_alone_mb_s: corba_alone,
        mpi_shared_mb_s: mb_per_s(bytes, together),
        corba_shared_mb_s: mb_per_s(bytes, together),
        aggregate_mb_s: mb_per_s(2 * bytes, together),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_shared_roughly_evenly() {
        let r = run(256 << 10, 24);
        // Alone, each flow saturates Myrinet (±10 %).
        assert!(
            (215.0..265.0).contains(&r.mpi_alone_mb_s),
            "MPI alone {:.1} MB/s",
            r.mpi_alone_mb_s
        );
        assert!(
            (205.0..265.0).contains(&r.corba_alone_mb_s),
            "CORBA alone {:.1} MB/s",
            r.corba_alone_mb_s
        );
        // Together, each gets about half — the paper's ≈120 MB/s each.
        assert!(
            (100.0..140.0).contains(&r.mpi_shared_mb_s),
            "MPI share {:.1} MB/s, expected ≈120",
            r.mpi_shared_mb_s
        );
        assert!(
            (100.0..140.0).contains(&r.corba_shared_mb_s),
            "CORBA share {:.1} MB/s, expected ≈120",
            r.corba_shared_mb_s
        );
        // And nothing is lost to the arbitration layer.
        assert!(
            (205.0..265.0).contains(&r.aggregate_mb_s),
            "aggregate {:.1} ≈ line rate",
            r.aggregate_mb_s
        );
    }
}
