//! `coexist_mpi_corba`: the paper's §4.4 experiment in wall time. MPI
//! 64 KiB ping-pong and the 64 B CORBA two-way run at the same time over
//! the one Myrinet NIC of a 2-node cluster, through one arbitration layer.
//! The only workload through tm.circuit, the Madeleine personality and mpi.

use super::Begin;
use crate::harness::{closed_loop, count_in_window, Metric, Outcome, Params};
use crate::rig::{rpc_rig, RpcRig, MYRINET};
use crate::spans;
use crate::stats;
use bytes::Bytes;
use padico::fabric::Payload;
use padico::mpi::{init_world, Communicator};
use std::time::Instant;

pub const MPI_MESSAGE: usize = 64 << 10;
/// Distinct seeded messages the pinger cycles through.
const MESSAGES: usize = 4;
const TAG_DATA: u32 = 0;
const TAG_STOP: u32 = 1;

pub struct Rig {
    pub rpc: RpcRig,
    pub rank0: Communicator,
    pub rank1: Communicator,
}

pub fn setup(seed: u64) -> (Rig, f64) {
    let t0 = Instant::now();
    let rpc = rpc_rig(seed);
    let ids = rpc.pair.ids.clone();
    let rank0 = init_world(&rpc.pair.tms[0], "coexist", ids.clone(), MYRINET).expect("mpi rank 0");
    let rank1 = init_world(&rpc.pair.tms[1], "coexist", ids, MYRINET).expect("mpi rank 1");
    assert!(rpc.echo(0), "first echo failed");
    (Rig { rpc, rank0, rank1 }, t0.elapsed().as_secs_f64())
}

/// Rank 1 of the MPI application: send every message straight back until
/// told to stop. The remote half of the coupled code, not a generator.
pub fn echo_rank(comm: Communicator) {
    loop {
        let (status, payload) = comm.recv_bytes(0, -1).expect("echo rank recv");
        if status.tag == TAG_STOP {
            return;
        }
        comm.send_bytes(0, TAG_DATA, payload)
            .expect("echo rank send");
    }
}

pub fn stop_echo_rank(rank0: &Communicator) {
    rank0
        .send_bytes(1, TAG_STOP, Payload::new())
        .expect("stop message");
}

pub fn seeded_messages(seed: u64, len: usize) -> Vec<Bytes> {
    (0..MESSAGES as u64)
        .map(|i| Bytes::from(stats::seeded_bytes(seed, i, len)))
        .collect()
}

/// One checked MPI ping-pong: length and first/last word must come back.
#[inline]
pub fn mpi_pingpong(rank0: &Communicator, message: &Bytes, op_id: u64) -> bool {
    let _op = spans::span("mpi_pingpong", op_id);
    let sent = {
        let _s = spans::span("send_bytes", op_id);
        rank0.send_bytes(1, TAG_DATA, Payload::from_bytes(message.clone()))
    };
    if sent.is_err() {
        return false;
    }
    let received = {
        let _s = spans::span("recv_bytes", op_id);
        rank0.recv_bytes(1, TAG_DATA as i32)
    };
    let Ok((status, payload)) = received else {
        return false;
    };
    let back = payload.to_contiguous();
    let n = message.len();
    status.len == n
        && back.len() == n
        && back[..8] == message[..8]
        && back[n - 8..] == message[n - 8..]
}

pub fn run(params: &Params, begin: Begin) -> Outcome {
    let (rig, setup_s) = setup(params.seed);
    let messages = seeded_messages(params.seed, MPI_MESSAGE);
    let echo = std::thread::spawn({
        let rank1 = rig.rank1.clone();
        move || echo_rank(rank1)
    });
    let phases = begin(params);
    let stop_at = phases.stop_at_ns;

    let (mpi, rpc) = std::thread::scope(|scope| {
        // Generator A: MPI ping-pong. Generator B: CORBA two-way.
        let mpi = scope.spawn(|| {
            closed_loop(stop_at, |seq| {
                let message = &messages[seq as usize % MESSAGES];
                mpi_pingpong(&rig.rank0, message, (2 << 48) | seq)
            })
        });
        let rpc = scope.spawn(|| closed_loop(stop_at, |seq| rig.rpc.echo((1 << 48) | seq)));
        (
            mpi.join().expect("mpi generator"),
            rpc.join().expect("corba generator"),
        )
    });
    stop_echo_rank(&rig.rank0);
    echo.join().expect("echo rank");

    let window = phases.window();
    let mpi_stats = stats::summarise(vec![mpi.log.into_vec()], window);
    let mpi_ops = mpi_stats.count as u64;
    let rpc_logs = vec![rpc.log.into_vec()];
    Outcome {
        setup_s,
        window,
        ops_in_window: count_in_window(&rpc_logs, window),
        logs: rpc_logs,
        payload_bytes_in_window: mpi_ops * 2 * MPI_MESSAGE as u64,
        attempted: mpi.attempted + rpc.attempted,
        failed: mpi.failed + rpc.failed,
        extra: vec![
            Metric::new(
                "mpi_ops_per_s",
                mpi_ops as f64 / window.seconds(),
                "1/s",
                mpi_ops,
            ),
            Metric::new("mpi_p50_us", mpi_stats.p50_ns / 1e3, "us", mpi_ops),
        ],
    }
}
