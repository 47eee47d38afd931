//! `rpc_pingpong` and `rpc_pipelined`: the 64 B `echo(u64)` two-way over
//! the ORB on a 2-node cluster, once for latency (one outstanding request)
//! and once for sustained throughput (2 submitters × 64 outstanding).

use super::Begin;
use crate::harness::{closed_loop, count_in_window, Outcome, Params, Phases, LOG_CAPACITY};
use crate::rig::{rpc_rig, RpcRig};
use crate::spans;
use crate::stats::{now_ns, Samples};
use std::collections::VecDeque;
use std::time::Instant;

/// Argument + result bytes of one `echo(u64)`.
const ECHO_PAYLOAD: u64 = 16;
/// Outstanding requests each pipelined submitter keeps in flight.
const PIPELINE_DEPTH: usize = 64;
const SUBMITTERS: u64 = 2;

/// Boot, start both ORBs, and complete the first (connecting) invocation.
pub fn setup(seed: u64) -> (RpcRig, f64) {
    let t0 = Instant::now();
    let rig = rpc_rig(seed);
    assert!(rig.echo(0), "first echo failed");
    (rig, t0.elapsed().as_secs_f64())
}

fn outcome(setup_s: f64, p: Phases, logs: Vec<Samples>, tally: (u64, u64)) -> Outcome {
    let logs: Vec<_> = logs.into_iter().map(Samples::into_vec).collect();
    let ops = count_in_window(&logs, p.window());
    Outcome {
        setup_s,
        window: p.window(),
        logs,
        ops_in_window: ops,
        payload_bytes_in_window: ops * ECHO_PAYLOAD,
        attempted: tally.0,
        failed: tally.1,
        extra: Vec::new(),
    }
}

pub fn pingpong(params: &Params, begin: Begin) -> Outcome {
    let (rig, setup_s) = setup(params.seed);
    let phases = begin(params);
    let g = closed_loop(phases.stop_at_ns, |seq| rig.echo(seq));
    outcome(setup_s, phases, vec![g.log], (g.attempted, g.failed))
}

pub fn pipelined(params: &Params, begin: Begin) -> Outcome {
    let (rig, setup_s) = setup(params.seed);
    let phases = begin(params);
    let results: Vec<(Samples, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=SUBMITTERS)
            .map(|thread| {
                let rig = &rig;
                scope.spawn(move || submitter(rig, thread, phases.stop_at_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    let tally = results
        .iter()
        .fold((0, 0), |acc, r| (acc.0 + r.1, acc.1 + r.2));
    let logs = results.into_iter().map(|r| r.0).collect();
    outcome(setup_s, phases, logs, tally)
}

/// Keep `PIPELINE_DEPTH` requests in flight: top the window up, then wait
/// for the oldest. An operation runs from its submit to its reply being
/// read and checked.
fn submitter(rig: &RpcRig, thread: u64, stop_at_ns: u64) -> (Samples, u64, u64) {
    let mut log = Samples::with_capacity(LOG_CAPACITY);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut inflight = VecDeque::with_capacity(PIPELINE_DEPTH);
    let mut seq = 0u64;
    loop {
        let submitting = now_ns() < stop_at_ns;
        while submitting && inflight.len() < PIPELINE_DEPTH {
            seq += 1;
            let op_id = (thread << 48) | seq;
            let value = op_id ^ rig.key;
            let t0 = now_ns();
            let handle = {
                let _span = spans::span_in_op("submit", op_id);
                rig.obj.request("echo").arg_u64(value).submit()
            };
            inflight.push_back((op_id, t0, handle));
        }
        let Some((op_id, t0, handle)) = inflight.pop_front() else {
            break;
        };
        attempted += 1;
        let ok = {
            let _span = spans::span_in_op("wait", op_id);
            match handle.wait() {
                Ok(mut reply) => reply.read_u64().is_ok_and(|v| v == op_id ^ rig.key),
                Err(_) => false,
            }
        };
        if !ok {
            failed += 1;
        }
        let t1 = now_ns();
        spans::record_op("op", op_id, t0, t1);
        log.push(t0, t1);
    }
    (log, attempted, failed)
}
