//! The outside-in layer ledger: the same single-caller 64 B ping-pong timed
//! at every depth of the paper's stack, each probe in a process of its own
//! so nothing one depth leaves behind (pools, NIC timelines, drift) leaks
//! into the next. A layer's self time is the difference of two probe
//! medians (`orchestrate::SELF_TIMES`). Pure-call probes (CDR, GIOP,
//! redistribution) and set-up probes (CCM boot/deploy, scheduler boot)
//! complete the per-layer list.

use crate::harness::{closed_loop, Phases, Report};
use crate::rig::{boot_pair, rpc_rig, MYRINET};
use crate::stats::{self, now_ns, Summary};
use crate::workloads::{coexist, gridccm, world};
use bytes::Bytes;
use padico::core::dist::{DistSeq, Distribution};
use padico::core::error::GridCcmError;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico::core::parallel::client::ParallelRef;
use padico::core::parallel::wire::{assemble_block, Chunk, ParValue};
use padico::core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico::core::redistribute::{receives_of, schedule, schedule_cached};
use padico::fabric::{FabricKind, Payload};
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::giop;
use padico::orb::orb::Orb;
use padico::orb::profile::{MarshalStrategy, OrbProfile};
use padico::orb::ObjectKey;
use padico::tm::circuit::CircuitSpec;
use padico::util::ids::ChannelId;
use padico::util::simtime::SimClock;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Bytes of the ledger's ping-pong message.
const SMALL: usize = 64;
/// Header value that tells a circuit echo thread to leave.
const STOP: u64 = u64::MAX;

/// Every probe, in the order the orchestrator runs them.
pub const PROBES: [&str; 13] = [
    "fabric",
    "circuit",
    "circuit_burst",
    "vlink",
    "mpi",
    "mpi_64k",
    "cdr",
    "orb",
    "mux",
    "redistribute",
    "parallel",
    "ccm",
    "sched",
];

/// Every probe warms up for a fifth of its window first.
fn probe_phases(window_s: f64) -> Phases {
    Phases::starting_now(window_s * 0.2, window_s)
}

struct Timed {
    summary: Summary,
    attempted: u64,
    failed: u64,
}

/// Run `op` in a closed loop through a probe's warm-up and window. `op`
/// returns whether its answer was right.
fn timed_loop(window_s: f64, op: impl FnMut(u64) -> bool) -> Timed {
    let phases = probe_phases(window_s);
    let g = closed_loop(phases.stop_at_ns, op);
    Timed {
        summary: stats::summarise(vec![g.log.into_vec()], phases.window()),
        attempted: g.attempted,
        failed: g.failed,
    }
}

/// Report a ping-pong probe as `<layer>.rt_ns` and `<layer>.rt_drift`.
fn round_trip(report: &mut Report, rt_name: &str, drift_name: &str, t: Timed) {
    let n = t.summary.count as u64;
    report.push(rt_name, t.summary.p50_ns, "ns", n);
    report.push(drift_name, t.summary.drift, "ratio", n);
    report.attempted += t.attempted;
    report.failed += t.failed;
}

/// Median ns of one call of `f`, timed `batch` calls at a time so the
/// clock's own resolution does not show.
fn pure_call(window_s: f64, batch: u32, mut f: impl FnMut()) -> (f64, u64) {
    let mut per_call = Vec::new();
    let stop = Instant::now() + std::time::Duration::from_secs_f64(window_s);
    for _ in 0..batch {
        f(); // warm caches and pools
    }
    while Instant::now() < stop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    let n = per_call.len() as u64 * u64::from(batch);
    (stats::median(&mut per_call), n)
}

fn small_message(seed: u64) -> Bytes {
    Bytes::from(stats::seeded_bytes(seed, 0, SMALL))
}

fn same(payload: &Payload, message: &Bytes) -> bool {
    payload.len() == message.len() && payload.to_contiguous()[..] == message[..]
}

/// Raw `FabricEndpoint` send/recv, both ends on this one thread: the floor
/// every other probe stands on (no arbitration, no handoff).
fn fabric(seed: u64, window_s: f64) -> Report {
    let (topo, ids) = padico::fabric::topology::single_cluster(2);
    let myrinet = topo
        .fabrics()
        .iter()
        .find(|f| f.kind() == FabricKind::Myrinet)
        .expect("cluster has a Myrinet fabric")
        .clone();
    let a = myrinet.attach(ids[0], "ledger").expect("attach a");
    let b = myrinet.attach(ids[1], "ledger").expect("attach b");
    let (clock_a, clock_b) = (SimClock::new(), SimClock::new());
    let message = small_message(seed);
    let channel = ChannelId(1);
    let t = timed_loop(window_s, |_| {
        let ok = a
            .send(
                &clock_a,
                b.addr(),
                channel,
                Payload::from_bytes(message.clone()),
            )
            .is_ok();
        let Ok(there) = b.recv(&clock_b) else {
            return false;
        };
        let ok = ok && b.send(&clock_b, a.addr(), channel, there.payload).is_ok();
        a.recv(&clock_a)
            .is_ok_and(|back| ok && same(&back.payload, &message))
    });
    let mut r = Report::default();
    round_trip(&mut r, "fabric.rt_ns", "fabric.rt_drift", t);
    r
}

/// Two circuit members on the pair, rank 1 echoing on its own thread.
fn circuit(seed: u64, window_s: f64) -> Report {
    let pair = boot_pair();
    let spec = CircuitSpec::new("ledger", pair.ids.clone()).with_choice(MYRINET);
    let c0 = pair.tms[0].circuit(spec.clone()).expect("circuit rank 0");
    let c1 = pair.tms[1].circuit(spec).expect("circuit rank 1");
    let echo = std::thread::spawn(move || {
        while let Ok((_src, header, payload)) = c1.recv() {
            if header == STOP {
                return;
            }
            // The echo is this side's protocol barrier: nothing else would
            // flush a coalesced reply.
            if c1.send(0, header, payload).is_err() || c1.flush().is_err() {
                return;
            }
        }
    });
    let message = small_message(seed);
    let t = timed_loop(window_s, |seq| {
        c0.send(1, seq, Payload::from_bytes(message.clone()))
            .is_ok()
            && c0
                .recv()
                .is_ok_and(|(_, header, back)| header == seq && same(&back, &message))
    });
    let _ = c0.send(1, STOP, Payload::new());
    let _ = c0.flush();
    echo.join().expect("circuit echo");
    let mut r = Report::default();
    round_trip(&mut r, "tm.circuit.rt_ns", "tm.circuit.rt_drift", t);
    r
}

/// 64 × 8 B then flush, acknowledged by one byte: the coalescing path.
fn circuit_burst(window_s: f64) -> Report {
    const BURST: u64 = 64;
    let pair = boot_pair();
    let spec = CircuitSpec::new("burst", pair.ids.clone()).with_choice(MYRINET);
    let c0 = pair.tms[0].circuit(spec.clone()).expect("circuit rank 0");
    let c1 = pair.tms[1].circuit(spec).expect("circuit rank 1");
    let ack = std::thread::spawn(move || loop {
        for _ in 0..BURST {
            match c1.recv() {
                Ok((_, header, _)) if header != STOP => {}
                _ => return,
            }
        }
        if c1.send(0, 0, Payload::from_vec(vec![1u8])).is_err() || c1.flush().is_err() {
            return;
        }
    });
    let t = timed_loop(window_s, |_| {
        let sent = (0..BURST).all(|i| c0.send(1, i, Payload::from_vec(vec![0u8; 8])).is_ok());
        sent && c0.flush().is_ok() && c0.recv().is_ok_and(|(_, _, p)| p.len() == 1)
    });
    let _ = c0.send(1, STOP, Payload::new());
    let _ = c0.flush();
    ack.join().expect("burst ack");
    let mut r = Report::default();
    let n = t.summary.count as u64;
    r.push(
        "tm.circuit.burst_ns_per_msg",
        t.summary.p50_ns / BURST as f64,
        "ns",
        n * BURST,
    );
    r.attempted = t.attempted;
    r.failed = t.failed;
    r
}

/// One VLink stream across the pair, the far end echoing 64 B reads.
fn vlink(seed: u64, window_s: f64) -> Report {
    let pair = boot_pair();
    let listener = pair.tms[1].vlink_listen("ledger").expect("listen");
    let echo = std::thread::spawn(move || {
        let Ok(stream) = listener.accept() else {
            return;
        };
        let mut buf = [0u8; SMALL];
        while stream.read_exact(&mut buf).is_ok() {
            if stream.write_all(&buf).is_err() {
                return;
            }
        }
    });
    let t0 = Instant::now();
    let stream = pair.tms[0]
        .vlink_connect(pair.ids[1], "ledger", MYRINET)
        .expect("connect");
    let connect_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let message = small_message(seed);
    let mut buf = [0u8; SMALL];
    let t = timed_loop(window_s, |_| {
        stream.write_all(&message).is_ok()
            && stream.read_exact(&mut buf).is_ok()
            && buf[..] == message[..]
    });
    let _ = stream.close();
    echo.join().expect("vlink echo");
    let mut r = Report::default();
    round_trip(&mut r, "tm.vlink.rt_ns", "tm.vlink.rt_drift", t);
    r.push("tm.vlink.connect_us", connect_us, "us", 1);
    r
}

/// MPI ping-pong of `len` bytes between two ranks of the pair.
fn mpi(seed: u64, window_s: f64, len: usize) -> Timed {
    let pair = boot_pair();
    let rank0 = padico::mpi::init_world(&pair.tms[0], "ledger", pair.ids.clone(), MYRINET)
        .expect("mpi rank 0");
    let rank1 = padico::mpi::init_world(&pair.tms[1], "ledger", pair.ids.clone(), MYRINET)
        .expect("mpi rank 1");
    let echo = std::thread::spawn(move || coexist::echo_rank(rank1));
    let messages = coexist::seeded_messages(seed, len);
    let t = timed_loop(window_s, |seq| {
        coexist::mpi_pingpong(&rank0, &messages[seq as usize % messages.len()], seq)
    });
    coexist::stop_echo_rank(&rank0);
    echo.join().expect("mpi echo rank");
    t
}

/// Marshalling and framing as pure calls: no transport underneath.
fn cdr(seed: u64, window_s: f64) -> Report {
    let mut r = Report::default();
    let words: Vec<u64> = (0..8).map(|i| stats::mix(seed ^ i)).collect();
    let (ns, n) = pure_call(window_s / 3.0, 256, || {
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        for &word in &words {
            w.write_u64(black_box(word));
        }
        black_box(w.finish());
    });
    r.push("orb.cdr.encode_ns", ns, "ns", n);

    const MIB: usize = 1 << 20;
    let blob = Bytes::from(stats::seeded_bytes(seed, 1, MIB));
    let mut wrong = 0u64;
    let (ns, n) = pure_call(window_s / 3.0, 4, || {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_octet_seq(black_box(blob.clone()));
        let wire = w.finish();
        let mut reader = CdrReader::from_bytes(wire.to_contiguous());
        match reader.read_octet_seq() {
            Ok(back) if back.len() == MIB && back[MIB - 8..] == blob[MIB - 8..] => {
                black_box(back);
            }
            _ => wrong += 1,
        }
    });
    r.push("orb.cdr.copy_ns_per_mib", ns, "ns", n);

    let args = {
        let mut w = CdrWriter::new(MarshalStrategy::ZeroCopy);
        w.write_u64(words[0]);
        w.finish()
    };
    let (ns, n) = pure_call(window_s / 3.0, 256, || {
        let frame = giop::encode_request(
            black_box(7),
            true,
            ObjectKey(1),
            "echo",
            0,
            0,
            0,
            args.clone(),
        );
        match giop::decode(&frame) {
            Ok(giop::GiopMessage::Request { request_id: 7, .. }) => {}
            _ => wrong += 1,
        }
    });
    r.push("orb.giop.frame_ns", ns, "ns", n);
    r.attempted = 3;
    r.failed = u64::from(wrong > 0);
    r
}

/// The ORB two-way, split at the benchmark servant's entry/exit stamps.
fn orb(seed: u64, window_s: f64) -> Report {
    let rig = rpc_rig(seed);
    let t0 = Instant::now();
    let first = rig.echo(0);
    let connect_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let mut request = Vec::with_capacity(1 << 18);
    let mut servant = Vec::with_capacity(1 << 18);
    let mut reply = Vec::with_capacity(1 << 18);
    let t = timed_loop(window_s, |seq| {
        let t0 = now_ns();
        let ok = rig.echo(seq);
        let t1 = now_ns();
        let exit = rig
            .stamps
            .exit_ns
            .load(std::sync::atomic::Ordering::Acquire);
        let enter = rig
            .stamps
            .enter_ns
            .load(std::sync::atomic::Ordering::Relaxed);
        let matched = rig.stamps.op_id.load(std::sync::atomic::Ordering::Relaxed) == seq;
        if ok && matched && t0 <= enter && enter <= exit && exit <= t1 {
            request.push((enter - t0) as f64);
            servant.push((exit - enter) as f64);
            reply.push((t1 - exit) as f64);
        }
        ok && matched
    });
    let mut r = Report::default();
    round_trip(&mut r, "orb.twoway_rt_ns", "orb.twoway_rt_drift", t);
    r.failed += u64::from(!first);
    let n = request.len() as u64;
    r.push("orb.request_path_ns", stats::median(&mut request), "ns", n);
    r.push("orb.servant_ns", stats::median(&mut servant), "ns", n);
    r.push("orb.reply_path_ns", stats::median(&mut reply), "ns", n);
    r.push("orb.connect_us", connect_us, "us", 1);
    r
}

/// `submit()` and `wait()` of one outstanding request, timed apart.
fn mux(seed: u64, window_s: f64) -> Report {
    let rig = rpc_rig(seed);
    let first = rig.echo(0);
    let mut submit = Vec::with_capacity(1 << 18);
    let mut wait = Vec::with_capacity(1 << 18);
    let t = timed_loop(window_s, |seq| {
        let value = seq ^ rig.key;
        let t0 = now_ns();
        let handle = rig.obj.request("echo").arg_u64(value).submit();
        let t1 = now_ns();
        let answer = handle.wait();
        let t2 = now_ns();
        submit.push((t1 - t0) as f64);
        wait.push((t2 - t1) as f64);
        answer.is_ok_and(|mut reply| reply.read_u64().is_ok_and(|v| v == value))
    });
    let mut r = Report::default();
    let n = submit.len() as u64;
    r.push("orb.mux.submit_ns", stats::median(&mut submit), "ns", n);
    r.push("orb.mux.wait_ns", stats::median(&mut wait), "ns", n);
    r.attempted = t.attempted;
    r.failed = t.failed + u64::from(!first);
    r
}

/// Redistribution as pure calls, for the coupling workload's shape:
/// block-cyclic:256 over 2 ranks → block over 3.
fn redistribute(seed: u64, window_s: f64) -> Report {
    let mut r = Report::default();
    let (global, src, dst) = (
        gridccm::GLOBAL_ELEMS,
        gridccm::CLIENT_DIST,
        Distribution::Block,
    );
    let (clients, replicas) = (gridccm::CLIENTS, gridccm::REPLICAS);
    let mut wrong = 0u64;
    let (ns, n) = pure_call(window_s / 3.0, 16, || {
        match schedule(black_box(global), src, clients, dst, replicas) {
            Ok(runs) => {
                black_box(runs);
            }
            Err(_) => wrong += 1,
        }
    });
    r.push("core.redistribute.schedule_cold_ns", ns, "ns", n);
    let (ns, n) = pure_call(window_s / 3.0, 256, || {
        match schedule_cached(black_box(global), src, clients, dst, replicas) {
            Ok(runs) => {
                black_box(runs);
            }
            Err(_) => wrong += 1,
        }
    });
    r.push("core.redistribute.schedule_cached_ns", ns, "ns", n);

    // Server rank 0 assembling its block from both clients' strided chunks.
    let runs = schedule(global, src, clients, dst, replicas).expect("schedule");
    let local_elems = dst.local_len(global, 0, replicas);
    let chunks: Vec<Chunk> = receives_of(&runs, 0)
        .map(|run| Chunk {
            dst_offset: run.dst_offset,
            chunk_elems: run.chunk_elems,
            dst_stride: run.dst_stride,
            count: run.count,
            data: Bytes::from(stats::seeded_bytes(
                seed,
                run.src_rank as u64,
                run.elems() as usize * 4,
            )),
        })
        .collect();
    let mib = (local_elems * 4) as f64 / f64::from(1u32 << 20);
    let (ns, n) = pure_call(window_s / 3.0, 4, || {
        match assemble_block(4, local_elems, &chunks) {
            Ok(block) if block.len() as u64 == local_elems * 4 => {
                black_box(block);
            }
            _ => wrong += 1,
        }
    });
    r.push("core.redistribute.assemble_ns_per_mib", ns / mib, "ns", n);
    r.attempted = 3;
    r.failed = u64::from(wrong > 0);
    r
}

struct NoopServant;

impl ParallelServant for NoopServant {
    fn repository_id(&self) -> &str {
        "IDL:PadicoBenchmark/Noop:1.0"
    }

    fn invoke_parallel(
        &self,
        _op: &str,
        args: &ParArgs,
        _ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        args.dist(0)?;
        Ok(None)
    }
}

/// `ParallelRef::invoke` 1→1 with one `i32`: the GridCCM interception
/// layers over the same ORB rig as the `orb` probe.
fn parallel(window_s: f64) -> Report {
    let interface = InterfaceDef {
        repo_id: "IDL:PadicoBenchmark/Noop:1.0".into(),
        ops: vec![OpDef::new(
            "put",
            vec![ArgDef::new("values", ParamKind::Sequence)],
            None,
        )],
    };
    let xml = r#"<parallelism interface="IDL:PadicoBenchmark/Noop:1.0">
                   <operation name="put"><argument index="0" distribution="block"/></operation>
                 </parallelism>"#;
    let plan = Arc::new(InterceptionPlan::compile(&interface, xml).expect("plan"));
    let pair = boot_pair();
    let start = |i: usize| {
        Orb::start(
            Arc::clone(&pair.tms[i]),
            "bench",
            OrbProfile::omniorb3(),
            MYRINET,
        )
        .expect("orb starts")
    };
    let (client_orb, server_orb) = (start(0), start(1));
    let adapter = ParallelAdapter::new(Arc::new(NoopServant), Arc::clone(&plan));
    adapter.configure(0, 1, None);
    let replica = client_orb.object_ref(server_orb.activate(adapter));
    let client = ParallelRef::new("ledger", plan, vec![replica], 0, 1).expect("client handle");
    let arg = DistSeq::from_i32_local(1, Distribution::Block, 0, 1, &[7]).expect("one element");
    let put = || {
        matches!(
            client.invoke("put", vec![ParValue::Dist(arg.clone())]),
            Ok(None)
        )
    };
    let first = put();
    let t = timed_loop(window_s, |_| put());
    let mut r = Report::default();
    round_trip(
        &mut r,
        "core.parallel.invoke_rt_ns",
        "core.parallel.invoke_rt_drift",
        t,
    );
    r.failed += u64::from(!first);
    r
}

/// CCM set-up costs and the two halves of a coupling step.
fn ccm(seed: u64, window_s: f64) -> Report {
    let (rig, _setup_s) = gridccm::setup(seed);
    let phases = probe_phases(window_s);
    let mut run = gridccm::couple(&rig, phases);
    let rank0 = run.ranks.swap_remove(0);
    let store = stats::summarise(vec![rank0.store.into_vec()], phases.window());
    let fetch = stats::summarise(vec![rank0.fetch.into_vec()], phases.window());
    let mut r = Report::default();
    r.push("ccm.boot_ms", rig.boot_s * 1e3, "ms", 1);
    r.push("ccm.deploy_ms", rig.deploy_s * 1e3, "ms", 1);
    r.push(
        "core.parallel.store_us",
        store.p50_ns / 1e3,
        "us",
        store.count as u64,
    );
    r.push(
        "core.parallel.fetch_us",
        fetch.p50_ns / 1e3,
        "us",
        fetch.count as u64,
    );
    r.attempted = run.attempted;
    r.failed = run.failed;
    r
}

/// The world scheduler alone: `world_ring` at a fifth of its size.
fn sched(seed: u64, window_s: f64) -> Report {
    let nodes = world::NODES / 5;
    let rss_before = stats::rss_bytes();
    let (ring, boot_s) = world::boot(nodes, world::TOKENS / 4, seed);
    let rss_after = stats::rss_bytes();
    let phases = probe_phases(window_s);
    let (_logs, in_window, events, failed) = world::circulate(&ring, seed, phases);
    let mut r = Report::default();
    r.push(
        "fabric.sched.event_ns",
        window_s * 1e9 / in_window.max(1) as f64,
        "ns",
        in_window,
    );
    r.push(
        "fabric.sched.boot_us_per_node",
        boot_s * 1e6 / nodes as f64,
        "us",
        nodes as u64,
    );
    r.push(
        "fabric.sched.rss_bytes_per_node",
        rss_after.saturating_sub(rss_before) as f64 / nodes as f64,
        "B",
        nodes as u64,
    );
    r.attempted = events;
    r.failed = failed;
    r
}

pub fn probe(name: &str, seed: u64, window_s: f64) -> Option<Report> {
    Some(match name {
        "fabric" => fabric(seed, window_s),
        "circuit" => circuit(seed, window_s),
        "circuit_burst" => circuit_burst(window_s),
        "vlink" => vlink(seed, window_s),
        "mpi" => {
            let mut r = Report::default();
            round_trip(
                &mut r,
                "mpi.rt_ns",
                "mpi.rt_drift",
                mpi(seed, window_s, SMALL),
            );
            r
        }
        "mpi_64k" => {
            let t = mpi(seed, window_s, coexist::MPI_MESSAGE);
            let mut r = Report::default();
            r.push(
                "mpi.rt_64k_ns",
                t.summary.p50_ns,
                "ns",
                t.summary.count as u64,
            );
            r.attempted = t.attempted;
            r.failed = t.failed;
            r
        }
        "cdr" => cdr(seed, window_s),
        "orb" => orb(seed, window_s),
        "mux" => mux(seed, window_s),
        "redistribute" => redistribute(seed, window_s),
        "parallel" => parallel(window_s),
        "ccm" => ccm(seed, window_s),
        "sched" => sched(seed, window_s),
        _ => return None,
    })
}
