//! The `world_*` benches: a 10k/100k-node ring driven end-to-end by the
//! discrete-event progress core in one process.
//!
//! A thread per node would top out around the OS thread limit; the
//! point of [`padico_fabric::sched::WorldSched`] is that world size is
//! bounded by memory, not by threads. This module proves it: every node
//! is a [`NodeCell`](padico_tm::NodeCell) with a reactive channel
//! handler, tokens circulate around the ring for a fixed number of hops
//! (each hop one scheduler event, with per-node virtual-time jitter so
//! the heaps genuinely reorder), and the run ends when the scheduler
//! quiesces. The report carries the two numbers the tentpole is judged
//! by: sustained events per wall-clock second and peak RSS.

use padico_fabric::topology::Topology;
use padico_fabric::{presets, Payload, SecurityZone};
use padico_tm::{PadicoTM, TmConfig, TraceSampling};
use padico_util::ids::ChannelId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much of the observability stack a world run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldObs {
    /// No per-hop instrumentation (the historical baseline). Scheduler
    /// lane telemetry still runs — it is always on.
    Off,
    /// Flight recorder on: head-based span sampling at 1-in-64 tokens
    /// (a sampled token gets a root span *per hop*) plus a virtual-time
    /// timeseries point per sampled hop. This is the configuration the
    /// ≤5% events/s overhead gate measures.
    Full,
}

/// Sampling rate used by [`WorldObs::Full`]: one in this many tokens is
/// traced end to end.
pub const OBS_SAMPLE_EVERY: u32 = 64;

/// One logical channel shared by every node of the world: the ring
/// protocol needs no demultiplexing beyond the destination node, and a
/// single id keeps the per-node channel maps at one entry.
const RING_CHANNEL: ChannelId = ChannelId(0x0057_0052_004c_0044); // "WORLD"

/// Upper bound of the per-hop virtual-time jitter drawn from the node's
/// own seeded rng stream (ns). Non-zero so heap order is exercised
/// rather than degenerate FIFO.
const JITTER_NS: u64 = 500;

/// What one world run measured.
#[derive(Debug, Clone)]
pub struct WorldReport {
    pub nodes: usize,
    pub tokens: usize,
    pub hops: u64,
    /// Events dispatched by the world scheduler during the run.
    pub events: u64,
    /// Wall-clock seconds spent circulating tokens (boot excluded).
    pub wall_s: f64,
    pub events_per_sec: f64,
    /// Wall-clock seconds spent booting the world.
    pub boot_s: f64,
    /// Peak resident set size of the whole process (MiB), from VmHWM.
    pub peak_rss_mb: f64,
    /// The scheduler's virtual-time frontier at the end of the run (ms).
    pub horizon_ms: f64,
    /// Cross-shard steals performed by the worker pool.
    pub steals: u64,
    /// What the run carried (see [`WorldObs`]).
    pub obs: WorldObs,
    /// Scheduler lane-telemetry samples retained / dropped at the end.
    pub lane_samples: u64,
    pub lane_dropped: u64,
    /// Spans the sampled tokens left in the buffers (`world.hop` layer).
    pub sampled_spans: u64,
    /// Points the run folded into the `world.hop` timeseries.
    pub ts_points: u64,
}

/// Peak RSS of this process in MiB (`VmHWM` from `/proc/self/status`),
/// or 0.0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()) {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

/// Run a token-passing world: `n` nodes in a ring on one Fast-Ethernet
/// fabric, `tokens` tokens injected at evenly spaced nodes, each
/// forwarded `hops` times before it retires. Panics if the scheduler
/// fails to quiesce within the deadline (a liveness bug, not load).
pub fn run_world(n: usize, tokens: usize, hops: u64) -> WorldReport {
    run_world_with(n, tokens, hops, WorldObs::Off)
}

/// [`run_world`] with an explicit observability mode — `Full` is the
/// flight-recorder configuration the overhead gate compares against
/// `Off`.
pub fn run_world_with(n: usize, tokens: usize, hops: u64, obs: WorldObs) -> WorldReport {
    assert!(n >= 2 && tokens >= 1 && hops >= 1);
    let prev_sampling = padico_util::span::sampling();
    let boot_start = std::time::Instant::now();
    let mut b = Topology::builder();
    let ids = b.machine("w", "world-ring", n, SecurityZone::Trusted);
    b.fabric(presets::ethernet100(), ids.clone());
    let topo = Arc::new(b.build());
    let cfg = TmConfig {
        trace_sampling: match obs {
            WorldObs::Off => TraceSampling::Always,
            WorldObs::Full => TraceSampling::SampleEvery(OBS_SAMPLE_EVERY),
        },
        ..TmConfig::default()
    };
    let tms = PadicoTM::boot_all_with_config(Arc::clone(&topo), cfg).unwrap();
    let fabric = topo.fabrics()[0].id();

    // Every node: merge the arrival stamp, retire the token at hop 0,
    // otherwise jitter the local clock and forward. The handler runs
    // inline on the scheduler's worker pool — no thread per node — and
    // sending from inside a dispatch is the normal reactive idiom.
    let completed = Arc::new(AtomicU64::new(0));
    for (i, tm) in tms.iter().enumerate() {
        let net = Arc::clone(tm.net());
        let clock = tm.clock().share();
        let next = ids[(i + 1) % n];
        let node_id = ids[i].0;
        let completed = Arc::clone(&completed);
        tm.net()
            .on_channel(
                RING_CHANNEL,
                Arc::new(move |msg| {
                    msg.deliver(&clock);
                    let bytes = msg.payload.to_vec();
                    let hops_left = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                    let token = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                    if hops_left == 0 {
                        completed.fetch_add(1, Ordering::Relaxed);
                        if obs == WorldObs::Full {
                            padico_util::timeseries::bump("world.token.retired", clock.now());
                        }
                        return;
                    }
                    // Under Full observability a sampled token is traced
                    // hop by hop: the root-span gate is the same
                    // trace-id hash every other layer uses, so the cost
                    // of an unsampled hop is one hash.
                    let _hop_span = (obs == WorldObs::Full).then(|| {
                        padico_util::span::root(
                            &clock,
                            node_id,
                            token,
                            "world.hop",
                            "hop",
                        )
                    });
                    let jitter = net.cell().jitter(JITTER_NS);
                    clock.advance(jitter);
                    if obs == WorldObs::Full && padico_util::span::trace_sampled(token) {
                        padico_util::timeseries::record("world.hop", clock.now(), jitter);
                    }
                    let mut wire = Vec::with_capacity(16);
                    wire.extend_from_slice(&(hops_left - 1).to_le_bytes());
                    wire.extend_from_slice(&token.to_le_bytes());
                    net.send(fabric, next, RING_CHANNEL, Payload::from_vec(wire))
                        .unwrap();
                }),
            )
            .unwrap();
    }
    let boot_s = boot_start.elapsed().as_secs_f64();

    let sched = topo.sched();
    let before = sched.stats();
    let run_start = std::time::Instant::now();
    for t in 0..tokens {
        let src = (t * n) / tokens;
        let mut wire = Vec::with_capacity(16);
        wire.extend_from_slice(&hops.to_le_bytes());
        wire.extend_from_slice(&(t as u64).to_le_bytes());
        tms[src]
            .net()
            .send(fabric, ids[(src + 1) % n], RING_CHANNEL, Payload::from_vec(wire))
            .unwrap();
    }
    assert!(
        sched.quiesce(std::time::Duration::from_secs(600)),
        "world scheduler failed to quiesce"
    );
    let wall_s = run_start.elapsed().as_secs_f64();
    let after = sched.stats();

    assert_eq!(
        completed.load(Ordering::Relaxed),
        tokens as u64,
        "tokens lost in the world"
    );
    // One delivery per hops_left value hops..=0: hops+1 events a token.
    let events = after.delivered - before.delivered;
    assert_eq!(
        events,
        tokens as u64 * (hops + 1),
        "event count must be exactly tokens x (hops+1)"
    );
    let sampled_spans = match obs {
        WorldObs::Off => 0,
        WorldObs::Full => padico_util::span::snapshot()
            .iter()
            .filter(|s| s.layer == "world.hop")
            .count() as u64,
    };
    let ts_points = padico_util::timeseries::snapshot()
        .series("world.hop")
        .map_or(0, |s| s.total_count());
    // Sampling policy is process-global (installed at boot): put back
    // whatever was in force before this run.
    padico_util::span::set_sampling(prev_sampling);
    WorldReport {
        nodes: n,
        tokens,
        hops,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        boot_s,
        peak_rss_mb: peak_rss_mb(),
        horizon_ms: after.horizon as f64 / 1e6,
        steals: after.steals - before.steals,
        obs,
        lane_samples: after.lane_samples,
        lane_dropped: after.lane_dropped,
        sampled_spans,
        ts_points,
    }
}
