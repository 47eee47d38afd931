//! `world_ring`: 100 000 reactive nodes in a ring on one Fast-Ethernet
//! fabric, 256 tokens circulating, every hop one event of the world
//! scheduler. Exercises `fabric::sched`, parallel boot and the per-node
//! footprint, and nothing above the arbitration layer.
//!
//! Tokens circulate for the whole run instead of a fixed hop count, so
//! the window is wall-clock like every other workload's; the invariant
//! `events == tokens × (hops + 1)` becomes `events == Σ(final hop + 1)`
//! per token, checked when the tokens retire.

use super::Begin;
use crate::harness::{Outcome, Params};
use crate::spans;
use crate::stats::{self, now_ns, Sample};
use padico::fabric::topology::Topology;
use padico::fabric::{presets, Payload, SecurityZone};
use padico::tm::runtime::PadicoTM;
use padico::util::ids::ChannelId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NODES: usize = 100_000;
pub const TOKENS: usize = 256;
/// Hops per latency sample: an operation is one token advancing this far.
const SEGMENT_HOPS: u64 = 64;
/// One logical channel for the whole ring ("WORLD").
const RING_CHANNEL: ChannelId = ChannelId(0x0057_0052_004c_0044);
/// Upper bound of the per-hop virtual-time jitter (ns), so the event heaps
/// reorder instead of degenerating to FIFO.
const JITTER_NS: u64 = 500;
/// Bytes of one token message: hop index + token id.
const TOKEN_BYTES: u64 = 16;

/// Per-token bookkeeping, each on its own cache line: one token is handled
/// by one scheduler worker at a time, so nothing here is contended.
#[repr(align(64))]
struct Token {
    /// Handler invocations that saw this token.
    events: AtomicU64,
    /// Hop index it carried when it retired.
    final_hop: AtomicU64,
    log: Mutex<SegmentLog>,
}

struct SegmentLog {
    last_ns: u64,
    samples: Vec<Sample>,
}

struct Shared {
    nodes: usize,
    stop: AtomicBool,
    retired: AtomicU64,
    /// Arrivals at the wrong node, or malformed tokens.
    misrouted: AtomicU64,
    tokens: Vec<Token>,
}

pub struct World {
    tms: Vec<Arc<PadicoTM>>,
    topo: Arc<Topology>,
    shared: Arc<Shared>,
    nodes: usize,
    tokens: usize,
}

fn wire(hop: u64, token: u64) -> Payload {
    let mut bytes = Vec::with_capacity(TOKEN_BYTES as usize);
    bytes.extend_from_slice(&hop.to_le_bytes());
    bytes.extend_from_slice(&token.to_le_bytes());
    Payload::from_vec(bytes)
}

/// Where the seed turns the ring: token 0 starts at this node.
fn seed_offset(seed: u64, nodes: usize) -> usize {
    (stats::mix(seed) % nodes as u64) as usize
}

/// Node a token starts from: spaced evenly round the ring from `offset`.
fn start_node(token: usize, tokens: usize, nodes: usize, offset: usize) -> usize {
    (token * nodes / tokens + offset) % nodes
}

/// Boot the world and install the ring handler on every node.
pub fn boot(nodes: usize, tokens: usize, seed: u64) -> (World, f64) {
    let t0 = Instant::now();
    let mut b = Topology::builder();
    let ids = b.machine("w", "world-ring", nodes, SecurityZone::Trusted);
    b.fabric(presets::ethernet100(), ids.clone());
    let topo = Arc::new(b.build());
    let tms = {
        let _span = spans::span("boot_all", spans::SETUP_OP);
        PadicoTM::boot_all(Arc::clone(&topo)).expect("world boots")
    };
    let fabric = topo.fabrics()[0].id();
    let shared = Arc::new(Shared {
        nodes,
        stop: AtomicBool::new(false),
        retired: AtomicU64::new(0),
        misrouted: AtomicU64::new(0),
        tokens: (0..tokens)
            .map(|_| Token {
                events: AtomicU64::new(0),
                final_hop: AtomicU64::new(0),
                log: Mutex::new(SegmentLog {
                    last_ns: 0,
                    samples: Vec::with_capacity(1 << 12),
                }),
            })
            .collect(),
    });
    for (i, tm) in tms.iter().enumerate() {
        let net = Arc::clone(tm.net());
        let clock = tm.clock().share();
        let next = ids[(i + 1) % nodes];
        let shared = Arc::clone(&shared);
        let offset = seed_offset(seed, nodes);
        tm.net()
            .on_channel(
                RING_CHANNEL,
                Arc::new(move |msg| {
                    msg.deliver(&clock);
                    let bytes = msg.payload.to_contiguous();
                    let (Some(hop), Some(token)) = (
                        bytes
                            .get(..8)
                            .and_then(|b| b.try_into().ok())
                            .map(u64::from_le_bytes),
                        bytes
                            .get(8..16)
                            .and_then(|b| b.try_into().ok())
                            .map(u64::from_le_bytes),
                    ) else {
                        shared.misrouted.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    let Some(state) = shared.tokens.get(token as usize) else {
                        shared.misrouted.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    state.events.fetch_add(1, Ordering::Relaxed);
                    // Hop h of a token lands h+1 nodes past its start.
                    let start = start_node(token as usize, tokens, shared.nodes, offset);
                    if (start as u64 + hop + 1) % shared.nodes as u64 != i as u64 {
                        shared.misrouted.fetch_add(1, Ordering::Relaxed);
                    }
                    if hop % SEGMENT_HOPS == 0 {
                        let now = now_ns();
                        let mut log = state.log.lock();
                        if hop > 0 {
                            let sample = Sample {
                                end_us: (now / 1_000) as u32,
                                dur_ns: (now - log.last_ns).min(u64::from(u32::MAX)) as u32,
                            };
                            log.samples.push(sample);
                        }
                        log.last_ns = now;
                    }
                    if shared.stop.load(Ordering::Relaxed) {
                        state.final_hop.store(hop, Ordering::Relaxed);
                        shared.retired.fetch_add(1, Ordering::Release);
                        return;
                    }
                    clock.advance(net.cell().jitter(JITTER_NS));
                    if net
                        .send(fabric, next, RING_CHANNEL, wire(hop + 1, token))
                        .is_err()
                    {
                        shared.misrouted.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            )
            .expect("ring handler installs");
    }
    let world = World {
        tms,
        topo,
        shared,
        nodes,
        tokens,
    };
    (world, t0.elapsed().as_secs_f64())
}

pub fn setup(seed: u64) -> (World, f64) {
    boot(NODES, TOKENS, seed)
}

impl World {
    fn inject(&self, seed: u64) {
        let _span = spans::span("inject", spans::SETUP_OP + 1);
        let fabric = self.topo.fabrics()[0].id();
        let ids: Vec<_> = self.topo.nodes().iter().map(|n| n.id).collect();
        let offset = seed_offset(seed, self.nodes);
        for t in 0..self.tokens {
            let src = start_node(t, self.tokens, self.nodes, offset);
            self.tms[src]
                .net()
                .send(
                    fabric,
                    ids[(src + 1) % self.nodes],
                    RING_CHANNEL,
                    wire(0, t as u64),
                )
                .expect("token injects");
        }
    }

    fn events(&self) -> u64 {
        self.shared
            .tokens
            .iter()
            .map(|t| t.events.load(Ordering::Relaxed))
            .sum()
    }

    /// Retire every token, wait for the scheduler to drain, and check the
    /// books. Returns `(events, failed)`.
    fn retire(&self) -> (u64, u64) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let quiet = {
            let _span = spans::span("quiesce", spans::SETUP_OP + 2);
            self.topo.sched().quiesce(Duration::from_secs(60))
        };
        let events = self.events();
        let expected: u64 = self
            .shared
            .tokens
            .iter()
            .map(|t| t.final_hop.load(Ordering::Relaxed) + 1)
            .sum();
        let retired = self.shared.retired.load(Ordering::Acquire);
        let mut failed = self.shared.misrouted.load(Ordering::Relaxed);
        failed += u64::from(!quiet);
        failed += self.tokens as u64 - retired.min(self.tokens as u64);
        failed += events.abs_diff(expected);
        (events, failed)
    }
}

/// Circulate tokens through warm-up and window; `(outcome pieces)`.
pub fn circulate(
    world: &World,
    seed: u64,
    phases: crate::harness::Phases,
) -> (Vec<Vec<Sample>>, u64, u64, u64) {
    let sleep_until = |t_ns: u64| {
        let now = now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    };
    world.inject(seed);
    sleep_until(phases.warm_until_ns);
    let before = world.events();
    sleep_until(phases.stop_at_ns);
    let in_window = world.events() - before;
    let (events, failed) = world.retire();
    let logs = world
        .shared
        .tokens
        .iter()
        .map(|t| std::mem::take(&mut t.log.lock().samples))
        .collect();
    (logs, in_window, events, failed)
}

pub fn ring(params: &Params, begin: Begin) -> Outcome {
    let (world, setup_s) = setup(params.seed);
    let phases = begin(params);
    let (logs, in_window, events, failed) = circulate(&world, params.seed, phases);
    Outcome {
        setup_s,
        window: phases.window(),
        logs,
        ops_in_window: in_window,
        payload_bytes_in_window: in_window * TOKEN_BYTES,
        attempted: events,
        failed,
        extra: Vec::new(),
    }
}
