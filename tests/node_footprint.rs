//! Per-node footprint regression test for `PadicoTM::boot_all`.
//!
//! Every grid node of a world lives in one process, so the bytes each
//! node's records cost decide how large a world fits. A counting global
//! allocator measures what building and booting a 10 000-node
//! Fast-Ethernet world allocates (above the parallel-boot threshold, so
//! the sharded boot path is the one measured) and how much of it stays
//! live while the runtimes are held. The bounds are the measured values
//! plus ~10 % headroom: a new per-node allocation or a grown node record
//! fails here before it shows up as world-level RSS. What a booted node
//! adds when it claims its first channel and sends its first hop (the
//! `world_ring` path) is held the same way. A NIC timeline's history,
//! the other per-node cost, is held to bounded growth steps.
//! This file is its own test binary so no other suite's allocations are
//! counted, and its tests take turns on the counters.

use padico::fabric::topology::Topology;
use padico::fabric::{presets, Payload, SecurityZone};
use padico::tm::runtime::PARALLEL_BOOT_THRESHOLD;
use padico::tm::PadicoTM;
use padico::util::ids::ChannelId;
use padico::util::simtime::ResourceTimeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 10_000;
/// `(allocations, live bytes)` per node for `Topology` construction
/// (measured: 0.00 and 168.4: a 24-byte node record that shares its
/// machine's name prefix and renders its name on demand, and a 136-byte
/// fabric slot; recovery slots are allocated in blocks on first use,
/// which no node here makes), with ~10 % headroom.
const TOPOLOGY_BUDGET: (f64, f64) = (0.1, 185.0);
/// `(allocations, live bytes)` per node for `PadicoTM::boot_all`
/// (measured: 3.00 and 304.4: the `PadicoTM`, its clock, one `NetAccess`
/// holding the node's cell and its first fabric endpoint, and the node's
/// slot in the scheduler's handler table, sized once for the world; the
/// world scheduler is every node's port sink, held once by the fabric,
/// and each registry shard holds room for its first channel), with
/// ~10 % headroom.
const BOOT_BUDGET: (f64, f64) = (3.3, 335.0);
/// `(allocations, live bytes)` per node for claiming one channel on every
/// booted node (measured: 1 and 16, the handler alone: a registry shard
/// holds its first channel inline), with ~10 % headroom.
const CHANNEL_BUDGET: (f64, f64) = (1.1, 18.0);
/// `(allocations, live bytes)` per node for one 16-byte hop from every
/// node to the next, delivered (measured: 4.02 and 36.6: the rx history's
/// first 4 runs of 8 bytes; the tx history keeps its one interval inline.
/// The same in debug and release builds and on a loaded host: see
/// [`HOP_BATCH`]), with ~10 % headroom.
const HOP_BUDGET: (f64, f64) = (4.4, 40.0);

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Live bytes allocated by this thread, untouched by other threads'
    /// background frees.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    // Unavailable only while the thread's locals are torn down.
    let _ = THREAD_LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests read process-wide counters: one measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f`, returning its result and the `(allocations, live bytes)` per
/// node it left behind.
fn per_node<T>(f: impl FnOnce() -> T) -> (T, (f64, f64)) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    let out = f();
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / NODES as f64;
    let live = (LIVE.load(Ordering::Relaxed) - live) as f64 / NODES as f64;
    (out, (allocs, live))
}

fn assert_within(what: &str, (allocs, live): (f64, f64), (max_allocs, max_live): (f64, f64)) {
    println!("{what}: {allocs:.2} allocations and {live:.1} live bytes per node");
    assert!(
        allocs <= max_allocs,
        "{what} made {allocs:.2} allocations per node (budget {max_allocs})"
    );
    assert!(
        live <= max_live,
        "{what} keeps {live:.1} live bytes per node (budget {max_live})"
    );
}

/// A `NODES`-node Fast-Ethernet world, as both tests build it.
fn world() -> Arc<Topology> {
    let mut b = Topology::builder();
    let ids = b.machine("w", "footprint", NODES, SecurityZone::Trusted);
    b.fabric(presets::ethernet100(), ids);
    Arc::new(b.build())
}

#[test]
fn world_boot_stays_within_its_per_node_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const {
        assert!(
            NODES >= PARALLEL_BOOT_THRESHOLD,
            "measure the parallel boot"
        )
    };
    let (topo, cost) = per_node(world);
    assert_within("Topology", cost, TOPOLOGY_BUDGET);
    // Start the world scheduler first: its worker pool is per world, not
    // per node.
    topo.sched();
    let (tms, cost) = per_node(|| PadicoTM::boot_all(Arc::clone(&topo)).unwrap());
    assert_eq!(tms.len(), NODES);
    assert_within("PadicoTM::boot_all", cost, BOOT_BUDGET);
}

/// Hops sent between two waits for quiescence. The world-level buffers a
/// hop passes through (the scheduler's heap shards, the payload slab
/// shelves, which keep 64 slabs per size class and 32 per thread) then never
/// hold more than one batch, however the workers keep up with the sends:
/// under 2 B and 0.02 allocations per node.
const HOP_BATCH: usize = 64;

#[test]
fn first_channel_and_hop_stay_within_their_per_node_budgets() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let topo = world();
    let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
    let ch = ChannelId(7);
    let ((), cost) = per_node(|| {
        for tm in &tms {
            tm.net().on_channel(ch, Arc::new(|_| {})).unwrap();
        }
    });
    assert_within("one channel", cost, CHANNEL_BUDGET);
    // The scheduler's lane log is world-level too, and grows with how
    // the workers batch: it starts empty and is emptied again before the
    // count is read.
    topo.sched().clear_lanes();
    let fabric = topo.fabrics()[0].id();
    let ((), cost) = per_node(|| {
        for start in (0..NODES).step_by(HOP_BATCH) {
            for i in start..(start + HOP_BATCH).min(NODES) {
                let next = tms[(i + 1) % NODES].net().node();
                tms[i]
                    .net()
                    .send(fabric, next, ch, Payload::from_vec(vec![0; 16]))
                    .unwrap();
            }
            assert!(
                topo.sched().quiesce(Duration::from_secs(60)),
                "every hop lands"
            );
        }
        topo.sched().clear_lanes();
    });
    assert_within("first hop", cost, HOP_BUDGET);
}

#[test]
fn timeline_history_grows_by_an_eighth_past_64_intervals() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let timeline = ResourceTimeline::new();
    let live = THREAD_LIVE.with(Cell::get);
    // 72 disjoint busy intervals: doubled, the history would hold 128.
    for i in 0..72u64 {
        timeline.reserve(i * 10, 1);
    }
    let bytes = THREAD_LIVE.with(Cell::get) - live;
    assert_eq!(bytes, 72 * 8, "64 intervals grew by 8, not to 128");
}

/// A million-node world runs one token round: 256 tokens, each from its
/// start node to the next token's, so every node receives exactly one
/// hop. Prints how long `PadicoTM::boot_all` takes and what a node costs
/// booted and after its hop; no bound is
/// checked until rx history stops growing with traffic. Needs ~1 GB: run
/// it with `cargo test --release --test node_footprint -- --ignored
/// --nocapture`.
#[test]
#[ignore]
fn million_node_world_runs_one_token_round() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const MILLION: usize = 1_000_000;
    const TOKENS: usize = 256;
    let start = |t: usize| t * MILLION / TOKENS;
    let is_start = |i: usize| start((i * TOKENS).div_ceil(MILLION)) == i;
    let live = LIVE.load(Ordering::Relaxed);
    let per_node = || (LIVE.load(Ordering::Relaxed) - live) as f64 / MILLION as f64;
    let mut b = Topology::builder();
    let ids = b.machine("m", "million", MILLION, SecurityZone::Trusted);
    b.fabric(presets::ethernet100(), ids);
    let topo = Arc::new(b.build());
    let started = Instant::now();
    let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
    println!(
        "booted in {:.0} ms: {:.1} live bytes per node",
        started.elapsed().as_secs_f64() * 1e3,
        per_node()
    );
    let fabric = topo.fabrics()[0].id();
    let ch = ChannelId(11);
    let hops = Arc::new(AtomicU64::new(0));
    for (i, tm) in tms.iter().enumerate() {
        let (net, hops) = (Arc::downgrade(tm.net()), Arc::clone(&hops));
        let next = tms[(i + 1) % MILLION].net().node();
        let forward = !is_start(i);
        let handler = move |_msg| {
            hops.fetch_add(1, Ordering::Relaxed);
            if let (true, Some(net)) = (forward, net.upgrade()) {
                net.send(fabric, next, ch, Payload::from_vec(vec![0; 16]))
                    .expect("hop sends");
            }
        };
        tm.net().on_channel(ch, Arc::new(handler)).unwrap();
    }
    for t in 0..TOKENS {
        let src = start(t);
        let next = tms[src + 1].net().node();
        tms[src]
            .net()
            .send(fabric, next, ch, Payload::from_vec(vec![0; 16]))
            .unwrap();
    }
    assert!(
        topo.sched().quiesce(Duration::from_secs(600)),
        "the round ends"
    );
    assert_eq!(
        hops.load(Ordering::Relaxed),
        MILLION as u64,
        "one hop per node"
    );
    println!("after one round: {:.1} live bytes per node", per_node());
}
