//! Per-node footprint regression test for `PadicoTM::boot_all`.
//!
//! Every grid node of a world lives in one process, so the bytes each
//! node's records cost decide how large a world fits. A counting global
//! allocator measures what building and booting a 10 000-node
//! Fast-Ethernet world allocates (above the parallel-boot threshold, so
//! the sharded boot path is the one measured) and how much of it stays
//! live while the runtimes are held. The bounds are the measured values
//! plus ~10 % headroom: a new per-node allocation or a grown node record
//! fails here before it shows up as world-level RSS. A NIC timeline's
//! history, the other per-node cost, is held to bounded growth steps.
//! This file is its own test binary so no other suite's allocations are
//! counted, and its tests take turns on the counters.

use padico::fabric::topology::Topology;
use padico::fabric::{presets, SecurityZone};
use padico::tm::runtime::PARALLEL_BOOT_THRESHOLD;
use padico::tm::PadicoTM;
use padico::util::simtime::ResourceTimeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NODES: usize = 10_000;
/// `(allocations, live bytes)` per node for `Topology` construction
/// (measured: 1 and 244), with ~10 % headroom.
const TOPOLOGY_BUDGET: (f64, f64) = (1.1, 270.0);
/// `(allocations, live bytes)` per node for `PadicoTM::boot_all`
/// (measured: 6 and 521), with ~10 % headroom.
const BOOT_BUDGET: (f64, f64) = (6.6, 575.0);

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

#[test]
fn world_boot_stays_within_its_per_node_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const {
        assert!(
            NODES >= PARALLEL_BOOT_THRESHOLD,
            "measure the parallel boot"
        )
    };
    let (topo, cost) = per_node(|| {
        let mut b = Topology::builder();
        let ids = b.machine("w", "footprint", NODES, SecurityZone::Trusted);
        b.fabric(presets::ethernet100(), ids);
        Arc::new(b.build())
    });
    assert_within("Topology", cost, TOPOLOGY_BUDGET);
    // Start the world scheduler first: its worker pool is per world, not
    // per node.
    topo.sched();
    let (tms, cost) = per_node(|| PadicoTM::boot_all(Arc::clone(&topo)).unwrap());
    assert_eq!(tms.len(), NODES);
    assert_within("PadicoTM::boot_all", cost, BOOT_BUDGET);
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
    assert_eq!(bytes, 72 * 16, "64 intervals grew by 8, not to 128");
}
