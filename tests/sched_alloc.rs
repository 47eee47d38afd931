//! Steady-state allocation test for the world scheduler's event path.
//!
//! Event records live inline in the scheduler's heap shards, and a
//! one-segment payload holds its segment inline, so once a scheduler is
//! warm — its heaps, its batch scratch and its lane log at their working
//! size — posting and dispatching an event allocates nothing at all. A
//! counting global allocator checks exactly that, across every thread
//! of the process (the worker included). The slab pool must stay warm
//! on the full send path too: kernel copies on a socket fabric recycle
//! their slabs. This file is its own test binary so no other suite's
//! allocations are counted, and its tests take turns on the counters.

use padico::fabric::topology::Topology;
use padico::fabric::{
    pool, presets, EndpointAddr, Message, NodeHandler, Payload, SecurityZone, WorldSched,
};
use padico::tm::PadicoTM;
use padico::util::ids::{ChannelId, NodeId};
use padico::util::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests read process-wide counters: one measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(10);

#[test]
fn warm_scheduler_makes_zero_allocations_per_event() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sched = WorldSched::start(4, 1, Telemetry::new());
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let handler: NodeHandler = Arc::new(move |m: Message| {
        h.fetch_add(m.payload.len() as u64, Ordering::Relaxed);
    });
    for n in 0..4 {
        sched.register(NodeId(n), &handler);
    }
    // Cloning a one-segment payload is a refcount bump: the loop posts
    // nothing the test allocates.
    let proto = Message {
        src: EndpointAddr {
            node: NodeId(9),
            port: 1,
        },
        channel: ChannelId(1),
        arrival: 0,
        recv_cost: 0,
        corrupted: false,
        payload: Payload::from_vec(vec![7; 16]),
    };
    // A burst per round: 16 events over 4 nodes. Virtual times stay in
    // the first 1 ms telemetry window (a new window allocates its
    // buckets once, whatever the event count).
    let round = |r: u64| {
        for i in 0..16u64 {
            let vt = (r * 16 + i) % 1000;
            sched.post(NodeId((i % 4) as u32), vt, NodeId(9), proto.clone());
        }
        assert!(sched.quiesce(WAIT), "round {r} quiesces");
    };
    // Warm: past the lane log's window (4 096 batches), so it stops
    // growing, and the heaps and scratch reach their working size.
    for r in 0..6000 {
        round(r);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for r in 0..1000 {
        round(r);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "16 000 warm events allocated {allocs} times");
    assert_eq!(hits.load(Ordering::Relaxed), 7000 * 16 * 16);
    sched.stop();
}

#[test]
fn warm_socket_sends_keep_the_slabs_warm() {
    // Every send on a socket fabric copies into a pooled slab that the
    // receiver's handler returns: once warm, none of them allocates one.
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = Topology::builder();
    let ids = b.machine("s", "slabs", 2, SecurityZone::Trusted);
    b.fabric(presets::ethernet100(), ids.clone());
    let topo = Arc::new(b.build());
    let tms = PadicoTM::boot_all(Arc::clone(&topo)).unwrap();
    let ch = ChannelId(3);
    tms[1].net().on_channel(ch, Arc::new(|_| {})).unwrap();
    let fabric = topo.fabrics()[0].id();
    // One hop at a time, each delivered before the next: at most one slab
    // is in flight, so once warm every lease finds a returned one.
    let send = || {
        tms[0]
            .net()
            .send(fabric, ids[1], ch, Payload::from_vec(vec![1; 64]))
            .unwrap();
        assert!(topo.sched().quiesce(WAIT));
    };
    // Warm: past the receiving worker's own shelf (32 slabs it keeps and
    // never leases from), so the rest come back to the shared shelf.
    for _ in 0..100 {
        send();
    }
    let before = pool::stats();
    for _ in 0..1000 {
        send();
    }
    let after = pool::stats();
    assert_eq!(
        after.misses, before.misses,
        "warm sends allocated slabs (before {before:?}, after {after:?})"
    );
    assert!(after.hits >= before.hits + 1000, "every send leased a slab");
    assert_eq!(after.outstanding, before.outstanding, "slabs leaked");
}
