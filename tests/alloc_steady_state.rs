//! Steady-state allocation regression test for the fabric segment pool.
//!
//! The hot path of a circuit round-trip leases pooled slabs in several
//! places (the per-frame header, the kernel copy at the fabric boundary,
//! cipher scratch). After a short warm-up every one of those leases must
//! be served from a recycled shelf: a steady-state round-trip loop makes
//! **zero** pool misses. The same holds for a copying-profile CDR
//! writer marshalling a GridCCM-sized bulk body. This file is its own
//! test binary so the process-global pool counters are not perturbed by
//! unrelated suites.

use bytes::Bytes;
use padico::fabric::topology::single_cluster;
use padico::fabric::{pool, FabricKind, Payload};
use padico::orb::cdr::{CdrWriter, MarshalStrategy};
use padico::tm::selector::FabricChoice;
use padico::tm::{CircuitSpec, PadicoTM};
use std::sync::{Arc, Mutex};

const WARMUP: usize = 50;
const MEASURED: usize = 200;

/// Both tests read the process-global slab counters — serialize them so
/// neither measures the other's warm-up.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_roundtrips_make_zero_pool_misses() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let circuits: Vec<_> = tms
        .iter()
        .map(|tm| {
            tm.circuit(
                CircuitSpec::new("steady", ids.clone())
                    .with_choice(FabricChoice::Kind(FabricKind::Myrinet)),
            )
            .unwrap()
        })
        .collect();

    // One shared body, cloned per send: a Payload clone is a refcounted
    // segment hand-off, so every pool lease in the loop below is traffic
    // from the runtime's own hot path (headers, kernel copies), not from
    // test scaffolding.
    let body: &[u8] = b"steady-state-ping-pong-payload!!";
    let proto = Payload::from_vec(body.to_vec());

    let roundtrip = |h: u64| {
        // One thread drives both ends, so each send is its own protocol
        // barrier: flush before blocking in the peer's recv (coalescing
        // is on by default).
        circuits[0].send(1, h, proto.clone()).unwrap();
        circuits[0].flush().unwrap();
        let (_, _, p) = circuits[1].recv().unwrap();
        assert_eq!(p.to_vec(), body);
        circuits[1].send(0, h, proto.clone()).unwrap();
        circuits[1].flush().unwrap();
        let (_, _, p) = circuits[0].recv().unwrap();
        assert_eq!(p.to_vec(), body);
    };

    // Warm the shelves: the first few trips populate each size class.
    for i in 0..WARMUP {
        roundtrip(i as u64);
    }

    let before = pool::stats();
    for i in 0..MEASURED {
        roundtrip((WARMUP + i) as u64);
    }
    let after = pool::stats();

    assert_eq!(
        after.misses - before.misses,
        0,
        "steady-state loop allocated: {} fresh slabs over {} round-trips \
         (before {:?}, after {:?})",
        after.misses - before.misses,
        MEASURED,
        before,
        after
    );
    assert!(
        after.hits > before.hits,
        "the loop never touched the pool — the assertion proves nothing \
         (before {before:?}, after {after:?})"
    );
    // Leases are matched by returns: the loop does not leak slabs.
    assert_eq!(
        after.outstanding, before.outstanding,
        "slabs leaked during the measured loop"
    );
}

#[test]
fn steady_state_copying_bulk_writes_make_zero_pool_misses() {
    // One replica's share of a 2 MiB coupling step is ~683 KiB. A
    // copying-profile writer must copy it into one pooled slab of the
    // right class, not double its 256 B scratch slab up to size: a
    // doubled slab rejoins a larger class than it was leased from, so
    // the small shelf drains and every message misses.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BLOCK: usize = 683 << 10;
    // Block-cyclic:256 over i32 elements, two source ranks: this rank's
    // pieces are 1 KiB apart by 1 KiB in its local block.
    const PIECE: usize = 1 << 10;
    let local = Bytes::from((0..2 * BLOCK).map(|i| i as u8).collect::<Vec<u8>>());
    let block = local.slice(..BLOCK);

    let step = |round: u64| {
        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_u64(round);
        w.write_octet_seq(block.clone());
        let store = w.finish();
        assert_eq!(store.segment_count(), 1, "copying body is one segment");
        assert_eq!(store.len(), 8 + 4 + BLOCK);

        let mut w = CdrWriter::new(MarshalStrategy::Copying);
        w.write_u64(round);
        w.write_octet_gather(
            BLOCK,
            (0..BLOCK / PIECE).map(|k| local.slice(2 * k * PIECE..(2 * k + 1) * PIECE)),
        );
        let gathered = w.finish();
        assert_eq!(gathered.segment_count(), 1, "copying body is one segment");
        assert_eq!(gathered.len(), 8 + 4 + BLOCK);
        let flat = gathered.to_contiguous();
        assert_eq!(&flat[12..12 + PIECE], &local[..PIECE]);
        assert_eq!(
            &flat[12 + PIECE..12 + 2 * PIECE],
            &local[2 * PIECE..3 * PIECE]
        );
    };

    for i in 0..WARMUP {
        step(i as u64);
    }
    let before = pool::stats();
    for i in 0..MEASURED {
        step((WARMUP + i) as u64);
    }
    let after = pool::stats();

    assert_eq!(
        after.misses - before.misses,
        0,
        "steady-state bulk writes allocated {} fresh slabs over {} rounds \
         (before {before:?}, after {after:?})",
        after.misses - before.misses,
        MEASURED,
    );
    assert!(
        after.hits > before.hits,
        "the loop never touched the pool (before {before:?}, after {after:?})"
    );
    assert_eq!(
        after.outstanding, before.outstanding,
        "slabs leaked during the measured loop"
    );
}
