//! One world's telemetry: the single handle every layer of one simulated
//! grid reports into.
//!
//! In the paper each grid node is its own process with its own PadicoTM;
//! here a whole world of nodes shares one OS process, and tests run many
//! worlds at once. A [`Telemetry`] is created once per world (by the
//! fabric crate's `TopologyBuilder::build`) and owned by its `Topology`,
//! so two worlds booted side by side never see each other's counters,
//! windows or spans. It holds:
//!
//! * the counters and virtual-time histograms ([`crate::metrics`]), and
//!   the [`CounterCell`]s that hot paths count into without the
//!   registry's lock, read into every snapshot by name;
//! * the windowed vt series and their [`SeriesConfig`]
//!   ([`crate::timeseries`]);
//! * the span buffers, their caps and the head-sampling policy
//!   ([`crate::span`]);
//! * one [`RecoveryStats`] slot per node of the world, allocated in
//!   blocks of 64 nodes on a block's first use and summed into
//!   `recovery.*` on snapshot;
//! * the two coalescer counters, kept apart from the registry because
//!   batching varies with wall-clock thread interleaving and the
//!   registry's renders must stay byte-identical across same-seed runs.
//!
//! Emitters keep the handle in a field they already own (the fabric, the
//! world scheduler, the arbitration layer, the ORB); spans carry it in
//! their ambient thread-local context, so only [`crate::span::root`] and
//! [`crate::span::adopt`] take it explicitly.

use crate::stats::{RecoverySnapshot, RecoveryStats};
use crate::timeseries::SeriesConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Nodes per block of recovery slots. A block is allocated the first time
/// one of its nodes records a recovery, so a world whose nodes never
/// recover (every `world_ring` node) holds one empty cell per block.
const RECOVERY_BLOCK: usize = 64;

/// The telemetry of one world (see the module docs).
pub struct Telemetry {
    pub(crate) metrics: Mutex<crate::metrics::Registry>,
    /// Counters owned by their emitters, with the name each is read as.
    pub(crate) cells: Mutex<Vec<(String, Arc<CounterCell>)>>,
    pub(crate) series: Mutex<crate::timeseries::Registry>,
    pub(crate) spans: Mutex<crate::span::Buffers>,
    /// Head-sampling rate: 0 records every trace, `n` about one in `n`.
    pub(crate) sample_n: AtomicU32,
    /// Recovery counters, indexed by node id in blocks of
    /// [`RECOVERY_BLOCK`], each block allocated on first use.
    recovery: Box<[OnceLock<Box<[RecoveryStats; RECOVERY_BLOCK]>>]>,
    nodes: usize,
    /// Sub-threshold frames that entered a coalescing batch instead of
    /// going to the wire on their own.
    pub frames_coalesced: AtomicU64,
    /// Coalescing batches flushed to the wire (each one wire message).
    pub coalesce_flushes: AtomicU64,
}

impl Telemetry {
    /// An empty telemetry store with the default series geometry, every
    /// trace sampled and no node recovery slots.
    pub fn new() -> Arc<Telemetry> {
        Telemetry::for_nodes(0)
    }

    /// [`Telemetry::new`] for a world of `nodes` nodes: one recovery slot
    /// per node id `0..nodes`.
    pub fn for_nodes(nodes: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            metrics: Mutex::new(Default::default()),
            cells: Mutex::new(Vec::new()),
            series: Mutex::new(crate::timeseries::Registry::new(SeriesConfig::default())),
            spans: Mutex::new(Default::default()),
            sample_n: AtomicU32::new(0),
            recovery: (0..nodes.div_ceil(RECOVERY_BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
            nodes,
            frames_coalesced: AtomicU64::new(0),
            coalesce_flushes: AtomicU64::new(0),
        })
    }

    /// A counter named `name` that its owner bumps with a relaxed atomic
    /// add, no lock taken: [`Telemetry::metrics`] adds its value to the
    /// named counter from the first add on, exactly as if every add had
    /// been a [`Telemetry::counter_add`]. Cells of one name sum.
    pub fn counter_cell(&self, name: &str) -> Arc<CounterCell> {
        let cell = Arc::new(CounterCell::default());
        let entry = (name.to_string(), Arc::clone(&cell));
        self.cells.lock().push(entry);
        cell
    }

    /// Hold the counter registry's lock until the returned guard drops:
    /// lets a test show that a path never takes it.
    #[doc(hidden)]
    pub fn hold_registry_lock(&self) -> impl Sized + '_ {
        self.metrics.lock()
    }

    /// The recovery counters of node `node` (a node id of this world).
    pub fn node_recovery(&self, node: u32) -> &RecoveryStats {
        let node = node as usize;
        assert!(
            node < self.nodes,
            "node {node} outside a world of {}",
            self.nodes
        );
        let block = self.recovery[node / RECOVERY_BLOCK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| RecoveryStats::new())));
        &block[node % RECOVERY_BLOCK]
    }

    /// The world's recovery counters: every node's, summed.
    pub fn recovery(&self) -> RecoverySnapshot {
        let mut total = RecoverySnapshot::default();
        let used = self.recovery.iter().filter_map(OnceLock::get);
        for s in used
            .flat_map(|block| block.iter())
            .map(RecoveryStats::snapshot)
        {
            total.send_retries += s.send_retries;
            total.connect_retries += s.connect_retries;
            total.giop_retries += s.giop_retries;
            total.route_failovers += s.route_failovers;
            total.mapping_remaps += s.mapping_remaps;
            total.corrupt_discards += s.corrupt_discards;
            total.backoff_ns += s.backoff_ns;
        }
        total
    }

    /// `(frames_coalesced, coalesce_flushes)` as plain values.
    pub fn coalesce_counts(&self) -> (u64, u64) {
        (
            self.frames_coalesced.load(Ordering::Relaxed),
            self.coalesce_flushes.load(Ordering::Relaxed),
        )
    }
}

/// A counter registered with [`Telemetry::counter_cell`].
#[derive(Debug, Default)]
pub struct CounterCell {
    value: AtomicU64,
    /// Set by the first add, zero included: from then on the counter
    /// shows in snapshots, as a `counter_add` one does.
    touched: AtomicBool,
}

impl CounterCell {
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if !self.touched.load(Ordering::Relaxed) {
            self.touched.store(true, Ordering::Relaxed);
        }
    }

    /// The value, or `None` before the first add.
    pub(crate) fn read(&self) -> Option<u64> {
        self.touched
            .load(Ordering::Relaxed)
            .then(|| self.value.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_retained", &self.spans_retained())
            .finish_non_exhaustive()
    }
}
