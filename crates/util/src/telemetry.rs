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
//! * the counters and virtual-time histograms ([`crate::metrics`]);
//! * the windowed vt series and their [`SeriesConfig`]
//!   ([`crate::timeseries`]);
//! * the span buffers, their caps and the head-sampling policy
//!   ([`crate::span`]);
//! * the per-node [`RecoveryStats`] of every node booted in the world,
//!   summed into `recovery.*` on snapshot;
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
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// The telemetry of one world (see the module docs).
pub struct Telemetry {
    pub(crate) metrics: Mutex<crate::metrics::Registry>,
    pub(crate) series: Mutex<crate::timeseries::Registry>,
    pub(crate) spans: Mutex<crate::span::Buffers>,
    /// Head-sampling rate: 0 records every trace, `n` about one in `n`.
    pub(crate) sample_n: AtomicU32,
    recovery: Mutex<Vec<Arc<RecoveryStats>>>,
    /// Sub-threshold frames that entered a coalescing batch instead of
    /// going to the wire on their own.
    pub frames_coalesced: AtomicU64,
    /// Coalescing batches flushed to the wire (each one wire message).
    pub coalesce_flushes: AtomicU64,
}

impl Telemetry {
    /// An empty telemetry store with the default series geometry and
    /// every trace sampled.
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            metrics: Mutex::new(Default::default()),
            series: Mutex::new(crate::timeseries::Registry::new(SeriesConfig::default())),
            spans: Mutex::new(Default::default()),
            sample_n: AtomicU32::new(0),
            recovery: Mutex::new(Vec::new()),
            frames_coalesced: AtomicU64::new(0),
            coalesce_flushes: AtomicU64::new(0),
        })
    }

    /// Count `stats` (one node's recovery counters) into this world's
    /// `recovery.*` totals.
    pub fn register_recovery(&self, stats: Arc<RecoveryStats>) {
        self.recovery.lock().push(stats);
    }

    /// The world's recovery counters: every registered node's, summed.
    pub fn recovery(&self) -> RecoverySnapshot {
        let nodes = self.recovery.lock();
        let mut total = RecoverySnapshot::default();
        for s in nodes.iter().map(|s| s.snapshot()) {
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

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_retained", &self.spans_retained())
            .finish_non_exhaustive()
    }
}
