//! Named counters and virtual-time histograms, one registry per world
//! ([`Telemetry`]).
//!
//! Spans ([`crate::span`]) feed per-layer latency histograms on every
//! span end; the fabric feeds `bytes.<fabric>` counters for bytes on the
//! wire; the world's recovery counters are summed in as `recovery.*` on
//! snapshot, and higher layers fold their own counters in (schedule-cache
//! hit/miss, pool traffic) when building a snapshot. Everything is
//! keyed by name and stored in `BTreeMap`s so a snapshot iterates in a
//! deterministic order — same-seed runs produce byte-identical dumps.
//!
//! Histogram buckets are powers of two over virtual nanoseconds: bucket
//! `i` counts observations `v` with `2^(i-1) <= v < 2^i` (bucket 0 is
//! `v == 0`). That is coarse but stable, which is what regression diffs
//! across bench snapshots need.

use crate::telemetry::Telemetry;
use std::collections::BTreeMap;

/// Number of histogram buckets: one per possible bit-length of a `u64`
/// observation, plus bucket 0 for zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts observations of bit-length `i` (0 for zero).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Non-empty buckets as `(bit_length, count)` pairs (compact dump
    /// form; most of the 65 buckets are empty in practice).
    pub fn occupied_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A plain-value snapshot of the registry, comparable across runs.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold another snapshot's entries into this one (counters add,
    /// histograms merge bucket-wise).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.count += h.count;
            mine.sum = mine.sum.saturating_add(h.sum);
            mine.min = mine.min.min(h.min);
            mine.max = mine.max.max(h.max);
            for (b, c) in h.buckets.iter().enumerate() {
                mine.buckets[b] += c;
            }
        }
    }

    /// Deterministic text rendering (one line per entry, sorted by name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name}: count={} sum={} min={} max={} mean={:.1}\n",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.mean()
            ));
        }
        out
    }
}

/// The counter and histogram maps of one [`Telemetry`].
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Telemetry {
    /// Add `delta` to the named counter (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut reg = self.metrics.lock();
        if let Some(c) = reg.counters.get_mut(name) {
            *c += delta;
        } else {
            reg.counters.insert(name.to_string(), delta);
        }
    }

    /// Move the named gauge by `delta` (creating it at zero). A gauge is
    /// a counter that also goes down, so it shares the counter map (as
    /// `pool.outstanding` does in a snapshot); it saturates at zero.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        let mut reg = self.metrics.lock();
        if let Some(g) = reg.counters.get_mut(name) {
            *g = g.saturating_add_signed(delta);
        } else {
            reg.counters.insert(name.to_string(), delta.max(0) as u64);
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut reg = self.metrics.lock();
        if let Some(h) = reg.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            reg.histograms.insert(name.to_string(), h);
        }
    }

    /// Snapshot the counters and histograms, with the counter cells
    /// added in by name and the world's recovery counters summed in as
    /// `recovery.*` — the retry/failover story next to the latency story,
    /// in one dump.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = {
            let reg = self.metrics.lock();
            MetricsSnapshot {
                counters: reg.counters.clone(),
                histograms: reg.histograms.clone(),
            }
        };
        for (name, cell) in self.cells.lock().iter() {
            if let Some(v) = cell.read() {
                *snap.counters.entry(name.clone()).or_insert(0) += v;
            }
        }
        let rec = self.recovery();
        for (name, v) in [
            ("recovery.send_retries", rec.send_retries),
            ("recovery.connect_retries", rec.connect_retries),
            ("recovery.giop_retries", rec.giop_retries),
            ("recovery.route_failovers", rec.route_failovers),
            ("recovery.mapping_remaps", rec.mapping_remaps),
            ("recovery.corrupt_discards", rec.corrupt_discards),
            ("recovery.backoff_ns", rec.backoff_ns),
        ] {
            snap.counters.insert(name.to_string(), v);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn counters_histograms_and_merge() {
        let t = Telemetry::new();
        t.counter_add("bytes.myrinet", 100);
        t.counter_add("bytes.myrinet", 28);
        t.observe("latency.orb.giop", 0);
        t.observe("latency.orb.giop", 5);
        t.observe("latency.orb.giop", 1 << 20);
        let snap = t.metrics();
        assert_eq!(snap.counter("bytes.myrinet"), 128);
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("latency.orb.giop").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 5 + (1 << 20));
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 20);
        // Bucket 0 (zero), bit-length 3 (value 5), bit-length 21 (2^20).
        assert_eq!(h.occupied_buckets(), vec![(0, 1), (3, 1), (21, 1)]);

        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.counter("bytes.myrinet"), 256);
        assert_eq!(merged.histogram("latency.orb.giop").unwrap().count, 6);

        let rendered = snap.render();
        assert!(rendered.contains("counter bytes.myrinet = 128"));
        assert!(rendered.contains("histogram latency.orb.giop"));
    }

    #[test]
    fn gauges_go_up_and_down_but_never_below_zero() {
        let t = Telemetry::new();
        t.gauge_add("held", 700);
        t.gauge_add("held", -300);
        assert_eq!(t.metrics().counter("held"), 400);
        t.gauge_add("held", -1000);
        assert_eq!(t.metrics().counter("held"), 0);
        t.gauge_add("fresh", -5);
        assert_eq!(t.metrics().counter("fresh"), 0);
    }

    #[test]
    fn recovery_counters_fold_into_snapshot() {
        let t = Telemetry::for_nodes(2);
        let snap = t.metrics();
        assert_eq!(snap.counter("recovery.giop_retries"), 0);
        assert!(snap.counters.contains_key("recovery.backoff_ns"));
        // Every node's counters are summed.
        let (a, b) = (t.node_recovery(0), t.node_recovery(1));
        a.giop_retries.fetch_add(2, Ordering::Relaxed);
        b.giop_retries.fetch_add(3, Ordering::Relaxed);
        b.backoff_ns.fetch_add(40, Ordering::Relaxed);
        let snap = t.metrics();
        assert_eq!(snap.counter("recovery.giop_retries"), 5);
        assert_eq!(snap.counter("recovery.backoff_ns"), 40);
    }

    #[test]
    fn worlds_do_not_share_counters() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        a.counter_add("x", 1);
        a.observe("y", 2);
        b.counter_add("x", 5);
        assert_eq!(a.metrics().counter("x"), 1);
        assert_eq!(b.metrics().counter("x"), 5);
        assert!(b.metrics().histogram("y").is_none());
    }
}
