//! Virtual-time telemetry windows: the flight recorder's memory.
//!
//! The metrics registry ([`crate::metrics`]) answers *how many* sheds,
//! breaker trips, steals and retries a run saw; it cannot answer *when*.
//! This module folds the same observations into fixed-width virtual-time
//! windows kept in a bounded ring, so a chaos campaign or a 100k-node
//! world can be read as a timeline: window 17 is where the breaker
//! opened, windows 20..24 are where the shed storm happened.
//!
//! Design constraints, in order:
//!
//! * **Bounded memory.** Each series keeps at most [`SeriesConfig::windows`]
//!   windows; recording past the ring's end slides the base forward and
//!   evicts the oldest windows (counted in `evicted_windows`); recording
//!   *behind* the ring's base is dropped and counted in `dropped_samples`.
//!   Nothing here grows with run length.
//! * **Determinism.** Same-seed runs stamp the same virtual times, so the
//!   whole registry renders byte-identically — the chaos replay checks
//!   compare these renders run against re-run (after stripping the
//!   `sched.*` series, whose steal timing is a property of host thread
//!   scheduling, not of the seed).
//! * **Cheap recording.** One mutex, one `BTreeMap` lookup, O(1) fold.
//!   Hot paths record at batch granularity (the world scheduler folds 32
//!   events per sample), cold paths (sheds, trips, retries) record freely.
//!
//! Like the metrics registry, the series live in one world's
//! [`Telemetry`]: each world's windows start at its own virtual time, so
//! a young world's samples are never dropped behind an older world's
//! base.

use crate::simtime::Vt;
use crate::telemetry::Telemetry;
use std::collections::BTreeMap;

/// Default window width: 1 ms of virtual time. Wide enough that a
/// chaos failover run (hundreds of ms of vt) spans a readable number of
/// windows, narrow enough that a shed storm and the breaker trip that
/// follows it land in different windows.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;

/// Default ring depth: how many windows a series retains.
pub const DEFAULT_WINDOWS: usize = 64;

/// Per-registry configuration applied to series created after it is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Width of one window in virtual nanoseconds.
    pub window_ns: u64,
    /// Ring depth: windows retained per series.
    pub windows: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            window_ns: DEFAULT_WINDOW_NS,
            windows: DEFAULT_WINDOWS,
        }
    }
}

/// One folded window: count/sum/min/max plus power-of-two buckets keyed
/// by the observation's bit length (the same bucketing as
/// [`crate::metrics::Histogram`], stored sparsely — most windows see a
/// narrow value range).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Window {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: BTreeMap<u8, u64>,
}

impl Window {
    fn fold(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let bucket = (64 - v.leading_zeros()) as u8;
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One named series: a ring of windows over virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    pub window_ns: u64,
    /// Window index (vt / window_ns) of `ring[0]`.
    pub base: u64,
    pub ring: Vec<Window>,
    /// Samples older than the retained ring, dropped on arrival.
    pub dropped_samples: u64,
    /// Non-empty windows slid out of the ring to make room.
    pub evicted_windows: u64,
    cap: usize,
}

impl Series {
    fn new(cfg: SeriesConfig) -> Self {
        Series {
            window_ns: cfg.window_ns.max(1),
            base: 0,
            ring: Vec::new(),
            dropped_samples: 0,
            evicted_windows: 0,
            cap: cfg.windows.max(1),
        }
    }

    fn record(&mut self, vt: Vt, value: u64) {
        let w = vt / self.window_ns;
        if self.ring.is_empty() {
            self.base = w;
        }
        if w < self.base {
            self.dropped_samples += 1;
            return;
        }
        let mut idx = (w - self.base) as usize;
        if idx >= self.cap {
            // Slide the ring forward so `w` becomes the newest window.
            let shift = idx - self.cap + 1;
            if shift >= self.ring.len() {
                // The jump clears everything currently retained.
                self.evicted_windows +=
                    self.ring.iter().filter(|win| !win.is_empty()).count() as u64;
                self.ring.clear();
                self.base = w;
            } else {
                self.evicted_windows += self
                    .ring
                    .drain(..shift)
                    .filter(|win| !win.is_empty())
                    .count() as u64;
                self.base += shift as u64;
            }
            idx = (w - self.base) as usize;
        }
        while self.ring.len() <= idx {
            self.ring.push(Window::default());
        }
        self.ring[idx].fold(value);
    }

    /// Non-empty windows as `(window_index, &Window)`, oldest first.
    pub fn occupied(&self) -> Vec<(u64, &Window)> {
        self.ring
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_empty())
            .map(|(i, w)| (self.base + i as u64, w))
            .collect()
    }

    /// Total observations folded into the retained windows.
    pub fn total_count(&self) -> u64 {
        self.ring.iter().map(|w| w.count).sum()
    }
}

/// A plain-value snapshot of every series, comparable across runs.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TimeSeriesSnapshot {
    pub series: BTreeMap<String, Series>,
}

impl TimeSeriesSnapshot {
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Deterministic text rendering: one line per series (sorted by
    /// name), listing only the non-empty windows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.series {
            out.push_str(&format!(
                "timeseries {name} window_ns={} dropped={} evicted={}:",
                s.window_ns, s.dropped_samples, s.evicted_windows
            ));
            for (idx, w) in s.occupied() {
                out.push_str(&format!(
                    " [{idx}]={}/{}min{}max{}",
                    w.count, w.sum, w.min, w.max
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// The series of one [`Telemetry`], plus the geometry new series get.
pub(crate) struct Registry {
    config: SeriesConfig,
    series: BTreeMap<String, Series>,
}

impl Registry {
    pub(crate) fn new(config: SeriesConfig) -> Registry {
        Registry {
            config,
            series: BTreeMap::new(),
        }
    }
}

impl Telemetry {
    /// Set the window width/ring depth used by series created from now
    /// on. Existing series keep their geometry (their windows would not
    /// be comparable across a mid-run change).
    pub fn configure_series(&self, cfg: SeriesConfig) {
        self.series.lock().config = cfg;
    }

    /// Fold one observation into the named series at virtual time `vt`.
    pub fn record(&self, name: &str, vt: Vt, value: u64) {
        let mut reg = self.series.lock();
        if let Some(s) = reg.series.get_mut(name) {
            s.record(vt, value);
        } else {
            let mut s = Series::new(reg.config);
            s.record(vt, value);
            reg.series.insert(name.to_string(), s);
        }
    }

    /// Count one event (value 1) in the named series at virtual time `vt`.
    pub fn bump(&self, name: &str, vt: Vt) {
        self.record(name, vt, 1);
    }

    /// Snapshot every series.
    pub fn timeseries(&self) -> TimeSeriesSnapshot {
        TimeSeriesSnapshot {
            series: self.series.lock().series.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fold_by_virtual_time() {
        let t = Telemetry::new();
        t.configure_series(SeriesConfig {
            window_ns: 100,
            windows: 4,
        });
        t.record("x", 10, 5);
        t.record("x", 20, 7);
        t.record("x", 150, 1);
        let snap = t.timeseries();
        let s = snap.series("x").unwrap();
        assert_eq!(s.base, 0);
        let occ = s.occupied();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].0, 0);
        assert_eq!(occ[0].1.count, 2);
        assert_eq!(occ[0].1.sum, 12);
        assert_eq!(occ[0].1.min, 5);
        assert_eq!(occ[0].1.max, 7);
        assert_eq!(occ[1].0, 1);
        assert_eq!(occ[1].1.count, 1);
    }

    #[test]
    fn ring_slides_and_counts_evictions_and_drops() {
        let t = Telemetry::new();
        t.configure_series(SeriesConfig {
            window_ns: 100,
            windows: 4,
        });
        for w in 0..4 {
            t.record("s", w * 100, 1);
        }
        // Window 5 slides windows 0..=1 out (base becomes 2).
        t.record("s", 500, 1);
        let snap = t.timeseries();
        let s = snap.series("s").unwrap();
        assert_eq!(s.base, 2);
        assert_eq!(s.evicted_windows, 2);
        assert_eq!(s.dropped_samples, 0);
        // A sample behind the base drops.
        t.record("s", 0, 1);
        let s2 = t.timeseries();
        assert_eq!(s2.series("s").unwrap().dropped_samples, 1);
        // A huge forward jump clears the whole ring.
        t.record("s", 1_000_000, 1);
        let s3 = t.timeseries();
        let s3 = s3.series("s").unwrap();
        assert_eq!(s3.base, 10_000);
        assert_eq!(s3.occupied().len(), 1);
    }

    #[test]
    fn memory_stays_bounded_and_render_is_deterministic() {
        let t = Telemetry::new();
        t.configure_series(SeriesConfig {
            window_ns: 10,
            windows: 8,
        });
        for vt in 0..10_000u64 {
            t.record("bounded", vt, vt % 17);
        }
        let snap = t.timeseries();
        let s = snap.series("bounded").unwrap();
        assert!(s.ring.len() <= 8);
        assert!(s.evicted_windows > 0);
        let r1 = snap.render();
        let r2 = t.timeseries().render();
        assert_eq!(r1, r2);
        assert!(r1.starts_with("timeseries bounded window_ns=10"));
    }

    #[test]
    fn each_telemetry_keeps_its_own_series() {
        // An old world far along in virtual time must not push a young
        // world's first samples behind its ring base.
        let (old, young) = (Telemetry::new(), Telemetry::new());
        old.bump("latency.x", 500 * DEFAULT_WINDOW_NS);
        young.bump("latency.x", 7);
        let s = young.timeseries();
        let s = s.series("latency.x").unwrap();
        assert_eq!((s.total_count(), s.dropped_samples), (1, 0));
        assert!(old.timeseries().series("latency.x").unwrap().base > s.base);
        assert!(young.timeseries().series("other").is_none());
    }
}
