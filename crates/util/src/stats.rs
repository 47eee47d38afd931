//! Statistics helpers for the experiment harness.
//!
//! The paper reports latencies in microseconds and bandwidths in MB/s
//! (decimal megabytes, as networking papers of the era did). These helpers
//! keep the unit conversions in one place and provide the usual summary
//! statistics over repeated measurements.

use std::sync::atomic::{AtomicU64, Ordering};

/// Recovery bookkeeping: how much work the retry/failover machinery did.
///
/// One instance lives in each PadicoTM runtime (per-node counters, used by
/// the chaos tests to assert deterministic recovery); every node's
/// instance is registered with its world's
/// [`Telemetry`](crate::telemetry::Telemetry), whose snapshot sums them
/// into `recovery.*` next to the latency story.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Stream/send operations retried after a retryable transport error.
    pub send_retries: AtomicU64,
    /// Connection handshakes retried (lost SYN/ACK).
    pub connect_retries: AtomicU64,
    /// GIOP requests re-issued by the ORB (idempotent retry path).
    pub giop_retries: AtomicU64,
    /// Route failovers: a VLink/Circuit re-selected onto another fabric.
    pub route_failovers: AtomicU64,
    /// SAN mappings re-established on demand by the arbitration layer.
    pub mapping_remaps: AtomicU64,
    /// Frames discarded as corrupt (CRC-style detection at delivery).
    pub corrupt_discards: AtomicU64,
    /// Virtual nanoseconds charged to backoff while recovering.
    pub backoff_ns: AtomicU64,
}

/// A plain-value snapshot of [`RecoveryStats`], comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySnapshot {
    pub send_retries: u64,
    pub connect_retries: u64,
    pub giop_retries: u64,
    pub route_failovers: u64,
    pub mapping_remaps: u64,
    pub corrupt_discards: u64,
    pub backoff_ns: u64,
}

impl RecoverySnapshot {
    /// Total retry-shaped events (the "bounded retries" number chaos
    /// tests assert on).
    pub fn total_retries(&self) -> u64 {
        self.send_retries + self.connect_retries + self.giop_retries
    }
}

impl RecoveryStats {
    pub fn new() -> RecoveryStats {
        RecoveryStats::default()
    }

    pub fn snapshot(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            send_retries: self.send_retries.load(Ordering::Relaxed),
            connect_retries: self.connect_retries.load(Ordering::Relaxed),
            giop_retries: self.giop_retries.load(Ordering::Relaxed),
            route_failovers: self.route_failovers.load(Ordering::Relaxed),
            mapping_remaps: self.mapping_remaps.load(Ordering::Relaxed),
            corrupt_discards: self.corrupt_discards.load(Ordering::Relaxed),
            backoff_ns: self.backoff_ns.load(Ordering::Relaxed),
        }
    }
}

/// Summary of a set of scalar samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub median: f64,
    pub p95: f64,
    pub stddev: f64,
}

impl Summary {
    /// Compute a summary; returns `None` for an empty sample set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            stddev: var.sqrt(),
        })
    }
}

/// Percentile (0..=100) of an already-sorted slice using linear
/// interpolation between closest ranks.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&pct), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Convert a virtual duration in nanoseconds to microseconds.
#[inline]
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Bandwidth in MB/s (decimal) for `bytes` moved in `ns` nanoseconds.
#[inline]
pub fn mb_per_s(bytes: usize, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 * 1_000.0 / ns as f64
}

/// The classic message-size sweep used in Figure 7: powers of two from
/// `min` to `max` inclusive (clamped to at least 1 byte).
pub fn size_sweep(min: usize, max: usize) -> Vec<usize> {
    assert!(min >= 1 && min <= max, "invalid sweep bounds");
    let mut out = Vec::new();
    let mut s = min;
    while s < max {
        out.push(s);
        s *= 2;
    }
    out.push(max);
    out
}

/// One row of a bandwidth curve: `(message_size, value)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    pub size: usize,
    pub value: f64,
}

/// A named measurement series (one curve of Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub points: Vec<CurvePoint>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, size: usize, value: f64) {
        self.points.push(CurvePoint { size, value });
    }

    /// Peak value across the series (useful for "peak bandwidth" claims).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.value).fold(f64::MIN, f64::max)
    }

    /// Value at the exact size, if present.
    pub fn at(&self, size: usize) -> Option<f64> {
        self.points.iter().find(|p| p.size == size).map(|p| p.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 40.0);
        assert!((percentile_sorted(&v, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_bounds() {
        let s = size_sweep(32, 1 << 20);
        assert_eq!(*s.first().unwrap(), 32);
        assert_eq!(*s.last().unwrap(), 1 << 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_with_non_power_of_two_max() {
        let s = size_sweep(8, 100);
        assert_eq!(s, vec![8, 16, 32, 64, 100]);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_us(1_500), 1.5);
        // 240 MB/s: 240 bytes per microsecond.
        assert!((mb_per_s(240, 1_000) - 240.0).abs() < 1e-9);
        assert!(mb_per_s(1, 0).is_infinite());
    }

    #[test]
    fn recovery_snapshot_reflects_counters() {
        let r = RecoveryStats::new();
        r.giop_retries.fetch_add(2, Ordering::Relaxed);
        r.route_failovers.fetch_add(1, Ordering::Relaxed);
        r.backoff_ns.fetch_add(5_000, Ordering::Relaxed);
        let s = r.snapshot();
        assert_eq!(s.giop_retries, 2);
        assert_eq!(s.route_failovers, 1);
        assert_eq!(s.backoff_ns, 5_000);
        assert_eq!(s.total_retries(), 2);
        assert_eq!(s, r.snapshot(), "snapshot is a stable value type");
    }

    #[test]
    fn series_peak_and_at() {
        let mut s = Series::new("omniORB/Myrinet");
        s.push(32, 3.0);
        s.push(1 << 20, 240.0);
        assert_eq!(s.peak(), 240.0);
        assert_eq!(s.at(32), Some(3.0));
        assert_eq!(s.at(64), None);
    }
}
