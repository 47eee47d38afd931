//! Timing samples, order statistics, seeded inputs and `/proc` readers.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: one monotonic clock
/// shared by generator threads and the benchmark's own servants.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One completed operation: when it ended and how long it took. Eight
/// bytes, so a few hundred thousand of them stay small beside the
/// process's own footprint (they are part of `peak_rss_mb`).
#[derive(Clone, Copy)]
pub struct Sample {
    pub end_us: u32,
    pub dur_ns: u32,
}

/// Pre-sized per-thread sample log.
pub struct Samples(Vec<Sample>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    #[inline]
    pub fn push(&mut self, start_ns: u64, end_ns: u64) {
        self.0.push(Sample {
            end_us: (end_ns / 1_000).min(u64::from(u32::MAX)) as u32,
            dur_ns: (end_ns - start_ns).min(u64::from(u32::MAX)) as u32,
        });
    }

    pub fn into_vec(self) -> Vec<Sample> {
        self.0
    }
}

/// The `[from, to)` part of the run that is measured, in [`now_ns`] time.
#[derive(Clone, Copy)]
pub struct Window {
    pub from_ns: u64,
    pub to_ns: u64,
}

impl Window {
    pub fn seconds(&self) -> f64 {
        (self.to_ns - self.from_ns) as f64 / 1e9
    }
}

/// Order statistics of the operations that ended inside a window.
pub struct Summary {
    pub count: usize,
    pub p50_ns: f64,
    pub p75_ns: f64,
    pub p90_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    /// Late p50 over early p50 (see [`drift`]): 1.0 means the last call
    /// costs what the first did.
    pub drift: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    f64::from(sorted[idx])
}

/// How much slower the end of the window is than its start. The window is
/// cut into ten equal time slices and each slice's p50 taken; the result is
/// the median p50 of the last three slices over the median p50 of the first
/// three, so a stall inside one slice at either end does not move it.
fn drift(in_order: &[Sample], from_us: u32, to_us: u32) -> f64 {
    const SLICES: u64 = 10;
    let span = u64::from(to_us - from_us).max(1);
    let mut slices: Vec<Vec<u32>> = vec![Vec::new(); SLICES as usize];
    for s in in_order {
        let k = u64::from(s.end_us - from_us) * SLICES / span;
        slices[k.min(SLICES - 1) as usize].push(s.dur_ns);
    }
    let mut p50s = slices.into_iter().map(|mut durs| {
        durs.sort_unstable();
        percentile(&durs, 0.5)
    });
    let mut early: Vec<f64> = p50s.by_ref().take(3).collect();
    let mut late: Vec<f64> = p50s.skip(4).collect();
    median(&mut late) / median(&mut early)
}

/// Merge per-thread logs, keep what ended inside `window`, summarise.
pub fn summarise(logs: Vec<Vec<Sample>>, window: Window) -> Summary {
    let (from_us, to_us) = (
        (window.from_ns / 1_000) as u32,
        (window.to_ns / 1_000) as u32,
    );
    let mut all: Vec<Sample> = logs
        .into_iter()
        .flatten()
        .filter(|s| s.end_us >= from_us && s.end_us < to_us)
        .collect();
    all.sort_by_key(|s| s.end_us);
    let drift = drift(&all, from_us, to_us);
    let mut durs: Vec<u32> = all.iter().map(|s| s.dur_ns).collect();
    durs.sort_unstable();
    Summary {
        count: durs.len(),
        p50_ns: percentile(&durs, 0.50),
        p75_ns: percentile(&durs, 0.75),
        p90_ns: percentile(&durs, 0.90),
        p95_ns: percentile(&durs, 0.95),
        p99_ns: percentile(&durs, 0.99),
        drift,
    }
}

/// Median of a small set of measurements.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// splitmix64: the one source of every generated input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `len` seeded bytes.
pub fn seeded_bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let key = mix(seed ^ mix(stream));
    let mut out = Vec::with_capacity(len + 8);
    for i in 0..len.div_ceil(8) as u64 {
        out.extend_from_slice(&mix(key ^ i).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn self_status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field(&self_status(), "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_field(&self_status(), "VmRSS:").unwrap_or(0) * 1024
}

/// Live OS threads in this process.
pub fn threads() -> u64 {
    status_field(&self_status(), "Threads:").unwrap_or(0)
}

/// Voluntary + involuntary context switches summed over live threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// User + system CPU time of the whole process, µs (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz ticks).
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000
}
