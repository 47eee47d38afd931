//! One-stop observability snapshot for one world — the flight
//! recorder's assembly point.
//!
//! Every layer of a world reports into that world's
//! [`Telemetry`](padico_util::Telemetry), owned by its [`Topology`]:
//! spans ([`padico_util::span`]), latency histograms and byte counters
//! ([`padico_util::metrics`]), their windowed twins
//! ([`padico_util::timeseries`]), every node's retry/failover totals and
//! the coalescer counters. Two further books live elsewhere: scheduler
//! lane samples in [`padico_fabric::WorldSched`], and two process-wide
//! allocator-and-memo families — segment-pool traffic
//! ([`padico_fabric::pool`]) and schedule reuse in the redistribution
//! cache ([`crate::redistribute::schedule_cache_stats`]). This module
//! folds all of them into one [`ObservabilitySnapshot`] so a bench
//! harness, the control service, or an example dumps one coherent
//! picture — and exports the whole thing as a single Perfetto trace via
//! [`ObservabilitySnapshot::flight_recorder_json`].

use padico_fabric::{LaneSample, Topology};
use padico_util::metrics::MetricsSnapshot;
use padico_util::span::{self, CriticalPath, Span};
use padico_util::timeseries::TimeSeriesSnapshot;

use crate::redistribute::schedule_cache_stats;

/// Synthetic Perfetto "process" carrying the scheduler lane tracks: one
/// thread row per worker, one per shard group. Far above any node id, so
/// it never collides with a node's pid in the combined export.
const SCHED_PID: u64 = 900_000;

/// Synthetic Perfetto "process" carrying one counter track per
/// timeseries.
const TIMESERIES_PID: u64 = 900_001;

/// Shard rows in the lane export are grouped so a 64-shard scheduler
/// renders as a readable handful of tracks rather than 64.
const SHARD_GROUPS: usize = 8;

/// Everything observable about one world: the merged metrics, the
/// windowed timeseries, the merged span buffers of every node, and (when
/// its world scheduler is running) the lane telemetry.
pub struct ObservabilitySnapshot {
    pub metrics: MetricsSnapshot,
    pub timeseries: TimeSeriesSnapshot,
    pub spans: Vec<Span>,
    /// Spans discarded because a per-node or the world-wide buffer
    /// overflowed.
    pub dropped_spans: u64,
    /// Scheduler lane samples (empty for a topology no node has booted
    /// on).
    pub lanes: Vec<LaneSample>,
    /// Lane samples dropped to the lane buffer cap.
    pub dropped_lanes: u64,
}

impl ObservabilitySnapshot {
    /// Capture `topo`'s world: its telemetry (recovery totals included)
    /// under deterministic names, plus the coalescing and span-buffer
    /// counters, the process-wide schedule-cache and segment-pool
    /// counters, and the lane telemetry of its world scheduler if one was
    /// started. Deliberately does not start a scheduler: observing a
    /// raw-fabric topology must not boot a worker pool.
    pub fn capture(topo: &Topology) -> Self {
        let telemetry = topo.telemetry();
        let mut metrics = telemetry.metrics();
        let cache = schedule_cache_stats();
        let pool = padico_fabric::pool::stats();
        let (frames_coalesced, coalesce_flushes) = telemetry.coalesce_counts();
        for (name, v) in [
            ("schedule_cache.hits", cache.hits),
            ("schedule_cache.misses", cache.misses),
            ("schedule_cache.evictions", cache.evictions),
            ("pool.hits", pool.hits),
            ("pool.misses", pool.misses),
            ("pool.returns", pool.returns),
            ("pool.outstanding", pool.outstanding),
            ("tm.coalesce.frames_coalesced", frames_coalesced),
            ("tm.coalesce.flushes", coalesce_flushes),
            ("span.retained", telemetry.spans_retained()),
            ("span.dropped", telemetry.spans_dropped()),
        ] {
            metrics.counters.insert(name.to_string(), v);
        }
        let mut snap = ObservabilitySnapshot {
            metrics,
            timeseries: telemetry.timeseries(),
            spans: telemetry.spans(),
            dropped_spans: telemetry.spans_dropped(),
            lanes: Vec::new(),
            dropped_lanes: 0,
        };
        if let Some(sched) = topo.sched_started() {
            let stats = sched.stats();
            snap.lanes = sched.lane_samples();
            snap.dropped_lanes = stats.lane_dropped;
            for (name, v) in [
                ("sched.posted", stats.posted),
                ("sched.delivered", stats.delivered),
                ("sched.dropped", stats.dropped),
                ("sched.steals", stats.steals),
                ("sched.lane_samples", stats.lane_samples),
                ("sched.lane_dropped", stats.lane_dropped),
            ] {
                snap.metrics.counters.insert(name.to_string(), v);
            }
        }
        snap
    }

    /// The spans of one trace (one logical GridCCM invocation).
    pub fn trace(&self, trace_id: u64) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Critical path through the given trace's root span.
    pub fn critical_path(&self, trace_id: u64, root_span_id: u64) -> Option<CriticalPath> {
        let spans = self.trace(trace_id);
        span::critical_path(&spans, root_span_id)
    }

    /// Chrome-trace (Perfetto) JSON for every captured span.
    pub fn chrome_trace_json(&self) -> String {
        span::chrome_trace_json(&self.spans)
    }

    /// The full flight-recorder export: one Perfetto JSON document
    /// merging the span slices (pid = node), the scheduler lane tracks
    /// (one row per worker, one per shard group, with batch/occupancy/
    /// lag counters and steal instants), and one counter track per
    /// timeseries. Load the whole thing in <https://ui.perfetto.dev>.
    pub fn flight_recorder_json(&self) -> String {
        let mut events = span::chrome_trace_events(&self.spans);
        self.lane_events(&mut events);
        self.timeseries_events(&mut events);
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}\n",
            events.join(",")
        )
    }

    fn lane_events(&self, events: &mut Vec<String>) {
        if self.lanes.is_empty() {
            return;
        }
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{SCHED_PID},\"tid\":0,\
             \"args\":{{\"name\":\"sched-lanes\"}}}}"
        ));
        let shards = self
            .lanes
            .iter()
            .map(|s| s.shard as usize + 1)
            .max()
            .unwrap_or(1);
        let groups = SHARD_GROUPS.min(shards);
        let group_of = |shard: u32| (shard as usize * groups) / shards;
        let mut workers: Vec<u32> = self.lanes.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for w in &workers {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{SCHED_PID},\"tid\":{},\
                 \"args\":{{\"name\":\"worker-{w}\"}}}}",
                w + 1
            ));
        }
        for g in 0..groups {
            let lo = (g * shards) / groups;
            let hi = (((g + 1) * shards) / groups).saturating_sub(1);
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{SCHED_PID},\"tid\":{},\
                 \"args\":{{\"name\":\"shards-{lo}-{hi}\"}}}}",
                100 + g
            ));
        }
        for s in &self.lanes {
            let g = group_of(s.shard);
            // Batch size as a per-worker counter track; steals as
            // thread-scoped instants on the worker's row.
            events.push(format!(
                "{{\"ph\":\"C\",\"name\":\"batch.worker-{}\",\"pid\":{SCHED_PID},\
                 \"tid\":{},\"ts\":{},\"args\":{{\"events\":{}}}}}",
                s.worker,
                s.worker + 1,
                span::us(s.vt),
                s.batch
            ));
            if s.stolen {
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"steal:shard{}\",\
                     \"cat\":\"sched\",\"pid\":{SCHED_PID},\"tid\":{},\"ts\":{}}}",
                    s.shard,
                    s.worker + 1,
                    span::us(s.vt)
                ));
            }
            // Occupancy and horizon lag as per-shard-group counters.
            events.push(format!(
                "{{\"ph\":\"C\",\"name\":\"occupancy.shards-{g}\",\"pid\":{SCHED_PID},\
                 \"tid\":{},\"ts\":{},\"args\":{{\"events\":{}}}}}",
                100 + g,
                span::us(s.vt),
                s.occupancy
            ));
            events.push(format!(
                "{{\"ph\":\"C\",\"name\":\"lag.shards-{g}\",\"pid\":{SCHED_PID},\
                 \"tid\":{},\"ts\":{},\"args\":{{\"ns\":{}}}}}",
                100 + g,
                span::us(s.vt),
                s.lag
            ));
        }
    }

    fn timeseries_events(&self, events: &mut Vec<String>) {
        if self.timeseries.series.is_empty() {
            return;
        }
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{TIMESERIES_PID},\"tid\":0,\
             \"args\":{{\"name\":\"timeseries\"}}}}"
        ));
        for (name, series) in &self.timeseries.series {
            for (idx, w) in series.occupied() {
                events.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"ts.{}\",\"pid\":{TIMESERIES_PID},\"tid\":0,\
                     \"ts\":{},\"args\":{{\"count\":{},\"sum\":{}}}}}",
                    span::json_escape(name),
                    span::us(idx.saturating_mul(series.window_ns)),
                    w.count,
                    w.sum
                ));
            }
        }
    }

    /// Deterministic text rendering: metrics first, then the timeseries
    /// windows, then one line per span in canonical order.
    pub fn render(&self) -> String {
        let mut out = self.metrics.render();
        out.push_str(&self.timeseries.render());
        out.push_str(&format!(
            "spans: {} captured, {} dropped\n",
            self.spans.len(),
            self.dropped_spans
        ));
        if !self.lanes.is_empty() || self.dropped_lanes > 0 {
            out.push_str(&format!(
                "lanes: {} samples, {} dropped\n",
                self.lanes.len(),
                self.dropped_lanes
            ));
        }
        out.push_str(&span::canonical_dump(&self.spans));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_folds_cache_and_recovery_counters() {
        let (topo, _ids) = padico_fabric::topology::single_cluster(2);
        // Force at least one schedule-cache lookup so the counters move.
        let _ = crate::redistribute::schedule_cached(
            64,
            crate::dist::Distribution::Block,
            2,
            crate::dist::Distribution::Block,
            2,
        )
        .unwrap();
        let snap = ObservabilitySnapshot::capture(&topo);
        assert!(
            snap.lanes.is_empty(),
            "observing must not start a scheduler"
        );
        assert!(topo.sched_started().is_none());
        assert!(snap.metrics.counters.contains_key("schedule_cache.hits"));
        assert!(snap.metrics.counters.contains_key("schedule_cache.misses"));
        assert!(snap.metrics.counters.contains_key("recovery.giop_retries"));
        assert!(snap.metrics.counters.contains_key("pool.hits"));
        assert!(snap.metrics.counters.contains_key("pool.misses"));
        assert!(snap
            .metrics
            .counters
            .contains_key("tm.coalesce.frames_coalesced"));
        assert!(snap.metrics.counters.contains_key("tm.coalesce.flushes"));
        assert!(snap.metrics.counters.contains_key("span.dropped"));
        let rendered = snap.render();
        assert!(rendered.contains("counter schedule_cache.misses"));
        assert!(rendered.contains("counter span.dropped"));
        assert!(rendered.contains("spans: "));
    }

    #[test]
    fn flight_recorder_merges_spans_timeseries_and_lanes() {
        let (topo, _ids) = padico_fabric::topology::single_cluster(2);
        let telemetry = topo.telemetry();
        let clock = padico_util::simtime::SimClock::new();
        {
            let _r = padico_util::span::root(telemetry, &clock, 0, 9, "ccm.invoke", "invoke:x");
            clock.advance(1000);
        }
        telemetry.bump("orb.admission.shed", 500);
        let mut snap = ObservabilitySnapshot::capture(&topo);
        snap.lanes = vec![
            LaneSample {
                worker: 0,
                shard: 3,
                vt: 700,
                batch: 32,
                occupancy: 5,
                lag: 120,
                stolen: true,
            },
            LaneSample {
                worker: 1,
                shard: 0,
                vt: 900,
                batch: 7,
                occupancy: 0,
                lag: 0,
                stolen: false,
            },
        ];
        let json = snap.flight_recorder_json();
        for needle in [
            "\"traceEvents\"",
            "invoke:x",
            "sched-lanes",
            "batch.worker-0",
            "occupancy.shards-",
            "lag.shards-",
            "steal:shard3",
            "ts.orb.admission.shed",
            "timeseries",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced JSON, same discipline as the span exporter test.
        let braces: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        let rendered = snap.render();
        assert!(rendered.contains("timeseries orb.admission.shed"));
        assert!(rendered.contains("lanes: 2 samples"));
    }
}
