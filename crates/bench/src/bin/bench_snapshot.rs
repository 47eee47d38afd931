//! Assembles the committed benchmark snapshot (`BENCH_<date>.json`).
//!
//! Usage: `bench_snapshot <date> [criterion-jsonl-path] [output-path]`
//!
//! Driven by `scripts/bench_snapshot.sh`, which first runs the criterion
//! benches with `CRITERION_JSON` pointing at a scratch file so their
//! results land here too.

use padico_bench::{concurrent, fig7, fig8, overload, report, serving, world};
use padico_core::redistribute::schedule_cache_stats;
use padico_fabric::FabricKind;
use padico_orb::profile::OrbProfile;

/// Small-message burst round-trips through a two-node Myrinet circuit:
/// each round sends `burst` eight-byte frames, flushes, and waits for a
/// one-byte ack from a peer thread that drained them — so the number
/// includes the receive-side wakeup cost per wire message, which is
/// exactly what coalescing amortizes. Returns wall-clock nanoseconds
/// per message over `rounds` rounds, plus the world's
/// `(frames_coalesced, coalesce_flushes)`.
fn small_burst(coalesce: bool, burst: usize, rounds: usize) -> (f64, (u64, u64)) {
    use padico_fabric::topology::single_cluster;
    use padico_fabric::Payload;
    use padico_tm::selector::FabricChoice;
    use padico_tm::{ArbitratedDriver, CircuitSpec, CoalescePolicy, PadicoTM, TmConfig};
    use std::sync::Arc;

    let (topo, ids) = single_cluster(2);
    let topo = Arc::new(topo);
    let cfg = TmConfig {
        coalesce: coalesce.then(CoalescePolicy::default),
        ..TmConfig::default()
    };
    let tms = PadicoTM::boot_all_with_config(Arc::clone(&topo), cfg).unwrap();
    let spec =
        CircuitSpec::new("snapshot-burst", ids).with_choice(FabricChoice::Kind(FabricKind::Myrinet));
    let c0 = tms[0].circuit(spec.clone()).unwrap();
    let c1 = Arc::new(tms[1].circuit(spec).unwrap());
    {
        let c1 = Arc::clone(&c1);
        std::thread::spawn(move || loop {
            for _ in 0..burst {
                if c1.recv().is_err() {
                    return;
                }
            }
            if c1.send(0, 0, Payload::from_vec(vec![1u8])).is_err()
                || c1.core().flush().is_err()
            {
                return;
            }
        });
    }

    let round = |h: u64| {
        for i in 0..burst {
            c0.send(1, h * burst as u64 + i as u64, Payload::from_vec(vec![0u8; 8]))
                .unwrap();
        }
        c0.core().flush().unwrap();
        c0.recv().unwrap();
    };
    // Warm the pool shelves and the route so the measured loop is the
    // steady state.
    for r in 0..4 {
        round(r);
    }
    let start = std::time::Instant::now();
    for r in 0..rounds {
        round((4 + r) as u64);
    }
    let ns_per_msg = start.elapsed().as_nanos() as f64 / (rounds * burst) as f64;
    (ns_per_msg, topo.telemetry().coalesce_counts())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let date = args.next().unwrap_or_else(|| "undated".into());
    let criterion_jsonl = args
        .next()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    let out_path = args.next().unwrap_or_else(|| format!("BENCH_{date}.json"));

    eprintln!("running fig7 bandwidth curves...");
    let fig7_series = fig7::run(3);
    eprintln!("running concurrent CORBA+MPI share...");
    let share = concurrent::run(256 << 10, 8);
    eprintln!("running 2x2 parallel invoke (schedule cache, observed)...");
    let (par, obs) = fig8::run_parallel_pair_observed(
        2,
        OrbProfile::omniorb3(),
        FabricKind::Myrinet,
        256 << 10,
        4,
    );
    let cache = schedule_cache_stats();
    eprintln!("running small-message burst (coalesced vs per-frame)...");
    const BURST_MSGS: usize = 64;
    const BURST_ROUNDS: usize = 32;
    let (burst_plain_ns, _) = small_burst(false, BURST_MSGS, BURST_ROUNDS);
    let (burst_coalesced_ns, (frames_coalesced, coalesce_flushes)) =
        small_burst(true, BURST_MSGS, BURST_ROUNDS);
    let pool = padico_fabric::pool::stats();
    eprintln!("running overload storm (admission shedding under pressure)...");
    let storm = overload::run(8, 2, 32, std::time::Duration::from_micros(500));
    eprintln!("running serving storm (10k pipelined two-way invocations)...");
    let serve = serving::run(10_000, 8);
    eprintln!(
        "serving_storm: {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs, \
         {} threads / {} pending at peak",
        serve.throughput_rps, serve.p50_us, serve.p99_us, serve.peak_threads,
        serve.peak_pending
    );

    // Critical-path breakdown of the 2x2 world's latest parallel
    // invocation's trace.
    let critical_path = obs
        .spans
        .iter()
        .filter(|s| s.layer == "ccm.invoke")
        .max_by_key(|s| (s.start, s.span_id))
        .and_then(|root| obs.critical_path(root.trace_id, root.span_id))
        .map(|cp| {
            eprint!("{}", cp.render());
            report::critical_path_json(&cp)
        })
        .unwrap_or_else(|| "null".to_string());

    // The tentpole scale test.
    eprintln!("running world_100k (discrete-event progress core)...");
    let w = world::run_world(100_000, 256, 2_000);
    eprintln!(
        "world_100k: {:.0} events/s, peak RSS {:.1} MiB, parallel boot \
         {:.2}s ({:.0} nodes/s)",
        w.events_per_sec,
        w.peak_rss_mb,
        w.boot_s,
        w.nodes as f64 / w.boot_s.max(1e-9)
    );

    // The same world with the flight recorder on: 1-in-64 token span
    // sampling + virtual-time timeseries. Gated: full observability may
    // cost at most WORLD_OBS_OVERHEAD_MAX (default 1.05 = 5%) of the
    // baseline's events/s.
    eprintln!("running world_100k with flight recorder (overhead gate)...");
    let w_obs = world::run_world_with(100_000, 256, 2_000, world::WorldObs::Full);
    let overhead = w.events_per_sec / w_obs.events_per_sec.max(1e-9);
    let overhead_max: f64 = std::env::var("WORLD_OBS_OVERHEAD_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.05);
    eprintln!(
        "world_100k_obs: {:.0} events/s ({:.1}% overhead, max {:.1}%), \
         {} lane samples, {} sampled spans, {} ts points",
        w_obs.events_per_sec,
        (overhead - 1.0) * 100.0,
        (overhead_max - 1.0) * 100.0,
        w_obs.lane_samples,
        w_obs.sampled_spans,
        w_obs.ts_points
    );

    // The flight-recorder world's telemetry windows (the `sched.*`
    // series come from the lane recorder).
    let ts_section = {
        let mut body = String::from("{");
        for (i, (name, s)) in w_obs.timeseries.series.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "\"{name}\":{{\"points\":{},\"windows\":{},\"dropped\":{},\"evicted\":{}}}",
                s.total_count(),
                s.occupied().len(),
                s.dropped_samples,
                s.evicted_windows
            ));
        }
        body.push('}');
        body
    };

    let sections = vec![
        // A 100,000-node ring driven end-to-end by the sharded event
        // heap in one process: world size bounded by memory, not by OS
        // threads. events/sec is sustained dispatch throughput; peak RSS
        // is the whole process high-water mark (VmHWM).
        (
            "world_100k",
            format!(
                "{{\"nodes\":{},\"tokens\":{},\"hops\":{},\"events\":{},\
                 \"wall_s\":{:.3},\"events_per_sec\":{:.1},\"boot_s\":{:.3},\
                 \"boot_nodes_per_s\":{:.1},\"peak_rss_mb\":{:.1},\
                 \"horizon_ms\":{:.3},\"steals\":{}}}",
                w.nodes,
                w.tokens,
                w.hops,
                w.events,
                w.wall_s,
                w.events_per_sec,
                w.boot_s,
                w.nodes as f64 / w.boot_s.max(1e-9),
                w.peak_rss_mb,
                w.horizon_ms,
                w.steals
            ),
        ),
        // The same world with the flight recorder on, plus the measured
        // events/s overhead ratio the gate enforces.
        (
            "world_100k_obs",
            format!(
                "{{\"events_per_sec\":{:.1},\"overhead_ratio\":{:.4},\
                 \"overhead_max\":{:.4},\"lane_samples\":{},\
                 \"lane_dropped\":{},\"sampled_spans\":{},\"ts_points\":{}}}",
                w_obs.events_per_sec,
                overhead,
                overhead_max,
                w_obs.lane_samples,
                w_obs.lane_dropped,
                w_obs.sampled_spans,
                w_obs.ts_points
            ),
        ),
        // Scheduler lane stats of the flight-recorder world run.
        (
            "sched",
            format!(
                "{{\"delivered\":{},\"steals\":{},\"lane_samples\":{},\
                 \"lane_dropped\":{}}}",
                w_obs.events, w_obs.steals, w_obs.lane_samples, w_obs.lane_dropped
            ),
        ),
        // Per-series totals of the virtual-time telemetry windows.
        ("timeseries", ts_section),
        ("fig7_bandwidth", report::series_json(&fig7_series)),
        (
            "concurrent_share",
            format!(
                "{{\"mpi_alone_mb_s\":{:.1},\"corba_alone_mb_s\":{:.1},\
                 \"mpi_shared_mb_s\":{:.1},\"corba_shared_mb_s\":{:.1},\
                 \"aggregate_mb_s\":{:.1}}}",
                share.mpi_alone_mb_s,
                share.corba_alone_mb_s,
                share.mpi_shared_mb_s,
                share.corba_shared_mb_s,
                share.aggregate_mb_s
            ),
        ),
        (
            "parallel_2x2",
            format!(
                "{{\"latency_us\":{:.1},\"aggregate_mb_s\":{:.1}}}",
                par.latency_us, par.aggregate_mb_s
            ),
        ),
        (
            "schedule_cache",
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                cache.hits, cache.misses, cache.evictions
            ),
        ),
        // Wall-clock cost per 8-byte message over acked 64-message
        // bursts, with per-frame wire messages vs coalescing.
        (
            "small_message_burst",
            format!(
                "{{\"burst\":{},\"rounds\":{},\"uncoalesced_ns_per_msg\":{:.1},\
                 \"coalesced_ns_per_msg\":{:.1}}}",
                BURST_MSGS, BURST_ROUNDS, burst_plain_ns, burst_coalesced_ns
            ),
        ),
        // Segment-pool traffic accumulated over every run above: a warm
        // steady state shows hits dwarfing misses.
        (
            "pool",
            format!(
                "{{\"pool_hits\":{},\"pool_misses\":{},\"pool_returns\":{},\
                 \"pool_outstanding\":{}}}",
                pool.hits, pool.misses, pool.returns, pool.outstanding
            ),
        ),
        (
            "coalesce",
            format!(
                "{{\"frames_coalesced\":{frames_coalesced},\"coalesce_flushes\":{coalesce_flushes}}}"
            ),
        ),
        // The serving path: 10k concurrent two-way invocations from 8
        // submitter threads, every one pipelined through the single
        // pooled RequestMux connection. peak_threads is the whole
        // process's OS thread count at the instant all 10k handles were
        // in flight — the proof that outstanding requests cost
        // pending-table entries, not blocked threads.
        (
            "serving_storm",
            format!(
                "{{\"requests\":{},\"submitters\":{},\"peak_threads\":{},\
                 \"peak_pending\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\
                 \"throughput_rps\":{:.1},\"wall_s\":{:.3}}}",
                serve.requests,
                serve.submitters,
                serve.peak_threads,
                serve.peak_pending,
                serve.p50_us,
                serve.p99_us,
                serve.throughput_rps,
                serve.wall_s
            ),
        ),
        // Admission control under pressure: 8 clients against an
        // inflight budget of 2. Shed requests answer immediately with
        // TRANSIENT; the percentiles cover the admitted requests only,
        // so a healthy controller keeps p99 near the service time
        // instead of letting a queue build.
        (
            "overload_storm",
            format!(
                "{{\"clients\":{},\"budget\":{},\"attempts\":{},\
                 \"completed\":{},\"shed\":{},\"shed_rate\":{:.3},\
                 \"p50_us\":{:.1},\"p99_us\":{:.1}}}",
                storm.clients,
                storm.budget,
                storm.attempts,
                storm.completed,
                storm.shed,
                storm.shed_rate,
                storm.p50_us,
                storm.p99_us
            ),
        ),
        // Retry/failover work done in the 2x2 world — shows the recovery
        // overhead next to the latency/bandwidth numbers (all zero on a
        // healthy grid; nonzero means the bench hit the fault-injection
        // or failover paths).
        ("recovery", report::recovery_json(&obs.metrics)),
        // Per-layer latency histograms and byte counters of the 2x2
        // world.
        ("metrics", report::metrics_json(&obs.metrics)),
        ("critical_path", critical_path),
    ];
    let json = report::snapshot_json(&date, &criterion_jsonl, &sections);
    std::fs::write(&out_path, &json).expect("write snapshot file");
    eprintln!("wrote {out_path}");

    if overhead > overhead_max {
        eprintln!(
            "FAIL: full observability costs {:.1}% of world_100k events/s \
             (max {:.1}%) — {:.0} -> {:.0} events/s",
            (overhead - 1.0) * 100.0,
            (overhead_max - 1.0) * 100.0,
            w.events_per_sec,
            w_obs.events_per_sec
        );
        std::process::exit(1);
    }
}
