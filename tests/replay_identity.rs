//! Replay-identity suite: the same seeded chaos world, run twice, must
//! replay byte-identically.
//!
//! This lives in its OWN test binary — one test, one process — on
//! purpose: the comparison includes the per-fabric `bytes.*` counters,
//! and those survive only in a process that runs nothing racing
//! wall-clock deadlines. The storm scenarios in the `chaos` binary do
//! exactly that (a server's reply can hit the wire just as the client
//! gives up), and such a stray frame lands in whatever isolated registry
//! window happens to be open — possibly this test's. The failover
//! scenario itself is fully quiesced between invocations, so alone in a
//! process its byte tallies are a pure function of the seed.
#![cfg(feature = "chaos")]

mod chaos_world;

use chaos_world::{chaos_config, chaos_seed, run_traced_failover_with, strip_sched};
use padico::tm::{TmConfig, TraceSampling};

#[test]
fn same_seed_replays_the_chaos_world_identically() {
    // The determinism contract: the same seeded chaos scenario, run
    // twice, produces the identical trace tree, recovery counters, and
    // metrics registry — byte counters included.
    let seed = chaos_seed();
    let run = run_traced_failover_with(seed, chaos_config());
    let rerun = run_traced_failover_with(seed, chaos_config());
    assert!(!run.dump.is_empty(), "no spans captured");
    assert_eq!(run.dump, rerun.dump, "span trees diverged across runs");
    assert_eq!(run.warmup, rerun.warmup, "warm-up routes diverged across runs");
    assert_eq!(run.failover, rerun.failover, "failover routes diverged across runs");
    assert_eq!(run.retries, rerun.retries, "recovery counters diverged across runs");
    // Full metrics registry, per-fabric bytes.* included: with stream
    // drop abortive, both runs must put exactly the same frames on the
    // wire.
    assert!(
        run.metrics.contains("counter bytes."),
        "the render must include the byte counters"
    );
    assert_eq!(run.metrics, rerun.metrics, "metrics diverged across runs");
}

#[test]
fn telemetry_windows_and_sampled_traces_replay_identically() {
    // The flight-recorder additions ride the same determinism contract:
    // virtual-time telemetry windows fold identically run after run
    // (minus the `sched.*` lane series, which sample wall-clock batch
    // composition), and head-based trace sampling keeps the identical
    // *subset* of causal trees — the sampled set is a pure function of
    // the deterministic trace ids, not of thread scheduling.
    let seed = chaos_seed();

    // Full-tracing runs: the telemetry windows must match byte for byte
    // once the wall-clock-sampled sched.* series are stripped.
    let run = run_traced_failover_with(seed, chaos_config());
    let rerun = run_traced_failover_with(seed, chaos_config());
    assert!(
        run.timeseries.contains("timeseries latency."),
        "span latencies must feed the vt windows: {}",
        run.timeseries
    );
    assert!(
        run.timeseries.contains("timeseries sched."),
        "the world scheduler's lane series must be present (and stripped)"
    );
    assert_eq!(
        strip_sched(&run.timeseries),
        strip_sched(&rerun.timeseries),
        "telemetry windows diverged across runs"
    );

    // Sampled runs: SampleEvery(2) must keep a strict, identical subset
    // of the four invocation trees on every run.
    let sampled = || TmConfig {
        trace_sampling: TraceSampling::SampleEvery(2),
        ..chaos_config()
    };
    let s = run_traced_failover_with(seed, sampled());
    let s2 = run_traced_failover_with(seed, sampled());
    assert!(s.roots > 0, "SampleEvery(2) kept no invocation trees");
    assert_eq!(s.roots, s2.roots, "sampled tree count diverged");
    assert_eq!(s.dump, s2.dump, "sampled span trees diverged across runs");
    assert!(
        s.dump.len() < run.dump.len(),
        "a sampled dump must be strictly smaller than the full dump"
    );
    assert_eq!(
        strip_sched(&s.timeseries),
        strip_sched(&s2.timeseries),
        "sampled-run telemetry windows diverged across runs"
    );
}
