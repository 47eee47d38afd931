//! Chaos suite: end-to-end fault injection through the whole stack
//! (fabric → PadicoTM → ORB → GridCCM), gated behind the `chaos` cargo
//! feature because the tests deliberately burn wall-clock time waiting
//! out reply deadlines on dropped frames.
//!
//! Everything here is deterministic: fault decisions are a pure function
//! of the plan seed and per-link sequence numbers, and backoff is
//! charged to the virtual clock — so two runs of the same scenario must
//! report identical retry counts and recovery time. Every scenario boots
//! its own world and reads that world's telemetry, so the same-seed
//! comparisons cover the full metrics render, byte counters included.
#![cfg(feature = "chaos")]

mod chaos_world;

use chaos_world::{
    assert_shifted, chaos_config, chaos_seed, cpu_turn, invoke_shift, quiesce, run_traced_failover,
    run_traced_failover_with, sci_cluster, shift_handle, strip_sched,
};
use padico::core::{Grid, GridCcmError};
use padico::fabric::fabric::FabricKind;
use padico::fabric::topology::single_cluster;
use padico::fabric::{FaultPlan, Topology};
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::profile::OrbProfile;
use padico::orb::{Orb, OrbError, Servant, ServerCtx};
use padico::tm::selector::FabricChoice;
use padico::tm::{BreakerPolicy, PadicoTM, RetryPolicy, TmConfig, TmError, TraceSampling};
use padico::util::simtime::{MS, SEC};
use padico::util::stats::RecoverySnapshot;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// [`chaos_config`] with small-message coalescing switched on, for the
/// determinism runs that prove batching does not perturb recovery.
fn chaos_config_coalesced() -> TmConfig {
    TmConfig {
        coalesce: Some(padico::tm::CoalescePolicy::default()),
        ..chaos_config()
    }
}

/// The acceptance scenario: a GridCCM parallel invocation with 20%
/// seeded frame drops on the socket fabric plus a forced SAN mapping
/// death, completing via socket failover. Returns everything a
/// determinism comparison needs.
fn run_failover_scenario(seed: u64) -> (Vec<f64>, Vec<RecoverySnapshot>, u64) {
    let (topo, ids) = sci_cluster(3);
    let grid = Grid::boot_with_config(
        topo,
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
        chaos_config(),
    )
    .unwrap();
    let par = shift_handle(&grid, 0, &[1, 2]);
    let values: Vec<f64> = (0..96).map(|i| i as f64).collect();

    // Warm-up over the healthy SAN.
    assert_shifted(&invoke_shift(&par, &values, 0.5).unwrap(), &values, 0.5);

    // The SAN mapping hardware dies on the client node and on server
    // replica 0 (mapping tables are per-sender, so this takes out both
    // directions), and the Ethernet fallback drops 20% of frames.
    for fabric in grid.topology().fabrics() {
        match fabric.kind() {
            FabricKind::Sci => {
                fabric.kill_mappings(ids[0]);
                fabric.kill_mappings(ids[1]);
            }
            FabricKind::Ethernet => fabric.set_fault_plan(FaultPlan::drops(seed, 20)),
            _ => {}
        }
    }

    let mut got = Vec::new();
    for round in 1..=5 {
        let delta = f64::from(round) * 2.0;
        got = invoke_shift(&par, &values, delta).unwrap();
        assert_shifted(&got, &values, delta);
    }

    let recovery: Vec<RecoverySnapshot> = (0..grid.len())
        .map(|i| grid.node(i).env.tm.recovery().snapshot())
        .collect();
    let dropped = grid
        .topology()
        .fabrics()
        .iter()
        .map(|f| f.fault_stats().dropped)
        .sum();
    (got, recovery, dropped)
}

#[test]
fn same_seed_chaos_yields_byte_identical_trace_trees() {
    // The determinism contract: the same seeded chaos scenario, run
    // twice, produces the identical trace tree, routes, recovery
    // counters, and metrics registry — byte counters included.
    let seed = chaos_seed();
    let r1 = run_traced_failover(seed);
    let r2 = run_traced_failover(seed);
    assert!(!r1.dump.is_empty(), "no spans captured");
    assert!(
        r1.retries > 0,
        "the scenario never hit the retry paths — the comparison proves nothing"
    );
    assert_eq!(
        r1.dump, r2.dump,
        "span trees diverged between same-seed runs"
    );
    assert_eq!(r1.warmup, r2.warmup, "warm-up routes diverged across runs");
    assert_eq!(
        r1.failover, r2.failover,
        "failover routes diverged across runs"
    );
    assert_eq!(
        r1.retries, r2.retries,
        "recovery counters diverged across runs"
    );
    assert!(
        r1.metrics.contains("counter bytes."),
        "the render must include the byte counters"
    );
    assert_eq!(
        r1.metrics, r2.metrics,
        "metrics diverged between same-seed runs"
    );
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

#[test]
fn same_seed_chaos_is_byte_identical_with_coalescing_enabled() {
    // Coalescing changes the wire format (frames are batched into
    // envelopes) but must not perturb determinism: two same-seed runs
    // through coalescing links — pooled buffers and all — replay the
    // identical span tree, metrics registry, and recovery counters.
    let seed = chaos_seed();
    let r1 = run_traced_failover_with(seed, chaos_config_coalesced());
    let r2 = run_traced_failover_with(seed, chaos_config_coalesced());
    assert!(!r1.dump.is_empty(), "no spans captured");
    assert!(
        r1.retries > 0,
        "the scenario never hit the retry paths — the comparison proves nothing"
    );
    assert_eq!(
        r1.dump, r2.dump,
        "span trees diverged between same-seed coalesced runs"
    );
    assert_eq!(
        r1.metrics, r2.metrics,
        "metrics diverged between same-seed coalesced runs"
    );
    assert_eq!(r1.retries, r2.retries, "retry counts diverged");
}

#[test]
fn failover_trace_shows_the_san_to_socket_route_change() {
    let run = run_traced_failover(chaos_seed());
    let (warmup, failover) = (run.warmup, run.failover);
    // The healthy invocation rode the SAN; after the mapping death the
    // same invocation path shows up on the socket fabric instead.
    assert!(
        warmup.iter().any(|n| n == "tx:sci"),
        "warm-up never used the SAN: {warmup:?}"
    );
    assert!(
        !warmup.iter().any(|n| n == "tx:ethernet"),
        "warm-up should not touch the fallback: {warmup:?}"
    );
    assert!(
        failover.iter().any(|n| n == "tx:ethernet"),
        "failover never reached the socket fabric: {failover:?}"
    );
}

#[test]
fn san_mapping_death_fails_over_to_socket_with_seeded_drops() {
    let _turn = cpu_turn();
    let seed = chaos_seed();
    let (got, recovery, dropped) = run_failover_scenario(seed);

    // The run actually exercised recovery: frames were dropped, the
    // SAN death forced at least one route failover, and retries backed
    // off on the virtual clock.
    assert!(dropped > 0, "no frames dropped");
    let total: u64 = recovery.iter().map(|r| r.total_retries()).sum();
    let failovers: u64 = recovery
        .iter()
        .map(|r| r.route_failovers + r.mapping_remaps)
        .sum();
    let backoff: u64 = recovery.iter().map(|r| r.backoff_ns).sum();
    assert!(total > 0, "no retries recorded: {recovery:?}");
    assert!(failovers > 0, "no failover recorded: {recovery:?}");
    assert!(backoff > 0, "no backoff charged: {recovery:?}");

    // Bounded retries: the e2e recovery fits inside the configured
    // per-layer budgets rather than spiralling.
    assert!(total < 500, "retry storm: {total} retries");

    // Same seed ⇒ identical injected faults ⇒ identical retry counts
    // and recovery time (backoff_ns), per node.
    let (got2, recovery2, dropped2) = run_failover_scenario(seed);
    assert_eq!(got, got2, "results diverged between same-seed runs");
    assert_eq!(dropped, dropped2, "fault streams diverged");
    assert_eq!(
        recovery, recovery2,
        "recovery counters diverged between same-seed runs"
    );
}

#[test]
fn invocation_completes_through_flapping_wan_within_retry_budget() {
    let _turn = cpu_turn();
    let (topo, a, b) = padico::fabric::topology::two_clusters_wan(2);
    let grid = Grid::boot_with_config(
        topo,
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
        chaos_config(),
    )
    .unwrap();
    // Client on cluster A, both server replicas across the WAN on
    // cluster B.
    let client_node = 0;
    assert_eq!(grid.node(0).env.tm.node(), a[0]);
    let server_nodes: Vec<usize> = (0..grid.len())
        .filter(|&i| b.contains(&grid.node(i).env.tm.node()))
        .collect();
    let par = shift_handle(&grid, client_node, &server_nodes);
    let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
    assert_shifted(&invoke_shift(&par, &values, 1.0).unwrap(), &values, 1.0);

    // The WAN starts flapping: down for a 5 ms virtual window starting
    // now, and dropping 10% of the frames it does carry.
    let now = grid.node(client_node).env.tm.clock().now();
    for fabric in grid.topology().fabrics() {
        if fabric.kind() == FabricKind::Wan {
            fabric.set_fault_plan(FaultPlan {
                seed: 7,
                drop_pct: 10,
                down_windows: vec![(now, now + 5 * MS)],
                ..FaultPlan::default()
            });
        }
    }

    let got = invoke_shift(&par, &values, -3.0).unwrap();
    assert_shifted(&got, &values, -3.0);

    // The flap was survived by charging backoff to the virtual clock
    // until the window passed — bounded retries, no wall-clock spin.
    let recovery: Vec<RecoverySnapshot> = (0..grid.len())
        .map(|i| grid.node(i).env.tm.recovery().snapshot())
        .collect();
    let total: u64 = recovery.iter().map(|r| r.total_retries()).sum();
    assert!(total > 0, "flap never hit the send path: {recovery:?}");
    assert!(total < 500, "retry storm: {total} retries");
    assert!(
        grid.node(client_node).env.tm.clock().now() >= now + 5 * MS,
        "virtual clock never crossed the flap window"
    );
}

#[test]
fn partitioned_replica_degrades_to_surviving_ranks() {
    let _turn = cpu_turn();
    let (topo, ids) = sci_cluster(3);
    let grid = Grid::boot_with_config(
        topo,
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
        chaos_config(),
    )
    .unwrap();
    let par = shift_handle(&grid, 0, &[1, 2]).with_quorum(1).unwrap();
    let values: Vec<f64> = (0..48).map(|i| i as f64).collect();
    assert_shifted(&invoke_shift(&par, &values, 1.0).unwrap(), &values, 1.0);

    // Replica 1 (node 2) falls off the net entirely.
    for fabric in grid.topology().fabrics() {
        fabric.faults().partition_pair(ids[0], ids[2]);
    }

    // The scatter re-routes through the survivor; the data is intact
    // because the client still holds all of it.
    let got = invoke_shift(&par, &values, 4.0).unwrap();
    assert_shifted(&got, &values, 4.0);
    assert_eq!(
        par.dead_replicas().into_iter().collect::<Vec<_>>(),
        vec![1],
        "replica 1 should be marked dead"
    );

    // And it keeps working on the degraded group.
    let got = invoke_shift(&par, &values, 5.0).unwrap();
    assert_shifted(&got, &values, 5.0);
}

#[test]
fn quorum_loss_is_an_error_not_a_hang() {
    let _turn = cpu_turn();
    let (topo, ids) = sci_cluster(3);
    let grid = Grid::boot_with_config(
        topo,
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
        chaos_config(),
    )
    .unwrap();
    // Default quorum: all replicas — any death is quorum loss.
    let par = shift_handle(&grid, 0, &[1, 2]);
    let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
    assert_shifted(&invoke_shift(&par, &values, 1.0).unwrap(), &values, 1.0);

    for fabric in grid.topology().fabrics() {
        fabric.faults().partition_pair(ids[0], ids[2]);
    }

    match invoke_shift(&par, &values, 2.0) {
        Err(GridCcmError::QuorumLost { alive: 1, total: 2 }) => {}
        other => panic!("expected QuorumLost, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Overload protection: admission control, circuit breakers, deadlines.
// These scenarios talk straight GIOP through a plain ORB pair rather
// than GridCCM — overload semantics live below the parallel layer.
// ---------------------------------------------------------------------

/// Answers `ok` immediately; `block` parks the dispatch thread (and the
/// admission slot it holds) until the test releases it.
struct Blocker {
    started: mpsc::Sender<()>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl Servant for Blocker {
    fn repository_id(&self) -> &str {
        "IDL:Chaos/Blocker:1.0"
    }

    fn dispatch(
        &self,
        op: &str,
        _args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match op {
            "block" => {
                self.started.send(()).ok();
                self.release.lock().unwrap().recv().ok();
                Ok(())
            }
            "ok" => {
                reply.write_i32(1);
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// A plain ORB pair (client on node 0, server on node 1) booted with
/// explicit runtime knobs, plus the handles the overload scenarios
/// need: the per-node runtimes (clocks), the topology (fabrics), and
/// the node ids (partitions).
#[allow(clippy::type_complexity)]
fn orb_pair_with(
    cfg: TmConfig,
) -> (
    Arc<Orb>,
    Arc<Orb>,
    Vec<Arc<PadicoTM>>,
    Arc<Topology>,
    Vec<padico::util::ids::NodeId>,
) {
    let (topo, ids) = single_cluster(2);
    let topo = Arc::new(topo);
    let tms = PadicoTM::boot_all_with_config(Arc::clone(&topo), cfg).unwrap();
    let client = Orb::start(
        Arc::clone(&tms[0]),
        "chaos",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    let server = Orb::start(
        Arc::clone(&tms[1]),
        "chaos",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    (client, server, tms, topo, ids)
}

/// Wall-clock wait until the server holds no admission slot: dispatch
/// threads release their permit just *after* the reply is written, so a
/// client that wants deterministic admission decisions for its next
/// request has to wait out that sliver.
fn await_quiescent(server: &Orb) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.admission_inflight() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server dispatches never drained"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The overload storm: a budget of 2 fully occupied by parked
/// dispatches, then six probes that must all be shed immediately with
/// the retryable TRANSIENT. Returns the canonical span dump (blocker
/// traces excluded — their dispatch spans end on wall-clock release),
/// the rendered metrics registry, and the inflight high-water mark.
fn run_overload_storm() -> (String, String, u32) {
    let _turn = cpu_turn();
    let cfg = TmConfig {
        default_deadline: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        coalesce: None,
        inflight_budget: Some(2),
        breaker: None,
        trace_sampling: TraceSampling::Always,
    };
    let (client, server, _tms, topo, _ids) = orb_pair_with(cfg);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let ior = server.activate(Arc::new(Blocker {
        started: started_tx,
        release: std::sync::Mutex::new(release_rx),
    }));
    let obj = client.object_ref(ior);
    let telemetry = topo.telemetry();
    let clock = client.tm().clock();
    let node = client.tm().node().0;

    // Warm-up proves the endpoint works, then drains so its permit
    // cannot race the blockers below. Every traced step runs under an
    // explicit root span with a fixed trace id — spans only record
    // inside an ambient trace, and fixed ids keep the dump replayable.
    {
        let _root = padico::util::span::root(telemetry, clock, node, 1, "chaos.storm", "warmup");
        obj.request("ok").invoke().unwrap();
    }
    await_quiescent(&server);

    // Two oneway blockers occupy the whole budget, started strictly in
    // sequence so the admission order is deterministic. No root span:
    // their dispatches end on wall-clock release, the one timestamp the
    // virtual clock cannot pin down.
    for _ in 0..2 {
        obj.request("block").invoke_oneway().unwrap();
        started_rx.recv().unwrap();
    }

    // Six probes: each must be shed *immediately* (never queued) with
    // the retryable TRANSIENT. Probes are not idempotent, so each is
    // exactly one wire attempt and the shed counter moves by exactly 1.
    for i in 0..6 {
        let _root = padico::util::span::root(
            telemetry,
            clock,
            node,
            10 + i,
            "chaos.storm",
            format!("probe:{i}"),
        );
        let err = obj.request("ok").invoke().unwrap_err();
        assert!(
            matches!(&err, OrbError::Transient(TmError::Overloaded(_))),
            "probe {i}: want a shed TRANSIENT, got {err:?}"
        );
        assert!(err.is_retryable(), "a shed is retryable by contract");
    }

    // Release the parked dispatches; once the slots drain the endpoint
    // must serve again.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    await_quiescent(&server);
    {
        let _root =
            padico::util::span::root(telemetry, clock, node, 100, "chaos.storm", "recovery");
        obj.request("ok").invoke().unwrap();
    }

    let counters = telemetry.metrics().counters;
    assert_eq!(
        counters.get("orb.admission.shed"),
        Some(&6),
        "exactly the six probes are shed: {counters:?}"
    );
    assert_eq!(
        counters.get("orb.admission.admitted"),
        Some(&4),
        "warm-up + two blockers + recovery are admitted: {counters:?}"
    );
    let peak = server.admission_inflight_peak();
    assert!(peak <= 2, "inflight exceeded the budget: peak {peak}");
    assert_eq!(peak, 2, "the blockers must have filled the budget");

    // CI's failure path sets CHAOS_FLIGHT_OUT and re-runs the suite to
    // capture the full flight-recorder export (spans + telemetry
    // windows as a Perfetto trace) as a build artifact for offline
    // triage of the failing seed.
    if let Ok(path) = std::env::var("CHAOS_FLIGHT_OUT") {
        let json = padico::core::observability::ObservabilitySnapshot::capture(&topo)
            .flight_recorder_json();
        std::fs::write(&path, json).expect("write CHAOS_FLIGHT_OUT");
    }

    // The untraced blockers recorded nothing, so the dump covers the
    // warm-up, all six sheds, and the recovery — every deterministic
    // trace of the scenario.
    quiesce(&topo, || {
        client.admission_inflight() + server.admission_inflight()
    });
    (
        padico::util::span::canonical_dump(&telemetry.spans()),
        telemetry.metrics().render(),
        peak,
    )
}

#[test]
fn overload_storm_sheds_within_budget_and_replays_byte_identically() {
    let (dump1, metrics1, peak1) = run_overload_storm();
    let (dump2, metrics2, peak2) = run_overload_storm();
    assert!(!dump1.is_empty(), "no spans captured");
    assert_eq!(dump1, dump2, "shed span trees diverged between runs");
    assert_eq!(
        metrics1, metrics2,
        "admission/shed counters diverged between runs"
    );
    assert_eq!(peak1, peak2, "inflight peaks diverged between runs");
    // CI's multi-seed matrix sets CHAOS_METRICS_OUT to archive the
    // counter snapshot per seed, so a diverging future run can be
    // diffed against the recorded baseline offline.
    if let Ok(path) = std::env::var("CHAOS_METRICS_OUT") {
        let body = format!(
            "# chaos seed {} overload storm\n{metrics1}peak_inflight = {peak1}\n",
            chaos_seed()
        );
        std::fs::write(&path, body).expect("write CHAOS_METRICS_OUT");
    }
}

/// The breaker scenario end to end: a partition trips the per-route
/// breakers, an open breaker fails fast without touching the wire, and
/// after the route heals the half-open probe closes it again. Returns
/// the canonical span dump and the rendered metrics registry for the
/// byte-identity comparison.
fn run_breaker_storm() -> (String, String) {
    let _turn = cpu_turn();
    let cooldown = 30 * SEC;
    let cfg = TmConfig {
        default_deadline: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        coalesce: None,
        inflight_budget: None,
        breaker: Some(BreakerPolicy {
            trip_after: 2,
            cooldown,
        }),
        trace_sampling: TraceSampling::Always,
    };
    let (client, server, tms, topo, ids) = orb_pair_with(cfg);
    let (_tx, rx) = mpsc::channel();
    let (started_tx, _started_rx) = mpsc::channel();
    let obj = client.object_ref(server.activate(Arc::new(Blocker {
        started: started_tx,
        release: std::sync::Mutex::new(rx),
    })));
    let telemetry = topo.telemetry();
    let clock = client.tm().clock();
    let node = client.tm().node().0;

    // Warm-up over healthy routes. As in the storm scenario, every
    // step runs under a fixed-trace-id root span so the breaker's
    // transition spans land in a replayable dump.
    {
        let _root = padico::util::span::root(telemetry, clock, node, 1, "chaos.breaker", "warmup");
        obj.request("ok").invoke().unwrap();
    }

    // Every fabric partitions the pair: all sends are refused at the
    // fabric, each refusal counts towards the breaker trip.
    for fabric in topo.fabrics() {
        fabric.faults().partition_pair(ids[0], ids[1]);
    }
    let wire_faults = |topo: &Topology| -> u64 {
        topo.fabrics()
            .iter()
            .map(|f| {
                let s = f.fault_stats();
                s.dropped + s.link_down_refusals + s.mapping_refusals
            })
            .sum()
    };

    // Failing invokes until every route the selector can reach has
    // tripped: once nothing reaches the wire any more, the fabric fault
    // counters freeze.
    let mut seen = Vec::new();
    for i in 0..5u64 {
        let _root = padico::util::span::root(
            telemetry,
            clock,
            node,
            10 + i,
            "chaos.breaker",
            format!("trip:{i}"),
        );
        assert!(
            obj.request("ok").idempotent().invoke().is_err(),
            "a fully partitioned invoke cannot succeed"
        );
        drop(_root);
        seen.push(wire_faults(&topo));
        if seen.len() >= 2 && seen[seen.len() - 1] == seen[seen.len() - 2] {
            break;
        }
    }
    assert!(
        seen.len() >= 2 && seen[seen.len() - 1] == seen[seen.len() - 2],
        "routes never all tripped; fabric fault counts kept moving: {seen:?}"
    );

    let counters = telemetry.metrics().counters;
    assert!(
        counters.get("tm.breaker.opened").copied().unwrap_or(0) >= 1,
        "the breaker never tripped: {counters:?}"
    );
    let fast_before = counters
        .get("tm.breaker.fast_failures")
        .copied()
        .unwrap_or(0);
    assert!(fast_before >= 1, "no fast failures recorded while open");

    // While open the route fails fast: the whole invoke errors without
    // a single frame reaching any fabric.
    let wire_before = wire_faults(&topo);
    {
        let _root =
            padico::util::span::root(telemetry, clock, node, 50, "chaos.breaker", "while-open");
        assert!(
            obj.request("ok").idempotent().invoke().is_err(),
            "the breaker is open — this cannot succeed"
        );
    }
    assert_eq!(
        wire_faults(&topo),
        wire_before,
        "an open breaker must not put anything on the wire"
    );
    let counters = telemetry.metrics().counters;
    assert!(
        counters
            .get("tm.breaker.fast_failures")
            .copied()
            .unwrap_or(0)
            > fast_before,
        "the open breaker did not fail fast: {counters:?}"
    );

    // The route heals and the cooldown elapses on the virtual clock:
    // the next send is the half-open probe, and its success closes the
    // breaker — the invoke goes through end to end.
    for fabric in topo.fabrics() {
        fabric.faults().heal_pair(ids[0], ids[1]);
    }
    tms[0].clock().advance(cooldown + SEC);
    {
        let _root =
            padico::util::span::root(telemetry, clock, node, 100, "chaos.breaker", "recovery");
        obj.request("ok").idempotent().invoke().unwrap();
    }
    let counters = telemetry.metrics().counters;
    assert!(
        counters.get("tm.breaker.probes").copied().unwrap_or(0) >= 1,
        "recovery never went through a half-open probe: {counters:?}"
    );
    assert!(
        counters.get("tm.breaker.closed").copied().unwrap_or(0) >= 1,
        "the probe's success never closed the breaker: {counters:?}"
    );

    quiesce(&topo, || {
        client.admission_inflight() + server.admission_inflight()
    });
    (
        padico::util::span::canonical_dump(&telemetry.spans()),
        telemetry.metrics().render(),
    )
}

#[test]
fn breaker_trips_fails_fast_and_recovers_byte_identically() {
    let (dump1, metrics1) = run_breaker_storm();
    let (dump2, metrics2) = run_breaker_storm();
    assert!(!dump1.is_empty(), "no spans captured");
    assert_eq!(dump1, dump2, "breaker span trees diverged between runs");
    assert_eq!(
        metrics1, metrics2,
        "breaker counters diverged between runs"
    );
}

#[test]
fn expired_deadline_short_circuits_server_dispatch() {
    let _turn = cpu_turn();
    let (client, server, tms, topo, _ids) = orb_pair_with(chaos_config());
    let telemetry = topo.telemetry();
    let (started_tx, _started_rx) = mpsc::channel();
    let (_tx, rx) = mpsc::channel();
    let obj = client.object_ref(server.activate(Arc::new(Blocker {
        started: started_tx,
        release: std::sync::Mutex::new(rx),
    })));

    // Warm-up establishes the connection while the clocks agree.
    obj.request("ok").invoke().unwrap();
    await_quiescent(&server);

    // The server's clock races 10 virtual seconds ahead: any deadline
    // the client can stamp (now + 150 ms) has already expired when the
    // request arrives, so the server must refuse to burn dispatch work
    // and answer the typed TIMEOUT instead.
    tms[1].clock().advance(10 * SEC);
    let err = obj.request("ok").invoke().unwrap_err();
    assert!(
        matches!(&err, OrbError::DeadlineExceeded(_)),
        "want the typed TIMEOUT, got {err:?}"
    );
    assert!(!err.is_retryable(), "an expired deadline is terminal");
    let counters = telemetry.metrics().counters;
    assert_eq!(
        counters.get("orb.deadline.expired_server"),
        Some(&1),
        "exactly one dispatch short-circuited: {counters:?}"
    );

    // The refusal reply carried the server's clock back (causal merge on
    // receive), so the client's next deadline is stamped far enough in
    // the future and the call goes through — no poison, no retry storm.
    obj.request("ok").invoke().unwrap();
    let counters = telemetry.metrics().counters;
    assert_eq!(
        counters.get("orb.deadline.expired_server"),
        Some(&1),
        "the recovered call must not trip the deadline check again"
    );
}

#[test]
fn mid_pipeline_link_down_fails_in_flight_and_retries_queued() {
    // A pipeline with requests in two states when the link dies:
    // *in flight* (delivered, parked in a server dispatch, reply not yet
    // sent) and *queued* (submitted into the dead link, never delivered).
    // The mux must fail exactly the in-flight handles — their replies
    // died on the wire and non-idempotent work must not be re-issued —
    // while the queued idempotent ones ride the retry loop onto a fresh
    // connection once the link heals.
    let _turn = cpu_turn();
    let (client, server, _tms, topo, ids) = orb_pair_with(chaos_config());
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let ior = server.activate(Arc::new(Blocker {
        started: started_tx,
        release: std::sync::Mutex::new(release_rx),
    }));
    let obj = client.object_ref(ior.clone());

    obj.request("ok").invoke().unwrap(); // connection warm-up
    await_quiescent(&server);

    // Three non-idempotent requests reach the server and park mid-dispatch.
    let in_flight: Vec<_> = (0..3).map(|_| obj.request("block").submit()).collect();
    for _ in 0..3 {
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    // The link dies in both directions, mid-pipeline.
    let fabrics = topo.fabrics_between(ids[0], ids[1]);
    for f in &fabrics {
        f.faults().partition_pair(ids[0], ids[1]);
    }

    // Four idempotent requests submitted into the dead link: each send
    // fails with the transient LINK_DOWN and parks — the retry decision
    // belongs to wait().
    let queued: Vec<_> = (0..4)
        .map(|_| obj.request("ok").idempotent().submit())
        .collect();

    // Release the blockers; their replies die on the partitioned link.
    for _ in 0..3 {
        release_tx.send(()).unwrap();
    }
    await_quiescent(&server);

    // Heal. The queued handles must now retry onto a fresh connection
    // and succeed — every one of them recording at least one retry.
    for f in &fabrics {
        f.faults().heal_pair(ids[0], ids[1]);
    }
    let before = client.tm().recovery().snapshot().giop_retries;
    for q in queued {
        let mut reply = q.wait().unwrap();
        assert_eq!(reply.read_i32().unwrap(), 1, "queued request lost its reply");
    }
    let retries = client.tm().recovery().snapshot().giop_retries - before;
    assert!(
        retries >= 4,
        "each queued request must have retried its dead-link send, saw {retries}"
    );

    // The in-flight handles fail: their replies are gone, and without
    // the idempotent marker the lost exchange must not be re-issued —
    // the reply deadline surfaces as the retryable-but-unretried
    // transport error.
    for h in in_flight {
        let err = h.wait().unwrap_err();
        assert!(
            err.is_transport(),
            "an in-flight handle must fail at the transport layer: {err:?}"
        );
    }
    assert_eq!(
        client.tm().recovery().snapshot().giop_retries - before,
        retries,
        "non-idempotent in-flight requests must not be re-issued"
    );
    assert_eq!(
        client.pending_request_count(ior.node, &ior.endpoint),
        0,
        "failed handles must not leak pending-table entries"
    );
}
