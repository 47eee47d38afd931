//! The seeded chaos failover world used by the `chaos` suite.
//!
//! Everything here is deterministic: fault decisions are a pure function
//! of the plan seed and per-link sequence numbers, and backoff is
//! charged to the virtual clock — so two runs of the same scenario must
//! report identical retry counts, span trees, and metrics. Each run boots
//! its own world, whose telemetry no other test can reach.

use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico::core::parallel::{ParValue, ParallelAdapter, ParallelRef};
use padico::core::paridl::{ArgDef, InterfaceDef, OpDef, ParamKind};
use padico::core::{DistSeq, Distribution, Grid, GridCcmError, InterceptionPlan};
use padico::fabric::fabric::FabricKind;
use padico::fabric::{presets, FaultPlan, SecurityZone, Topology};
use padico::orb::profile::OrbProfile;
use padico::tm::selector::FabricChoice;
use padico::tm::{RetryPolicy, TmConfig, TraceSampling};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The seed the chaos scenarios run under. CI's multi-seed matrix sets
/// `CHAOS_SEED`; local runs default to 42. Every determinism assertion
/// compares two runs of the *same* seed, so any seed must pass.
pub fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Short deadlines (a lost frame costs one reply timeout of wall-clock)
/// and a widened retry budget for the 20%-drop scenarios.
pub fn chaos_config() -> TmConfig {
    TmConfig {
        default_deadline: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        coalesce: None,
        inflight_budget: None,
        breaker: None,
        trace_sampling: TraceSampling::Always,
    }
}

/// Take the host's turn for one chaos scenario. The scenarios wait out
/// 150 ms wall-clock reply deadlines on dropped frames; run side by side
/// on a small host (2 vCPUs), CPU contention alone can push a healthy
/// reply past its deadline and change a run's retry story. This lock
/// orders CPU use only: each scenario's telemetry is its own world's.
pub fn cpu_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Block until the world is quiescent: no node's ORB holds an admission
/// slot (`inflight` sums them — no dispatch is queued or running, so no
/// reply is left to write) and the world scheduler has nothing pending
/// or in flight. A canceled request's late reply is written by a server
/// dispatch worker after the client has moved on; once this holds,
/// every frame the scenario put on the wire has been delivered and
/// counted.
pub fn quiesce(topo: &Topology, inflight: impl Fn() -> u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(inflight() == 0 && topo.sched().quiesce(Duration::from_secs(1)) && inflight() == 0) {
        assert!(Instant::now() < deadline, "the world never quiesced");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn shift_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Chaos/Shift:1.0".into(),
        ops: vec![OpDef::new(
            "shift",
            vec![
                ArgDef::new("v", ParamKind::Sequence),
                ArgDef::new("delta", ParamKind::Double),
            ],
            Some(ParamKind::Sequence),
        )],
    }
}

fn shift_plan() -> Arc<InterceptionPlan> {
    let xml = r#"<parallelism interface="IDL:Chaos/Shift:1.0">
        <operation name="shift">
          <argument index="0" distribution="block"/>
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    Arc::new(InterceptionPlan::compile(&shift_interface(), xml).unwrap())
}

/// Adds `delta` to its local block — no internal MPI, so a degraded
/// replica group stays self-consistent.
struct ShiftServant;

impl ParallelServant for ShiftServant {
    fn repository_id(&self) -> &str {
        "IDL:Chaos/Shift:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        assert_eq!(op, "shift");
        let local = args.dist(0)?;
        let delta = args.f64(1)?;
        let shifted: Vec<f64> = local.as_f64()?.iter().map(|v| v + delta).collect();
        Ok(Some(ParValue::Dist(DistSeq::from_f64_local(
            local.global_elems,
            local.distribution,
            ctx.rank,
            ctx.size,
            &shifted,
        )?)))
    }
}

/// Activate ShiftServant adapters on `server_nodes` and build a
/// single-rank client handle on `client_node`.
pub fn shift_handle(grid: &Grid, client_node: usize, server_nodes: &[usize]) -> ParallelRef {
    let plan = shift_plan();
    let mut refs = Vec::new();
    for (rank, &node) in server_nodes.iter().enumerate() {
        let adapter = ParallelAdapter::new(Arc::new(ShiftServant), Arc::clone(&plan));
        adapter.configure(rank, server_nodes.len(), None);
        let ior = grid.node(node).env.orb.activate(adapter);
        refs.push(grid.node(client_node).env.orb.object_ref(ior));
    }
    ParallelRef::new("chaos-shift", plan, refs, 0, 1).unwrap()
}

pub fn invoke_shift(
    par: &ParallelRef,
    values: &[f64],
    delta: f64,
) -> Result<Vec<f64>, GridCcmError> {
    let arg = DistSeq::from_f64_local(
        values.len() as u64,
        Distribution::Block,
        0,
        1,
        values,
    )
    .unwrap();
    match par.invoke("shift", vec![ParValue::Dist(arg), ParValue::F64(delta)])? {
        Some(ParValue::Dist(d)) => Ok(d.as_f64().unwrap()),
        other => panic!("unexpected shift result {other:?}"),
    }
}

pub fn assert_shifted(got: &[f64], values: &[f64], delta: f64) {
    assert_eq!(got.len(), values.len());
    for (g, v) in got.iter().zip(values) {
        assert!((g - (v + delta)).abs() < 1e-9, "got {g}, want {}", v + delta);
    }
}

/// A trusted cluster with an SCI SAN (mapping discipline) and a
/// Fast-Ethernet LAN (the socket fallback).
pub fn sci_cluster(n: usize) -> (Topology, Vec<padico::util::ids::NodeId>) {
    let mut b = Topology::builder();
    let ids = b.machine("n", "chaos-cluster", n, SecurityZone::Trusted);
    b.fabric(presets::sci(), ids.clone());
    b.fabric(presets::ethernet100(), ids.clone());
    (b.build(), ids)
}

/// Everything a determinism comparison needs from one traced failover
/// run, read from the run's own world once it is quiescent. `metrics` is
/// the full registry render, `bytes.*` and `recovery.*` included.
pub struct FailoverRun {
    pub dump: String,
    pub metrics: String,
    /// Deterministic render of the virtual-time telemetry windows.
    /// Compare [`strip_sched`]`(&run.timeseries)` across runs: the
    /// `sched.*` series sample wall-clock batching and are legitimately
    /// nondeterministic.
    pub timeseries: String,
    /// `ccm.invoke` roots retained in the span buffers — 4 under
    /// `TraceSampling::Always`, fewer when sampling drops whole trees.
    pub roots: usize,
    pub warmup: Vec<String>,
    pub failover: Vec<String>,
    pub retries: u64,
}

/// Drop the `sched.*` series from a timeseries render: scheduler lane
/// telemetry samples wall-clock batch composition, which no two runs
/// share. Everything else (latency windows, breaker transitions, retry
/// and shed marks) is stamped in virtual time and must replay exactly.
pub fn strip_sched(render: &str) -> String {
    render
        .lines()
        .filter(|l| !l.starts_with("timeseries sched."))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The traced failover scenario, sized for byte-identical replay: one
/// client rank and one server replica, so every request is sequential
/// and every virtual-time stamp is a pure function of the seed. A
/// GridCCM parallel invocation warms up over the healthy SAN, then the
/// SAN mapping dies and the socket fallback drops 20% of frames.
pub fn run_traced_failover(seed: u64) -> FailoverRun {
    run_traced_failover_with(seed, chaos_config())
}

/// [`run_traced_failover`] with explicit runtime knobs, so the same
/// scenario can be replayed with coalescing enabled or with sampling.
pub fn run_traced_failover_with(seed: u64, config: TmConfig) -> FailoverRun {
    let _turn = cpu_turn();
    let sampling_all = matches!(config.trace_sampling, TraceSampling::Always);
    let (topo, ids) = sci_cluster(2);
    let grid =
        Grid::boot_with_config(topo, OrbProfile::omniorb3(), FabricChoice::Auto, config).unwrap();
    let par = shift_handle(&grid, 0, &[1]);
    let values: Vec<f64> = (0..32).map(|i| i as f64).collect();

    // Warm-up over the healthy SAN.
    assert_shifted(&invoke_shift(&par, &values, 0.5).unwrap(), &values, 0.5);

    // The SAN dies, the socket fallback drops 20% of frames.
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
    for round in 1..=3 {
        let delta = f64::from(round) * 2.0;
        assert_shifted(&invoke_shift(&par, &values, delta).unwrap(), &values, delta);
    }

    quiesce(grid.topology(), || {
        (0..grid.len())
            .map(|i| grid.node(i).env.orb.admission_inflight())
            .sum()
    });

    let telemetry = grid.topology().telemetry();
    let retries = telemetry.recovery().total_retries();
    let spans = telemetry.spans();
    let mut roots: Vec<_> = spans.iter().filter(|s| s.layer == "ccm.invoke").collect();
    roots.sort_by_key(|s| s.start);
    if sampling_all {
        assert_eq!(roots.len(), 4, "four invocations, four roots");
    } else {
        assert!(
            roots.len() < 4,
            "sampling must drop at least one of the four invocation trees \
             (got {} roots)",
            roots.len()
        );
    }
    let fabric_names = |trace_id: u64| -> Vec<String> {
        spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.layer == "fabric.link")
            .map(|s| s.name.clone())
            .collect()
    };
    let warmup = roots
        .first()
        .map(|r| fabric_names(r.trace_id))
        .unwrap_or_default();
    let failover = roots
        .last()
        .map(|r| fabric_names(r.trace_id))
        .unwrap_or_default();
    FailoverRun {
        dump: padico::util::span::canonical_dump(&spans),
        metrics: telemetry.metrics().render(),
        timeseries: telemetry.timeseries().render(),
        roots: roots.len(),
        warmup,
        failover,
        retries,
    }
}
