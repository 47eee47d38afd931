//! Observability acceptance: one GridCCM parallel invocation over the
//! simulated fabric yields exactly one connected span tree that crosses
//! the whole stack (ccm → orb → tm → fabric) and more than one node,
//! exports as valid Chrome-trace JSON, and has a critical-path
//! breakdown that sums exactly to the end-to-end virtual latency.

use padico::core::observability::ObservabilitySnapshot;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico::core::parallel::{ParValue, ParallelAdapter, ParallelRef};
use padico::core::paridl::{ArgDef, InterfaceDef, OpDef, ParamKind};
use padico::core::{DistSeq, Distribution, Grid, GridCcmError, InterceptionPlan};
use padico::orb::profile::OrbProfile;
use padico::tm::selector::FabricChoice;
use padico::tm::{TmConfig, TraceSampling};
use padico::util::simtime::MS;
use std::collections::BTreeSet;
use std::sync::Arc;

fn shift_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Obs/Shift:1.0".into(),
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
    let xml = r#"<parallelism interface="IDL:Obs/Shift:1.0">
        <operation name="shift">
          <argument index="0" distribution="block"/>
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    Arc::new(InterceptionPlan::compile(&shift_interface(), xml).unwrap())
}

struct ShiftServant;

impl ParallelServant for ShiftServant {
    fn repository_id(&self) -> &str {
        "IDL:Obs/Shift:1.0"
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

/// A client handle on `client_node` over ShiftServant replicas on
/// `server_nodes`. The group name seeds the invocation (= trace) ids.
fn shift_handle(
    grid: &Grid,
    group: &str,
    client_node: usize,
    server_nodes: &[usize],
) -> ParallelRef {
    let plan = shift_plan();
    let mut refs = Vec::new();
    for (rank, &node) in server_nodes.iter().enumerate() {
        let adapter = ParallelAdapter::new(Arc::new(ShiftServant), Arc::clone(&plan));
        adapter.configure(rank, server_nodes.len(), None);
        let ior = grid.node(node).env.orb.activate(adapter);
        refs.push(grid.node(client_node).env.orb.object_ref(ior));
    }
    ParallelRef::new(group, plan, refs, 0, 1).unwrap()
}

fn invoke_shift(par: &ParallelRef, values: &[f64], delta: f64) -> Vec<f64> {
    let arg =
        DistSeq::from_f64_local(values.len() as u64, Distribution::Block, 0, 1, values).unwrap();
    match par
        .invoke("shift", vec![ParValue::Dist(arg), ParValue::F64(delta)])
        .unwrap()
    {
        Some(ParValue::Dist(d)) => d.as_f64().unwrap(),
        other => panic!("unexpected shift result {other:?}"),
    }
}

#[test]
fn parallel_invocation_yields_one_connected_multilayer_tree() {
    let grid = Grid::single_cluster(3).unwrap();
    let par = shift_handle(&grid, "obs-shift", 0, &[1, 2]);
    let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let got = invoke_shift(&par, &values, 1.5);
    assert!((got[10] - 11.5).abs() < 1e-9);

    let obs = ObservabilitySnapshot::capture(grid.topology());
    assert_eq!(obs.dropped_spans, 0);

    // Exactly one root: everything the grid did — boot, connection
    // setup, the scatter, the upcalls, the gather — either belongs to
    // this invocation's trace or was untraced.
    let roots: Vec<_> = obs
        .spans
        .iter()
        .filter(|s| s.layer == "ccm.invoke")
        .collect();
    assert_eq!(roots.len(), 1, "one invocation, one root span");
    let root = roots[0].clone();
    assert_eq!(root.parent, 0);
    assert!(
        obs.spans.iter().all(|s| s.trace_id == root.trace_id),
        "stray spans outside the invocation's trace"
    );

    // The tree is connected: every non-root span's parent exists.
    let trace = obs.trace(root.trace_id);
    let ids: BTreeSet<u64> = trace.iter().map(|s| s.span_id).collect();
    for s in &trace {
        assert!(s.span_id != 0, "span ids are nonzero");
        if s.span_id != root.span_id {
            assert!(
                ids.contains(&s.parent),
                "orphan span {} ({}/{})",
                s.name,
                s.layer,
                s.parent
            );
        }
        assert!(s.end >= s.start, "span {} ends before it starts", s.name);
    }

    // It crosses the whole stack and more than one node.
    let layers: BTreeSet<&str> = trace.iter().map(|s| s.layer).collect();
    for needed in ["ccm.invoke", "orb.giop", "tm.vlink", "fabric.link"] {
        assert!(layers.contains(needed), "missing layer {needed}: {layers:?}");
    }
    let subsystems: BTreeSet<&str> = layers
        .iter()
        .map(|l| l.split('.').next().unwrap())
        .collect();
    assert!(subsystems.len() >= 4, "subsystems {subsystems:?}");
    let nodes: BTreeSet<u32> = trace.iter().map(|s| s.node).collect();
    assert!(nodes.len() >= 2, "single-node trace: {nodes:?}");

    // The critical-path breakdown attributes every virtual nanosecond of
    // the end-to-end latency to exactly one layer.
    let cp = obs
        .critical_path(root.trace_id, root.span_id)
        .expect("critical path");
    assert_eq!(cp.total, root.duration());
    assert_eq!(
        cp.self_ns.values().sum::<u64>(),
        cp.total,
        "breakdown must sum to the end-to-end latency: {}",
        cp.render()
    );

    // The Perfetto export is well-formed Chrome-trace JSON.
    let json = obs.chrome_trace_json();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"M\""));
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close}"
        );
    }

    // Span ends fed the per-layer latency histograms, and the fabric fed
    // the byte counters.
    let h = obs
        .metrics
        .histogram("latency.ccm.invoke")
        .expect("invoke latency histogram");
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, root.duration());
    let wire_bytes: u64 = obs
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("bytes."))
        .map(|(_, v)| v)
        .sum();
    assert!(wire_bytes > 0, "no bytes counted on any fabric");
}

#[test]
fn separate_invocations_get_separate_traces() {
    let grid = Grid::single_cluster(3).unwrap();
    let par = shift_handle(&grid, "obs-shift", 0, &[1, 2]);
    let values: Vec<f64> = (0..32).map(|i| i as f64).collect();
    invoke_shift(&par, &values, 1.0);
    invoke_shift(&par, &values, 2.0);

    let obs = ObservabilitySnapshot::capture(grid.topology());
    let roots: Vec<_> = obs
        .spans
        .iter()
        .filter(|s| s.layer == "ccm.invoke")
        .collect();
    assert_eq!(roots.len(), 2);
    assert_ne!(roots[0].trace_id, roots[1].trace_id);
    // Every span belongs to exactly one of the two traces.
    for s in &obs.spans {
        assert!(
            s.trace_id == roots[0].trace_id || s.trace_id == roots[1].trace_id,
            "span {} in neither trace",
            s.name
        );
    }
    assert!(!obs.trace(roots[0].trace_id).is_empty());
    assert!(!obs.trace(roots[1].trace_id).is_empty());
}

#[test]
fn long_runs_keep_the_newest_spans_within_the_node_rings() {
    // Every invocation roots a span tree, so a world that runs long
    // records without end. Each node keeps only its newest spans: the
    // retained total stays within `nodes × NODE_CAP` and the latest
    // invocation's tree stays readable after the early ones are evicted.
    let grid = Grid::single_cluster(3).unwrap();
    let par = shift_handle(&grid, "obs-ring", 0, &[1, 2]);
    let values: Vec<f64> = (0..(96 << 10) / 8).map(|i| i as f64).collect();
    let telemetry = grid.topology().telemetry();
    let mut steps = 0;
    while telemetry.spans_dropped() == 0 {
        assert!(steps < 1000, "no node ring filled after {steps} steps");
        let got = invoke_shift(&par, &values, steps as f64);
        assert_eq!(got[7], 7.0 + steps as f64);
        steps += 1;
    }
    for step in steps..steps + 50 {
        invoke_shift(&par, &values, step as f64);
    }
    let cap = (grid.len() * padico::util::span::NODE_CAP) as u64;
    assert!(
        telemetry.spans_retained() <= cap,
        "{} spans retained over {} nodes",
        telemetry.spans_retained(),
        grid.len()
    );

    let obs = ObservabilitySnapshot::capture(grid.topology());
    let roots = invoke_roots(&obs);
    let last = obs
        .spans
        .iter()
        .filter(|s| s.layer == "ccm.invoke")
        .max_by_key(|s| s.end)
        .expect("the newest invocation's root is retained");
    let trace = obs.trace(last.trace_id);
    let ids: BTreeSet<u64> = trace.iter().map(|s| s.span_id).collect();
    assert!(
        trace.iter().all(|s| s.parent == 0 || ids.contains(&s.parent)),
        "the newest trace lost spans to eviction"
    );
    assert!(trace.iter().any(|s| s.layer == "orb.giop"));
    assert!(roots.len() < steps + 50, "the oldest invocations were evicted");
}

#[test]
fn control_service_serves_the_flight_recorder_over_giop() {
    // The introspection path end to end: a GridCCM invocation leaves
    // spans, latency windows, and counters in the flight recorder; a
    // ControlServant on the server node exposes them through the ORB;
    // a client on another node retrieves them with plain GIOP requests
    // — the stack observing itself through its own invocation path.
    let grid = Grid::single_cluster(3).unwrap();
    let par = shift_handle(&grid, "obs-shift", 0, &[1, 2]);
    let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
    invoke_shift(&par, &values, 1.5);

    let ior = padico::control::serve(&grid.node(1).env.orb);
    let client = padico::control::ControlClient::attach(&grid.node(0).env.orb, ior);

    let (node, vt) = client.ping().unwrap();
    assert_eq!(node, 1);
    assert!(vt > 0);

    // The remote snapshot must agree with a local capture on the
    // deterministic parts: same invocation root, same latency series.
    let snap = client.snapshot().unwrap();
    assert!(snap.contains("timeseries latency.ccm.invoke"), "snapshot:\n{snap}");
    assert!(snap.contains("histogram latency.ccm.invoke"));

    let local = ObservabilitySnapshot::capture(grid.topology());
    let root = local
        .spans
        .iter()
        .find(|s| s.layer == "ccm.invoke")
        .expect("invocation root recorded")
        .clone();
    let remote_tree = client.trace(root.trace_id).unwrap();
    // The control poll itself adds orb/tm spans to the buffers, but the
    // finished invocation's tree is immutable — the served dump of that
    // trace must match the local one byte for byte.
    assert_eq!(
        remote_tree,
        padico::util::span::canonical_dump(&local.trace(root.trace_id)),
        "served trace diverged from the local flight recorder"
    );

    let w = client.windows("latency.ccm.invoke").unwrap();
    assert_eq!(
        w.rows.iter().map(|r| r.count).sum::<u64>(),
        1,
        "one invocation, one latency sample: {w:?}"
    );

    let json = client.dump().unwrap();
    assert!(json.contains("traceEvents"));
    assert!(json.contains("invoke:"));
    assert!(json.contains("ts.latency.ccm.invoke"));
}

/// The trace ids of a world's retained `ccm.invoke` roots.
fn invoke_roots(obs: &ObservabilitySnapshot) -> BTreeSet<u64> {
    obs.spans
        .iter()
        .filter(|s| s.layer == "ccm.invoke")
        .map(|s| s.trace_id)
        .collect()
}

#[test]
fn each_world_keeps_its_own_sampling_policy_and_spans() {
    // World A samples every other trace; world B, booted after it with
    // the default policy, must not switch A's sampling back on.
    let (topo, _ids) = padico::fabric::topology::single_cluster(3);
    let sampled = TmConfig {
        trace_sampling: TraceSampling::SampleEvery(2),
        ..TmConfig::default()
    };
    let a =
        Grid::boot_with_config(topo, OrbProfile::omniorb3(), FabricChoice::Auto, sampled).unwrap();
    let b = Grid::single_cluster(3).unwrap();
    let par_a = shift_handle(&a, "obs-world-a", 0, &[1, 2]);
    let par_b = shift_handle(&b, "obs-world-b", 0, &[1, 2]);
    let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
    for round in 0..8 {
        invoke_shift(&par_a, &values, f64::from(round));
        invoke_shift(&par_b, &values, f64::from(round));
    }

    let obs_a = ObservabilitySnapshot::capture(a.topology());
    let obs_b = ObservabilitySnapshot::capture(b.topology());
    let (roots_a, roots_b) = (invoke_roots(&obs_a), invoke_roots(&obs_b));
    assert!(
        roots_a.len() < 8,
        "SampleEvery(2) kept all 8 roots of world A"
    );
    assert_eq!(roots_b.len(), 8, "world B samples every trace");
    let traces = |obs: &ObservabilitySnapshot| -> BTreeSet<u64> {
        obs.spans.iter().map(|s| s.trace_id).collect()
    };
    assert!(
        traces(&obs_a).is_disjoint(&roots_b) && traces(&obs_b).is_disjoint(&roots_a),
        "a world's capture holds another world's traces"
    );
}

#[test]
fn a_young_world_keeps_its_early_windows() {
    // World A's clock runs far past the 64 default windows; a world
    // booted afterwards starts at virtual time zero and must still keep
    // its first latency samples.
    let a = Grid::single_cluster(3).unwrap();
    let par_a = shift_handle(&a, "obs-old", 0, &[1, 2]);
    let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
    invoke_shift(&par_a, &values, 1.0);
    a.node(0).env.tm.clock().advance(200 * MS);
    invoke_shift(&par_a, &values, 2.0);

    let b = Grid::single_cluster(3).unwrap();
    let par_b = shift_handle(&b, "obs-young", 0, &[1, 2]);
    invoke_shift(&par_b, &values, 3.0);

    let ts = b.topology().telemetry().timeseries();
    let series = ts
        .series("latency.ccm.invoke")
        .expect("invoke latency series");
    assert!(series.total_count() >= 1, "{}", ts.render());
    assert_eq!(series.dropped_samples, 0, "{}", ts.render());
}
