//! World dashboard: the flight recorder served over GIOP, polled live.
//!
//! Boots a 6-node cluster (SCI SAN + Fast-Ethernet fallback) with the
//! full observability stack on — virtual-time telemetry windows, span
//! sampling, circuit breakers, admission control — then drives three
//! workload phases against an echo service while a dashboard client on
//! another node polls the [`padico_control`] introspection object
//! *through the same ORB the workload uses*:
//!
//! 1. **healthy** — warm-up traffic over the SAN;
//! 2. **degraded** — the SAN dies and the Ethernet fallback drops 40%
//!    of frames: retries, breaker trips, and failover light up;
//! 3. **storm** — 8 concurrent clients against a 2-slot admission
//!    budget: load-shedding kicks in.
//!
//! After each phase the dashboard renders the per-window activity bars
//! (sheds, retries, breaker transitions) fetched via `windows()`, and at
//! the end it pulls the full Perfetto export via `dump()`.
//!
//! ```text
//! cargo run --example world_dashboard [flight_recorder.json]
//! ```

use padico::control::{ControlClient, SeriesWindows};
use padico::core::Grid;
use padico::fabric::fabric::FabricKind;
use padico::fabric::{presets, FaultPlan, SecurityZone, Topology};
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::selector::FabricChoice;
use padico::tm::{BreakerPolicy, RetryPolicy, TmConfig, TraceSampling};
use std::sync::Arc;
use std::time::Duration;

/// Echo with a little simulated compute: enough virtual latency that
/// concurrent callers overlap and the admission budget bites.
struct Echo;

impl Servant for Echo {
    fn repository_id(&self) -> &str {
        "IDL:Dashboard/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "echo" => {
                let v = args.read_u64()?;
                ctx.clock.advance(200_000); // 0.2 ms of "work"
                reply.write_u64(v);
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Wall-clock patience around one call. The stack's own retry backoff
/// is charged to the *virtual* clock, so it costs no wall time — a shed
/// against the 2-slot admission budget can outlast the whole in-stack
/// retry budget when the server thread is a few microseconds late
/// releasing a slot. A real dashboard just polls again; so do we.
fn patient<T>(mut call: impl FnMut() -> Result<T, OrbError>) -> Result<T, OrbError> {
    let mut last = None;
    for _ in 0..50 {
        match call() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

fn render_bars(title: &str, w: &SeriesWindows) {
    if w.rows.is_empty() {
        println!("  {title:<28} (no samples)");
        return;
    }
    let window_ms = w.window_ns as f64 / 1e6;
    let total: u64 = w.rows.iter().map(|r| r.count).sum();
    println!(
        "  {title:<28} {total} events over {} windows of {window_ms} ms \
         (dropped={}, evicted={})",
        w.rows.len(),
        w.dropped_samples,
        w.evicted_windows
    );
    for row in &w.rows {
        let bar = "#".repeat((row.count as usize).min(50));
        println!(
            "    vt[{:>6.1}ms] {bar} {}",
            row.index as f64 * window_ms,
            row.count
        );
    }
}

fn dashboard_frame(grid: &Grid, client: &ControlClient, phase: &str) {
    // The dashboard node idles between polls, so its virtual clock lags
    // the busy workload nodes — and a deadline minted from a lagging
    // clock is already expired at the server. Merge it forward to the
    // world's newest vt first (the in-sim analogue of NTP sync).
    let newest = (0..grid.len())
        .map(|i| grid.node(i).env.tm.clock().now())
        .max()
        .unwrap_or(0);
    grid.node(5).env.tm.clock().merge_to(newest);

    let (node, vt) = patient(|| client.ping()).expect("control object reachable");
    println!(
        "\n== dashboard: {phase} (node {node}, vt {:.1} ms) ==",
        vt as f64 / 1e6
    );
    for (title, series) in [
        ("admission sheds", "orb.admission.shed"),
        ("giop retries", "recovery.giop_retries"),
        ("send retries", "recovery.send_retries"),
        ("breaker opens", "tm.breaker.open"),
        ("breaker closes", "tm.breaker.close"),
        ("giop attempt latency", "latency.orb.giop"),
    ] {
        let w = patient(|| client.windows(series)).expect("windows call succeeds");
        render_bars(title, &w);
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "flight_recorder.json".into());

    // A trusted 6-node cluster: SCI SAN + Fast-Ethernet fallback.
    let mut b = Topology::builder();
    let ids = b.machine("n", "dashboard-cluster", 6, SecurityZone::Trusted);
    b.fabric(presets::sci(), ids.clone());
    b.fabric(presets::ethernet100(), ids.clone());
    let topo = b.build();

    // Full observability config: sampling keeps 1 in 4 traces, the
    // admission budget is deliberately tight, the breaker trips fast.
    let config = TmConfig {
        default_deadline: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        inflight_budget: Some(2),
        breaker: Some(BreakerPolicy::default()),
        trace_sampling: TraceSampling::SampleEvery(4),
        ..TmConfig::default()
    };
    let grid = Grid::boot_with_config(topo, OrbProfile::omniorb3(), FabricChoice::Auto, config)
        .expect("grid boots");

    // The observed world: an echo service on node 1, the control object
    // on the same node (it reports the world it booted in), the dashboard
    // client on node 5 — every poll is a real GIOP round-trip.
    let echo_ior = grid.node(1).env.orb.activate(Arc::new(Echo));
    let control_ior = padico::control::serve(&grid.node(1).env.orb);
    println!(
        "control object IOR: {}...",
        &control_ior.stringify()[..48.min(control_ior.stringify().len())]
    );
    let dashboard = ControlClient::attach(&grid.node(5).env.orb, control_ior);

    // Phase 1: healthy warm-up over the SAN. Each call opens a root
    // span so the whole invocation is a traceable causal tree — under
    // SampleEvery(4) only ~1 in 4 of these trees lands in the buffers.
    let client_tm = Arc::clone(&grid.node(0).env.tm);
    let obj = grid.node(0).env.orb.object_ref(echo_ior.clone());
    let echo = |trace_id: u64| {
        let _root = padico::util::span::root(
            client_tm.telemetry(),
            client_tm.clock(),
            client_tm.node().0,
            trace_id,
            "app.echo",
            format!("echo:{trace_id}"),
        );
        obj.request("echo").arg_u64(trace_id).idempotent().invoke()
    };
    for i in 0..40u64 {
        patient(|| echo(i)).expect("healthy echo succeeds");
    }
    dashboard_frame(&grid, &dashboard, "phase 1: healthy");

    // Phase 2: the workload client's SAN mapping dies and the Ethernet
    // fallback drops 40% of frames — retries, failover, and breaker
    // trips on the 0→1 route. The dashboard's 5→1 path keeps its SAN,
    // so the control plane stays reachable while the data plane churns.
    for fabric in grid.topology().fabrics() {
        match fabric.kind() {
            FabricKind::Sci => fabric.kill_mappings(ids[0]),
            FabricKind::Ethernet => fabric.set_fault_plan(FaultPlan::drops(7, 40)),
            _ => {}
        }
    }
    for i in 100..130u64 {
        // Some of these exhaust their retry budget against a tripped
        // breaker — that is the point; the dashboard shows it.
        let _ = echo(i);
    }
    dashboard_frame(&grid, &dashboard, "phase 2: degraded (SAN down, 40% drops)");

    // Phase 3: heal the fabric, then storm the 2-slot admission budget
    // with 8 concurrent clients on distinct nodes.
    for fabric in grid.topology().fabrics() {
        if fabric.kind() == FabricKind::Ethernet {
            fabric.set_fault_plan(FaultPlan::default());
        }
    }
    std::thread::scope(|scope| {
        for c in 0..8u64 {
            let orb = &grid.node([0, 2, 3, 4][c as usize % 4]).env.orb;
            let ior = echo_ior.clone();
            scope.spawn(move || {
                let obj = orb.object_ref(ior);
                for i in 0..25u64 {
                    let _ = obj.request("echo").arg_u64(c * 1000 + i).invoke();
                }
            });
        }
    });
    dashboard_frame(&grid, &dashboard, "phase 3: storm (8 clients, budget 2)");

    // Pull one sampled causal tree and the full flight recorder.
    let snapshot = patient(|| dashboard.snapshot()).expect("snapshot over GIOP");
    let spans = grid.topology().telemetry().spans();
    if let Some(root) = spans.iter().find(|s| s.layer == "app.echo") {
        let tree = patient(|| dashboard.trace(root.trace_id)).expect("trace over GIOP");
        println!(
            "\nsampled trace {} ({} spans):\n{}",
            root.trace_id,
            tree.lines().count(),
            tree.lines().take(8).collect::<Vec<_>>().join("\n")
        );
    }
    println!(
        "\nsnapshot render: {} lines ({} timeseries lines)",
        snapshot.lines().count(),
        snapshot
            .lines()
            .filter(|l| l.starts_with("timeseries"))
            .count()
    );

    let json = patient(|| dashboard.dump()).expect("dump over GIOP");
    std::fs::write(&out_path, &json).expect("write flight recorder");
    println!(
        "flight recorder written to {out_path} ({} bytes) — open in Perfetto / chrome://tracing",
        json.len()
    );
}
