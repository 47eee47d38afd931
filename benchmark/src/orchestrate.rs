//! The parent process: runs set-up repetitions, the measured workload and
//! the ledger probes each in a child process, prints one row per metric
//! (`workload metric value unit samples=N`) and, last, the one-line JSON
//! result that `BENCHMARK.json` describes.

use crate::harness::Metric;
use crate::{ledger, stats, USAGE};
use std::process::{Command, Stdio};
use std::time::Instant;

pub const WORKLOADS: [&str; 5] = [
    "rpc_pingpong",
    "rpc_pipelined",
    "gridccm_coupling",
    "coexist_mpi_corba",
    "world_ring",
];

/// The `end_to_end` list of `BENCHMARK.json`, printed with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p75_us",
    "payload_mb_s",
    "peak_rss_mb",
];

/// The `per_layer` list of `BENCHMARK.json`, printed with `--trace 1`.
const PER_LAYER: [&str; 49] = [
    "fabric.rt_ns",
    "fabric.rt_drift",
    "fabric.sched.event_ns",
    "fabric.sched.boot_us_per_node",
    "fabric.sched.rss_bytes_per_node",
    "tm.circuit.rt_ns",
    "tm.circuit.rt_drift",
    "tm.circuit.self_ns",
    "tm.circuit.burst_ns_per_msg",
    "tm.vlink.rt_ns",
    "tm.vlink.rt_drift",
    "tm.vlink.self_ns",
    "tm.vlink.connect_us",
    "mpi.rt_ns",
    "mpi.rt_drift",
    "mpi.self_ns",
    "mpi.rt_64k_ns",
    "orb.cdr.encode_ns",
    "orb.cdr.copy_ns_per_mib",
    "orb.giop.frame_ns",
    "orb.twoway_rt_ns",
    "orb.twoway_rt_drift",
    "orb.self_ns",
    "orb.request_path_ns",
    "orb.servant_ns",
    "orb.reply_path_ns",
    "orb.mux.submit_ns",
    "orb.mux.wait_ns",
    "orb.connect_us",
    "ccm.boot_ms",
    "ccm.deploy_ms",
    "core.redistribute.schedule_cold_ns",
    "core.redistribute.schedule_cached_ns",
    "core.redistribute.assemble_ns_per_mib",
    "core.parallel.invoke_rt_ns",
    "core.parallel.invoke_rt_drift",
    "core.parallel.self_ns",
    "core.parallel.store_us",
    "core.parallel.fetch_us",
    "process.cpu_us_per_op",
    "process.ctx_switches_per_op",
    "process.allocs_per_op",
    "process.alloc_bytes_per_op",
    "process.threads_peak",
    "process.op_p90_us",
    "process.op_p95_us",
    "process.op_p99_us",
    "process.op_p50_drift",
    "trace.overhead_ratio",
];

/// A layer's self time: one probe's median minus the median of the probe
/// one depth below it, both from this `--trace` run.
const SELF_TIMES: [(&str, &str, &str); 5] = [
    ("tm.circuit.self_ns", "tm.circuit.rt_ns", "fabric.rt_ns"),
    ("tm.vlink.self_ns", "tm.vlink.rt_ns", "fabric.rt_ns"),
    ("mpi.self_ns", "mpi.rt_ns", "tm.circuit.rt_ns"),
    ("orb.self_ns", "orb.twoway_rt_ns", "tm.vlink.rt_ns"),
    (
        "core.parallel.self_ns",
        "core.parallel.invoke_rt_ns",
        "orb.twoway_rt_ns",
    ),
];

/// Set-up is repeated (a process each) until this many samples exist…
const SETUP_SAMPLES: usize = 101;
/// …or, past the third sample, until this much time went into it.
const SETUP_BUDGET_S: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 14,
        seconds: 20.0,
        trace: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().ok()?,
            "--seconds" => a.seconds = value.parse().ok().filter(|s| *s >= 1.0)?,
            "--trace" => a.trace = value == "1",
            "--out" => a.out_dir = value.clone(),
            _ => return None,
        }
    }
    WORKLOADS.contains(&a.workload.as_str()).then_some(a)
}

#[derive(Default)]
struct ChildResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Parse the `@m name value unit samples` / `@c attempted failed` lines a
/// child prints (`harness::Report::emit`).
fn parse_child(stdout: &str) -> Option<ChildResult> {
    let mut out = ChildResult::default();
    let mut tallied = false;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["@m", name, value, unit, samples] => {
                out.metrics.push(Metric::new(
                    name,
                    value.parse().ok()?,
                    unit,
                    samples.parse().ok()?,
                ));
            }
            ["@c", attempted, failed] => {
                out.attempted = attempted.parse().ok()?;
                out.failed = failed.parse().ok()?;
                tallied = true;
            }
            _ => {}
        }
    }
    tallied.then_some(out)
}

/// Run one child to completion under the default configuration: the
/// engine and coalescing switches of the environment are removed, except
/// that a 100k-node world cannot boot thread-per-node and asks for the
/// event engine.
fn child(args: &[String], world: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args)
        .env_remove("PADICO_ENGINE")
        .env_remove("PADICO_COALESCE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if world {
        cmd.env("PADICO_ENGINE", "event");
    }
    let output = cmd.output().ok()?;
    if !output.status.success() {
        eprintln!("child {args:?} ended with {}", output.status);
        return None;
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn run_child(a: &Args, window_s: f64, traced: bool) -> Option<ChildResult> {
    let warmup_s = (window_s / 5.0).min(2.0);
    child(
        &strings(&[
            "run",
            &a.workload,
            &a.seed.to_string(),
            &warmup_s.to_string(),
            &window_s.to_string(),
            if traced { "1" } else { "0" },
            &a.out_dir,
        ]),
        a.workload == "world_ring",
    )
}

fn print_rows(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload} {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The last line of standard output.
fn print_json(names: &[&str], metrics: &[Metric], attempted: u64, failed: u64) -> bool {
    let mut fields = Vec::new();
    for name in names {
        match metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )),
            _ => {
                eprintln!("metric {name} missing or not a number");
                return false;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
    failed == 0
}

/// `--trace 0`: the end-to-end numbers. One measured run at the full
/// window, plus set-up repetitions; `setup_s` is their median.
fn end_to_end(a: &Args) -> Option<bool> {
    let run = run_child(a, a.seconds, false)?;
    let mut setups = vec![run.get("setup_s")?];
    let started = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && (setups.len() < 3 || started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let rep = child(
            &strings(&["setup", &a.workload, &a.seed.to_string()]),
            a.workload == "world_ring",
        )?;
        setups.push(rep.get("setup_s")?);
    }
    let mut metrics = run.metrics;
    let setup = metrics.iter_mut().find(|m| m.name == "setup_s")?;
    setup.samples = setups.len() as u64;
    setup.value = stats::median(&mut setups);
    print_rows(&a.workload, &metrics);
    Some(print_json(&END_TO_END, &metrics, run.attempted, run.failed))
}

/// `--trace 1`: the per-layer numbers. The workload traced and untraced
/// at a quarter of the window (their ratio is the tracing overhead), then
/// every ledger probe at a twentieth.
fn per_layer(a: &Args) -> Option<bool> {
    let traced = run_child(a, a.seconds / 4.0, true)?;
    let untraced = run_child(a, a.seconds / 4.0, false)?;
    let overhead = Metric::new(
        "trace.overhead_ratio",
        untraced.get("ops_per_s")? / traced.get("ops_per_s")?,
        "ratio",
        1,
    );
    let (mut attempted, mut failed) = (
        traced.attempted + untraced.attempted,
        traced.failed + untraced.failed,
    );
    let mut metrics: Vec<Metric> = traced
        .metrics
        .into_iter()
        .filter(|m| m.name.starts_with("process."))
        .collect();
    metrics.push(overhead);
    for probe in ledger::PROBES {
        let r = child(
            &strings(&[
                "probe",
                probe,
                &a.seed.to_string(),
                &(a.seconds / 20.0).to_string(),
            ]),
            probe == "sched",
        )?;
        attempted += r.attempted;
        failed += r.failed;
        metrics.extend(r.metrics);
    }
    for (name, upper, lower) in SELF_TIMES {
        let find = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| (m.value, m.samples))
        };
        let ((up, samples), (low, _)) = (find(upper)?, find(lower)?);
        metrics.push(Metric::new(name, up - low, "ns", samples));
    }
    print_rows(&a.workload, &metrics);
    Some(print_json(&PER_LAYER, &metrics, attempted, failed))
}

pub fn main(args: &[String]) -> i32 {
    let Some(a) = parse_args(args) else {
        eprintln!("{USAGE}");
        return 2;
    };
    let done = if a.trace {
        per_layer(&a)
    } else {
        end_to_end(&a)
    };
    match done {
        Some(true) => 0,
        // Wrong answers were reported in the result line.
        Some(false) => 1,
        // A child died or printed nonsense: no result line at all.
        None => 1,
    }
}
