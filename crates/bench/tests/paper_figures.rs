//! Byte-equality gate on the deterministic paper reproductions.
//!
//! `fig7_bandwidth`, `latency_table` and `ablation_layers` print the
//! same bytes on every run: their numbers are virtual time, and no two
//! senders race for one resource timeline. Each bin runs here with its
//! default arguments and its stdout must equal `expected/<bin>.txt`, so
//! any change to a modelled cost shows up as a failing test rather than
//! as a figure nobody re-read.
//!
//! To regenerate after an intended model change:
//!
//! ```text
//! for b in fig7_bandwidth latency_table ablation_layers; do
//!     cargo run --release -q -p padico-bench --bin $b > crates/bench/expected/$b.txt
//! done
//! ```
//!
//! `fig8_parallel`, `concurrent_share` and `fastethernet_scaling` are not
//! gated: concurrent senders share timelines in wall-clock order, so
//! their output varies from run to run.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{bin}.txt"));
    let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        out.stdout == expected,
        "{bin} output differs from {}\n--- expected\n{}\n--- got\n{}",
        path.display(),
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn fig7_bandwidth_matches_expected() {
    check("fig7_bandwidth", env!("CARGO_BIN_EXE_fig7_bandwidth"));
}

#[test]
fn latency_table_matches_expected() {
    check("latency_table", env!("CARGO_BIN_EXE_latency_table"));
}

#[test]
fn ablation_layers_matches_expected() {
    check("ablation_layers", env!("CARGO_BIN_EXE_ablation_layers"));
}
