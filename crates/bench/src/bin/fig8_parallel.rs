//! Regenerates Figure 8: latency and aggregate bandwidth between two
//! parallel components over Myrinet-2000 (Mico-based GridCCM).

use padico_bench::fig8;

fn main() {
    let rounds = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let rows = fig8::run_figure8(rounds);
    println!("## Figure 8 — two parallel components over Myrinet-2000 (Mico-based)\n");
    println!("| nodes | latency (µs) | paper | aggregate bandwidth (MB/s) | paper |");
    println!("|---|---:|---:|---:|---:|");
    let paper = [(62, 43), (93, 76), (123, 144), (148, 280)];
    for ((latency, bandwidth), (p_lat, p_bw)) in rows.iter().zip(paper) {
        println!(
            "| {} to {} | {:.0} | {} | {:.0} | {} |",
            latency.nodes, latency.nodes, latency.latency_us, p_lat, bandwidth.aggregate_mb_s, p_bw
        );
    }
}
