//! Regenerates **Figure 3**: iperf TCP bandwidth and ICMP RTT between
//! two EC2 VMs for LSI(IPv4), Teredo, IPv4, HIT(IPv4), HIT(Teredo) and
//! LSI(Teredo) connectivity (20 echo requests for the RTT series, as in
//! the paper).
//!
//! Usage: `cargo run -p bench --release --bin fig3_iperf_rtt [--quick] [--trace-out <path>]`

use bench::fig3::{rtt_obs, run_all_cells, Fig3Mode};
use bench::report::{bar, manifest, table, trace_out, write_csv, write_manifest};
use netsim::SimDuration;
use std::time::Instant;

fn main() {
    let seed = 42u64;
    let quick = std::env::args().any(|a| a == "--quick");
    let duration = if quick {
        SimDuration::from_secs(3)
    } else {
        SimDuration::from_secs(10)
    };
    eprintln!(
        "fig3: iperf ({}s transfer) + 20-ping RTT across 6 modes (parallel)...",
        duration.as_secs_f64()
    );
    let wall_start = Instant::now();
    let cells = run_all_cells(seed, duration, 20);
    let wall = wall_start.elapsed().as_secs_f64();
    let points: Vec<_> = cells.iter().map(|c| c.point).collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.label().to_string(),
                format!("{:.1}", p.mbits),
                format!("{:.2}", p.rtt_ms),
                format!("{}/20", p.pings_received),
            ]
        })
        .collect();
    println!("\nFigure 3 — iperf bandwidth and ICMP RTT between two EC2 VMs:");
    println!(
        "{}",
        table(&["mode", "iperf Mbit/s", "RTT ms", "pings"], &rows)
    );
    if let Ok(path) = write_csv(
        "fig3_iperf_rtt",
        &["mode", "iperf_mbits", "rtt_ms", "pings"],
        &rows,
    ) {
        eprintln!("wrote {}", path.display());
    }
    for c in &cells {
        let mut m = manifest("fig3_iperf_rtt", c.point.mode.label(), seed);
        m.num("iperf_secs", duration.as_secs_f64())
            .num("ping_count", 20)
            .num("iperf_mbits", format!("{:.2}", c.point.mbits))
            .num("rtt_ms", format!("{:.3}", c.point.rtt_ms));
        match write_manifest(m, wall, c.dispatched, &c.metrics) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("manifest write failed: {e}"),
        }
    }

    let max_bw = points.iter().map(|p| p.mbits).fold(0.0, f64::max);
    let max_rtt = points.iter().map(|p| p.rtt_ms).fold(0.0, f64::max);
    println!("bandwidth:");
    for p in &points {
        println!(
            "  {:>12} | {} {:.1}",
            p.mode.label(),
            bar(p.mbits, max_bw, 36),
            p.mbits
        );
    }
    println!("RTT:");
    for p in &points {
        println!(
            "  {:>12} | {} {:.2}",
            p.mode.label(),
            bar(p.rtt_ms, max_rtt, 36),
            p.rtt_ms
        );
    }
    println!("\npaper (Fig. 3): plain IPv4 is the fastest path; HIT(IPv4) close behind;");
    println!("\"LSI translation is slower than with HITs due to some extra processing");
    println!("overhead, while Teredo has the worst latency\" — the Teredo modes pay the");
    println!("external relay detour in both bandwidth and RTT.");
    let _ = Fig3Mode::ALL;

    if let Some(path) = trace_out() {
        eprintln!("tracing an LSI(IPv4) RTT run for {}...", path.display());
        let (_, _, _, trace) = rtt_obs(Fig3Mode::LsiIpv4, seed ^ 1, 20, 200_000);
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "wrote {} trace records to {} ({} dropped at cap)",
                trace.entries().len(),
                path.display(),
                trace.truncated()
            ),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}
