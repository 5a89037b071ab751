//! Regenerates **Figure 2**: Basic, HIP and SSL throughput comparison
//! in Amazon with Rubis — average successful requests/second vs number
//! of concurrent clients {2, 3, 4, 6, 10, 20, 30, 50}.
//!
//! Alongside the figure it reports per-stage latency quantiles (HIP
//! BEX, ESP encrypt/decrypt, TCP connect, DB service, client response)
//! merged across each scenario's cells, and writes one run manifest per
//! scenario under `results/`.
//!
//! Usage: `cargo run -p bench --release --bin fig2_throughput [--quick] [--trace-out <path>]`

use bench::cli::Flag::{Quick, TraceOut};
use bench::fig2::{run_cell, run_sweep_cells, Fig2Point, CLIENT_COUNTS};
use bench::harness::SCENARIOS;
use bench::report::{bar, stage_table, timed, Output, STAGES};
use netsim::SimDuration;
use std::process::ExitCode;
use websvc::Scenario;

fn main() -> ExitCode {
    let args = bench::cli::args("fig2_throughput", &[Quick, TraceOut]);
    let seed = 42u64;
    let mut out = Output::new("fig2_throughput", seed);
    let (warmup, measure) = if args.quick {
        (SimDuration::from_secs(6), SimDuration::from_secs(6))
    } else {
        (SimDuration::from_secs(10), SimDuration::from_secs(20))
    };
    eprintln!(
        "fig2: sweeping 3 scenarios x {} client counts ({}s warmup + {}s measure each; parallel)...",
        CLIENT_COUNTS.len(),
        warmup.as_secs_f64(),
        measure.as_secs_f64()
    );
    let (cells, wall) = timed(|| run_sweep_cells(seed, warmup, measure));
    let points: Vec<_> = cells.iter().map(|c| c.point).collect();
    let throughput = |s: Scenario, clients: usize| {
        let at = |p: &&Fig2Point| p.scenario == s && p.clients == clients;
        points.iter().find(at).expect("point present").throughput
    };

    let rows: Vec<Vec<String>> = CLIENT_COUNTS
        .iter()
        .map(|&clients| {
            let cols = SCENARIOS.map(|s| format!("{:.1}", throughput(s, clients)));
            std::iter::once(clients.to_string()).chain(cols).collect()
        })
        .collect();
    println!("\nFigure 2 — RUBiS throughput (requests/second) in the simulated EC2:");
    let columns = [
        ("clients", "clients"),
        ("Basic", "basic"),
        ("HIP", "hip"),
        ("SSL", "ssl"),
    ];
    out.write_table(&columns, &rows);

    // Per-stage latency quantiles, merged across each scenario's cells.
    for s in SCENARIOS {
        let mut merged = obs::MetricsRegistry::new();
        let mut events = 0u64;
        for c in cells.iter().filter(|c| c.point.scenario == s) {
            merged.merge(&c.metrics);
            events += c.dispatched;
        }
        println!(
            "per-stage latency, {} (all client counts merged):",
            s.label()
        );
        match stage_table(&merged, &STAGES) {
            Some(t) => println!("{t}"),
            None => println!("  (no stage histograms recorded)"),
        }
        let mut m = out.manifest(s.label());
        m.num("warmup_secs", warmup.as_secs_f64())
            .num("measure_secs", measure.as_secs_f64())
            .num("client_counts", CLIENT_COUNTS.len());
        out.write_manifest(m, wall, events, &merged);
    }

    // Terminal rendition of the figure.
    let max = points.iter().map(|p| p.throughput).fold(0.0, f64::max);
    println!("throughput (each █ ≈ {:.0} req/s):", max / 40.0);
    for s in SCENARIOS {
        println!("{:>6}:", s.label());
        for &clients in &CLIENT_COUNTS {
            let t = throughput(s, clients);
            println!("  {:>3} | {} {:.0}", clients, bar(t, max, 40), t);
        }
    }
    println!("\npaper (Fig. 2): Basic rises to ~250 req/s at 50 clients while HIP and");
    println!("SSL saturate in the ~150-160 range from ~20 clients on, HIP slightly");
    println!("below SSL (LSI translations). Compare shapes, not absolute values.");

    if let Some(path) = args.trace_out {
        // A traced representative run (HIP, 4 clients, short window):
        // the full sweep is too chatty to trace end to end.
        eprintln!(
            "tracing a representative HIP cell for {}...",
            path.display()
        );
        let cell = run_cell(
            Scenario::HipLsi,
            4,
            seed,
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            200_000,
        );
        out.write_trace(&cell.trace, &path);
    }
    out.finish()
}
