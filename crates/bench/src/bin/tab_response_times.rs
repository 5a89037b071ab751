//! Regenerates the §V-B response-time comparison: httperf at 120
//! requests/second against a single web server + database (MySQL query
//! cache enabled). The paper reports mean response times of
//! **116.4 ms (Basic), 132.2 ms (HIP), 128.3 ms (SSL)**.
//!
//! Also reports per-stage latency quantiles per scenario and writes one
//! run manifest per scenario under `results/`.
//!
//! Usage: `cargo run -p bench --release --bin tab_response_times [--quick] [--trace-out <path>]`

use bench::cli::Flag::{Quick, TraceOut};
use bench::report::{stage_table, timed, Output, STAGES};
use bench::tab_rt::{run_all_cells, run_cell, PAPER_RATE};
use netsim::SimDuration;
use std::process::ExitCode;
use websvc::Scenario;

fn main() -> ExitCode {
    let args = bench::cli::args("tab_response_times", &[Quick, TraceOut]);
    let seed = 42u64;
    let mut out = Output::new("tab_response_times", seed);
    let (warmup, measure) = if args.quick {
        (SimDuration::from_secs(5), SimDuration::from_secs(20))
    } else {
        (SimDuration::from_secs(10), SimDuration::from_secs(60))
    };
    eprintln!(
        "tab_rt: httperf at {PAPER_RATE} req/s, 3 scenarios ({}s + {}s each; parallel)...",
        warmup.as_secs_f64(),
        measure.as_secs_f64()
    );
    let (cells, wall) = timed(|| run_all_cells(PAPER_RATE, seed, warmup, measure));
    let rows: Vec<_> = cells.iter().map(|c| c.point).collect();
    let paper = [("Basic", 116.4), ("HIP", 132.2), ("SSL", 128.3)];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper_ms = paper
                .iter()
                .find(|(n, _)| *n == r.scenario.label())
                .map(|(_, v)| format!("{v:.1}"))
                .unwrap_or_default();
            vec![
                r.scenario.label().to_string(),
                format!("{}", r.completed),
                format!("{:.1}", r.mean_ms),
                format!("{:.1}", r.stddev_ms),
                format!("{:.1}", r.p99_ms),
                paper_ms,
            ]
        })
        .collect();
    println!("\nResponse times at {PAPER_RATE} req/s (single web server, query cache ON):");
    let columns = [
        ("scenario", "scenario"),
        ("completed", "completed"),
        ("mean ms", "mean_ms"),
        ("stddev ms", "stddev_ms"),
        ("p99 ms", "p99_ms"),
        ("paper mean ms", "paper_mean_ms"),
    ];
    out.write_table(&columns, &table_rows);
    for c in &cells {
        println!("per-stage latency, {}:", c.point.scenario.label());
        match stage_table(&c.metrics, &STAGES) {
            Some(t) => println!("{t}"),
            None => println!("  (no stage histograms recorded)"),
        }
        let mut m = out.manifest(c.point.scenario.label());
        m.num("rate", PAPER_RATE)
            .num("warmup_secs", warmup.as_secs_f64())
            .num("measure_secs", measure.as_secs_f64());
        out.write_manifest(m, wall, c.dispatched, &c.metrics);
    }
    println!("paper: \"the response times and standard deviations were largely");
    println!("comparable... the performance degradation of HIP in comparison with");
    println!("SSL was largely due to the LSIs, used mainly for legacy compatibility\".");
    println!("The reproduction preserves the ordering Basic < SSL < HIP; absolute");
    println!("values differ (our base path is leaner than the paper's full LAMP stack).");

    if let Some(path) = args.trace_out {
        eprintln!("tracing a representative HIP run for {}...", path.display());
        let cell = run_cell(
            Scenario::HipLsi,
            PAPER_RATE,
            seed,
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            200_000,
        );
        out.write_trace(&cell.trace, &path);
    }
    out.finish()
}
