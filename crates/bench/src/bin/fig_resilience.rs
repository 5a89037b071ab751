//! FIG-RESILIENCE: graceful degradation of Basic/HIP/SSL under faults.
//!
//! Subjects the FIG2 RUBiS deployment to a scripted fault storyline —
//! a web-VM crash + restart, a loss burst on the DB link, a partition
//! and heal — and reports the per-second goodput/error timeline, the
//! post-fault error rate, p99 latency, and time-to-recover for every
//! scenario. One run manifest per scenario lands under `results/`.
//!
//! Usage: `cargo run -p bench --release --bin fig_resilience [--quick]`

use bench::report::{bar, manifest, table, write_csv, write_manifest};
use bench::resilience::{run_sweep, timeline_json, Storyline, CLIENTS};
use std::time::Instant;
use websvc::proxy;

fn main() {
    let seed = 42u64;
    let quick = std::env::args().any(|a| a == "--quick");
    let story = if quick { Storyline::quick() } else { Storyline::standard() };
    eprintln!(
        "fig_resilience: 3 scenarios x {} clients, {}s storyline (crash@{}s, burst@{}s, partition@{}s; parallel)...",
        CLIENTS,
        story.end.as_secs_f64(),
        story.crash_at.as_secs_f64(),
        story.burst_at.as_secs_f64(),
        story.partition_at.as_secs_f64(),
    );
    let wall_start = Instant::now();
    let cells = run_sweep(seed, story);
    let wall = wall_start.elapsed().as_secs_f64();

    let fmt_ttr = |t: Option<u64>| t.map_or("never".to_string(), |s| format!("{s}s"));
    let mut rows = Vec::new();
    for c in &cells {
        let p = &c.point;
        rows.push(vec![
            p.scenario.label().to_string(),
            format!("{:.1}", p.baseline_goodput),
            p.ok_total.to_string(),
            p.err_total.to_string(),
            format!("{:.2}%", p.post_fault_error_rate * 100.0),
            format!("{:.1}", p.p99_ms),
            fmt_ttr(p.ttr_crash_s),
            fmt_ttr(p.ttr_burst_s),
            fmt_ttr(p.ttr_partition_s),
        ]);
    }
    println!("\nResilience under the fault storyline (crash / loss burst / partition):");
    println!(
        "{}",
        table(
            &["scenario", "base req/s", "ok", "err", "err rate", "p99 ms", "ttr crash", "ttr burst", "ttr part"],
            &rows
        )
    );
    if let Ok(path) = write_csv(
        "fig_resilience",
        &["scenario", "baseline", "ok", "err", "err_rate", "p99_ms", "ttr_crash", "ttr_burst", "ttr_partition"],
        &rows,
    ) {
        eprintln!("wrote {}", path.display());
    }

    // Failover machinery counters.
    let mut frows = Vec::new();
    for c in &cells {
        let ctr = |name| c.metrics.counter_value(name).unwrap_or(0).to_string();
        frows.push(vec![
            c.point.scenario.label().to_string(),
            ctr(proxy::EJECTS),
            ctr(proxy::RECOVERS),
            ctr(proxy::RETRIES),
            ctr(proxy::PROBES),
            ctr(proxy::TIMEOUTS),
            ctr(proxy::UNAVAILABLE),
            c.point.rebex.to_string(),
        ]);
    }
    println!("proxy failover + HIP recovery counters:");
    println!(
        "{}",
        table(&["scenario", "ejects", "recovers", "retries", "probes", "timeouts", "503s", "re-BEX"], &frows)
    );

    // Goodput timelines, one bar row per second.
    let max = cells
        .iter()
        .flat_map(|c| (0..c.timeline.len()).map(|b| c.timeline.at(b).0))
        .max()
        .unwrap_or(0) as f64;
    for c in &cells {
        println!("goodput timeline, {} (█ ≈ {:.0} req/s; !n = n errors):", c.point.scenario.label(), max / 30.0);
        for b in 0..c.timeline.len() {
            let (ok, err) = c.timeline.at(b);
            let marks = if err > 0 { format!("  !{err}") } else { String::new() };
            println!("  {:>3}s | {} {}{}", b, bar(ok as f64, max, 30), ok, marks);
        }
    }
    println!("\nExpected shape: goodput dips at each episode but never reaches zero");
    println!("(two of three web VMs keep serving through the crash and partition);");
    println!("the loss burst costs latency, not errors; HIP recovers the crashed");
    println!("peer via NOTIFY-triggered re-BEX without manual SA cleanup.");

    // Manifests: one per scenario, timeline embedded.
    for c in &cells {
        let p = &c.point;
        let ctr = |name| c.metrics.counter_value(name).unwrap_or(0);
        let mut m = manifest("fig_resilience", p.scenario.label(), seed);
        m.num("clients", CLIENTS)
            .num("storyline_secs", story.end.as_secs_f64())
            .num("baseline_goodput", format!("{:.3}", p.baseline_goodput))
            .num("ok_total", p.ok_total)
            .num("err_total", p.err_total)
            .num("post_fault_error_rate", format!("{:.5}", p.post_fault_error_rate))
            .num("p99_ms", format!("{:.3}", p.p99_ms))
            .str_field("ttr_crash", &fmt_ttr(p.ttr_crash_s))
            .str_field("ttr_burst", &fmt_ttr(p.ttr_burst_s))
            .str_field("ttr_partition", &fmt_ttr(p.ttr_partition_s))
            .num("proxy_ejections", ctr(proxy::EJECTS))
            .num("proxy_recoveries", ctr(proxy::RECOVERS))
            .num("proxy_retries", ctr(proxy::RETRIES))
            .num("proxy_probes", ctr(proxy::PROBES))
            .num("proxy_unavailable", ctr(proxy::UNAVAILABLE))
            .num("hip_rebex", p.rebex)
            .raw("timeline", timeline_json(&c.timeline));
        match write_manifest(m, wall, c.dispatched, &c.metrics) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("manifest write failed: {e}"),
        }
    }

    // Determinism invariant (asserted in CI): the same seed + storyline
    // must dispatch a bit-identical event count.
    let recheck = bench::resilience::run_cell(websvc::Scenario::HipLsi, seed, story);
    let first = cells.iter().find(|c| c.point.scenario == websvc::Scenario::HipLsi).expect("HIP cell");
    assert_eq!(
        recheck.dispatched, first.dispatched,
        "nondeterminism: same seed + fault plan dispatched a different event count"
    );
    eprintln!("determinism: re-run dispatched {} events, bit-identical ✓", recheck.dispatched);
}
