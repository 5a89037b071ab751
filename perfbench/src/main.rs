//! hipcloud benchmark: end-to-end wall time and per-layer counters,
//! kernels and a traced run for four workloads. See README.md.
//!
//! Usage:
//! `perfbench --workload <bulk_hip|bulk_basic|rubis|faults> --seed <n> --seconds <s> --trace <0|1>`
//! `perfbench --pin` prints the golden table (`src/golden.rs`).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod golden;
mod kernels;
mod stats;
mod trace;
mod workload;

use stats::{median, peak_rss_mb, tail, Metrics};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{run_rep, setup_only, PartOutput, Rep, RepOpts, Workload, VARIANTS};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Variants one run cycles through, starting at `seed % VARIANTS`.
const VARIANTS_PER_RUN: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: std::path::PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = std::path::PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)? as f64),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .map_err(|e| format!("--trace {value}: {e}"))?
                        != 0,
                )
            }
            "--out" => out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
        out_dir,
    }))
}

/// Op accounting, golden checks and determinism checks.
struct Checks {
    workload: Workload,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// First metrics-on result per variant: outputs, engine counters
    /// and layer counters later repetitions must reproduce exactly.
    first: BTreeMap<usize, Reference>,
}

/// Outputs, engine counters and layer counters of one repetition.
type Reference = (
    Vec<PartOutput>,
    Vec<netsim::SimStats>,
    BTreeMap<&'static str, u64>,
);

impl Checks {
    fn new(workload: Workload) -> Self {
        Checks {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first: BTreeMap::new(),
        }
    }

    fn fail(&mut self, rep: &Rep, what: String) {
        self.failed += rep.ops().max(1);
        if self.problems.len() < 20 {
            self.problems
                .push(format!("variant {}: {what}", rep.variant));
        }
    }

    /// Checks a repetition against the pinned outputs and against the
    /// first repetition of the same variant. `metrics_on` says whether
    /// its registry-derived counters are comparable.
    fn rep(&mut self, rep: &Rep, label: &str, metrics_on: bool) {
        self.attempted += rep.ops().max(1);
        let want = golden::golden(self.workload, rep.variant);
        if rep.outputs() != want {
            self.fail(
                rep,
                format!(
                    "{label}: outputs {:?} differ from pinned {want:?}",
                    rep.outputs()
                ),
            );
            return;
        }
        match self.first.get(&rep.variant) {
            None if metrics_on => {
                self.first.insert(
                    rep.variant,
                    (rep.outputs(), rep.stats(), rep.counters.clone()),
                );
            }
            None => {}
            Some((_, stats, counters)) => {
                if rep.stats() != *stats {
                    let msg = format!(
                        "{label}: SimStats {:?} differ from the first repetition {stats:?}",
                        rep.stats()
                    );
                    self.fail(rep, msg);
                } else if metrics_on && rep.counters != *counters {
                    self.fail(
                        rep,
                        format!("{label}: layer counters differ from the first repetition"),
                    );
                }
            }
        }
    }
}

/// Wall time of one repetition plus its shape, for the summaries.
struct Timing {
    wall_s: f64,
    part_walls: Vec<f64>,
    dispatched: u64,
    ops: u64,
}

impl Timing {
    fn of(rep: &Rep) -> Self {
        Timing {
            wall_s: rep.wall_s,
            part_walls: rep.parts.iter().map(|p| p.wall_s).collect(),
            dispatched: rep.parts.iter().map(|p| p.stats.dispatched).sum(),
            ops: rep.ops(),
        }
    }
}

fn median_of(ts: &[Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    median(&mut ts.iter().map(f).collect::<Vec<_>>())
}

fn best_of(ts: &[Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    ts.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Sets up every pinned variant in rounds until `budget` is spent (at
/// least two rounds), with calibration samples just before and after;
/// returns the median round's mean set-up seconds per variant, divided
/// by the median of those samples.
fn setup_block(w: Workload, budget: Duration) -> f64 {
    let mut cals: Vec<f64> = (0..3).map(|_| w.calibration()()).collect();
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 2 || start.elapsed() < budget {
        let total: f64 = (0..VARIANTS).map(|v| setup_only(w, v)).sum();
        rounds.push(total / VARIANTS as f64);
    }
    cals.extend((0..3).map(|_| w.calibration()()));
    median(&mut rounds) / median(&mut cals)
}

/// For each repetition, the median of the calibration samples taken
/// after it and after the two repetitions on either side.
fn local_calibration(cals: &[f64]) -> Vec<f64> {
    (0..cals.len())
        .map(|i| median(&mut cals[i.saturating_sub(2)..(i + 3).min(cals.len())].to_vec()))
        .collect()
}

/// For each variant and slice position, the median over that variant's
/// repetitions. Every repetition of a workload has the same slice count.
fn median_per_position(by_variant: &BTreeMap<usize, Vec<Vec<f64>>>) -> Vec<f64> {
    let mut out = Vec::new();
    for reps in by_variant.values() {
        let n = reps.iter().map(Vec::len).min().unwrap_or(0);
        out.extend((0..n).map(|i| median(&mut reps.iter().map(|r| r[i]).collect::<Vec<_>>())));
    }
    out
}

/// Runs one unsliced repetition of `base`'s variant to the same end
/// times and requires identical `SimStats` and model outputs.
fn check_slicing(w: Workload, base: &Rep, checks: &mut Checks) {
    let ends: Vec<u64> = base.parts.iter().map(|p| p.out.end_ns).collect();
    let whole = run_rep(w, base.variant, RepOpts::PLAIN, Some(&ends));
    checks.rep(&whole, "unsliced", true);
    let same = whole.stats() == base.stats() && whole.outputs() == base.outputs();
    if !same {
        checks.fail(
            &whole,
            "one unsliced run_until differs from the sliced run".into(),
        );
    }
    println!(
        "slicing check: {} slices vs one run_until per part: SimStats and outputs {}",
        base.slices.len(),
        if same { "identical" } else { "DIFFER" }
    );
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return print_golden(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let variants: Vec<usize> = (0..VARIANTS_PER_RUN)
        .map(|i| (args.seed as usize + i) % VARIANTS)
        .collect();
    println!(
        "perfbench {}: seed {} -> variants {:?} (sim seeds {:?}), {} s, trace {}",
        w.name(),
        args.seed,
        variants,
        variants
            .iter()
            .map(|&v| workload::sim_seed(v))
            .collect::<Vec<_>>(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::new(w);
    let metrics = if args.trace {
        traced_run(&args, &variants, &mut checks)
    } else {
        plain_run(&args, &variants, &mut checks)
    };

    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = checks.problems.is_empty();
    println!(
        "ops: attempted {} failed {} ({})",
        checks.attempted,
        checks.failed,
        if correct {
            "all golden, determinism and equivalence checks passed"
        } else {
            "checks FAILED"
        }
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
}

/// The end-to-end run: untraced repetitions in rounds of the run's
/// variants until `--seconds` is spent.
fn plain_run(args: &Args, variants: &[usize], checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    // Set-up is sampled after the first round and at the end, so a
    // burst of contention from other processes cannot cover all of it.
    let setup_budget = Duration::from_secs_f64(args.seconds * 0.05);
    let mut setups = Vec::new();
    let mut rss = 0.0;

    // Per repetition, in order: its timing, its slices and one
    // calibration sample taken right after it.
    let mut timings = Vec::new();
    let mut rep_slices = Vec::new();
    let mut cals = Vec::new();
    let mut first: Option<Rep> = None;
    let mut round_len = Duration::ZERO;
    while timings.is_empty() || Instant::now() + round_len + setup_budget <= deadline {
        let t = Instant::now();
        for &v in variants {
            let rep = run_rep(w, v, RepOpts::PLAIN, None);
            cals.push(w.calibration()());
            checks.rep(&rep, "untraced", true);
            timings.push(Timing::of(&rep));
            rep_slices.push((v, rep.slices.clone()));
            first.get_or_insert(rep);
        }
        round_len = t.elapsed();
        if setups.is_empty() {
            // Peak memory of one round of the workload, before the
            // time-dependent number of further rounds.
            rss = peak_rss_mb();
            setups.push(setup_block(w, setup_budget));
        }
    }
    setups.push(setup_block(w, setup_budget));
    check_slicing(w, first.as_ref().expect("one round ran"), checks);

    // On a shared host the machine runs for seconds to minutes at a
    // time at one of two speeds, so raw wall times of two runs differ by
    // up to half. Each repetition is therefore divided by the
    // calibration loop's time around it, and the times reported are the
    // median of these ratios, scaled to the loop's nominal speed.
    let local = local_calibration(&cals);
    let scale = |i: usize| calib::NOMINAL_S / local[i];
    let mut calibrated: Vec<f64> = (0..timings.len())
        .map(|i| timings[i].wall_s * scale(i))
        .collect();
    let wall_s = median(&mut calibrated);
    let mut raw: Vec<f64> = timings.iter().map(|t| t.wall_s).collect();
    let wall_raw = median(&mut raw);
    let setup_s = calib::NOMINAL_S * median(&mut setups);
    let mut by_variant: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
    for (i, (v, s)) in rep_slices.iter().enumerate() {
        by_variant
            .entry(*v)
            .or_default()
            .push(s.iter().map(|x| x * scale(i)).collect());
    }
    let mut per_position = median_per_position(&by_variant);
    per_position.sort_by(f64::total_cmp);
    let (tail_s, tail_pct) = tail(&per_position);
    let p50_s = median(&mut per_position);
    let mut sorted_cals = cals.clone();
    println!(
        "calibration: {} samples, median {:.4} ms, min {:.4} ms, max {:.4} ms (nominal {:.4} ms)",
        cals.len(),
        median(&mut sorted_cals) * 1e3,
        sorted_cals[0] * 1e3,
        sorted_cals[cals.len() - 1] * 1e3,
        calib::NOMINAL_S * 1e3
    );
    println!(
        "set-up: {} blocks of rounds over {VARIANTS} variants: {:.4} ms per set-up",
        setups.len(),
        setup_s * 1e3
    );
    println!(
        "repetitions: {} ({} rounds of {} variants); wall_s {wall_s:.4} s; raw wall median {wall_raw:.4} s, min {:.4} s, max {:.4} s",
        timings.len(),
        timings.len() / variants.len(),
        variants.len(),
        raw[0],
        raw[raw.len() - 1]
    );
    println!(
        "events: {:.2}M per calibrated wall second",
        median_of(&timings, |t| t.dispatched as f64) / wall_s / 1e6
    );
    if w.is_bulk() {
        println!(
            "rate: {:.1} simulated MB per calibrated wall second",
            workload::BULK_BYTES as f64 / 1e6 / wall_s
        );
    } else {
        println!(
            "rate: {:.0} simulated requests per calibrated wall second",
            median_of(&timings, |t| t.ops as f64) / wall_s
        );
    }
    println!(
        "slices: {} (variant, position) pairs of {} ms simulated, each the median of {} repetitions; p50 {:.4} ms; tail p{tail_pct:.2} {:.4} ms",
        per_position.len(),
        if w.is_bulk() { workload::BULK_SLICE } else { workload::WEB_SLICE }.as_millis_f64(),
        timings.len() / variants.len(),
        p50_s * 1e3,
        tail_s * 1e3
    );
    println!("peak RSS: {rss:.1} MB");

    let mut m = Metrics::default();
    m.put("wall_s", wall_s, "s");
    m.put("setup_s", setup_s, "s");
    m.put("slice_p50_ms", p50_s * 1e3, "ms");
    m.put("slice_tail_ms", tail_s * 1e3, "ms");
    m.put("peak_rss_mb", rss, "MB");
    m
}

/// Per traced repetition: where its wall time went.
struct TracedRep {
    wall_s: f64,
    shim_ns: u64,
    app_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    phases: [f64; 3],
    counters: BTreeMap<&'static str, u64>,
}

/// The per-layer run: each variant runs untraced, traced and with the
/// metrics registry off; then the kernel pass.
fn traced_run(args: &Args, variants: &[usize], checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds * 0.75);

    let mut plain = Vec::new();
    let mut off = Vec::new();
    let mut traced = Vec::new();
    let mut cal = f64::INFINITY;
    let mut first: Option<Rep> = None;
    let mut round_len = Duration::ZERO;
    while plain.is_empty() || Instant::now() + round_len <= deadline {
        let t = Instant::now();
        for &v in variants {
            let rep = run_rep(w, v, RepOpts::PLAIN, None);
            cal = cal.min(w.calibration()());
            checks.rep(&rep, "untraced", true);
            plain.push(Timing::of(&rep));

            trace::take_self_ns(trace::Layer::Shim);
            trace::take_self_ns(trace::Layer::App);
            trace::set_rep(traced.len() as u64);
            let (a0, b0) = trace::alloc_counts();
            let t_rep = Instant::now();
            trace::ALLOC_ON.store(true, std::sync::atomic::Ordering::Relaxed);
            let tr = run_rep(
                w,
                v,
                RepOpts {
                    traced: true,
                    ..RepOpts::PLAIN
                },
                None,
            );
            trace::ALLOC_ON.store(false, std::sync::atomic::Ordering::Relaxed);
            trace::span("rep", t_rep);
            let (a1, b1) = trace::alloc_counts();
            checks.rep(&tr, "traced", true);
            if tr.stats() != rep.stats() || tr.outputs() != rep.outputs() {
                checks.fail(&tr, "traced run differs from the untraced run".into());
            }
            traced.push(TracedRep {
                wall_s: tr.wall_s,
                shim_ns: trace::take_self_ns(trace::Layer::Shim),
                app_ns: trace::take_self_ns(trace::Layer::App),
                allocs: a1 - a0,
                alloc_bytes: b1 - b0,
                phases: tr.phases,
                counters: tr.counters,
            });

            let no_metrics = run_rep(
                w,
                v,
                RepOpts {
                    metrics: false,
                    ..RepOpts::PLAIN
                },
                None,
            );
            checks.rep(&no_metrics, "metrics-off", false);
            off.push(Timing::of(&no_metrics));
            first.get_or_insert(rep);
        }
        round_len = t.elapsed();
    }
    let first = first.expect("one round ran");
    check_slicing(w, &first, checks);
    println!(
        "traced run: {} repetitions of {} variants, each untraced, traced and with metrics off",
        plain.len(),
        variants.len()
    );
    println!(
        "traced == untraced: SimStats and outputs identical on every variant: {}",
        checks.problems.is_empty()
    );

    let remaining = Duration::from_secs_f64(args.seconds).saturating_sub(start.elapsed());
    let per_kernel = (remaining / 20).clamp(Duration::from_millis(40), Duration::from_millis(400));
    let kernels = kernels::run_all(per_kernel);
    let kernel = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.value)
    };

    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    match trace::write_spans(&spans_path) {
        Ok(n) => println!("wrote {n} spans to {}", spans_path.display()),
        Err(e) => println!("could not write spans to {}: {e}", spans_path.display()),
    }

    let c = &first.counters;
    let ctr = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall_plain = best_of(&plain, |t| t.wall_s);
    let wall_off = best_of(&off, |t| t.wall_s);
    let wall_traced = traced
        .iter()
        .map(|t| t.wall_s)
        .fold(f64::INFINITY, f64::min);
    let n_traced = traced.len() as f64;
    let sum = |f: &dyn Fn(&TracedRep) -> f64| traced.iter().map(f).sum::<f64>();
    let traced_ctr = |k: &str| sum(&|t: &TracedRep| t.counters.get(k).copied().unwrap_or(0) as f64);

    // The self-time table, per traced repetition (means).
    let total_ms = sum(&|t| t.wall_s) * 1e3 / n_traced;
    let app_ms = sum(&|t| t.app_ns as f64) / 1e6 / n_traced;
    let shim_ms = sum(&|t| t.shim_ns as f64) / 1e6 / n_traced;
    let crypto_ms = crypto_estimate_ns(&|k| traced_ctr(k) / n_traced, &kernel) / 1e6;
    let shim_esp_ms = (shim_ms - crypto_ms).max(0.0);
    let engine_ms = traced_ctr("dispatched") / n_traced * kernel("netsim.engine.echo_ns") / 1e6;
    let tcp_ms = (total_ms - app_ms - shim_ms - engine_ms).max(0.0);
    println!(
        "self time per traced repetition ({} reps, IBM layout):",
        traced.len()
    );
    println!("  {:<28} {:>10} {:>7}  source", "layer", "ms", "share");
    for (name, ms, source) in [
        ("engine+link", engine_ms, "events x netsim.engine.echo_ns"),
        ("TCP+segmentation", tcp_ms, "remainder"),
        (
            "shim/ESP encapsulation",
            shim_esp_ms,
            "L35Shim wrapper minus crypto",
        ),
        ("crypto", crypto_ms, "ESP/HIP counters x kernels"),
        ("app", app_ms, "App wrapper"),
    ] {
        println!(
            "  {name:<28} {ms:>10.3} {:>6.1}%  {source}",
            100.0 * ratio(ms, total_ms)
        );
    }
    println!(
        "  {:<28} {total_ms:>10.3} {:>6.1}%  sum of run_until slices",
        "total", 100.0
    );
    let overhead = ratio(wall_traced, wall_plain);
    println!("tracing overhead: best traced wall_s {wall_traced:.4} s / best untraced {wall_plain:.4} s = {overhead:.3}");
    println!("metrics registry: best wall_s on {wall_plain:.4} s, off {wall_off:.4} s");
    for k in &kernels {
        println!("kernel {:<36} {:>12.3} {}", k.name, k.value, k.unit);
    }

    let mut m = Metrics::default();
    let dispatched = ctr("dispatched");
    let pushes = ctr("scheduled") + ctr("migrations");
    m.put("netsim.events", dispatched, "count");
    m.put(
        "netsim.events_per_mb",
        ratio(dispatched, ctr("link.wire_bytes") / 1e6),
        "count/MB",
    );
    m.put(
        "netsim.events_per_request",
        ratio(dispatched, first.ops() as f64),
        "count",
    );
    m.put(
        "netsim.ns_per_event",
        best_of(&plain, |t| t.wall_s * 1e9 / t.dispatched as f64),
        "ns",
    );
    m.put(
        "netsim.engine.coalesced_share",
        ratio(ctr("coalesced_events"), dispatched),
        "ratio",
    );
    m.put(
        "netsim.sched.current_push_share",
        ratio(
            pushes - ctr("wheel_pushes") - ctr("overflow_pushes"),
            pushes,
        ),
        "ratio",
    );
    m.put(
        "netsim.sched.overflow_pushes",
        ctr("overflow_pushes"),
        "count",
    );
    m.put("netsim.sched.migrations", ctr("migrations"), "count");
    m.put("netsim.timers.cancelled", ctr("timers_cancelled"), "count");
    m.put("netsim.timers.stale_pops", ctr("stale_timer_pops"), "count");
    m.put("netsim.tcp.connects", ctr("tcp.connects"), "count");
    m.put("netsim.tcp.rtx", ctr("tcp.rtx"), "count");
    m.put("netsim.link.frames", ctr("link.frames"), "count");
    m.put("netsim.link.wire_bytes", ctr("link.wire_bytes"), "bytes");
    m.put("netsim.link.drops", ctr("link.drops"), "count");
    for reason in ["loss_burst", "partition", "link_down"] {
        m.put(
            format!("netsim.fault.drops.{reason}"),
            ctr(&format!("fault.drops.{reason}")),
            "count",
        );
    }
    m.put("core.esp.frames", ctr("esp.frames"), "count");
    m.put("core.esp.bytes", ctr("esp.bytes"), "bytes");
    m.put("core.esp.drops", ctr("esp.drops"), "count");
    m.put("core.shim.self_ms", shim_ms, "ms");
    m.put("core.shim.self_share", ratio(shim_ms, total_ms), "ratio");
    m.put("core.hip.bex", ctr("hip.bex"), "count");
    m.put("core.hip.rebex", ctr("hip.rebex"), "count");
    m.put(
        "core.hip.puzzle_attempts",
        ctr("hip.puzzle_attempts"),
        "count",
    );
    m.put("websvc.requests_ok", ctr("requests_ok"), "count");
    m.put("websvc.requests_err", ctr("requests_err"), "count");
    m.put("websvc.web.render", ctr("web.render"), "count");
    m.put("websvc.db.service", ctr("db.service"), "count");
    m.put("websvc.proxy.retry", ctr("proxy.retry"), "count");
    m.put("websvc.proxy.eject", ctr("proxy.eject"), "count");
    m.put("websvc.proxy.503", ctr("proxy.503"), "count");
    for (i, name) in ["basic", "hip", "ssl"].iter().enumerate() {
        let v = if w == Workload::Rubis {
            best_of(&plain, |t| t.part_walls[i])
        } else {
            0.0
        };
        m.put(format!("websvc.rubis.{name}_s"), v, "s");
    }
    m.put(
        "websvc.jmeter.self_ms",
        if w.is_bulk() { 0.0 } else { app_ms },
        "ms",
    );
    for (i, name) in ["topology", "keygen", "deploy"].iter().enumerate() {
        m.put(
            format!("cloudsim.setup.{name}_ms"),
            sum(&|t| t.phases[i]) * 1e3 / n_traced,
            "ms",
        );
    }
    m.put(
        "obs.registry_share",
        1.0 - ratio(wall_off, wall_plain),
        "ratio",
    );
    m.put(
        "alloc.per_event",
        ratio(sum(&|t| t.allocs as f64), traced_ctr("dispatched")),
        "count",
    );
    m.put(
        "alloc.bytes_per_mb",
        ratio(
            sum(&|t| t.alloc_bytes as f64),
            traced_ctr("link.wire_bytes") / 1e6,
        ),
        "bytes/MB",
    );
    m.put("trace.self.engine_link_ms", engine_ms, "ms");
    m.put("trace.self.tcp_seg_ms", tcp_ms, "ms");
    m.put("trace.self.shim_esp_ms", shim_esp_ms, "ms");
    m.put("trace.self.crypto_ms", crypto_ms, "ms");
    m.put("trace.self.app_ms", app_ms, "ms");
    m.put("trace.overhead", overhead, "ratio");
    m.put("calib.best_ms", cal * 1e3, "ms");
    for k in &kernels {
        m.put(k.name, k.value, k.unit);
    }
    m
}

/// Prints `src/golden.rs`: the model outputs of every workload and
/// variant, from one sliced untraced repetition each.
fn print_golden() {
    println!("//! Pinned model outputs for every workload and pinned variant, written by");
    println!("//! `perfbench --pin`. A repetition whose outputs differ counts its");
    println!("//! operations as failed. Regenerate only for an intended model change.");
    println!();
    println!("use crate::workload::{{PartOutput, Workload}};");
    println!();
    println!("/// The pinned outputs of `variant` of `w`, one per part.");
    println!("pub fn golden(w: Workload, variant: usize) -> &'static [PartOutput] {{");
    println!("    let (table, per): (&[PartOutput], usize) = match w {{");
    println!("        Workload::BulkHip => (&BULK_HIP, 1),");
    println!("        Workload::BulkBasic => (&BULK_BASIC, 1),");
    println!("        Workload::Rubis => (&RUBIS, 3),");
    println!("        Workload::Faults => (&FAULTS, 1),");
    println!("    }};");
    println!("    table.get(variant * per..(variant + 1) * per).unwrap_or(&[])");
    println!("}}");
    println!();
    let fields = [
        "delivered",
        "goodput_mbits",
        "completed",
        "errors",
        "dispatched",
        "end_ns",
    ];
    println!("const fn o(");
    for f in fields {
        println!(
            "    {f}: {},",
            if f == "goodput_mbits" { "f64" } else { "u64" }
        );
    }
    println!(") -> PartOutput {{");
    println!("    PartOutput {{");
    for f in fields {
        println!("        {f},");
    }
    println!("    }}");
    println!("}}");
    for (w, name) in [
        (Workload::BulkHip, "BULK_HIP"),
        (Workload::BulkBasic, "BULK_BASIC"),
        (Workload::Rubis, "RUBIS"),
        (Workload::Faults, "FAULTS"),
    ] {
        let rows: Vec<PartOutput> = (0..VARIANTS)
            .flat_map(|v| run_rep(w, v, RepOpts::PLAIN, None).outputs())
            .collect();
        println!();
        println!("#[rustfmt::skip]");
        println!("static {name}: [PartOutput; {}] = [", rows.len());
        for o in rows {
            println!(
                "    o({}, {:?}, {}, {}, {}, {}),",
                o.delivered, o.goodput_mbits, o.completed, o.errors, o.dispatched, o.end_ns
            );
        }
        println!("];");
    }
}

/// Crypto wall time implied by the ESP and HIP counters at the kernel
/// costs measured in this run: each protected frame is encrypted and
/// MACed once and decrypted and MACed once; each completed base
/// exchange side signs, verifies, runs one Diffie-Hellman and (on
/// average) half a puzzle. GSO batches share one pass, so this is an
/// upper estimate for batched flows.
fn crypto_estimate_ns(ctr: &dyn Fn(&str) -> f64, kernel: &dyn Fn(&str) -> f64) -> f64 {
    let (frames, bytes) = (ctr("esp.frames"), ctr("esp.bytes"));
    let aes = bytes / 1024.0
        * (kernel("sim_crypto.aes_cbc_enc_ns_per_kb") + kernel("sim_crypto.aes_cbc_dec_ns_per_kb"));
    let (h64, h1500) = (
        kernel("sim_crypto.hmac_64_ns"),
        kernel("sim_crypto.hmac_1500_ns"),
    );
    let avg_len = if frames > 0.0 { bytes / frames } else { 0.0 };
    let hmac = 2.0 * frames * (h64 + (avg_len - 64.0).max(0.0) * (h1500 - h64) / 1436.0);
    let bex = ctr("hip.bex")
        * 1e3
        * (kernel("sim_crypto.rsa512_sign_us")
            + kernel("sim_crypto.rsa512_verify_us")
            + kernel("sim_crypto.dh_us")
            + kernel("core.puzzle.solve_us") / 2.0);
    aes + hmac + bex
}
