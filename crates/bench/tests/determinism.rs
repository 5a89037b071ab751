//! Golden determinism test: the calendar-queue engine must give
//! bit-identical runs for the same seed. A RUBiS smoke topology (the
//! HIP scenario, so TCP, the shim, ESP and cancellable timers are all
//! exercised; then Basic and SSL) is run twice and every observable —
//! completed requests, event counts, the full `SimStats` block, final
//! virtual time, and the trace — must match exactly. Every run ends with
//! the deployment's invariant checks: the engine's, and each host's TCP
//! layer and HIP shim.

use cloudsim::Flavor;
use netsim::trace::Trace;
use netsim::{SimDuration, SimStats, SimTime};
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

struct RunFingerprint {
    completed: u64,
    errors: u64,
    stats: SimStats,
    final_time_ns: u64,
    trace: String,
    metrics_json: String,
}

fn smoke_run(scenario: Scenario, seed: u64) -> RunFingerprint {
    smoke_run_metrics(scenario, seed, true)
}

fn smoke_run_metrics(scenario: Scenario, seed: u64, metrics_on: bool) -> RunFingerprint {
    let cfg = RubisConfig::fig2(scenario, seed);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    dep.topo.sim.set_metrics_enabled(metrics_on);
    dep.topo.sim.trace = Trace::enabled(200_000);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 16, WorkloadMix::default(), users, items);
    let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(4));
    if let Err(e) = dep.topo.check_invariants() {
        panic!("invariant broken: {e}");
    }
    let gen = dep
        .topo
        .host(gen_host)
        .app::<JmeterApp>(idx)
        .expect("generator");
    RunFingerprint {
        completed: gen.completed,
        errors: gen.errors,
        stats: dep.topo.sim.stats(),
        final_time_ns: dep.topo.sim.now().as_nanos(),
        trace: dep.topo.sim.trace.dump(),
        metrics_json: dep.topo.sim.metrics.to_json(),
    }
}

#[test]
fn same_seed_same_run_hip() {
    let a = smoke_run(Scenario::HipLsi, 7);
    let b = smoke_run(Scenario::HipLsi, 7);
    assert!(a.completed > 0, "smoke run must serve requests");
    assert_eq!(a.errors, 0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.stats, b.stats, "event counters must be bit-identical");
    assert_eq!(a.final_time_ns, b.final_time_ns);
    assert_eq!(a.trace, b.trace, "traces must be bit-identical");
    // The run exercised the new machinery, not a trivial path.
    assert!(
        a.stats.dispatched > 10_000,
        "dispatched {}",
        a.stats.dispatched
    );
    assert!(a.stats.timers_cancelled > 0, "cancellable timers unused");
}

#[test]
fn same_seed_same_run_basic() {
    let a = smoke_run(Scenario::Basic, 11);
    let b = smoke_run(Scenario::Basic, 11);
    assert!(a.completed > 0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.final_time_ns, b.final_time_ns);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn same_seed_same_run_ssl() {
    // The web tier reaches the DB over TLS, so records are sealed and
    // opened throughout.
    let a = smoke_run(Scenario::Ssl, 17);
    let b = smoke_run(Scenario::Ssl, 17);
    assert!(a.completed > 0, "smoke run must serve requests");
    assert_eq!(a.errors, 0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.final_time_ns, b.final_time_ns);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn metrics_never_perturb_the_run() {
    // The metrics registry must observe, never steer: the same seed
    // with metrics on and off must give identical final stats and the
    // identical trace sequence, and the metrics dump itself must be
    // reproducible across two metrics-on runs.
    let on = smoke_run_metrics(Scenario::HipLsi, 7, true);
    let off = smoke_run_metrics(Scenario::HipLsi, 7, false);
    assert_eq!(on.completed, off.completed);
    assert_eq!(on.errors, off.errors);
    assert_eq!(
        on.stats, off.stats,
        "metrics on/off changed the event schedule"
    );
    assert_eq!(on.final_time_ns, off.final_time_ns);
    assert_eq!(
        on.trace, off.trace,
        "metrics on/off changed the trace sequence"
    );
    // On actually recorded something; off recorded nothing.
    assert!(
        on.metrics_json.contains("tcp.connect"),
        "metrics-on run populated stage histograms"
    );
    assert!(
        !off.metrics_json.contains("tcp.connect"),
        "disabled registry stayed empty"
    );
    // And the dump itself is deterministic.
    let on2 = smoke_run_metrics(Scenario::HipLsi, 7, true);
    assert_eq!(
        on.metrics_json, on2.metrics_json,
        "metrics dump must be reproducible"
    );
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the fingerprint is actually sensitive: two
    // different seeds should not collide on the full stats block.
    let a = smoke_run(Scenario::Basic, 1);
    let b = smoke_run(Scenario::Basic, 2);
    assert_ne!(
        (a.stats, a.final_time_ns),
        (b.stats, b.final_time_ns),
        "different seeds gave identical fingerprints — fingerprint too weak"
    );
}

#[test]
fn fault_storyline_is_deterministic() {
    // The resilience harness injects crashes, loss bursts and a
    // partition mid-run; the same seed + storyline must still reproduce
    // every observable bit-for-bit (fault checks must not perturb the
    // RNG draw sequence).
    use bench::resilience::{run_cell, Storyline};
    let story = Storyline::quick();
    let a = run_cell(Scenario::HipLsi, 13, story);
    let b = run_cell(Scenario::HipLsi, 13, story);
    assert!(a.point.ok_total > 0, "storyline run must serve requests");
    assert_eq!(
        a.dispatched, b.dispatched,
        "event counts diverged under faults"
    );
    assert_eq!(a.point.ok_total, b.point.ok_total);
    assert_eq!(a.point.err_total, b.point.err_total);
    let (ta, tb) = (&a.point.timeline, &b.point.timeline);
    assert_eq!(ta.ok, tb.ok, "goodput timelines diverged");
    assert_eq!(ta.err, tb.err, "error timelines diverged");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "metrics diverged under faults"
    );
    // The storyline actually exercised the fault machinery.
    let ejects = a.metrics.counter_value(websvc::proxy::EJECTS).unwrap_or(0);
    assert!(ejects >= 1, "no ejections");
    assert!(a.point.ttr_crash_s.is_some(), "crash never recovered");
}
