//! End-to-end RUBiS deployments: clients → LB → web tier → DB under all
//! three security scenarios, verifying that requests complete, that the
//! protection actually happens on the wire, and that throughput ranks
//! the scenarios the way Figure 2 does (Basic fastest).

use cloudsim::Flavor;
use netsim::host::Host;
use netsim::{SimDuration, SimTime};
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::{HttperfApp, JmeterApp};
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// Deploys the FIG2 testbed with a jmeter generator; returns completed
/// requests within the measurement window.
fn run_jmeter(scenario: Scenario, clients: usize, seconds: u64) -> u64 {
    run_jmeter_warm(scenario, clients, seconds, 2)
}

/// Like [`run_jmeter`] but with an explicit warm-up (long enough for the
/// micro instances' burst credits to reach steady state when measuring
/// saturated throughput).
fn run_jmeter_warm(scenario: Scenario, clients: usize, seconds: u64, warm_secs: u64) -> u64 {
    let cfg = RubisConfig::fig2(scenario, 42);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let warmup = SimDuration::from_secs(warm_secs);
    let app = {
        let mut app = JmeterApp::new(dep.frontend, clients, WorkloadMix::default(), users, items);
        app.measure_from = SimTime::ZERO + warmup;
        app
    };
    let app_idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo
        .sim
        .run_until(SimTime::ZERO + warmup + SimDuration::from_secs(seconds));
    let host = dep.topo.host(gen_host);
    let gen = host.app::<JmeterApp>(app_idx).unwrap();
    assert_eq!(gen.errors, 0, "{scenario:?}: generator errors");
    gen.completed
}

#[test]
fn basic_scenario_serves_requests() {
    let completed = run_jmeter(Scenario::Basic, 4, 6);
    assert!(completed > 100, "basic: {completed} requests in 6s");
}

#[test]
fn hip_scenario_serves_requests() {
    let completed = run_jmeter(Scenario::HipLsi, 4, 6);
    assert!(completed > 50, "hip: {completed} requests in 6s");
}

#[test]
fn hip_hit_scenario_serves_requests() {
    let completed = run_jmeter(Scenario::Hip, 4, 6);
    assert!(completed > 50, "hip-hit: {completed} requests in 6s");
}

#[test]
fn ssl_scenario_serves_requests() {
    let completed = run_jmeter(Scenario::Ssl, 4, 6);
    assert!(completed > 50, "ssl: {completed} requests in 6s");
}

#[test]
fn basic_outperforms_secured_at_load() {
    // At a concurrency that saturates the micro web tier, the paper's
    // ordering must hold: Basic clearly ahead; HIP ≈ SSL.
    let basic = run_jmeter_warm(Scenario::Basic, 50, 8, 8);
    let hip = run_jmeter_warm(Scenario::HipLsi, 50, 8, 8);
    let ssl = run_jmeter_warm(Scenario::Ssl, 50, 8, 8);
    assert!(
        basic as f64 > hip as f64 * 1.05,
        "basic={basic} must beat hip={hip}"
    );
    assert!(
        basic as f64 > ssl as f64 * 1.05,
        "basic={basic} must beat ssl={ssl}"
    );
    let ratio = hip as f64 / ssl as f64;
    assert!(
        (0.7..=1.15).contains(&ratio),
        "HIP and SSL should be comparable (hip={hip}, ssl={ssl}, ratio={ratio:.2})"
    );
}

#[test]
fn hip_wire_traffic_is_encrypted_inside_cloud() {
    let cfg = RubisConfig::fig2(Scenario::HipLsi, 7);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    dep.topo.sim.trace = netsim::trace::Trace::enabled(200_000);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 2, WorkloadMix::default(), users, items);
    dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.run_until(SimTime(3_000_000_000));
    // Web and DB nodes must emit only ESP (50) / HIP (139) between each
    // other. (Tx entries from the web VMs toward the DB subnet.)
    let web_nodes: Vec<_> = dep.webs.iter().map(|w| w.node).collect();
    let db_addr = dep.db.addr.to_string();
    let mut saw_esp = 0;
    for e in dep.topo.sim.trace.entries() {
        let p = match &e.data {
            netsim::trace::TraceData::Tx(p) => p,
            _ => continue,
        };
        if web_nodes.contains(&e.node) && p.dst.to_string() == db_addr {
            assert!(
                p.proto == 50 || p.proto == 139,
                "cleartext from web to db: {}",
                e.detail()
            );
            if p.proto == 50 {
                saw_esp += 1;
            }
        }
    }
    assert!(
        saw_esp > 10,
        "ESP data plane carried the queries ({saw_esp})"
    );
    // And the DB really decrypted real queries.
    let db_host: &Host = dep.topo.host(dep.db);
    let db_app = db_host.app::<websvc::db::DbServerApp>(0).unwrap();
    assert!(
        db_app.stats.queries > 10,
        "db answered {} queries",
        db_app.stats.queries
    );
}

#[test]
fn httperf_open_loop_measures_response_times() {
    let cfg = RubisConfig::tab_rt(Scenario::Basic, 3);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("httperf", Flavor::Dedicated);
    let mut app = HttperfApp::new(dep.frontend, 50.0, WorkloadMix::read_only(), users, items);
    app.measure_from = SimTime(1_000_000_000);
    let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.run_until(SimTime(6_000_000_000));
    let gen = dep.topo.host(gen_host).app::<HttperfApp>(idx).unwrap();
    // 50 req/s over ~5 measured seconds.
    assert!(gen.completed > 200, "completed={}", gen.completed);
    assert!(gen.latency.mean() > 0.0);
    assert_eq!(gen.errors, 0);
    // Query cache must be doing something.
    let db_app = dep
        .topo
        .host(dep.db)
        .app::<websvc::db::DbServerApp>(0)
        .unwrap();
    assert!(
        db_app.stats.cache_hits > 0,
        "cache hits: {}",
        db_app.stats.cache_hits
    );
}

#[test]
fn round_robin_spreads_load_across_web_tier() {
    let cfg = RubisConfig::fig2(Scenario::Basic, 11);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 9, WorkloadMix::default(), users, items);
    dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.run_until(SimTime(5_000_000_000));
    let counts: Vec<u64> = dep
        .webs
        .iter()
        .map(|w| {
            dep.topo
                .host(*w)
                .app::<websvc::webserver::WebServerApp>(0)
                .unwrap()
                .stats
                .requests
        })
        .collect();
    let total: u64 = counts.iter().sum();
    assert!(total > 100, "total={total}");
    for (i, c) in counts.iter().enumerate() {
        let share = *c as f64 / total as f64;
        assert!(
            (0.15..=0.55).contains(&share),
            "web{i} got share {share:.2} of {total} (counts={counts:?})"
        );
    }
}

#[test]
fn cpu_gauges_snapshot_every_service_vm() {
    let cfg = RubisConfig::fig2(Scenario::Basic, 42);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 8, WorkloadMix::default(), users, items);
    dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo
        .sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(2));
    dep.record_cpu_gauges();

    let mut vms: Vec<_> = dep
        .webs
        .iter()
        .enumerate()
        .map(|(i, &w)| (format!("web{i}"), w))
        .collect();
    vms.push(("db".to_string(), dep.db));
    vms.push(("lb".to_string(), dep.lb.expect("fig2 deploys an LB")));
    for (role, vm) in vms {
        let cpu = &dep.topo.host(vm).core.cpu;
        let busy_us = dep
            .topo
            .sim
            .metrics
            .gauge_value(&format!("vm.{role}.cpu.busy_us"));
        assert_eq!(
            busy_us,
            Some((cpu.busy_time().as_nanos() / 1_000) as i64),
            "{role}"
        );
        if role != "lb" {
            assert!(busy_us.unwrap() > 0, "{role} did no work");
        }
        let credits = dep
            .topo
            .sim
            .metrics
            .gauge_value(&format!("vm.{role}.cpu.credits_milli"));
        assert_eq!(
            credits.is_some(),
            cpu.credits().is_some(),
            "{role}: credits gauge iff burstable"
        );
    }
    assert!(
        dep.topo
            .sim
            .metrics
            .gauge_value("vm.web0.cpu.credits_milli")
            .is_some(),
        "micro VMs burst"
    );
}
