//! The paper's headline deployment (Figure 1): an eBay-like auction
//! service distributed over a public IaaS cloud, secured with HIP, and
//! fronted by a reverse HTTP proxy so consumers need no HIP at all.
//!
//! ```text
//! jmeter clients ──plain HTTP──> HAProxy-like LB ──HIP/ESP──> 3× web VMs ──HIP/ESP──> MySQL-like DB
//! ```
//!
//! ```bash
//! cargo run --release --example multi_tenant_auction [basic|hip|ssl] [clients]
//! ```

use hipcloud::cloud::Flavor;
use hipcloud::net::{SimDuration, SimTime};
use hipcloud::web::db::DbServerApp;
use hipcloud::web::deploy::{deploy_rubis, RubisConfig};
use hipcloud::web::loadgen::JmeterApp;
use hipcloud::web::rubis::WorkloadMix;
use hipcloud::web::webserver::WebServerApp;
use hipcloud::web::Scenario;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = match args.get(1).map(String::as_str) {
        Some("basic") => Scenario::Basic,
        Some("ssl") => Scenario::Ssl,
        Some("hip") | None => Scenario::HipLsi,
        Some(other) => {
            eprintln!("unknown scenario {other:?} — expected basic, hip or ssl");
            std::process::exit(2);
        }
    };
    let clients: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);

    println!(
        "deploying RUBiS in the simulated EC2 — scenario: {} ...",
        scenario.label()
    );
    let cfg = RubisConfig::fig2(scenario, 2026);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    println!("  db  (m1.large): {}", dep.db.addr);
    for (i, w) in dep.webs.iter().enumerate() {
        println!("  web{i} (t1.micro): {}", w.addr);
    }
    if let Some(lb) = dep.lb {
        println!("  lb  (outside the cloud): {}:{}", lb.addr, dep.frontend.1);
    }

    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let warmup = SimDuration::from_secs(5);
    let measure = SimDuration::from_secs(15);
    let mut app = JmeterApp::new(dep.frontend, clients, WorkloadMix::default(), users, items);
    app.measure_from = SimTime::ZERO + warmup;
    let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));

    println!(
        "\ndriving {clients} concurrent clients for {}s (+{}s warm-up)...",
        measure.as_secs_f64(),
        warmup.as_secs_f64()
    );
    dep.topo.sim.run_until(SimTime::ZERO + warmup + measure);

    let gen = dep
        .topo
        .host(gen_host)
        .app::<JmeterApp>(idx)
        .expect("generator");
    println!("\nresults ({}):", scenario.label());
    println!(
        "  throughput: {:.1} requests/second",
        gen.completed as f64 / measure.as_secs_f64()
    );
    println!(
        "  mean response time: {:.1} ms (p99 {:.1} ms)",
        gen.latency.mean(),
        gen.latency.percentile(99.0)
    );

    println!("\nper-tier accounting:");
    for (i, w) in dep.webs.iter().enumerate() {
        let host = dep.topo.host(*w);
        let web = host.app::<WebServerApp>(0).expect("web app");
        print!(
            "  web{i}: {} requests, cpu busy {:.1}s",
            web.stats.requests,
            host.core.cpu.busy_time().as_secs_f64()
        );
        if let Some(shim) = host.shim::<hipcloud::hip::HipShim>() {
            print!(
                ", {} BEX, {} ESP packets",
                shim.stats.bex_completed,
                shim.stats.esp_in + shim.stats.esp_out
            );
        }
        println!();
    }
    let db = dep.topo.host(dep.db);
    let db_app = db.app::<DbServerApp>(0).expect("db app");
    println!(
        "  db:   {} queries ({} writes), cpu busy {:.1}s",
        db_app.stats.queries,
        db_app.stats.writes,
        db.core.cpu.busy_time().as_secs_f64()
    );
    if scenario.uses_hip() {
        println!("\nconsumers used plain HTTP; every hop inside the cloud rode HIP/ESP.");
    }
}
