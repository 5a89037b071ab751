//! Taking the metrics mid-run: `Sim::take_metrics` hands over what was
//! counted so far and the run goes on counting into the same names.
//! Every handle registered before the take (the engine's, the HIP
//! shims' cached ESP handles, the apps' cached ones) must keep working
//! after it, and the two takes together must hold exactly what one
//! uninterrupted run counts.

use cloudsim::Flavor;
use netsim::obs::MetricsRegistry;
use netsim::{SimDuration, SimTime};
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// A HIP-LSI RUBiS smoke run to 4 s, with the metrics taken at each of
/// `takes_at` (seconds) and once more at the end.
fn run(takes_at: &[u64]) -> Vec<MetricsRegistry> {
    let cfg = RubisConfig::fig2(Scenario::HipLsi, 7);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 16, WorkloadMix::default(), users, items);
    dep.topo.host_mut(gen_host).add_app(Box::new(app));
    let mut taken = Vec::new();
    for &s in takes_at.iter().chain(&[4]) {
        dep.topo
            .sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(s));
        taken.push(dep.topo.sim.take_metrics());
    }
    if let Err(e) = dep.topo.check_invariants() {
        panic!("invariant broken: {e}");
    }
    taken
}

#[test]
fn handles_survive_take_metrics() {
    let [whole] = &run(&[])[..] else {
        unreachable!("one take")
    };
    let [first, second] = &run(&[3])[..] else {
        unreachable!("two takes")
    };
    let frames = |m: &MetricsRegistry| m.hist_get("engine.pkt.bytes").map(|h| h.count());
    let esp = |m: &MetricsRegistry| m.hist_get("esp.encrypt").map(|h| h.count());
    let (f1, f2) = (frames(first).unwrap(), frames(second).unwrap());
    assert!(f1 > 0 && f2 > 0, "packets in both parts: {f1} + {f2}");
    assert_eq!(Some(f1 + f2), frames(whole), "frames split across the take");
    assert!(esp(second).unwrap() > 0, "ESP after the take is counted");

    // Every counter, gauge and histogram adds up the same way.
    let mut sum = MetricsRegistry::new();
    sum.merge(first);
    sum.merge(second);
    assert_eq!(sum.to_json(), whole.to_json());
}
