//! Property: the RUBiS service *fully recovers* from any restored fault
//! plan. For random seeded plans (link cuts, loss bursts, latency
//! spikes, node crash/restart cycles, partitions) that end with every
//! fault cleared, running well past the plan's horizon must leave:
//!
//! - zero residual client errors (a probe window after settling
//!   completes requests with no new failures),
//! - no faulted links and no crashed nodes,
//! - every proxy backend back in rotation.
//!
//! Errors *during* the fault window are expected and allowed — graceful
//! degradation, not fault masking — but nothing may stay broken.

use cloudsim::Flavor;
use netsim::{FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::proxy::ProxyApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn service_recovers_from_any_restored_fault_plan(plan_seed in any::<u64>()) {
        let mut cfg = RubisConfig::fig2(Scenario::Basic, 7);
        cfg.n_web = 2;
        cfg.users = 50;
        cfg.items = 100;
        let (users, items) = (cfg.users, cfg.items);
        let mut dep = deploy_rubis(cfg);
        let lb = dep.lb.expect("fig2 deployment has a load balancer");
        let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
        let app = JmeterApp::new(dep.frontend, 4, WorkloadMix::default(), users, items);
        let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));

        // Fault candidates: the service VMs and their access links (the
        // LB and the load generator stay up — they are the observer).
        let nodes = [dep.webs[0].node, dep.webs[1].node, dep.db.node];
        let links = [dep.webs[0].link, dep.webs[1].link, dep.db.link];
        let plan = FaultPlan::random(plan_seed, &links, &nodes, SimDuration::from_secs(6));
        prop_assert!(plan.ends_restored(), "random plans must self-clear");

        // 2 s steady state, then the storm.
        let steady = SimDuration::from_secs(2);
        dep.topo.sim.run_until(SimTime::ZERO + steady);
        plan.schedule(&mut dep.topo.sim).expect("plan over deployed links and nodes");
        // Past the horizon plus settling room: ejection backoffs (≤ 8 s),
        // probes, TCP retransmissions and DB-pool refills all complete.
        let settle = SimDuration::from_secs(15);
        dep.topo.sim.run_until(SimTime::ZERO + steady + plan.horizon() + settle);

        // Everything injected must have cleared.
        for (i, link) in dep.topo.sim.world.links().iter().enumerate() {
            prop_assert!(!link.is_faulted(), "link {i} still faulted after the plan cleared");
        }
        for &n in &nodes {
            prop_assert!(!dep.topo.sim.is_crashed(n), "node {n:?} still crashed");
        }
        {
            let proxy = dep.topo.host(lb).app::<ProxyApp>(0).expect("proxy");
            prop_assert!(!proxy.any_backend_out(), "a backend is still ejected/probing after settling");
        }

        // Residual probe window: goodput flows, zero new errors.
        let (ok_before, err_before) = {
            let gen = dep.topo.host(gen_host).app::<JmeterApp>(idx).expect("generator");
            (gen.completed, gen.errors)
        };
        let now = dep.topo.sim.now();
        dep.topo.sim.run_until(now + SimDuration::from_secs(5));
        let gen = dep.topo.host(gen_host).app::<JmeterApp>(idx).expect("generator");
        prop_assert_eq!(gen.errors, err_before, "residual errors after recovery (plan: {:?})", plan);
        prop_assert!(
            gen.completed > ok_before + 20,
            "goodput did not resume: {} -> {} (plan: {:?})",
            ok_before,
            gen.completed,
            plan
        );
    }
}
