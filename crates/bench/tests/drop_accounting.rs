//! Every dropped packet is counted once, under its reason, and traced
//! once.
//!
//! Runs the `fig_resilience` storyline (a web VM crash and restart, a
//! loss burst on the DB link, a partition of another web VM) as a
//! `FaultPlan` on a small HIP-LSI RUBiS deployment with tracing on.
//! Then, for every `DropReason`, the counter must equal the trace's drop
//! records with that reason; the link reasons must add up to
//! `link.drops`; the shims' `HipStats` drop fields must equal the
//! counters of the reasons they count; and the storyline's faults and
//! HIP's stale-SPI recovery must show up under their own reasons.

use cloudsim::Flavor;
use hip_core::HipStats;
use netsim::trace::{Trace, TraceData, TraceKind};
use netsim::{DropReason, FaultEpisode, FaultPlan, SimDuration, SimTime};
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

const fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[test]
fn drop_counters_match_the_trace_under_the_fault_storyline() {
    let mut cfg = RubisConfig::fig2(Scenario::HipLsi, 42);
    cfg.n_web = 2;
    cfg.users = 50;
    cfg.items = 100;
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let app = JmeterApp::new(dep.frontend, 4, WorkloadMix::default(), users, items);
    let gen_idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.trace = Trace::enabled(4_000_000);

    // The storyline, compressed: crash web0 at 2 s for 3 s, a 30 % loss
    // burst on the DB link at 6 s for 2 s, web1 cut off at 9 s for 1 s.
    let (web0, web1, db) = (dep.webs[0], dep.webs[1], dep.db);
    let web1_peer = dep.topo.sim.world.links()[web1.link.0]
        .peer_of(web1.node)
        .expect("web1 terminates its access link")
        .node;
    let plan = FaultPlan::new()
        .at(secs(2), FaultEpisode::NodeCrash { node: web0.node })
        .at(secs(5), FaultEpisode::NodeRestart { node: web0.node })
        .at(
            secs(6),
            FaultEpisode::LossBurst {
                link: db.link,
                prob: 0.3,
                duration: secs(2),
            },
        )
        .at(
            secs(9),
            FaultEpisode::Partition {
                group_a: vec![web1.node],
                group_b: vec![web1_peer],
                duration: secs(1),
            },
        );
    assert!(plan.ends_restored());
    plan.schedule(&mut dep.topo.sim).expect("valid plan");
    dep.topo.sim.run_until(SimTime::ZERO + secs(14));

    let sim = &dep.topo.sim;
    let gen = dep
        .topo
        .host(gen_host)
        .app::<JmeterApp>(gen_idx)
        .expect("jmeter");
    assert!(
        gen.completed > 100,
        "the service ran: {} requests",
        gen.completed
    );
    assert_eq!(sim.trace.truncated(), 0, "the trace holds every record");

    let mut traced = vec![0u64; DropReason::ALL.len()];
    for e in sim.trace.of_kind(TraceKind::Drop) {
        let TraceData::Drop { reason, .. } = e.data else {
            unreachable!("a drop-kind record holds a drop");
        };
        traced[reason as usize] += 1;
    }
    let ctr = |r: DropReason| sim.metrics.counter_value(r.name());
    for &r in DropReason::ALL {
        assert_eq!(ctr(r), Some(traced[r as usize]), "{r}: counter vs trace");
    }
    let count = |r: DropReason| traced[r as usize];

    let link_sum: u64 = DropReason::ALL
        .iter()
        .filter(|r| r.is_link())
        .map(|&r| count(r))
        .sum();
    assert_eq!(sim.metrics.counter_value("link.drops"), Some(link_sum));

    for r in [
        DropReason::NodeDown,
        DropReason::LossBurst,
        DropReason::Partition,
        // The restarted web VM has lost its SAs: the LB's ESP to it
        // finds no SA, and the NOTIFY that answers it re-runs the BEX.
        DropReason::EspNoSa,
    ] {
        assert!(count(r) > 0, "{r} never counted: {traced:?}");
    }

    if let Err(e) = dep.topo.check_invariants() {
        panic!("invariant broken: {e}");
    }
    // The shims count the same drops in their per-host stats.
    let mut stats = HipStats::default();
    for shim in dep.topo.hip_shims() {
        let s = &shim.stats;
        stats.drops_replay += s.drops_replay;
        stats.drops_auth += s.drops_auth;
        stats.drops_firewall += s.drops_firewall;
        stats.drops_no_sa += s.drops_no_sa;
    }
    assert_eq!(stats.drops_replay, count(DropReason::EspReplay));
    assert_eq!(
        stats.drops_auth,
        count(DropReason::EspAuth) + count(DropReason::HipAuth) + count(DropReason::HipDecode)
    );
    assert_eq!(stats.drops_firewall, count(DropReason::HipFirewall));
    assert_eq!(stats.drops_no_sa, count(DropReason::EspNoSa));
}
