//! HIP bulk transfers reproduce the outcomes pinned below.
//!
//! One TCP flow over HIP/ESP between two EC2-style VMs (the Figure 3
//! HIT(IPv4) topology), for the `{paper_era, free} × {0, 1 %} loss × 3
//! seeds` grid. Each case's engine counters, delivered bytes and
//! last-byte arrival time are pinned to the values the previous
//! datapath produced (the one that batched TCP segments and split them
//! at the NIC), so any change to per-frame IV draws, CPU charges, link
//! draws or retransmission timing shows up here — including when a
//! zero CPU cost sends frames straight to the link.

use cloudsim::{CloudKind, CloudTopology, Flavor};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::link::LinkParams;
use netsim::{SimDuration, SimStats, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use websvc::loadgen::{BulkSendApp, IperfServerApp};

const PORT: u16 = 5001;
const BYTES: u64 = 512 * 1024;

/// Everything a run must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SimStats,
    delivered: u64,
    /// Arrival of the last byte at the server, in simulated ns.
    last_byte_ns: u64,
}

/// Runs one `BYTES`-sized HIP bulk transfer for 120 simulated seconds
/// over a 150 Mbit/s cloud link with per-link `loss`.
fn hip_bulk(costs: CostModel, loss: f64, seed: u64) -> Outcome {
    let mut topo = CloudTopology::new(seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    topo.set_cloud_link_params(cloud, LinkParams::datacenter().with_bandwidth(150_000_000).with_loss(loss));
    let a = topo.launch_vm(cloud, "vm-a", Flavor::Small);
    let b = topo.launch_vm(cloud, "vm-b", Flavor::Small);

    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x33);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let cfg = HipConfig { costs, ..HipConfig::default() };
    let mut shim_a = HipShim::new(id_a, cfg.clone());
    shim_a.add_peer(hit_b, PeerInfo { locators: vec![b.addr], via_rvs: None });
    let mut shim_b = HipShim::new(id_b, cfg);
    shim_b.add_peer(hit_a, PeerInfo { locators: vec![a.addr], via_rvs: None });
    topo.host_mut(a).set_shim(Box::new(shim_a));
    topo.host_mut(b).set_shim(Box::new(shim_b));

    let srv_idx = topo.host_mut(b).add_app(Box::new(IperfServerApp::new(PORT)));
    let mut client = BulkSendApp::new((hit_b.to_ip(), PORT), BYTES);
    // Let the HIP base exchange settle before the flow starts.
    client.start_delay = SimDuration::from_secs(1);
    topo.host_mut(a).add_app(Box::new(client));

    topo.sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    for vm in [a, b] {
        if let Err(e) = topo.host(vm).core.tcp.check_invariants() {
            panic!("TCP invariant broken on {vm:?}: {e}");
        }
    }

    let srv = topo.host(b).app::<IperfServerApp>(srv_idx).expect("server");
    Outcome {
        stats: topo.sim.stats(),
        delivered: srv.bytes,
        last_byte_ns: srv.last_byte.map_or(0, SimTime::as_nanos),
    }
}

/// `(costs, loss, seed, SimStats fields in declaration order except the
/// always-0 `coalesced_events`, delivered bytes, last-byte arrival ns)`.
type Pinned = (&'static str, f64, u64, [u64; 9], u64, u64);

const PINNED: [Pinned; 12] = [
    ("paper_era", 0.0, 1, [3632, 2957, 675, 675, 13, 3619, 677, 677, 2786], 524_288, 1_080_840_350),
    ("paper_era", 0.0, 2, [3632, 2957, 675, 675, 13, 3619, 677, 677, 2786], 524_288, 1_078_746_350),
    ("paper_era", 0.0, 3, [3632, 2957, 675, 675, 13, 3619, 677, 677, 2764], 524_288, 1_079_026_550),
    ("paper_era", 0.01, 1, [3428, 3007, 420, 419, 20, 3406, 432, 430, 2509], 338_471, 103_289_583_360),
    ("paper_era", 0.01, 2, [2926, 2481, 444, 443, 19, 2905, 456, 454, 2084], 215_058, 103_285_514_654),
    ("paper_era", 0.01, 3, [3130, 2733, 396, 393, 28, 3098, 415, 411, 2469], 370_660, 109_706_803_242),
    ("free", 0.0, 1, [2892, 2217, 675, 675, 742, 2150, 676, 676, 1671], 524_288, 1_033_666_261),
    ("free", 0.0, 2, [2892, 2217, 675, 675, 742, 2150, 676, 676, 1671], 524_288, 1_033_666_261),
    ("free", 0.0, 3, [2892, 2217, 675, 675, 742, 2150, 676, 676, 1671], 524_288, 1_033_666_261),
    ("free", 0.01, 1, [24_600, 24_481, 117, 116, 233, 24_365, 128, 126, 24_265], 93_935, 103_222_146_977),
    ("free", 0.01, 2, [24_611, 24_481, 128, 126, 235, 24_373, 140, 137, 24_277], 97_039, 103_426_533_644),
    ("free", 0.01, 3, [1468, 1276, 191, 190, 430, 1036, 202, 200, 856], 213_427, 103_230_036_309),
];

fn pinned_stats(s: [u64; 9]) -> SimStats {
    SimStats {
        scheduled: s[0],
        dispatched: s[1],
        timers_cancelled: s[2],
        stale_timer_pops: s[3],
        queue_current_pushes: s[4],
        queue_wheel_pushes: s[5],
        queue_overflow_pushes: s[6],
        queue_migrations: s[7],
        queue_advances: s[8],
        coalesced_events: 0,
    }
}

#[test]
fn hip_bulk_outcomes_match_pinned_values() {
    for (cost_name, loss, seed, stats, delivered, last_byte_ns) in PINNED {
        let costs = if cost_name == "paper_era" { CostModel::paper_era() } else { CostModel::free() };
        let out = hip_bulk(costs, loss, seed);
        let case = format!("costs={cost_name} loss={loss} seed={seed}");
        if loss == 0.0 {
            assert_eq!(out.delivered, BYTES, "{case}: clean transfer must complete");
        }
        assert_eq!(out.stats, pinned_stats(stats), "{case}");
        assert_eq!((out.delivered, out.last_byte_ns), (delivered, last_byte_ns), "{case}");
    }
}
