//! HIP bulk transfers are bit-identical under `GsoMode::Off` and
//! `GsoMode::Exact`.
//!
//! One TCP flow over HIP/ESP between two EC2-style VMs (the Figure 3
//! HIT(IPv4) topology). Under `Exact` the shim splits each TCP
//! super-segment and encrypts every frame as its own ESP packet, so the
//! per-frame IV draw, CPU charge and link draws must interleave exactly
//! as under `Off` — including when a zero CPU cost sends frames
//! straight to the link.

use cloudsim::{CloudKind, CloudTopology, Flavor};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::link::LinkParams;
use netsim::tcp::GsoMode;
use netsim::{SimDuration, SimStats, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use websvc::loadgen::{BulkSendApp, IperfServerApp};

const PORT: u16 = 5001;
const BYTES: u64 = 512 * 1024;

/// Everything `Exact` must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SimStats,
    delivered: u64,
    goodput_mbits: f64,
}

/// Runs one `BYTES`-sized HIP bulk transfer for 120 simulated seconds
/// over a 150 Mbit/s cloud link with per-link `loss`.
fn hip_bulk(gso: GsoMode, costs: CostModel, loss: f64, seed: u64) -> Outcome {
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
    for vm in [a, b] {
        topo.host_mut(vm).core.tcp.config.gso = gso;
    }

    let srv_idx = topo.host_mut(b).add_app(Box::new(IperfServerApp::new(PORT)));
    let mut client = BulkSendApp::new((hit_b.to_ip(), PORT), BYTES);
    // Let the HIP base exchange settle before the flow starts.
    client.start_delay = SimDuration::from_secs(1);
    topo.host_mut(a).add_app(Box::new(client));

    topo.sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let srv = topo.host(b).app::<IperfServerApp>(srv_idx).expect("server");
    Outcome { stats: topo.sim.stats(), delivered: srv.bytes, goodput_mbits: srv.mbits_per_sec() }
}

#[test]
fn hip_bulk_exact_is_bit_identical_to_off() {
    for (cost_name, costs) in [("paper_era", CostModel::paper_era()), ("free", CostModel::free())] {
        for loss in [0.0, 0.01] {
            for seed in 1..=3 {
                let off = hip_bulk(GsoMode::Off, costs, loss, seed);
                let exact = hip_bulk(GsoMode::Exact, costs, loss, seed);
                let case = format!("costs={cost_name} loss={loss} seed={seed}");
                if loss == 0.0 {
                    assert_eq!(off.delivered, BYTES, "{case}: clean transfer must complete");
                }
                assert_eq!(off, exact, "{case}");
            }
        }
    }
}

#[test]
fn hip_bulk_coalesces_same_tick_arrivals() {
    let out = hip_bulk(GsoMode::Exact, CostModel::paper_era(), 0.0, 9);
    assert_eq!(out.delivered, BYTES);
    assert!(out.goodput_mbits > 1.0, "goodput {}", out.goodput_mbits);
    assert!(out.stats.coalesced_events > 0, "{:?}", out.stats);
}
