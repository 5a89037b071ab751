//! Figure 3: iperf TCP bandwidth and ICMP RTT between two EC2 VMs over
//! each addressing mode.
//!
//! "The experiments were conducted between two VMs inside Amazon EC2 in
//! order to measure inter-machine network throughput using HIT, LSI,
//! Teredo and plain IPv4-based connectivity... It should be noted that
//! EC2 does not support native IPv6-based connectivity" — hence the
//! Teredo modes tunnel IPv6-in-UDP through an *external* relay, whose
//! detour is what makes Teredo's RTT the worst of the set.

use cloudsim::{CloudKind, CloudTopology, Flavor};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::addr::teredo_address;
use netsim::link::LinkParams;
use netsim::teredo::{TeredoClient, TeredoRelay, TeredoServer, TEREDO_PORT};
use netsim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{IpAddr, Ipv4Addr};
use websvc::loadgen::{BulkSendApp, IperfServerApp, PingApp};

/// The six bars of Figure 3, in the paper's x-axis order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fig3Mode {
    /// HIP with LSI addressing over IPv4 locators.
    LsiIpv4,
    /// Plain TCP over Teredo-tunneled IPv6.
    Teredo,
    /// Plain TCP over IPv4 (the baseline).
    Ipv4,
    /// HIP with HIT addressing over IPv4 locators.
    HitIpv4,
    /// HIP with HIT addressing over Teredo locators.
    HitTeredo,
    /// HIP with LSI addressing over Teredo locators.
    LsiTeredo,
}

impl Fig3Mode {
    /// All modes in the paper's order.
    pub const ALL: [Fig3Mode; 6] = [
        Fig3Mode::LsiIpv4,
        Fig3Mode::Teredo,
        Fig3Mode::Ipv4,
        Fig3Mode::HitIpv4,
        Fig3Mode::HitTeredo,
        Fig3Mode::LsiTeredo,
    ];

    /// The paper's bar label.
    pub fn label(self) -> &'static str {
        match self {
            Fig3Mode::LsiIpv4 => "LSI(IPv4)",
            Fig3Mode::Teredo => "Teredo",
            Fig3Mode::Ipv4 => "IPv4",
            Fig3Mode::HitIpv4 => "HIT(IPv4)",
            Fig3Mode::HitTeredo => "HIT(Teredo)",
            Fig3Mode::LsiTeredo => "LSI(Teredo)",
        }
    }

    fn uses_hip(self) -> bool {
        matches!(
            self,
            Fig3Mode::LsiIpv4 | Fig3Mode::HitIpv4 | Fig3Mode::HitTeredo | Fig3Mode::LsiTeredo
        )
    }

    fn uses_teredo(self) -> bool {
        matches!(
            self,
            Fig3Mode::Teredo | Fig3Mode::HitTeredo | Fig3Mode::LsiTeredo
        )
    }
}

/// One measured bar pair.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Which addressing mode.
    pub mode: Fig3Mode,
    /// iperf goodput in Mbit/s.
    pub mbits: f64,
    /// Mean ICMP RTT over the ping run (ms).
    pub rtt_ms: f64,
    /// Echo replies received (of the requested count).
    pub pings_received: u16,
}

const TEREDO_SERVER_V4: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 201);
const TEREDO_RELAY_V4: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 202);
const IPERF_PORT: u16 = 5001;

/// The experiment environment for one mode.
struct Fig3World {
    topo: CloudTopology,
    a: cloudsim::VmHandle,
    b: cloudsim::VmHandle,
    /// What host A should address host B as in this mode.
    target_b: IpAddr,
}

fn build(mode: Fig3Mode, seed: u64) -> Fig3World {
    let mut topo = CloudTopology::new(seed);
    // The EC2 region sits close to the internet core in this experiment;
    // the Teredo infrastructure hangs off that core.
    topo.wan_params = LinkParams::wan().with_latency(SimDuration::from_millis(1));
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    // EC2 instance NICs of the era: ~150 Mbit/s usable between VMs.
    topo.set_cloud_link_params(cloud, LinkParams::datacenter().with_bandwidth(150_000_000));
    let a = topo.launch_vm(cloud, "vm-a", Flavor::Small);
    let b = topo.launch_vm(cloud, "vm-b", Flavor::Small);

    // Teredo infrastructure on the public internet ("Teredo has more
    // free infrastructure available", §VII) — modest capacity, a few ms
    // away: the relay hairpin is the latency penalty.
    if mode.uses_teredo() {
        let (srv, srv_link) = topo.attach_infrastructure(
            Box::new(TeredoServer::new(TEREDO_SERVER_V4, netsim::LinkId(0))),
            IpAddr::V4(TEREDO_SERVER_V4),
            0,
        );
        topo.sim
            .world
            .node_mut::<TeredoServer>(srv)
            .expect("server")
            .set_link(srv_link);
        let (rly, rly_link) = topo.attach_infrastructure(
            Box::new(TeredoRelay::new(TEREDO_RELAY_V4, netsim::LinkId(0))),
            IpAddr::V4(TEREDO_RELAY_V4),
            0,
        );
        topo.sim
            .world
            .node_mut::<TeredoRelay>(rly)
            .expect("relay")
            .set_v4_link(rly_link);
        // The relay's access link: 30 Mbit/s, 5 ms — public relays are
        // shared, best-effort infrastructure.
        {
            let links = topo.sim.world.links_mut();
            links[rly_link.0].params.bandwidth_bps = 30_000_000;
            links[rly_link.0].params.latency = SimDuration::from_millis(5);
        }
        for vm in [a, b] {
            let IpAddr::V4(v4) = vm.addr else {
                unreachable!("VMs are IPv4")
            };
            topo.host_mut(vm).core.teredo =
                Some(TeredoClient::new(v4, TEREDO_SERVER_V4, TEREDO_RELAY_V4));
        }
    }

    // Locators the peers use for each other at the HIP level.
    let locator = |vm: &cloudsim::VmHandle| -> IpAddr {
        if mode.uses_teredo() {
            let IpAddr::V4(v4) = vm.addr else {
                unreachable!()
            };
            // No NAT between VM and relay: external address/port are the
            // VM's own, so the Teredo address is known a priori.
            IpAddr::V6(teredo_address(TEREDO_SERVER_V4, v4, TEREDO_PORT))
        } else {
            vm.addr
        }
    };

    let target_b = if mode.uses_hip() {
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x33);
        let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
        let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
        let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
        let cfg = HipConfig {
            costs: CostModel::paper_era(),
            ..HipConfig::default()
        };
        let mut shim_a = HipShim::new(id_a, cfg.clone());
        let lsi_b = shim_a.add_peer(
            hit_b,
            PeerInfo {
                locators: vec![locator(&b)],
                via_rvs: None,
            },
        );
        let mut shim_b = HipShim::new(id_b, cfg);
        shim_b.add_peer(
            hit_a,
            PeerInfo {
                locators: vec![locator(&a)],
                via_rvs: None,
            },
        );
        topo.host_mut(a).set_shim(Box::new(shim_a));
        topo.host_mut(b).set_shim(Box::new(shim_b));
        match mode {
            Fig3Mode::HitIpv4 | Fig3Mode::HitTeredo => hit_b.to_ip(),
            _ => IpAddr::V4(lsi_b),
        }
    } else {
        locator(&b)
    };

    Fig3World {
        topo,
        a,
        b,
        target_b,
    }
}

/// Measures iperf goodput for `mode` over `duration` of transfer,
/// returning the run's metrics registry and dispatched-event count too.
pub fn iperf_obs(
    mode: Fig3Mode,
    seed: u64,
    duration: SimDuration,
) -> (f64, obs::MetricsRegistry, u64) {
    let mut w = build(mode, seed);
    let srv_idx = w
        .topo
        .host_mut(w.b)
        .add_app(Box::new(IperfServerApp::new(IPERF_PORT)));
    let mut client = BulkSendApp::for_duration((w.target_b, IPERF_PORT), duration);
    // Give Teredo qualification and the HIP BEX a second to settle.
    client.start_delay = SimDuration::from_secs(2);
    w.topo.host_mut(w.a).add_app(Box::new(client));
    let deadline = SimTime::ZERO + SimDuration::from_secs(4) + duration.saturating_mul(3);
    w.topo.sim.run_until(deadline);
    if let Err(e) = w.topo.check_invariants() {
        panic!("{mode:?} iperf: invariant broken: {e}");
    }
    let srv = w
        .topo
        .host(w.b)
        .app::<IperfServerApp>(srv_idx)
        .expect("server");
    assert!(srv.bytes > 0, "{mode:?}: no bytes received");
    let mbits = srv.mbits_per_sec();
    let dispatched = w.topo.sim.stats().dispatched;
    (mbits, w.topo.sim.take_metrics(), dispatched)
}

/// Measures mean ICMP RTT for `mode` over `count` echoes, returning the
/// run's metrics, dispatched-event count, and (when `trace_cap > 0`)
/// the typed trace.
pub fn rtt_obs(
    mode: Fig3Mode,
    seed: u64,
    count: u16,
    trace_cap: usize,
) -> ((f64, u16), obs::MetricsRegistry, u64, netsim::trace::Trace) {
    let mut w = build(mode, seed);
    if trace_cap > 0 {
        w.topo.sim.trace = netsim::trace::Trace::enabled(trace_cap);
    }
    let mut ping = PingApp::new(w.target_b, count, SimDuration::from_millis(200), 7);
    ping.start_delay = SimDuration::from_secs(2);
    let idx = w.topo.host_mut(w.a).add_app(Box::new(ping));
    w.topo.sim.run_until(
        SimTime::ZERO + SimDuration::from_secs(5) + SimDuration::from_millis(200 * count as u64),
    );
    if let Err(e) = w.topo.check_invariants() {
        panic!("{mode:?} ping: invariant broken: {e}");
    }
    let app = w.topo.host(w.a).app::<PingApp>(idx).expect("ping");
    let out = (app.rtts.mean(), app.received);
    let dispatched = w.topo.sim.stats().dispatched;
    let trace = std::mem::replace(&mut w.topo.sim.trace, netsim::trace::Trace::disabled());
    (out, w.topo.sim.take_metrics(), dispatched, trace)
}

/// One Figure 3 bar with its observability outputs (iperf and RTT runs
/// merged into a single registry).
pub struct Fig3Cell {
    /// The measured bar pair.
    pub point: Fig3Point,
    /// Combined metrics from the iperf and RTT simulations.
    pub metrics: obs::MetricsRegistry,
    /// Combined dispatched-event count of both simulations.
    pub dispatched: u64,
}

/// Runs the complete Figure 3 (both series, all modes, in parallel),
/// keeping each mode's merged metrics registry. Output is in
/// `Fig3Mode::ALL` order.
pub fn run_all_cells(seed: u64, iperf_duration: SimDuration, ping_count: u16) -> Vec<Fig3Cell> {
    crate::sweep::par_sweep(&Fig3Mode::ALL, |&mode| {
        let (mbits, mut metrics, d1) = iperf_obs(mode, seed, iperf_duration);
        let ((rtt_ms, received), rtt_metrics, d2, _) = rtt_obs(mode, seed ^ 1, ping_count, 0);
        metrics.merge(&rtt_metrics);
        Fig3Cell {
            point: Fig3Point {
                mode,
                mbits,
                rtt_ms,
                pings_received: received,
            },
            metrics,
            dispatched: d1 + d2,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_beats_teredo_bandwidth() {
        let plain = iperf_obs(Fig3Mode::Ipv4, 2, SimDuration::from_secs(3)).0;
        let teredo = iperf_obs(Fig3Mode::Teredo, 2, SimDuration::from_secs(3)).0;
        assert!(plain > 50.0, "plain {plain:.1} Mbit/s");
        assert!(
            teredo < plain * 0.5,
            "teredo {teredo:.1} ≪ plain {plain:.1}"
        );
    }

    #[test]
    fn hit_close_to_ipv4_lsi_slightly_lower() {
        let plain = iperf_obs(Fig3Mode::Ipv4, 3, SimDuration::from_secs(3)).0;
        let hit = iperf_obs(Fig3Mode::HitIpv4, 3, SimDuration::from_secs(3)).0;
        let lsi = iperf_obs(Fig3Mode::LsiIpv4, 3, SimDuration::from_secs(3)).0;
        assert!(
            hit > plain * 0.5,
            "hit {hit:.1} within range of plain {plain:.1}"
        );
        assert!(hit <= plain, "crypto cannot beat cleartext");
        assert!(
            lsi <= hit,
            "lsi {lsi:.1} ≤ hit {hit:.1} (extra translations)"
        );
    }

    #[test]
    fn teredo_has_worst_rtt() {
        let (plain, r1) = rtt_obs(Fig3Mode::Ipv4, 4, 5, 0).0;
        let (hit, r2) = rtt_obs(Fig3Mode::HitIpv4, 4, 5, 0).0;
        let (teredo, r3) = rtt_obs(Fig3Mode::Teredo, 4, 5, 0).0;
        assert_eq!((r1, r2, r3), (5, 5, 5), "all pings answered");
        assert!(plain <= hit, "plain {plain:.2} <= hit {hit:.2}");
        assert!(teredo > hit * 2.0, "teredo {teredo:.2} is the worst");
    }

    #[test]
    fn hip_over_teredo_works() {
        let (rtt_ms, received) = rtt_obs(Fig3Mode::HitTeredo, 5, 5, 0).0;
        assert_eq!(received, 5, "ESP-over-Teredo echoes all answered");
        assert!(rtt_ms > 1.0);
    }
}
