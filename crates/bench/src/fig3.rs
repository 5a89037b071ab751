//! Figure 3: iperf TCP bandwidth and ICMP RTT between two EC2 VMs over
//! each addressing mode.
//!
//! "The experiments were conducted between two VMs inside Amazon EC2 in
//! order to measure inter-machine network throughput using HIT, LSI,
//! Teredo and plain IPv4-based connectivity... It should be noted that
//! EC2 does not support native IPv6-based connectivity" — hence the
//! Teredo modes tunnel IPv6-in-UDP through an *external* relay, whose
//! detour is what makes Teredo's RTT the worst of the set.

use crate::harness::{finish, Cell};
use cloudsim::{CloudKind, CloudTopology, Flavor, VmHandle};
use hip_core::identity::{Hit, HostIdentity};
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
        !matches!(self, Fig3Mode::Teredo | Fig3Mode::Ipv4)
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

/// One ping run's result.
#[derive(Clone, Copy, Debug)]
pub struct RttPoint {
    /// Mean ICMP RTT over the ping run (ms).
    pub rtt_ms: f64,
    /// Echo replies received (of the requested count).
    pub pings_received: u16,
}

const TEREDO_SERVER_V4: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 201);
const TEREDO_RELAY_V4: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 202);
const IPERF_PORT: u16 = 5001;

/// The intra-cloud link of Figure 3: EC2 instance NICs of the era,
/// ~150 Mbit/s usable between VMs.
pub fn ec2_link() -> LinkParams {
    LinkParams::datacenter().with_bandwidth(150_000_000)
}

/// Two Small VMs in one EC2 region, wired for one addressing mode.
pub struct Fig3World {
    /// The world; add apps to `a` and `b`, then run it.
    pub topo: CloudTopology,
    /// The VM that sends.
    pub a: VmHandle,
    /// The VM that serves.
    pub b: VmHandle,
    /// What host A should address host B as in this mode.
    pub target_b: IpAddr,
}

/// Builds the EC2 pair for `mode`: intra-cloud links `cloud_link`
/// (Figure 3 uses [`ec2_link`]), Teredo server and relay when the mode
/// tunnels, and, when it runs HIP, shims charging `costs` whose RSA-512
/// identities are drawn for `a`, then `b`, from one RNG seeded from
/// `seed`.
pub fn build(mode: Fig3Mode, seed: u64, cloud_link: LinkParams, costs: CostModel) -> Fig3World {
    let mut topo = CloudTopology::new(seed);
    // The EC2 region sits close to the internet core in this experiment;
    // the Teredo infrastructure hangs off that core.
    topo.wan_params = LinkParams::wan().with_latency(SimDuration::from_millis(1));
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    topo.set_cloud_link_params(cloud, cloud_link);
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
        let relay = &mut topo.sim.world.links_mut()[rly_link.0].params;
        relay.bandwidth_bps = 30_000_000;
        relay.latency = SimDuration::from_millis(5);
        for vm in [a, b] {
            let IpAddr::V4(v4) = vm.addr else {
                unreachable!("VMs are IPv4")
            };
            topo.host_mut(vm).core.teredo =
                Some(TeredoClient::new(v4, TEREDO_SERVER_V4, TEREDO_RELAY_V4));
        }
    }

    // Locators the peers use for each other at the HIP level.
    let locator = |vm: &VmHandle| -> IpAddr {
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
            costs,
            ..HipConfig::default()
        };
        // Installs `id`'s shim on `vm`, knowing `peer` at `at`'s locator;
        // returns the peer's LSI.
        let mut install = |vm: VmHandle, id: HostIdentity, peer: Hit, at: &VmHandle| {
            let mut shim = HipShim::new(id, cfg.clone());
            let locators = vec![locator(at)];
            let lsi = shim.add_peer(
                peer,
                PeerInfo {
                    locators,
                    via_rvs: None,
                },
            );
            topo.host_mut(vm).set_shim(Box::new(shim));
            lsi
        };
        let lsi_b = install(a, id_a, hit_b, &b);
        install(b, id_b, hit_a, &a);
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

/// Measures iperf goodput (Mbit/s) for `mode` over `duration` of
/// transfer.
pub fn iperf_obs(mode: Fig3Mode, seed: u64, duration: SimDuration) -> Cell<f64> {
    let mut w = build(mode, seed, ec2_link(), CostModel::paper_era());
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
    let srv = w
        .topo
        .host(w.b)
        .app::<IperfServerApp>(srv_idx)
        .expect("server");
    assert!(srv.bytes > 0, "{mode:?}: no bytes received");
    let mbits = srv.mbits_per_sec();
    finish(&mut w.topo, format_args!("{mode:?} iperf"), mbits)
}

/// Measures mean ICMP RTT for `mode` over `count` echoes, tracing up to
/// `trace_cap` records when it is non-zero.
pub fn rtt_obs(mode: Fig3Mode, seed: u64, count: u16, trace_cap: usize) -> Cell<RttPoint> {
    let mut w = build(mode, seed, ec2_link(), CostModel::paper_era());
    if trace_cap > 0 {
        w.topo.sim.trace = netsim::trace::Trace::enabled(trace_cap);
    }
    let mut ping = PingApp::new(w.target_b, count, SimDuration::from_millis(200), 7);
    ping.start_delay = SimDuration::from_secs(2);
    let idx = w.topo.host_mut(w.a).add_app(Box::new(ping));
    w.topo.sim.run_until(
        SimTime::ZERO + SimDuration::from_secs(5) + SimDuration::from_millis(200 * count as u64),
    );
    let app = w.topo.host(w.a).app::<PingApp>(idx).expect("ping");
    let point = RttPoint {
        rtt_ms: app.rtts.mean(),
        pings_received: app.received,
    };
    finish(&mut w.topo, format_args!("{mode:?} ping"), point)
}

/// Runs the complete Figure 3 (both series, all modes, in parallel),
/// merging each mode's iperf and RTT runs into one cell: one metrics
/// registry and the sum of their dispatched events. Output is in
/// `Fig3Mode::ALL` order.
pub fn run_all_cells(
    seed: u64,
    iperf_duration: SimDuration,
    ping_count: u16,
) -> Vec<Cell<Fig3Point>> {
    crate::sweep::par_sweep(&Fig3Mode::ALL, |&mode| {
        let mut iperf = iperf_obs(mode, seed, iperf_duration);
        let rtt = rtt_obs(mode, seed ^ 1, ping_count, 0);
        iperf.metrics.merge(&rtt.metrics);
        Cell {
            point: Fig3Point {
                mode,
                mbits: iperf.point,
                rtt_ms: rtt.point.rtt_ms,
                pings_received: rtt.point.pings_received,
            },
            metrics: iperf.metrics,
            dispatched: iperf.dispatched + rtt.dispatched,
            trace: rtt.trace,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_beats_teredo_bandwidth() {
        let plain = iperf_obs(Fig3Mode::Ipv4, 2, SimDuration::from_secs(3)).point;
        let teredo = iperf_obs(Fig3Mode::Teredo, 2, SimDuration::from_secs(3)).point;
        assert!(plain > 50.0, "plain {plain:.1} Mbit/s");
        assert!(
            teredo < plain * 0.5,
            "teredo {teredo:.1} ≪ plain {plain:.1}"
        );
    }

    #[test]
    fn hit_close_to_ipv4_lsi_slightly_lower() {
        let plain = iperf_obs(Fig3Mode::Ipv4, 3, SimDuration::from_secs(3)).point;
        let hit = iperf_obs(Fig3Mode::HitIpv4, 3, SimDuration::from_secs(3)).point;
        let lsi = iperf_obs(Fig3Mode::LsiIpv4, 3, SimDuration::from_secs(3)).point;
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
        let rtt = |mode| {
            let p = rtt_obs(mode, 4, 5, 0).point;
            (p.rtt_ms, p.pings_received)
        };
        let (plain, r1) = rtt(Fig3Mode::Ipv4);
        let (hit, r2) = rtt(Fig3Mode::HitIpv4);
        let (teredo, r3) = rtt(Fig3Mode::Teredo);
        assert_eq!((r1, r2, r3), (5, 5, 5), "all pings answered");
        assert!(plain <= hit, "plain {plain:.2} <= hit {hit:.2}");
        assert!(teredo > hit * 2.0, "teredo {teredo:.2} is the worst");
    }

    #[test]
    fn hip_over_teredo_works() {
        let p = rtt_obs(Fig3Mode::HitTeredo, 5, 5, 0).point;
        assert_eq!(p.pings_received, 5, "ESP-over-Teredo echoes all answered");
        assert!(p.rtt_ms > 1.0);
    }
}
