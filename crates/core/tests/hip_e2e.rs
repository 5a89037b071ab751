//! End-to-end HIP tests: two (or more) full hosts with HIP shims on a
//! simulated network, exercising the base exchange, the encrypted data
//! plane, LSIs, the firewall, mobility, CLOSE and the rendezvous relay.

use hip_core::identity::{Hit, HostIdentity};
use hip_core::{Firewall, HipConfig, HipShim, HipStats, PeerInfo, RendezvousServer};
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::packet::v4;
use netsim::tcp::{SockId, TcpEvent};
use netsim::{Endpoint, FaultAction, LinkParams, NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

/// Test app: echo server on port 7.
struct EchoServer {
    served: usize,
}
impl App for EchoServer {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(7));
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            let d = api.tcp_recv(s);
            api.tcp_send(s, d);
            self.served += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Test app: connects to `target` at start (or on timer), sends a
/// message, records the reply.
struct EchoClient {
    target: IpAddr,
    message: Vec<u8>,
    reply: Vec<u8>,
    connected: bool,
    failed: bool,
}
impl EchoClient {
    fn new(target: IpAddr, message: &[u8]) -> Self {
        EchoClient {
            target,
            message: message.to_vec(),
            reply: Vec::new(),
            connected: false,
            failed: false,
        }
    }
}
impl App for EchoClient {
    fn start(&mut self, api: &mut HostApi) {
        assert!(
            api.tcp_connect(self.target, 7).is_some(),
            "no source address for {}",
            self.target
        );
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => {
                self.connected = true;
                let msg = self.message.clone();
                api.tcp_send(s, msg);
            }
            AppEvent::Tcp(TcpEvent::Data(s)) => {
                self.reply.extend(api.tcp_recv(s));
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(_)) | AppEvent::Tcp(TcpEvent::Reset(_)) => {
                self.failed = true;
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct TwoHosts {
    sim: Sim,
    a: NodeId,
    b: NodeId,
    hit_a: Hit,
    hit_b: Hit,
}

/// Builds two directly-linked hosts with HIP shims and mutual peer
/// configuration. `f` customizes the two shims before installation.
fn two_hip_hosts(
    cfg: impl Fn() -> HipConfig,
    customize: impl FnOnce(&mut HipShim, &mut HipShim),
) -> TwoHosts {
    let mut key_rng = StdRng::seed_from_u64(77);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let hit_a = id_a.hit();
    let hit_b = id_b.hit();
    let addr_a = v4(10, 0, 0, 1);
    let addr_b = v4(10, 0, 0, 2);

    let mut shim_a = HipShim::new(id_a, cfg());
    let mut shim_b = HipShim::new(id_b, cfg());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );
    customize(&mut shim_a, &mut shim_b);

    let mut sim = Sim::new(101);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(link, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(link, vec![addr_b]);
    TwoHosts {
        sim,
        a,
        b,
        hit_a,
        hit_b,
    }
}

fn stats_of(sim: &Sim, node: NodeId) -> HipStats {
    sim.world
        .node::<Host>(node)
        .unwrap()
        .shim::<HipShim>()
        .unwrap()
        .stats
}

/// Panics unless every listed host's shim passes `check_invariants`.
fn check_shims(sim: &Sim, nodes: &[NodeId]) {
    for &node in nodes {
        let shim = sim
            .world
            .node::<Host>(node)
            .unwrap()
            .shim::<HipShim>()
            .unwrap();
        if let Err(e) = shim.check_invariants() {
            panic!("shim of {node:?}: {e}");
        }
    }
}

#[test]
fn bex_establishes_and_tcp_flows_over_hits() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_b = net.hit_b;
    // Install apps: client on a targets b's HIT.
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(
            hit_b.to_ip(),
            b"over the esp tunnel",
        )));
    }
    {
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));

    let host_a = net.sim.world.node::<Host>(net.a).unwrap();
    let client = host_a.app::<EchoClient>(0).unwrap();
    assert!(client.connected, "TCP over HIP connected");
    assert_eq!(client.reply, b"over the esp tunnel");

    let sa = stats_of(&net.sim, net.a);
    let sb = stats_of(&net.sim, net.b);
    assert_eq!(sa.bex_initiated, 1);
    assert_eq!(sa.bex_completed, 1);
    assert_eq!(sb.bex_completed, 1);
    assert!(
        sa.esp_out > 0 && sa.esp_in > 0,
        "data really flowed over ESP: {sa:?}"
    );
    assert_eq!(sa.drops_auth + sb.drops_auth, 0);
    // Both shims agree the association is up.
    let shim_a = host_a.shim::<HipShim>().unwrap();
    assert!(shim_a.is_established(&hit_b));
    check_shims(&net.sim, &[net.a, net.b]);
}

/// Test app: connects to `target` at start, then sends a few bytes
/// every 100 ms, so data keeps flowing over SAs installed long before.
struct Ticker {
    target: IpAddr,
    sock: Option<SockId>,
}
impl App for Ticker {
    fn start(&mut self, api: &mut HostApi) {
        self.sock = api.tcp_connect(self.target, 7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match (ev, self.sock) {
            (AppEvent::Tcp(TcpEvent::Connected(_)), _) => {}
            (AppEvent::Timer { .. }, Some(s)) => api.tcp_send(s, b"tick".to_vec()),
            _ => return,
        }
        api.set_timer(SimDuration::from_millis(100), 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn esp_over_sas_installed_with_metrics_off_is_counted() {
    // The SAs come up while metrics are off; every frame they carry
    // after metrics are turned on lands in `esp.encrypt`/`esp.decrypt`.
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    net.sim.set_metrics_enabled(false);
    let target = net.hit_b.to_ip();
    let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
    host.add_app(Box::new(Ticker { target, sock: None }));
    let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
    host.add_app(Box::new(EchoServer { served: 0 }));
    let esp = |sim: &Sim| {
        let (sa, sb) = (stats_of(sim, net.a), stats_of(sim, net.b));
        (sa.esp_out + sb.esp_out, sa.esp_in + sb.esp_in)
    };

    net.sim.run_until(SimTime(1_000_000_000));
    let (out_before, in_before) = esp(&net.sim);
    assert!(out_before > 0, "the SAs are up and carrying data");
    net.sim.set_metrics_enabled(true);
    net.sim.run_until(SimTime(2_000_000_000));
    let (out_after, in_after) = esp(&net.sim);
    assert!(out_after > out_before, "data keeps flowing");

    let count = |name| net.sim.metrics.hist_get(name).map_or(0, |h| h.count());
    assert_eq!(count("esp.encrypt"), out_after - out_before);
    assert_eq!(count("esp.out_bytes"), out_after - out_before);
    assert_eq!(count("esp.decrypt"), in_after - in_before);
    assert_eq!(count("esp.in_bytes"), in_after - in_before);
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn no_plaintext_on_the_wire_with_hip() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_b = net.hit_b;
    net.sim.trace = netsim::trace::Trace::enabled(10_000);
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(
            hit_b.to_ip(),
            b"CONFIDENTIAL-MARKER",
        )));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));
    // Every TX on the wire between the hosts is either HIP control (139)
    // or ESP (50) — never a raw TCP segment.
    let mut saw_esp = false;
    for e in net.sim.trace.entries() {
        if let netsim::trace::TraceData::Tx(p) = &e.data {
            assert!(
                p.proto == 139 || p.proto == 50,
                "unexpected cleartext wire packet: {}",
                e.detail()
            );
            saw_esp |= p.proto == 50;
        }
    }
    assert!(saw_esp);
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn lsi_mode_carries_legacy_ipv4_traffic() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let (hit_a, hit_b) = (net.hit_a, net.hit_b);
    // The client addresses b by its LSI, as an unmodified IPv4 app would.
    let lsi_b = {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        let shim = host.shim_mut::<HipShim>().unwrap();
        shim.lsi.lsi_of(&hit_b).expect("LSI allocated at add_peer")
    };
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(
            IpAddr::V4(lsi_b),
            b"legacy app data",
        )));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));
    let client = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert!(client.connected, "LSI-addressed TCP connected");
    assert_eq!(client.reply, b"legacy app data");
    let _ = hit_a;
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn bex_exhaustion_delivers_connect_failed() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_b = net.hit_b;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"never delivered")));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    // The responder is down from the start: I1 retransmits until
    // max_retransmits (5 × 500 ms), then the shim gives up and must fail
    // the TCP connect upward instead of leaving it hanging.
    net.sim
        .schedule_fault(SimDuration::ZERO, FaultAction::NodeCrash(net.b));
    net.sim.run_until(SimTime(10_000_000_000));
    let client = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert!(!client.connected);
    assert!(
        client.failed,
        "BEX exhaustion must surface as ConnectFailed"
    );
    let sa = stats_of(&net.sim, net.a);
    assert_eq!(sa.bex_failed, 1);
    assert_eq!(sa.retransmissions, 5);
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn peer_restart_triggers_rebex_and_traffic_resumes() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_b = net.hit_b;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(
            hit_b.to_ip(),
            b"before the crash",
        )));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));
    assert_eq!(
        stats_of(&net.sim, net.a).bex_completed,
        1,
        "baseline association up"
    );

    // Crash the responder; it restarts 100 ms later with no SAs, while
    // the initiator still believes the old association is live.
    net.sim
        .schedule_fault(SimDuration::ZERO, FaultAction::NodeCrash(net.b));
    net.sim.schedule_fault(
        SimDuration::from_millis(100),
        FaultAction::NodeRestart(net.b),
    );
    net.sim.run_until(SimTime(6_000_000_000));

    // Reconnect through the stale association: the ESP-wrapped SYN hits
    // the restarted peer's empty SPI table → NOTIFY → teardown + re-BEX
    // → TCP retransmission flows over the fresh SA. No manual cleanup.
    let a = net.a;
    net.sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.with_api(0, ctx, |app, api| {
            let app = app.as_any_mut().downcast_mut::<EchoClient>().unwrap();
            app.connected = false;
            app.reply.clear();
            app.message = b"after the restart".to_vec();
            assert!(api.tcp_connect(app.target, 7).is_some());
        });
    });
    net.sim.run_until(SimTime(15_000_000_000));

    let client = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert!(
        client.connected,
        "TCP reconnected over the re-established association"
    );
    assert_eq!(client.reply, b"after the restart");
    let sa = stats_of(&net.sim, net.a);
    let sb = stats_of(&net.sim, net.b);
    assert_eq!(
        sa.stale_spi_rebex, 1,
        "exactly one NOTIFY-triggered re-BEX: {sa:?}"
    );
    assert!(
        sb.notifies_sent >= 1,
        "restarted peer reported the stale SPI: {sb:?}"
    );
    assert_eq!(sa.bex_completed, 2, "original + re-run BEX");
    let shim_a = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert!(shim_a.is_established(&hit_b));
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn firewall_denies_unauthorized_tenant() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, shim_b| {
        // b denies everyone by default (and a is not whitelisted).
        shim_b.firewall = Firewall::deny_by_default();
    });
    let hit_b = net.hit_b;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(
            hit_b.to_ip(),
            b"should not arrive",
        )));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(10_000_000_000));
    let client = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert!(
        !client.connected,
        "BEX must not complete against a deny-all firewall"
    );
    let sb = stats_of(&net.sim, net.b);
    assert!(sb.drops_firewall > 0);
    assert_eq!(sb.bex_completed, 0);
    // The initiator eventually gives up.
    let sa = stats_of(&net.sim, net.a);
    assert!(sa.retransmissions > 0);
    assert_eq!(sa.bex_completed, 0);
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn firewall_allows_whitelisted_tenant() {
    let mut net = two_hip_hosts(HipConfig::default, |shim_a, shim_b| {
        let mut fw = Firewall::deny_by_default();
        fw.allow(shim_a.hit());
        shim_b.firewall = fw;
    });
    let hit_b = net.hit_b;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"authorized")));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));
    let client = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(client.reply, b"authorized");
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn bex_survives_packet_loss() {
    // 20% loss: retransmissions must still get the BEX through.
    let mut key_rng = StdRng::seed_from_u64(78);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));
    let mut shim_a = HipShim::new(
        id_a,
        HipConfig {
            max_retransmits: 10,
            ..HipConfig::default()
        },
    );
    let mut shim_b = HipShim::new(
        id_b,
        HipConfig {
            max_retransmits: 10,
            ..HipConfig::default()
        },
    );
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(9);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"lossy")));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter().with_loss(0.2),
    );
    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(link, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(link, vec![addr_b]);
    sim.run_until(SimTime(30_000_000_000));
    let client = sim
        .world
        .node::<Host>(a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(client.reply, b"lossy", "BEX + TCP survive 20% loss");
    check_shims(&sim, &[a, b]);
}

#[test]
fn close_tears_down_association() {
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_b = net.hit_b;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"hello")));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
    }
    net.sim.run_until(SimTime(5_000_000_000));
    assert!(net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .shim::<HipShim>()
        .unwrap()
        .is_established(&hit_b));
    // Ask a to close the association.
    net.sim.with_node_ctx(net.a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.shim_command(ctx, |shim, api| {
            let shim = shim.as_any_mut().downcast_mut::<HipShim>().unwrap();
            shim.close(api, hit_b);
        });
    });
    net.sim.run_until(SimTime(10_000_000_000));
    let shim_a = net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert!(!shim_a.is_established(&hit_b), "association closed on a");
    let shim_b = net
        .sim
        .world
        .node::<Host>(net.b)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert!(
        !shim_b.is_established(&net.hit_a),
        "association closed on b"
    );
    assert!(stats_of(&net.sim, net.b).closes >= 1);
    // The answered I1 and I2 retransmissions released their tokens.
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn simultaneous_bex_releases_replaced_retransmissions() {
    // Both hosts dial each other at once, so the larger HIT answers the
    // other's I2 while its own I2 still awaits R2: the responder
    // association replaces one whose retransmission is armed.
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let (hit_a, hit_b) = (net.hit_a, net.hit_b);
    for (node, target) in [(net.a, hit_b), (net.b, hit_a)] {
        let host = net.sim.world.node_mut::<Host>(node).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
        host.add_app(Box::new(EchoClient::new(target.to_ip(), b"hi")));
    }
    // Check every 10 ms: a replaced association's engine timer still
    // fires 500 ms after it was armed, and must find no token.
    for step in 1..=100 {
        net.sim.run_until(SimTime(step * 10_000_000));
        for node in [net.a, net.b] {
            let host = net.sim.world.node::<Host>(node).unwrap();
            let shim = host.shim::<HipShim>().unwrap();
            assert_eq!(shim.stats.bex_initiated, 1);
            if let Err(e) = shim.check_invariants() {
                panic!("at {} ms: {e}", step * 10);
            }
        }
    }
}

#[test]
fn simultaneous_dial_connects_both_clients() {
    // RFC 5201 §4.4.2: when both ends send an I2, the larger HIT answers
    // as responder and the smaller waits for its R2, so both ends keep
    // the keys of one exchange and both TCP clients get their echo.
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let (hit_a, hit_b) = (net.hit_a, net.hit_b);
    for (node, target) in [(net.a, hit_b), (net.b, hit_a)] {
        let host = net.sim.world.node_mut::<Host>(node).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
        host.add_app(Box::new(EchoClient::new(target.to_ip(), b"hi")));
    }
    net.sim.run_until(SimTime(10_000_000_000));
    for node in [net.a, net.b] {
        let host = net.sim.world.node::<Host>(node).unwrap();
        let client = host.app::<EchoClient>(1).unwrap();
        assert!(client.connected, "{node:?}'s client connected");
        assert_eq!(client.reply, b"hi", "{node:?}'s client got its echo");
        let stats = stats_of(&net.sim, node);
        assert_eq!(stats.drops_auth, 0, "{node:?}: {stats:?}");
        assert_eq!(stats.bex_completed, 1, "{node:?}: {stats:?}");
    }
    assert!(net
        .sim
        .world
        .node::<Host>(net.a)
        .unwrap()
        .shim::<HipShim>()
        .unwrap()
        .is_established(&hit_b));
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn restarted_peer_dialing_first_replaces_the_association() {
    // b dials a, crashes, and on restart dials again before a notices:
    // a answers the new I2 over its established association, whose
    // inbound SPI must be released with it.
    let mut net = two_hip_hosts(HipConfig::default, |_a, _b| {});
    let hit_a = net.hit_a;
    {
        let host = net.sim.world.node_mut::<Host>(net.a).unwrap();
        host.add_app(Box::new(EchoServer { served: 0 }));
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        host.add_app(Box::new(EchoClient::new(hit_a.to_ip(), b"ping")));
    }
    net.sim.run_until(SimTime(3_000_000_000));
    check_shims(&net.sim, &[net.a, net.b]);
    net.sim
        .schedule_fault(SimDuration::ZERO, FaultAction::NodeCrash(net.b));
    net.sim.schedule_fault(
        SimDuration::from_millis(100),
        FaultAction::NodeRestart(net.b),
    );
    net.sim.run_until(SimTime(3_050_000_000));
    // After the restart the client dials a's LSI: a fresh TCP layer
    // reuses the old source port, and a still holds the HIT-addressed
    // connection on that 4-tuple.
    {
        let host = net.sim.world.node_mut::<Host>(net.b).unwrap();
        let lsi_a = host.shim::<HipShim>().unwrap().lsi.lsi_of(&hit_a).unwrap();
        let client = host.app_mut::<EchoClient>(0).unwrap();
        client.target = IpAddr::V4(lsi_a);
        client.reply.clear();
    }
    net.sim.run_until(SimTime(8_000_000_000));

    let client = net
        .sim
        .world
        .node::<Host>(net.b)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(client.reply, b"ping", "echoed over the new association");
    let (sa, sb) = (stats_of(&net.sim, net.a), stats_of(&net.sim, net.b));
    assert_eq!(sa.bex_completed, 2, "a answered both exchanges: {sa:?}");
    assert_eq!(sb.bex_initiated, 2, "{sb:?}");
    assert_eq!(sa.drops_auth + sb.drops_auth, 0, "a={sa:?} b={sb:?}");
    check_shims(&net.sim, &[net.a, net.b]);
}

#[test]
fn mobility_update_switches_locator_and_traffic_continues() {
    // a - switch - b, with a second address for a on a different subnet.
    let mut key_rng = StdRng::seed_from_u64(80);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let addr_a1 = v4(10, 0, 0, 1);
    let addr_a2 = v4(10, 0, 1, 1);
    let addr_b = v4(10, 0, 0, 2);

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a1],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(55);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"before move")));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(link, vec![addr_a1]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(link, vec![addr_b]);
    sim.run_until(SimTime(3_000_000_000));
    assert_eq!(
        sim.world
            .node::<Host>(a)
            .unwrap()
            .app::<EchoClient>(0)
            .unwrap()
            .reply,
        b"before move"
    );

    // "Migrate" a: its interface address changes, then the shim announces.
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.core.replace_iface_addrs(0, vec![addr_a2]);
        host.shim_command(ctx, |shim, api| {
            let shim = shim.as_any_mut().downcast_mut::<HipShim>().unwrap();
            shim.relocate(api, addr_a2);
        });
    });
    sim.run_until(SimTime(6_000_000_000));

    // b must now address a at the new, verified locator.
    let shim_b = sim
        .world
        .node::<Host>(b)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert_eq!(
        shim_b.peer_locator(&hit_a),
        Some(addr_a2),
        "locator switched after echo verification"
    );
    assert!(shim_b.stats.updates_completed > 0);

    // And data still flows over the same association (send another echo).
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.with_api(0, ctx, |app, api| {
            let app = app.as_any_mut().downcast_mut::<EchoClient>().unwrap();
            app.reply.clear();
            let sock = api.tcp_connect(hit_b.to_ip(), 7).unwrap();
            let _ = sock;
            app.message = b"after move".to_vec();
        });
    });
    sim.run_until(SimTime(10_000_000_000));
    let client = sim
        .world
        .node::<Host>(a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(
        client.reply, b"after move",
        "traffic continues after relocation"
    );
    check_shims(&sim, &[a, b]);
}

#[test]
fn rendezvous_relays_initial_contact() {
    // a knows b only through the RVS.
    let mut key_rng = StdRng::seed_from_u64(81);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let addr_a = v4(10, 0, 0, 1);
    let addr_b = v4(10, 0, 0, 2);
    let addr_rvs = v4(10, 0, 0, 9);

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    let shim_b_cfg = HipConfig {
        rvs: Some(addr_rvs),
        ..HipConfig::default()
    };
    let mut shim_b = HipShim::new(id_b, shim_b_cfg);
    // a: no locator for b, only the RVS.
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![],
            via_rvs: Some(addr_rvs),
        },
    );
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(82);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"via rendezvous")));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));

    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let r = sim.world.add_node(Box::new(netsim::router::Router::new()));
    let la = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: r, iface: 0 },
        LinkParams::datacenter(),
    );
    let lb = sim.world.connect(
        Endpoint { node: b, iface: 0 },
        Endpoint { node: r, iface: 1 },
        LinkParams::datacenter(),
    );
    let rvs = sim
        .world
        .add_node(Box::new(RendezvousServer::new(addr_rvs, netsim::LinkId(0))));
    let lr = sim.world.connect(
        Endpoint {
            node: rvs,
            iface: 0,
        },
        Endpoint { node: r, iface: 2 },
        LinkParams::datacenter(),
    );
    // Point the RVS at its real link.
    // (Constructed before the link existed; rebuild in place.)
    *sim.world.node_mut::<RendezvousServer>(rvs).unwrap() = RendezvousServer::new(addr_rvs, lr);

    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(la, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(lb, vec![addr_b]);
    {
        let router = sim.world.node_mut::<netsim::router::Router>(r).unwrap();
        router.add_iface(la);
        router.add_iface(lb);
        router.add_iface(lr);
        router.add_route(addr_a, 32, 0);
        router.add_route(addr_b, 32, 1);
        router.add_route(addr_rvs, 32, 2);
    }
    sim.run_until(SimTime(10_000_000_000));

    let server = sim.world.node::<RendezvousServer>(rvs).unwrap();
    assert_eq!(server.registration(&hit_b), Some(addr_b), "b registered");
    assert!(server.relayed >= 1, "I1 relayed through the RVS");
    let client = sim
        .world
        .node::<Host>(a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(client.reply, b"via rendezvous");
    let shim_b = sim
        .world
        .node::<Host>(b)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert!(shim_b.rvs_registered);
    check_shims(&sim, &[a, b]);
}

#[test]
fn cross_family_handover_v4_to_v6() {
    // §IV-C: "HIP allows IPv4-based applications to communicate over an
    // IPv6 network due to flexible tunneling, and also supports
    // IPv4-IPv6 handovers. This can be useful when migrating a VM from
    // an IPv4-only host to a dual-stack host."
    //
    // Both hosts are dual-stack; the association starts on IPv4
    // locators, then host a announces its IPv6 locator via UPDATE and
    // the ESP tunnel switches families mid-connection.
    use netsim::packet::v6;
    let mut key_rng = StdRng::seed_from_u64(91);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let addr_a4 = v4(10, 0, 0, 1);
    let addr_a6 = v6([0xfd00, 0, 0, 0, 0, 0, 0, 1]);
    let addr_b4 = v4(10, 0, 0, 2);
    let addr_b6 = v6([0xfd00, 0, 0, 0, 0, 0, 0, 2]);

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b4],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a4],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(92);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"over v4")));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(link, vec![addr_a4, addr_a6]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(link, vec![addr_b4, addr_b6]);

    sim.run_until(SimTime(3_000_000_000));
    assert_eq!(
        sim.world
            .node::<Host>(a)
            .unwrap()
            .app::<EchoClient>(0)
            .unwrap()
            .reply,
        b"over v4"
    );

    // Handover: a moves its end of the association to IPv6.
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.shim_command(ctx, |shim, api| {
            let shim = shim.as_any_mut().downcast_mut::<HipShim>().unwrap();
            shim.relocate(api, addr_a6);
        });
    });
    sim.run_until(SimTime(6_000_000_000));
    let shim_b_view = sim
        .world
        .node::<Host>(b)
        .unwrap()
        .shim::<HipShim>()
        .unwrap();
    assert_eq!(
        shim_b_view.peer_locator(&hit_a),
        Some(addr_a6),
        "peer switched to the IPv6 locator after verification"
    );

    // Traffic continues on the same association, now over IPv6.
    sim.trace = netsim::trace::Trace::enabled(10_000);
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.with_api(0, ctx, |app, api| {
            let app = app.as_any_mut().downcast_mut::<EchoClient>().unwrap();
            app.reply.clear();
            app.message = b"over v6 now".to_vec();
            api.tcp_connect(hit_b.to_ip(), 7).unwrap();
        });
    });
    sim.run_until(SimTime(10_000_000_000));
    let client = sim
        .world
        .node::<Host>(a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert_eq!(client.reply, b"over v6 now");
    // The post-handover ESP rode IPv6 outer headers.
    let v6_esp = sim
        .trace
        .entries()
        .iter()
        .filter(|e| {
            if let netsim::trace::TraceData::Tx(p) = &e.data {
                p.proto == 50 && p.dst.to_string().starts_with("fd00:")
            } else {
                false
            }
        })
        .count();
    assert!(v6_esp > 0, "ESP packets with IPv6 locators observed");
    check_shims(&sim, &[a, b]);
}

#[test]
fn midbox_firewall_enforces_tenant_policy_on_path() {
    // §IV-A scenario II: the firewall lives in the hypervisor, not the
    // end host. Two HIP hosts talk through a HipMidboxFirewall that
    // (a) admits the whitelisted pair and learns its SPIs, then
    // (b) is reconfigured to deny one HIT — and the *ciphertext* stops.
    use hip_core::HipMidboxFirewall;
    let mut key_rng = StdRng::seed_from_u64(95);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );

    let mut policy = Firewall::deny_by_default();
    policy.allow(hit_a);
    policy.allow(hit_b);

    let mut sim = Sim::new(96);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(
        hit_b.to_ip(),
        b"through the hypervisor",
    )));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let fw = sim.world.add_node(Box::new(HipMidboxFirewall::new(policy)));
    let la = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: fw, iface: 0 },
        LinkParams::datacenter(),
    );
    let lb = sim.world.connect(
        Endpoint { node: fw, iface: 1 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    sim.world
        .node_mut::<HipMidboxFirewall>(fw)
        .unwrap()
        .set_links(la, lb);
    sim.world
        .node_mut::<Host>(a)
        .unwrap()
        .core
        .add_iface(la, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .unwrap()
        .core
        .add_iface(lb, vec![addr_b]);

    sim.run_until(SimTime(5_000_000_000));
    {
        let client = sim
            .world
            .node::<Host>(a)
            .unwrap()
            .app::<EchoClient>(0)
            .unwrap();
        assert_eq!(client.reply, b"through the hypervisor");
        let fwn = sim.world.node::<HipMidboxFirewall>(fw).unwrap();
        assert_eq!(fwn.exchanges_seen, 1, "midbox observed the BEX");
        assert!(fwn.forwarded > 5);
        assert_eq!(fwn.dropped, 0);
    }

    // Mid-simulation policy change: the tenant revokes host a.
    {
        let fwn = sim.world.node_mut::<HipMidboxFirewall>(fw).unwrap();
        fwn.policy = {
            let mut p = Firewall::deny_by_default();
            p.allow(hit_b);
            p
        };
    }
    // New traffic on the (still-established) association must now die at
    // the box — the SPI attribution makes even the ciphertext filterable.
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.with_api(0, ctx, |app, api| {
            let app = app.as_any_mut().downcast_mut::<EchoClient>().unwrap();
            app.reply.clear();
            app.message = b"should be blocked".to_vec();
            api.tcp_connect(hit_b.to_ip(), 7).unwrap();
        });
    });
    sim.run_until(SimTime(15_000_000_000));
    let client = sim
        .world
        .node::<Host>(a)
        .unwrap()
        .app::<EchoClient>(0)
        .unwrap();
    assert!(
        client.reply.is_empty(),
        "revoked tenant's ESP blocked at the hypervisor"
    );
    let fwn = sim.world.node::<HipMidboxFirewall>(fw).unwrap();
    assert!(fwn.dropped > 0, "drops recorded: {}", fwn.dropped);
    check_shims(&sim, &[a, b]);
}

#[test]
fn replayed_registration_rejected_by_rvs() {
    // Replay guard: capturing a signed REG_REQUEST must not allow
    // re-binding the HIT to a stale locator.
    use hip_core::wire::{encode_locator, param_type, HipPacket, PacketType, Param};
    use netsim::engine::Ctx;
    use netsim::packet::{Packet, Payload};

    let mut rng = StdRng::seed_from_u64(97);
    let id = HostIdentity::generate_rsa(512, &mut rng);
    let make_reg = |locator, seq: u32, rng: &mut StdRng| {
        let mut params = vec![
            Param::HostId(id.public().to_bytes()),
            Param::Locator(vec![encode_locator(&locator)]),
            Param::Seq(seq),
        ];
        let unsigned = HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(id.sign(&covered, rng)));
        HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params)
    };

    struct Sink;
    impl netsim::Node for Sink {
        fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut sim = Sim::new(98);
    let sink = sim.world.add_node(Box::new(Sink));
    let rvs_addr = v4(10, 0, 0, 9);
    let rvs = sim
        .world
        .add_node(Box::new(RendezvousServer::new(rvs_addr, netsim::LinkId(0))));
    sim.world.connect(
        Endpoint {
            node: rvs,
            iface: 0,
        },
        Endpoint {
            node: sink,
            iface: 0,
        },
        LinkParams::datacenter(),
    );

    let old_reg = make_reg(v4(10, 0, 0, 5), 1, &mut rng); // original locator
    let new_reg = make_reg(v4(10, 0, 0, 7), 2, &mut rng); // after migration
    let deliver = |sim: &mut Sim, pkt: &HipPacket, delay_ms: u64| {
        sim.schedule(
            netsim::SimDuration::from_millis(delay_ms),
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 5), rvs_addr, Payload::HipControl(pkt.encode())),
            },
        );
    };
    deliver(&mut sim, &old_reg, 0);
    deliver(&mut sim, &new_reg, 10);
    deliver(&mut sim, &old_reg, 20); // the replay
    assert!(sim.run_to_quiescence(100).is_quiescent());

    let server = sim.world.node::<RendezvousServer>(rvs).unwrap();
    assert_eq!(
        server.registration(&id.hit()),
        Some(v4(10, 0, 0, 7)),
        "replay must not restore the stale locator"
    );
    assert_eq!(server.rejected, 1, "the replayed packet was rejected");
}

/// One run of a host `a` with two established peers `b` and `c` behind a
/// switch, which relocates at 3 s. Returns the full packet trace and the
/// shim counters of all three hosts.
fn relocate_with_two_peers(seed: u64) -> String {
    let mut key_rng = StdRng::seed_from_u64(seed);
    let id_a = HostIdentity::generate_ecdsa(&mut key_rng);
    let id_b = HostIdentity::generate_ecdsa(&mut key_rng);
    let id_c = HostIdentity::generate_ecdsa(&mut key_rng);
    let (hit_a, hit_b, hit_c) = (id_a.hit(), id_b.hit(), id_c.hit());
    let addr_a1 = v4(10, 0, 0, 1);
    let addr_a2 = v4(10, 0, 1, 1);
    let addr_b = v4(10, 0, 0, 2);
    let addr_c = v4(10, 0, 0, 3);

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    shim_a.add_peer(
        hit_c,
        PeerInfo {
            locators: vec![addr_c],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a1],
            via_rvs: None,
        },
    );
    let mut shim_c = HipShim::new(id_c, HipConfig::default());
    shim_c.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a1],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(seed);
    sim.trace = netsim::trace::Trace::enabled(100_000);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(Box::new(EchoClient::new(hit_b.to_ip(), b"to b")));
    ha.add_app(Box::new(EchoClient::new(hit_c.to_ip(), b"to c")));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(Box::new(EchoServer { served: 0 }));
    let mut hc = Host::new("c");
    hc.set_shim(Box::new(shim_c));
    hc.add_app(Box::new(EchoServer { served: 0 }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let c = sim.world.add_node(Box::new(hc));
    let r = sim.world.add_node(Box::new(netsim::router::Router::new()));
    let mut links = Vec::new();
    for (i, (node, addr)) in [(a, addr_a1), (b, addr_b), (c, addr_c)]
        .into_iter()
        .enumerate()
    {
        let link = sim.world.connect(
            Endpoint { node, iface: 0 },
            Endpoint { node: r, iface: i },
            LinkParams::datacenter(),
        );
        sim.world
            .node_mut::<Host>(node)
            .unwrap()
            .core
            .add_iface(link, vec![addr]);
        links.push((link, addr));
    }
    {
        let router = sim.world.node_mut::<netsim::router::Router>(r).unwrap();
        for (i, (link, addr)) in links.into_iter().enumerate() {
            router.add_iface(link);
            router.add_route(addr, 32, i);
        }
        router.add_route(addr_a2, 32, 0);
    }
    sim.run_until(SimTime(3_000_000_000));
    let host_a = sim.world.node::<Host>(a).unwrap();
    assert_eq!(host_a.app::<EchoClient>(0).unwrap().reply, b"to b");
    assert_eq!(host_a.app::<EchoClient>(1).unwrap().reply, b"to c");

    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
        host.core.replace_iface_addrs(0, vec![addr_a2]);
        host.shim_command(ctx, |shim, api| {
            let shim = shim.as_any_mut().downcast_mut::<HipShim>().unwrap();
            shim.relocate(api, addr_a2);
        });
    });
    sim.run_until(SimTime(6_000_000_000));
    for (peer, node) in [(b, "b"), (c, "c")] {
        let shim = sim
            .world
            .node::<Host>(peer)
            .unwrap()
            .shim::<HipShim>()
            .unwrap();
        assert_eq!(
            shim.peer_locator(&hit_a),
            Some(addr_a2),
            "{node} follows a's move"
        );
    }
    assert_eq!(stats_of(&sim, a).updates_sent, 2);
    assert_eq!(sim.trace.truncated(), 0);
    check_shims(&sim, &[a, b, c]);
    let mut out = sim.trace.dump();
    for node in [a, b, c] {
        out.push_str(&format!("{:?}\n", stats_of(&sim, node)));
    }
    out
}

#[test]
fn relocation_to_two_peers_is_deterministic() {
    // Each run builds fresh shims, so per-map hash seeds (if any) differ
    // between runs; the UPDATE order, the CPU charges and the ECDSA
    // nonces drawn for the two signatures must not.
    let first = relocate_with_two_peers(23);
    for run in 1..8 {
        assert!(
            relocate_with_two_peers(23) == first,
            "run {run} diverged from run 0"
        );
    }
}
