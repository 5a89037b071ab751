//! Workspace-spanning integration tests: every layer at once — crypto,
//! network, HIP, TLS, cloud, web service — exercised through the public
//! `hipcloud` umbrella crate, the way a downstream user would.

use hipcloud::cloud::{CloudKind, CloudTopology, Flavor};
use hipcloud::hip::identity::HostIdentity;
use hipcloud::hip::{HipConfig, HipShim, PeerInfo};
use hipcloud::net::host::{App, AppEvent, HostApi};
use hipcloud::net::{SimDuration, SimTime, TcpEvent};
use hipcloud::web::deploy::{deploy_rubis, RubisConfig};
use hipcloud::web::loadgen::JmeterApp;
use hipcloud::web::rubis::WorkloadMix;
use hipcloud::web::Scenario;
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

struct Echo;
impl App for Echo {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s, d)) = ev {
            api.tcp_send(s, d);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Caller {
    target: IpAddr,
    reply: Vec<u8>,
}
impl App for Caller {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => api.tcp_send(s, b"through the whole stack"),
            AppEvent::Tcp(TcpEvent::Data(_, data)) => self.reply.extend_from_slice(&data),
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

/// HIP across a hybrid cloud, built entirely from the umbrella exports.
#[test]
fn hip_across_hybrid_cloud_through_umbrella_crate() {
    let mut topo = CloudTopology::new(1);
    let public = topo.add_cloud("ec2", CloudKind::Public);
    let private = topo.add_cloud("onprem", CloudKind::Private);
    let a = topo.launch_vm(public, "a", Flavor::Micro);
    let b = topo.launch_vm(private, "b", Flavor::Large);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let id_a = HostIdentity::generate_rsa(512, &mut rng);
    let id_b = HostIdentity::generate_rsa(512, &mut rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![b.addr],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![a.addr],
            via_rvs: None,
        },
    );
    topo.host_mut(a).set_shim(Box::new(shim_a));
    topo.host_mut(b).set_shim(Box::new(shim_b));
    topo.host_mut(a).add_app(Box::new(Caller {
        target: hit_b.to_ip(),
        reply: vec![],
    }));
    topo.host_mut(b).add_app(Box::new(Echo));

    topo.run_for(SimDuration::from_secs(5));
    assert_eq!(
        topo.host(a).app::<Caller>(0).expect("caller").reply,
        b"through the whole stack"
    );
    let shim = topo.host(a).shim::<HipShim>().expect("shim");
    assert!(shim.is_established(&hit_b));
    assert!(shim.stats.esp_bytes_out > 0);
}

/// The full RUBiS deployment completes real requests in each scenario.
#[test]
fn rubis_deployment_serves_each_scenario() {
    for scenario in [Scenario::Basic, Scenario::HipLsi, Scenario::Ssl] {
        let cfg = RubisConfig::fig2(scenario, 3);
        let (users, items) = (cfg.users, cfg.items);
        let mut dep = deploy_rubis(cfg);
        let gen = dep.topo.add_external_host("gen", Flavor::Dedicated);
        let mut app = JmeterApp::new(dep.frontend, 3, WorkloadMix::default(), users, items);
        app.measure_from = SimTime(1_000_000_000);
        let idx = dep.topo.host_mut(gen).add_app(Box::new(app));
        dep.topo.sim.run_until(SimTime(4_000_000_000));
        let completed = dep
            .topo
            .host(gen)
            .app::<JmeterApp>(idx)
            .expect("gen")
            .completed;
        assert!(completed > 20, "{scenario:?}: only {completed} requests");
    }
}

/// DNS with HIP resource records: publish, resolve over the simulated
/// network, verify the advertised HIT matches the key, then use it.
#[test]
fn dns_discovers_hip_peers() {
    use hipcloud::hip::dns_ext;
    use hipcloud::net::dns::{RecordType, Zone};
    use hipcloud::web::dns_server::{DnsLookupApp, DnsServerApp};

    let mut topo = CloudTopology::new(4);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let server_vm = topo.launch_vm(cloud, "web1", Flavor::Micro);
    let dns_vm = topo.launch_vm(cloud, "dns", Flavor::Small);
    let client_vm = topo.launch_vm(cloud, "client", Flavor::Micro);

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let id = HostIdentity::generate_rsa(512, &mut rng);
    let mut zone = Zone::new();
    dns_ext::publish(
        &mut zone,
        "web1.cloud",
        id.public(),
        &[server_vm.addr],
        vec![],
    );
    topo.host_mut(dns_vm)
        .add_app(Box::new(DnsServerApp::new(zone)));
    let lookup = topo.host_mut(client_vm).add_app(Box::new(DnsLookupApp::new(
        dns_vm.addr,
        "web1.cloud",
        RecordType::Any,
    )));

    topo.run_for(SimDuration::from_secs(2));
    let app = topo
        .host(client_vm)
        .app::<DnsLookupApp>(lookup)
        .expect("lookup");
    assert!(app.responded);
    // Rebuild a zone from the answers and resolve with verification.
    let mut answer_zone = Zone::new();
    for rec in &app.answers {
        answer_zone.add("web1.cloud", rec.clone());
    }
    let peer = dns_ext::resolve(&answer_zone, "web1.cloud").expect("verifies");
    assert_eq!(peer.hit, id.hit());
    assert_eq!(peer.locators, vec![server_vm.addr]);
}

/// Determinism across the whole stack: same seed, same result.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let cfg = RubisConfig::fig2(Scenario::HipLsi, 77);
        let (users, items) = (cfg.users, cfg.items);
        let mut dep = deploy_rubis(cfg);
        let gen = dep.topo.add_external_host("gen", Flavor::Dedicated);
        let idx = dep.topo.host_mut(gen).add_app(Box::new(JmeterApp::new(
            dep.frontend,
            5,
            WorkloadMix::default(),
            users,
            items,
        )));
        dep.topo.sim.run_until(SimTime(3_000_000_000));
        dep.topo
            .host(gen)
            .app::<JmeterApp>(idx)
            .expect("gen")
            .completed
    };
    assert_eq!(run(), run());
}
