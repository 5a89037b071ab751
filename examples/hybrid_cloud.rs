//! Hybrid-cloud tenant isolation (§III-B, §IV-A): two competing tenants
//! share a public cloud; one of them also runs VMs in a private cloud.
//! Each VM admits only its own tenant's HITs (the hosts.allow model), so
//!
//! - intra-tenant traffic flows — encrypted — even across the WAN
//!   between the clouds (the hybrid case HIP secures), while
//! - the competitor cannot even complete a base exchange, despite
//!   sharing subnets and switches with its target.
//!
//! ```bash
//! cargo run --release --example hybrid_cloud
//! ```

use hipcloud::cloud::{CloudKind, CloudTopology, Flavor, TenantId, TenantRegistry};
use hipcloud::hip::identity::HostIdentity;
use hipcloud::hip::{HipConfig, HipShim, PeerInfo};
use hipcloud::net::host::{App, AppEvent, HostApi};
use hipcloud::net::{SimDuration, TcpEvent};
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

struct EchoServer;
impl App for EchoServer {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(9000);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            let d = api.tcp_recv(s);
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

struct Probe {
    target: IpAddr,
    label: &'static str,
    replied: bool,
}
impl App for Probe {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 9000);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => api.tcp_send(s, b"confidential business data"),
            AppEvent::Tcp(TcpEvent::Data(s)) => {
                let _ = api.tcp_recv(s);
                self.replied = true;
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

fn main() {
    let mut topo = CloudTopology::new(99);
    let public = topo.add_cloud("ec2", CloudKind::Public);
    let private = topo.add_cloud("on-prem", CloudKind::Private);

    // Tenant ACME: one VM in the public cloud, one in its private cloud
    // (the hybrid deployment). Tenant EVIL: a VM in the same public
    // cloud — a competing subscriber on shared infrastructure.
    let acme_pub = topo.launch_vm(public, "acme-frontend", Flavor::Micro);
    let acme_priv = topo.launch_vm(private, "acme-db", Flavor::Large);
    let evil_pub = topo.launch_vm(public, "evil-vm", Flavor::Micro);

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let ids = [
        HostIdentity::generate_rsa(512, &mut rng),
        HostIdentity::generate_rsa(512, &mut rng),
        HostIdentity::generate_rsa(512, &mut rng),
    ];
    let [id_acme_pub, id_acme_priv, id_evil] = ids;

    // The tenant registry drives the isolation firewalls.
    let acme = TenantId(1);
    let evil = TenantId(2);
    let mut registry = TenantRegistry::new();
    registry.register(acme, acme_pub, id_acme_pub.hit());
    registry.register(acme, acme_priv, id_acme_priv.hit());
    registry.register(evil, evil_pub, id_evil.hit());

    let hit_acme_priv = id_acme_priv.hit();
    println!(
        "tenant ACME: frontend {} + private DB {}",
        id_acme_pub.hit(),
        hit_acme_priv
    );
    println!("tenant EVIL: {}", id_evil.hit());

    // Shims. EVIL *does* know the victim's HIT and locator (HITs are
    // public!) — the firewall is what stops it.
    let mut shim_acme_pub = HipShim::new(id_acme_pub, HipConfig::default());
    shim_acme_pub.add_peer(
        hit_acme_priv,
        PeerInfo {
            locators: vec![acme_priv.addr],
            via_rvs: None,
        },
    );
    shim_acme_pub.firewall = registry.isolation_firewall(acme);

    let mut shim_acme_priv = HipShim::new(id_acme_priv, HipConfig::default());
    shim_acme_priv.firewall = registry.isolation_firewall(acme);

    let mut shim_evil = HipShim::new(id_evil, HipConfig::default());
    shim_evil.add_peer(
        hit_acme_priv,
        PeerInfo {
            locators: vec![acme_priv.addr],
            via_rvs: None,
        },
    );
    shim_evil.firewall = registry.isolation_firewall(evil);

    topo.host_mut(acme_pub).set_shim(Box::new(shim_acme_pub));
    topo.host_mut(acme_priv).set_shim(Box::new(shim_acme_priv));
    topo.host_mut(evil_pub).set_shim(Box::new(shim_evil));

    topo.host_mut(acme_priv).add_app(Box::new(EchoServer));
    let acme_probe = topo.host_mut(acme_pub).add_app(Box::new(Probe {
        target: hit_acme_priv.to_ip(),
        label: "ACME frontend -> ACME private DB (cross-cloud)",
        replied: false,
    }));
    let evil_probe = topo.host_mut(evil_pub).add_app(Box::new(Probe {
        target: hit_acme_priv.to_ip(),
        label: "EVIL VM -> ACME private DB",
        replied: false,
    }));

    println!("\nrunning 20 simulated seconds...\n");
    topo.run_for(SimDuration::from_secs(20));

    for (vm, idx) in [(acme_pub, acme_probe), (evil_pub, evil_probe)] {
        let probe = topo.host(vm).app::<Probe>(idx).expect("probe");
        println!(
            "{}: {}",
            probe.label,
            if probe.replied {
                "SUCCEEDED (over ESP, across the WAN)"
            } else {
                "BLOCKED"
            }
        );
    }
    let victim = topo.host(acme_priv).shim::<HipShim>().expect("shim");
    println!(
        "\nACME private DB firewall: {} exchanges denied, {} completed",
        victim.firewall.denied, victim.stats.bex_completed
    );
    assert!(
        topo.host(acme_pub)
            .app::<Probe>(acme_probe)
            .expect("p")
            .replied
    );
    assert!(
        !topo
            .host(evil_pub)
            .app::<Probe>(evil_probe)
            .expect("p")
            .replied
    );
    println!("tenants share the cloud; the HIT firewall keeps them apart.");
}
