//! VM migration with HIP (§IV-C): a VM moves from the public cloud to a
//! private cloud — new subnet, new address — while a TCP connection
//! over HIP keeps running. The HIP UPDATE exchange (with return-
//! routability verification of the new locator) is what survives the
//! move; plain TCP to the old address would be dead.
//!
//! ```bash
//! cargo run --release --example vm_migration
//! ```

use hipcloud::cloud::{migrate_with_hip, CloudKind, CloudTopology, Flavor};
use hipcloud::hip::identity::HostIdentity;
use hipcloud::hip::{HipConfig, HipShim, PeerInfo};
use hipcloud::net::host::{App, AppEvent, HostApi};
use hipcloud::net::{SimDuration, SockId, TcpEvent};
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

/// Sends a heartbeat every 250 ms over one long-lived connection and
/// counts the echoes.
struct Heartbeat {
    target: IpAddr,
    sock: Option<SockId>,
    echoes: u64,
}
impl App for Heartbeat {
    fn start(&mut self, api: &mut HostApi) {
        self.sock = api.tcp_connect(self.target, 7);
        api.set_timer(SimDuration::from_millis(250), 1);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: 1 } => {
                if let Some(s) = self.sock {
                    api.tcp_send(s, b"beat");
                }
                api.set_timer(SimDuration::from_millis(250), 1);
            }
            AppEvent::Tcp(TcpEvent::Data(..)) => self.echoes += 1,
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

fn main() {
    let mut topo = CloudTopology::new(4);
    let public = topo.add_cloud("ec2", CloudKind::Public);
    let private = topo.add_cloud("on-prem", CloudKind::Private);
    let mover = topo.launch_vm(public, "app-vm", Flavor::Micro);
    let peer = topo.launch_vm(private, "peer-vm", Flavor::Micro);

    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let id_mover = HostIdentity::generate_rsa(512, &mut rng);
    let id_peer = HostIdentity::generate_rsa(512, &mut rng);
    let (hit_mover, hit_peer) = (id_mover.hit(), id_peer.hit());

    let mut shim_m = HipShim::new(id_mover, HipConfig::default());
    shim_m.add_peer(
        hit_peer,
        PeerInfo {
            locators: vec![peer.addr],
            via_rvs: None,
        },
    );
    let mut shim_p = HipShim::new(id_peer, HipConfig::default());
    shim_p.add_peer(
        hit_mover,
        PeerInfo {
            locators: vec![mover.addr],
            via_rvs: None,
        },
    );
    topo.host_mut(mover).set_shim(Box::new(shim_m));
    topo.host_mut(peer).set_shim(Box::new(shim_p));

    let hb = topo.host_mut(mover).add_app(Box::new(Heartbeat {
        target: hit_peer.to_ip(),
        sock: None,
        echoes: 0,
    }));
    topo.host_mut(peer).add_app(Box::new(Echo));

    println!("app-vm starts in the PUBLIC cloud at {}", mover.addr);
    println!("identity (survives everything): {hit_mover}");
    topo.run_for(SimDuration::from_secs(5));
    let before = topo.host(mover).app::<Heartbeat>(hb).expect("app").echoes;
    println!("\nheartbeats echoed before migration: {before}");

    println!("\n>>> migrating app-vm to the PRIVATE cloud (200 ms downtime)...");
    let report = migrate_with_hip(&mut topo, mover, private, SimDuration::from_millis(200));
    println!(
        "    locator changed: {} -> {}",
        report.old_addr, report.vm.addr
    );

    topo.run_for(SimDuration::from_secs(10));
    let after = topo
        .host(report.vm)
        .app::<Heartbeat>(hb)
        .expect("app")
        .echoes;
    println!("\nheartbeats echoed after migration:  {after} (same TCP connection)");

    let peer_shim = topo.host(peer).shim::<HipShim>().expect("shim");
    println!(
        "peer's view of app-vm: locator {:?}, {} UPDATE exchanges verified",
        peer_shim.peer_locator(&hit_mover).expect("assoc"),
        peer_shim.stats.updates_completed
    );
    assert!(after > before, "connection survived the move");
    assert_eq!(peer_shim.peer_locator(&hit_mover), Some(report.vm.addr));
    println!("\nthe transport never noticed: identity stayed, only the locator moved.");
}
