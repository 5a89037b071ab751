//! Quickstart: the smallest end-to-end HIP deployment.
//!
//! Two VMs in a simulated EC2 region get cryptographic host identities,
//! run the HIP base exchange, and carry a TCP conversation through the
//! resulting ESP-BEET tunnel — the application addresses its peer by HIT
//! and never learns any of this is happening.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hipcloud::cloud::{CloudKind, CloudTopology, Flavor};
use hipcloud::hip::identity::HostIdentity;
use hipcloud::hip::{HipConfig, HipShim, PeerInfo};
use hipcloud::net::host::{App, AppEvent, HostApi};
use hipcloud::net::{SimDuration, SimTime, TcpEvent};
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

/// A tiny request/response app pair.
struct Server;
impl App for Server {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7777);
        println!("[server] listening on port 7777 (host {})", api.host_name());
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(sock)) = ev {
            let msg = api.tcp_recv(sock);
            println!("[server] got {:?}", String::from_utf8_lossy(&msg));
            api.tcp_send(sock, b"hello from the other side of the tunnel");
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Client {
    server_hit: IpAddr,
}
impl App for Client {
    fn start(&mut self, api: &mut HostApi) {
        println!("[client] connecting to HIT {} ...", self.server_hit);
        api.tcp_connect(self.server_hit, 7777)
            .expect("HIT is routable via the shim");
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(sock)) => {
                println!(
                    "[client] connected (BEX done, SAs installed) at t={}s",
                    api.now()
                );
                api.tcp_send(sock, b"ping through ESP");
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let msg = api.tcp_recv(sock);
                println!(
                    "[client] got {:?} at t={}s",
                    String::from_utf8_lossy(&msg),
                    api.now()
                );
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
    // 1. A public cloud with two micro VMs.
    let mut topo = CloudTopology::new(7);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let vm_a = topo.launch_vm(cloud, "client-vm", Flavor::Micro);
    let vm_b = topo.launch_vm(cloud, "server-vm", Flavor::Micro);

    // 2. Host identities: the public keys ARE the names.
    let mut key_rng = rand::rngs::StdRng::seed_from_u64(42);
    let id_a = HostIdentity::generate_rsa(1024, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(1024, &mut key_rng);
    println!("client HIT: {}", id_a.hit());
    println!("server HIT: {}", id_b.hit());

    // 3. HIP shims, statically configured with each other's locator
    //    (DNS and rendezvous are the dynamic alternatives).
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![vm_b.addr],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![vm_a.addr],
            via_rvs: None,
        },
    );
    topo.host_mut(vm_a).set_shim(Box::new(shim_a));
    topo.host_mut(vm_b).set_shim(Box::new(shim_b));

    // 4. Apps talk TCP to a HIT as if it were any IPv6 address.
    topo.host_mut(vm_a).add_app(Box::new(Client {
        server_hit: hit_b.to_ip(),
    }));
    topo.host_mut(vm_b).add_app(Box::new(Server));

    // 5. Run.
    topo.run_for(SimDuration::from_secs(3));

    // 6. Show what the shim did underneath.
    let shim = topo.host(vm_a).shim::<HipShim>().expect("shim");
    let s = shim.stats;
    println!("\nHIP layer on the client VM:");
    println!("  base exchanges completed: {}", s.bex_completed);
    println!("  ESP packets out/in:       {}/{}", s.esp_out, s.esp_in);
    println!(
        "  ESP payload bytes out/in: {}/{}",
        s.esp_bytes_out, s.esp_bytes_in
    );
    println!(
        "  auth/replay drops:        {}/{}",
        s.drops_auth, s.drops_replay
    );
    assert!(shim.is_established(&hit_b));
    let _ = SimTime::ZERO;
    println!("\nEverything the application sent crossed the wire as IPsec ESP.");
}
