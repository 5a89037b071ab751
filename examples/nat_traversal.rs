//! The "power user" scenario (§IV-D): a cloud administrator works from
//! behind a consumer NAT. Raw HIP (IP protocol 139) and ESP (50) have no
//! ports for the NAT to translate, so they are simply dropped — which is
//! exactly why the paper runs HIP over **Teredo** (IPv6-in-UDP) for
//! NATted users. This example shows both halves:
//!
//! 1. native HIP through the NAT fails (the NAT drops protocol 139);
//! 2. HIP over Teredo succeeds: qualification through the NAT, the BEX
//!    and ESP inside UDP, and an SSH-like session to the VM.
//!
//! ```bash
//! cargo run --release --example nat_traversal
//! ```

use hipcloud::cloud::{CloudKind, CloudTopology, Flavor};
use hipcloud::hip::identity::HostIdentity;
use hipcloud::hip::{HipConfig, HipShim, PeerInfo};
use hipcloud::net::addr::teredo_address;
use hipcloud::net::host::{App, AppEvent, Host, HostApi};
use hipcloud::net::nat::{Nat, NatKind};
use hipcloud::net::teredo::{TeredoClient, TeredoRelay, TeredoServer, TEREDO_PORT};
use hipcloud::net::{Endpoint, LinkParams, SimDuration, TcpEvent};
use rand::SeedableRng;
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr};

struct SshServer;
impl App for SshServer {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(22);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            let cmd = api.tcp_recv(s);
            if cmd == b"uptime\n" {
                api.tcp_send(s, b"up 42 days, load average: 0.02\n");
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Admin {
    vm_hit: IpAddr,
    start_delay: SimDuration,
    output: Vec<u8>,
}
impl App for Admin {
    fn start(&mut self, api: &mut HostApi) {
        api.set_timer(self.start_delay, 1);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: 1 } => {
                api.tcp_connect(self.vm_hit, 22);
            }
            AppEvent::Tcp(TcpEvent::Connected(s)) => api.tcp_send(s, b"uptime\n"),
            AppEvent::Tcp(TcpEvent::Data(s)) => self.output.extend(api.tcp_recv(s)),
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

const NAT_PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const LAPTOP_PRIVATE: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 50);
const TEREDO_SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 201);
const TEREDO_RELAY: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 202);

/// Builds the world; `use_teredo` selects the admin's strategy.
fn run(use_teredo: bool) -> (u64, Vec<u8>, u64) {
    let mut topo = CloudTopology::new(17);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let vm = topo.launch_vm(cloud, "prod-vm", Flavor::Micro);

    // Teredo infrastructure on the public internet.
    let (srv, srv_link) = topo.attach_infrastructure(
        Box::new(TeredoServer::new(TEREDO_SERVER, hipcloud::net::LinkId(0))),
        IpAddr::V4(TEREDO_SERVER),
        0,
    );
    topo.sim
        .world
        .node_mut::<TeredoServer>(srv)
        .expect("srv")
        .set_link(srv_link);
    let (rly, rly_link) = topo.attach_infrastructure(
        Box::new(TeredoRelay::new(TEREDO_RELAY, hipcloud::net::LinkId(0))),
        IpAddr::V4(TEREDO_RELAY),
        0,
    );
    topo.sim
        .world
        .node_mut::<TeredoRelay>(rly)
        .expect("rly")
        .set_v4_link(rly_link);

    // The admin's laptop sits behind a full-cone NAT whose outside face
    // attaches to the internet core.
    let nat = Nat::new(NAT_PUBLIC, NatKind::Cone);
    let (nat_node, nat_out_link) =
        topo.attach_infrastructure(Box::new(nat), IpAddr::V4(NAT_PUBLIC), 1);
    let laptop_host = Host::new("laptop");
    let laptop = topo.sim.world.add_node(Box::new(laptop_host));
    let inside_link = topo.sim.world.connect(
        Endpoint {
            node: laptop,
            iface: 0,
        },
        Endpoint {
            node: nat_node,
            iface: 0,
        },
        LinkParams::access(),
    );
    topo.sim
        .world
        .node_mut::<Nat>(nat_node)
        .expect("nat")
        .set_links(inside_link, nat_out_link);
    topo.sim
        .world
        .node_mut::<Host>(laptop)
        .expect("laptop")
        .core
        .add_iface(inside_link, vec![IpAddr::V4(LAPTOP_PRIVATE)]);

    // Identities.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let id_admin = HostIdentity::generate_rsa(512, &mut rng);
    let id_vm = HostIdentity::generate_rsa(512, &mut rng);
    let (hit_admin, hit_vm) = (id_admin.hit(), id_vm.hit());

    // The admin's reachable locator depends on the strategy. With
    // Teredo, the address embeds the NAT's public mapping (cone NAT,
    // first mapping gets port 40000).
    let admin_locator: IpAddr = if use_teredo {
        IpAddr::V6(teredo_address(TEREDO_SERVER, NAT_PUBLIC, 40000))
    } else {
        IpAddr::V4(NAT_PUBLIC)
    };

    // The VM's locator as seen by the admin: with Teredo, both ends use
    // Teredo addresses so all HIP/ESP traffic rides inside UDP — the
    // only thing the NAT can translate.
    let vm_locator: IpAddr = if use_teredo {
        let IpAddr::V4(vm_v4) = vm.addr else {
            unreachable!()
        };
        IpAddr::V6(teredo_address(TEREDO_SERVER, vm_v4, TEREDO_PORT))
    } else {
        vm.addr
    };
    let mut shim_admin = HipShim::new(id_admin, HipConfig::default());
    shim_admin.add_peer(
        hit_vm,
        PeerInfo {
            locators: vec![vm_locator],
            via_rvs: None,
        },
    );
    let mut shim_vm = HipShim::new(id_vm, HipConfig::default());
    shim_vm.add_peer(
        hit_admin,
        PeerInfo {
            locators: vec![admin_locator],
            via_rvs: None,
        },
    );

    {
        let host = topo.sim.world.node_mut::<Host>(laptop).expect("laptop");
        if use_teredo {
            host.core.teredo = Some(TeredoClient::new(
                LAPTOP_PRIVATE,
                TEREDO_SERVER,
                TEREDO_RELAY,
            ));
        }
        host.set_shim(Box::new(shim_admin));
        host.add_app(Box::new(Admin {
            vm_hit: hit_vm.to_ip(),
            start_delay: SimDuration::from_secs(2),
            output: Vec::new(),
        }));
    }
    // With Teredo the VM must also be Teredo-capable so its ESP/HIP
    // replies ride UDP (the admin's locator is an IPv6 Teredo address).
    if use_teredo {
        let IpAddr::V4(vm_v4) = vm.addr else {
            unreachable!()
        };
        topo.host_mut(vm).core.teredo = Some(TeredoClient::new(vm_v4, TEREDO_SERVER, TEREDO_RELAY));
    }
    topo.host_mut(vm).set_shim(Box::new(shim_vm));
    topo.host_mut(vm).add_app(Box::new(SshServer));

    topo.run_for(SimDuration::from_secs(30));

    let output = {
        let host = topo.sim.world.node::<Host>(laptop).expect("laptop");
        host.app::<Admin>(0).expect("admin").output.clone()
    };
    let bex = topo
        .host(vm)
        .shim::<HipShim>()
        .expect("shim")
        .stats
        .bex_completed;
    let nat_drops = topo.sim.world.node::<Nat>(nat_node).expect("nat").dropped;
    (bex, output, nat_drops)
}

fn main() {
    println!("attempt 1: native HIP straight through the home NAT");
    let (bex, output, drops) = run(false);
    println!("  base exchanges completed: {bex}");
    println!("  NAT drops (protocol 139/50 have no ports): {drops}");
    assert_eq!(bex, 0, "raw HIP cannot cross a NAT without helpers");
    assert!(output.is_empty());
    println!("  -> FAILED, as expected\n");

    println!("attempt 2: HIP over Teredo (the paper's approach)");
    let (bex, output, _) = run(true);
    println!("  base exchanges completed: {bex}");
    println!(
        "  ssh-like session output: {:?}",
        String::from_utf8_lossy(&output)
    );
    assert!(bex >= 1);
    assert!(output.starts_with(b"up 42 days"));
    println!("  -> SUCCESS: the admin reached the VM through NAT + Teredo, fully encrypted.");
}
