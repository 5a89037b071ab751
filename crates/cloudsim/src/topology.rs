//! Cloud topology construction.
//!
//! Builds the paper's deployment shapes on top of `netsim`:
//!
//! ```text
//!              internet router ── external hosts / NATted power users
//!              /            \
//!   public cloud (EC2)    private cloud (OpenNebula)
//!     router                 router
//!    /  |  \                /  |  \
//!  VM  VM  VM             VM  VM  VM
//! ```
//!
//! Each VM is a full [`netsim::Host`] with a flavor-derived CPU model and
//! its own access link to the cloud router. Clouds attach to the
//! internet router over WAN links; a *hybrid* deployment is simply two
//! clouds whose VMs talk across that WAN — exactly the case HIP secures
//! in §IV-A.

use crate::flavor::Flavor;
use hip_core::HipShim;
use netsim::host::Host;
use netsim::link::{Endpoint, LinkId, LinkParams, NodeId};
use netsim::packet::v4;
use netsim::router::Router;
use netsim::{Sim, SimDuration};
use std::net::IpAddr;

/// Identifies a cloud region within the topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CloudId(pub usize);

/// Deployment model of a region (affects defaults only; the semantics —
/// who can reach whom — are identical, as in real IP networks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CloudKind {
    /// Amazon-EC2-like public IaaS.
    Public,
    /// OpenNebula-like private IaaS.
    Private,
}

/// A launched VM (or external host).
#[derive(Clone, Copy, Debug)]
pub struct VmHandle {
    /// The netsim node.
    pub node: NodeId,
    /// Its (locator) address.
    pub addr: IpAddr,
    /// The access link connecting it to its router.
    pub link: LinkId,
    /// The region it currently runs in (None for external hosts).
    pub cloud: Option<CloudId>,
}

struct CloudRegion {
    #[allow(dead_code)]
    name: String,
    #[allow(dead_code)]
    kind: CloudKind,
    router: NodeId,
    /// 10.<subnet>.0.0/16
    subnet: u8,
    next_host: u16,
    link_params: LinkParams,
}

/// The full multi-cloud topology under construction / in execution.
pub struct CloudTopology {
    /// The simulator (public: experiments run it directly).
    pub sim: Sim,
    internet: NodeId,
    clouds: Vec<CloudRegion>,
    next_external: u8,
    /// WAN parameters between clouds and the internet core.
    pub wan_params: LinkParams,
}

impl CloudTopology {
    /// Creates a topology with an internet core router.
    pub fn new(seed: u64) -> Self {
        let mut sim = Sim::new(seed);
        let internet = sim.world.add_node(Box::new(Router::new()));
        CloudTopology {
            sim,
            internet,
            clouds: Vec::new(),
            next_external: 10,
            wan_params: LinkParams::wan(),
        }
    }

    /// Adds a cloud region, connected to the internet core.
    pub fn add_cloud(&mut self, name: &str, kind: CloudKind) -> CloudId {
        let idx = self.clouds.len();
        let subnet = (idx + 1) as u8;
        let router = self.sim.world.add_node(Box::new(Router::new()));
        // WAN link: cloud router iface 0 ↔ internet.
        let internet_iface;
        let cloud_wan_iface;
        let wan = {
            let a = Endpoint {
                node: router,
                iface: usize::MAX,
            };
            let b = Endpoint {
                node: self.internet,
                iface: usize::MAX,
            };
            self.sim.world.connect(a, b, self.wan_params)
        };
        {
            let r = self.sim.world.node_mut::<Router>(router).expect("router");
            cloud_wan_iface = r.add_iface(wan);
            // Default route toward the internet.
            r.add_route(v4(0, 0, 0, 0), 0, cloud_wan_iface);
        }
        {
            let r = self
                .sim
                .world
                .node_mut::<Router>(self.internet)
                .expect("internet");
            internet_iface = r.add_iface(wan);
            r.add_route(v4(10, subnet, 0, 0), 16, internet_iface);
        }
        // The WAN link endpoints were created with provisional iface
        // indices; patch both sides now that they are allocated.
        self.patch_link_endpoint(wan, self.internet, internet_iface);
        self.patch_link_endpoint(wan, router, cloud_wan_iface);
        self.clouds.push(CloudRegion {
            name: name.to_owned(),
            kind,
            router,
            subnet,
            next_host: 2,
            link_params: LinkParams::datacenter(),
        });
        self.sim
            .metrics
            .set_gauge_name("cloud.regions", self.clouds.len() as i64);
        CloudId(idx)
    }

    /// Launches a VM in `cloud` with the given flavor. The host is
    /// created empty; install shims/apps through
    /// [`CloudTopology::host_mut`] before the simulation starts.
    pub fn launch_vm(&mut self, cloud: CloudId, name: &str, flavor: Flavor) -> VmHandle {
        let region = &mut self.clouds[cloud.0];
        let hostno = region.next_host;
        region.next_host += 1;
        let addr = v4(
            10,
            region.subnet,
            (hostno >> 8) as u8,
            (hostno & 0xff) as u8,
        );
        let mut host = Host::new(name);
        host.core.cpu = flavor.cpu_model();
        let node = self.sim.world.add_node(Box::new(host));
        let (router, params) = (region.router, region.link_params);
        let link = self.sim.world.connect(
            Endpoint { node, iface: 0 },
            Endpoint {
                node: router,
                iface: usize::MAX,
            }, // fixed below
            params,
        );
        // Router iface registration (iface index = its table position).
        let iface = {
            let r = self.sim.world.node_mut::<Router>(router).expect("router");
            let iface = r.add_iface(link);
            r.add_route(addr, 32, iface);
            iface
        };
        // Patch the link endpoint with the real iface index.
        self.patch_link_endpoint(link, router, iface);
        self.sim
            .world
            .node_mut::<Host>(node)
            .expect("host")
            .core
            .add_iface(link, vec![addr]);
        let total: i64 = self.clouds.iter().map(|c| (c.next_host - 2) as i64).sum();
        self.sim.metrics.set_gauge_name("cloud.vms", total);
        VmHandle {
            node,
            addr,
            link,
            cloud: Some(cloud),
        }
    }

    /// Adds a host on the public internet (client, proxy, Teredo
    /// infrastructure, power-user workstation).
    pub fn add_external_host(&mut self, name: &str, flavor: Flavor) -> VmHandle {
        let n = self.next_external;
        self.next_external += 1;
        let addr = v4(198, 51, 100, n);
        let mut host = Host::new(name);
        host.core.cpu = flavor.cpu_model();
        let node = self.sim.world.add_node(Box::new(host));
        let link = self.sim.world.connect(
            Endpoint { node, iface: 0 },
            Endpoint {
                node: self.internet,
                iface: usize::MAX,
            },
            LinkParams::access(),
        );
        let iface = {
            let r = self
                .sim
                .world
                .node_mut::<Router>(self.internet)
                .expect("internet");
            let iface = r.add_iface(link);
            r.add_route(addr, 32, iface);
            iface
        };
        self.patch_link_endpoint(link, self.internet, iface);
        self.sim
            .world
            .node_mut::<Host>(node)
            .expect("host")
            .core
            .add_iface(link, vec![addr]);
        VmHandle {
            node,
            addr,
            link,
            cloud: None,
        }
    }

    /// Attaches an arbitrary pre-built node (NAT, Teredo relay, RVS...)
    /// to the internet core; returns `(node, link, internet_iface)` and
    /// installs a /32 route for `addr`.
    pub fn attach_infrastructure(
        &mut self,
        node: Box<dyn netsim::Node>,
        addr: IpAddr,
        iface_on_node: usize,
    ) -> (NodeId, LinkId) {
        let node = self.sim.world.add_node(node);
        let link = self.sim.world.connect(
            Endpoint {
                node,
                iface: iface_on_node,
            },
            Endpoint {
                node: self.internet,
                iface: usize::MAX,
            },
            LinkParams::access(),
        );
        let iface = {
            let r = self
                .sim
                .world
                .node_mut::<Router>(self.internet)
                .expect("internet");
            let iface = r.add_iface(link);
            r.add_route(addr, 32, iface);
            iface
        };
        self.patch_link_endpoint(link, self.internet, iface);
        (node, link)
    }

    fn patch_link_endpoint(&mut self, link: LinkId, node: NodeId, iface: usize) {
        // Links are created before the router interface index is known;
        // rewrite the endpoint once allocated.
        let links = self.sim.world.links_mut();
        let l = &mut links[link.0];
        if l.a.node == node {
            l.a.iface = iface;
        } else {
            l.b.iface = iface;
        }
    }

    /// Mutable access to a VM's host.
    pub fn host_mut(&mut self, vm: VmHandle) -> &mut Host {
        self.sim.world.node_mut::<Host>(vm.node).expect("host")
    }

    /// Immutable access to a VM's host.
    pub fn host(&self, vm: VmHandle) -> &Host {
        self.sim.world.node::<Host>(vm.node).expect("host")
    }

    /// Migrates a VM to another cloud region: detaches its access link,
    /// attaches a new one under the target router, assigns an address in
    /// the target subnet, and returns the new handle. The caller is
    /// responsible for announcing the move (HIP UPDATE via
    /// `Host::shim_command`) — see `cloudsim::migration`.
    pub fn migrate_vm(&mut self, vm: VmHandle, to: CloudId) -> VmHandle {
        let region = &mut self.clouds[to.0];
        let hostno = region.next_host;
        region.next_host += 1;
        let new_addr = v4(
            10,
            region.subnet,
            (hostno >> 8) as u8,
            (hostno & 0xff) as u8,
        );
        let (router, params) = (region.router, region.link_params);
        let link = self.sim.world.connect(
            Endpoint {
                node: vm.node,
                iface: 0,
            },
            Endpoint {
                node: router,
                iface: usize::MAX,
            },
            params,
        );
        let iface = {
            let r = self.sim.world.node_mut::<Router>(router).expect("router");
            let iface = r.add_iface(link);
            r.add_route(new_addr, 32, iface);
            iface
        };
        self.patch_link_endpoint(link, router, iface);
        {
            let host = self.sim.world.node_mut::<Host>(vm.node).expect("host");
            host.core.rebind_iface(0, link);
            host.core.replace_iface_addrs(0, vec![new_addr]);
        }
        self.sim.metrics.add_name("cloud.migrations", 1);
        VmHandle {
            node: vm.node,
            addr: new_addr,
            link,
            cloud: Some(to),
        }
    }

    /// The internet core router node (for wiring NATs etc. manually).
    pub fn internet(&self) -> NodeId {
        self.internet
    }

    /// Intra-cloud link parameters for a region (builder-style override
    /// must happen before VMs are launched).
    pub fn set_cloud_link_params(&mut self, cloud: CloudId, params: LinkParams) {
        self.clouds[cloud.0].link_params = params;
    }

    /// Runs the simulation for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
    }

    /// Every host in the topology: VMs, external hosts and any other
    /// [`Host`] node added to the world.
    fn hosts(&self) -> impl Iterator<Item = &Host> {
        let world = &self.sim.world;
        (0..world.node_count()).filter_map(|i| world.node::<Host>(NodeId(i)))
    }

    /// The HIP shims installed on the topology's hosts.
    pub fn hip_shims(&self) -> impl Iterator<Item = &HipShim> {
        self.hosts().filter_map(Host::shim::<HipShim>)
    }

    /// Checks the engine's invariants ([`netsim::Sim::check_invariants`]),
    /// then every host's TCP layer and, where one is installed, its HIP
    /// shim. The error names the host whose check failed.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.sim
            .check_invariants()
            .map_err(|e| format!("engine: {e}"))?;
        for host in self.hosts() {
            let name = &host.core.name;
            host.core
                .tcp
                .check_invariants()
                .map_err(|e| format!("TCP on {name}: {e}"))?;
            if let Some(shim) = host.shim::<HipShim>() {
                shim.check_invariants()
                    .map_err(|e| format!("HIP shim on {name}: {e}"))?;
            }
        }
        Ok(())
    }

    // ----- fault injection (thin wrappers over `netsim::FaultAction`) -----

    /// Schedules a VM (or external host) crash `after` from now: its
    /// network stack resets and all traffic/timers addressed to it are
    /// discarded until [`CloudTopology::restart_vm`].
    pub fn crash_vm(&mut self, vm: VmHandle, after: SimDuration) {
        self.sim
            .schedule_fault(after, netsim::FaultAction::NodeCrash(vm.node));
    }

    /// Schedules a restart of a crashed VM `after` from now; its shim
    /// and apps boot afresh (listeners re-open, HIP associations re-run
    /// the base exchange on demand).
    pub fn restart_vm(&mut self, vm: VmHandle, after: SimDuration) {
        self.sim
            .schedule_fault(after, netsim::FaultAction::NodeRestart(vm.node));
    }

    /// Schedules a loss burst on a VM's access link: for `duration`
    /// starting `after` from now, the link drops packets with
    /// probability `loss`.
    pub fn loss_burst(
        &mut self,
        vm: VmHandle,
        after: SimDuration,
        loss: f64,
        duration: SimDuration,
    ) {
        self.sim.schedule_fault(
            after,
            netsim::FaultAction::BurstStart {
                link: vm.link,
                loss,
            },
        );
        self.sim.schedule_fault(
            after + duration,
            netsim::FaultAction::BurstEnd { link: vm.link },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::host::{App, AppEvent, HostApi};
    use netsim::tcp::TcpEvent;
    use netsim::SimTime;
    use std::any::Any;

    struct Echo;
    impl App for Echo {
        fn start(&mut self, api: &mut HostApi) {
            api.tcp_listen(80);
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

    struct Client {
        target: IpAddr,
        reply: Vec<u8>,
    }
    impl App for Client {
        fn start(&mut self, api: &mut HostApi) {
            api.tcp_connect(self.target, 80);
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            match ev {
                AppEvent::Tcp(TcpEvent::Connected(s)) => api.tcp_send(s, b"cross-cloud"),
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

    #[test]
    fn vms_in_same_cloud_reach_each_other() {
        let mut topo = CloudTopology::new(1);
        let cloud = topo.add_cloud("ec2", CloudKind::Public);
        let a = topo.launch_vm(cloud, "a", Flavor::Micro);
        let b = topo.launch_vm(cloud, "b", Flavor::Micro);
        topo.host_mut(a).add_app(Box::new(Client {
            target: b.addr,
            reply: vec![],
        }));
        topo.host_mut(b).add_app(Box::new(Echo));
        topo.sim.run_until(SimTime(2_000_000_000));
        assert_eq!(topo.host(a).app::<Client>(0).unwrap().reply, b"cross-cloud");
    }

    #[test]
    fn hybrid_cloud_vms_reach_across_wan() {
        let mut topo = CloudTopology::new(2);
        let public = topo.add_cloud("ec2", CloudKind::Public);
        let private = topo.add_cloud("opennebula", CloudKind::Private);
        let a = topo.launch_vm(public, "a", Flavor::Micro);
        let b = topo.launch_vm(private, "b", Flavor::Large);
        assert_ne!(a.addr, b.addr);
        topo.host_mut(a).add_app(Box::new(Client {
            target: b.addr,
            reply: vec![],
        }));
        topo.host_mut(b).add_app(Box::new(Echo));
        topo.sim.run_until(SimTime(5_000_000_000));
        assert_eq!(topo.host(a).app::<Client>(0).unwrap().reply, b"cross-cloud");
    }

    #[test]
    fn external_host_reaches_cloud_vm() {
        let mut topo = CloudTopology::new(3);
        let cloud = topo.add_cloud("ec2", CloudKind::Public);
        let vm = topo.launch_vm(cloud, "web", Flavor::Micro);
        let ext = topo.add_external_host("laptop", Flavor::Dedicated);
        topo.host_mut(ext).add_app(Box::new(Client {
            target: vm.addr,
            reply: vec![],
        }));
        topo.host_mut(vm).add_app(Box::new(Echo));
        topo.sim.run_until(SimTime(5_000_000_000));
        assert_eq!(
            topo.host(ext).app::<Client>(0).unwrap().reply,
            b"cross-cloud"
        );
    }

    #[test]
    fn migration_changes_subnet() {
        let mut topo = CloudTopology::new(4);
        let public = topo.add_cloud("ec2", CloudKind::Public);
        let private = topo.add_cloud("priv", CloudKind::Private);
        let vm = topo.launch_vm(public, "mover", Flavor::Micro);
        let old_addr = vm.addr;
        let moved = topo.migrate_vm(vm, private);
        assert_ne!(moved.addr, old_addr);
        assert_eq!(moved.node, vm.node, "same host, new location");
        // Reachability at the new address.
        let ext = topo.add_external_host("probe", Flavor::Dedicated);
        topo.host_mut(ext).add_app(Box::new(Client {
            target: moved.addr,
            reply: vec![],
        }));
        topo.host_mut(moved).add_app(Box::new(Echo));
        topo.sim.run_until(SimTime(5_000_000_000));
        assert_eq!(
            topo.host(ext).app::<Client>(0).unwrap().reply,
            b"cross-cloud"
        );
    }

    #[test]
    fn addresses_are_unique() {
        let mut topo = CloudTopology::new(5);
        let cloud = topo.add_cloud("ec2", CloudKind::Public);
        let mut addrs = netsim::fx::FxHashSet::default();
        for i in 0..20 {
            let vm = topo.launch_vm(cloud, &format!("vm{i}"), Flavor::Micro);
            assert!(addrs.insert(vm.addr), "duplicate {}", vm.addr);
        }
    }
}
