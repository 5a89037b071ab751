//! VM live migration with HIP-announced relocation.
//!
//! §IV-C: "Solutions for VM live migration may require that the source
//! and destination hosts reside on the same layer 2 network to avoid
//! changing the IP address of the VM... HIP is agnostic regarding the
//! address family and supports even NATted topologies" — i.e. with HIP
//! the VM's *identity* (HIT) survives a cross-subnet move, the UPDATE
//! exchange re-verifies the new locator, and transport connections keep
//! running.
//!
//! This module glues [`crate::topology::CloudTopology::migrate_vm`] (the
//! infrastructure side: re-homing the access link and address) to the
//! HIP side (announcing the new locator to all peers).

use crate::topology::{CloudId, CloudTopology, VmHandle};
use hip_core::HipShim;
use netsim::host::Host;
use netsim::SimDuration;

/// Outcome of a migration.
#[derive(Clone, Copy, Debug)]
pub struct MigrationReport {
    /// The VM's handle after the move (same node, new address/link).
    pub vm: VmHandle,
    /// The address before the move.
    pub old_addr: std::net::IpAddr,
    /// Simulated downtime injected (copy phase; connections stall but
    /// survive thanks to TCP retransmission + HIP UPDATE).
    pub downtime: SimDuration,
}

/// Migrates `vm` to `target` cloud and announces the move over HIP.
///
/// `downtime` models the stop-and-copy phase: the simulation simply runs
/// forward with the VM already detached from its old subnet, so in-
/// flight packets toward the old address are lost — which is precisely
/// what the HIP UPDATE + TCP retransmission machinery must absorb.
pub fn migrate_with_hip(
    topo: &mut CloudTopology,
    vm: VmHandle,
    target: CloudId,
    downtime: SimDuration,
) -> MigrationReport {
    let old_addr = vm.addr;
    let moved = topo.migrate_vm(vm, target);
    // Let the downtime elapse before the VM resumes and announces.
    topo.run_for(downtime);
    let new_addr = moved.addr;
    topo.sim.with_node_ctx(moved.node, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().expect("host");
        host.shim_command(ctx, |shim, api| {
            if let Some(hip) = shim.as_any_mut().downcast_mut::<HipShim>() {
                hip.relocate(api, new_addr);
            }
        });
    });
    MigrationReport {
        vm: moved,
        old_addr,
        downtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::Flavor;
    use crate::topology::CloudKind;
    use hip_core::identity::HostIdentity;
    use hip_core::{HipConfig, PeerInfo};
    use netsim::host::{App, AppEvent, HostApi};
    use netsim::tcp::TcpEvent;
    use netsim::SimTime;
    use rand::SeedableRng;
    use std::any::Any;
    use std::net::IpAddr;

    /// Client that counts echoed pings over a persistent connection.
    struct Chatter {
        target: IpAddr,
        sock: Option<netsim::SockId>,
        echoes: usize,
    }
    impl App for Chatter {
        fn start(&mut self, api: &mut HostApi) {
            self.sock = api.tcp_connect(self.target, 7);
            api.set_timer(netsim::SimDuration::from_millis(500), 1);
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            match ev {
                AppEvent::Tcp(TcpEvent::Data(..)) => self.echoes += 1,
                AppEvent::Timer { token: 1 } => {
                    if let Some(s) = self.sock {
                        api.tcp_send(s, b"tick");
                    }
                    api.set_timer(netsim::SimDuration::from_millis(500), 1);
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

    #[test]
    fn tcp_over_hip_survives_cross_cloud_migration() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let id_mover = HostIdentity::generate_rsa(512, &mut rng);
        let id_peer = HostIdentity::generate_rsa(512, &mut rng);
        let (hit_mover, hit_peer) = (id_mover.hit(), id_peer.hit());

        let mut topo = CloudTopology::new(61);
        let public = topo.add_cloud("ec2", CloudKind::Public);
        let private = topo.add_cloud("onprem", CloudKind::Private);
        let mover = topo.launch_vm(public, "mover", Flavor::Micro);
        let peer = topo.launch_vm(private, "peer", Flavor::Micro);

        let mut shim_m = hip_core::HipShim::new(id_mover, HipConfig::default());
        shim_m.add_peer(
            hit_peer,
            PeerInfo {
                locators: vec![peer.addr],
                via_rvs: None,
            },
        );
        let mut shim_p = hip_core::HipShim::new(id_peer, HipConfig::default());
        shim_p.add_peer(
            hit_mover,
            PeerInfo {
                locators: vec![mover.addr],
                via_rvs: None,
            },
        );

        {
            let h = topo.host_mut(mover);
            h.set_shim(Box::new(shim_m));
            h.add_app(Box::new(Chatter {
                target: hit_peer.to_ip(),
                sock: None,
                echoes: 0,
            }));
        }
        {
            let h = topo.host_mut(peer);
            h.set_shim(Box::new(shim_p));
            h.add_app(Box::new(Echo));
        }

        // Run: connection established, some echoes flow.
        topo.sim.run_until(SimTime(3_000_000_000));
        let before = topo.host(mover).app::<Chatter>(0).unwrap().echoes;
        assert!(before >= 2, "echoes before migration: {before}");

        // Migrate across clouds with 200 ms downtime.
        let report = migrate_with_hip(&mut topo, mover, private, SimDuration::from_millis(200));
        assert_ne!(report.vm.addr, report.old_addr);

        // Run on: the same TCP connection must keep echoing.
        topo.sim.run_until(SimTime(10_000_000_000));
        let after = topo.host(report.vm).app::<Chatter>(0).unwrap().echoes;
        assert!(
            after > before + 5,
            "echoes must continue after migration (before={before}, after={after})"
        );
        // Peer switched to the new locator.
        let shim_p = topo.host(peer).shim::<hip_core::HipShim>().unwrap();
        assert_eq!(shim_p.peer_locator(&hit_mover), Some(report.vm.addr));
    }
}
