//! Network Address (and Port) Translation.
//!
//! Models the consumer/enterprise NAT between the paper's "power users"
//! (developers/administrators) and the cloud. The NAT rewrites outbound
//! UDP/TCP/ICMP and drops unsolicited inbound traffic. Crucially for the
//! paper's Teredo experiments, raw HIP control packets (IP protocol 139)
//! and ESP (protocol 50) have no port fields to translate, so a NAT
//! without protocol helpers *drops* them — which is exactly why the
//! paper tunnels HIP over Teredo for NATted users.
//!
//! Two behaviours are supported:
//! - **Cone**: one external port per internal (addr, port), any remote
//!   may reply to it (Teredo-compatible).
//! - **Symmetric**: one external port per (internal, remote) pair, and
//!   only that remote may reply (breaks Teredo's relay hairpin).

use crate::drops::DropReason;
use crate::engine::{Ctx, Node, TimerHandle, TimerOwner};
use crate::fx::FxHashMap;
use crate::link::LinkId;
use crate::packet::{Packet, Payload};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr};

/// NAT mapping behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NatKind {
    /// Full-cone: endpoint-independent mapping and filtering.
    Cone,
    /// Symmetric: endpoint-dependent mapping and filtering.
    Symmetric,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct FlowKey {
    proto: u8,
    internal: (IpAddr, u16),
    /// Remote endpoint; `None` under cone behaviour.
    remote: Option<(IpAddr, u16)>,
}

#[derive(Clone, Copy, Debug)]
struct Mapping {
    external_port: u16,
    internal: (IpAddr, u16),
    last_used: SimTime,
}

/// A NAT box with an inside interface (0) and an outside interface (1).
pub struct Nat {
    /// The NAT's public address.
    pub public_addr: Ipv4Addr,
    kind: NatKind,
    inside: LinkId,
    outside: LinkId,
    /// Outbound flow → external port.
    mappings: FxHashMap<FlowKey, u16>,
    /// External port → mapping state.
    by_port: FxHashMap<(u8, u16), Mapping>,
    next_port: u16,
    /// Idle timeout after which mappings are garbage collected.
    pub mapping_timeout: SimDuration,
    /// Unsolicited or untranslatable packets dropped (diagnostics).
    pub dropped: u64,
}

impl Nat {
    /// Creates a NAT. Links must be set with [`Nat::set_links`] once the
    /// topology is wired.
    pub fn new(public_addr: Ipv4Addr, kind: NatKind) -> Self {
        Nat {
            public_addr,
            kind,
            inside: LinkId(usize::MAX),
            outside: LinkId(usize::MAX),
            mappings: FxHashMap::default(),
            by_port: FxHashMap::default(),
            next_port: 40000,
            mapping_timeout: SimDuration::from_secs(120),
            dropped: 0,
        }
    }

    /// Wires the inside (iface 0) and outside (iface 1) links.
    pub fn set_links(&mut self, inside: LinkId, outside: LinkId) {
        self.inside = inside;
        self.outside = outside;
    }

    /// Number of live mappings (diagnostics).
    pub fn mapping_count(&self) -> usize {
        self.by_port.len()
    }

    /// Source port/ident of a packet, if the protocol is translatable.
    fn flow_ports(payload: &Payload) -> Option<(u16, u16)> {
        match payload {
            Payload::Udp(u) => Some((u.src_port, u.dst_port)),
            Payload::Tcp(t) => Some((t.src_port, t.dst_port)),
            Payload::Icmp(i) => Some((i.ident, i.ident)),
            // No ports: raw HIP and ESP cannot be translated.
            Payload::Esp(_) | Payload::HipControl(_) => None,
        }
    }

    fn rewrite_src(pkt: &mut Packet, new_addr: IpAddr, new_port: u16) {
        pkt.src = new_addr;
        match &mut pkt.payload {
            Payload::Udp(u) => u.src_port = new_port,
            Payload::Tcp(t) => t.src_port = new_port,
            Payload::Icmp(i) => i.ident = new_port,
            _ => {}
        }
    }

    fn rewrite_dst(pkt: &mut Packet, new_addr: IpAddr, new_port: u16) {
        pkt.dst = new_addr;
        match &mut pkt.payload {
            Payload::Udp(u) => u.dst_port = new_port,
            Payload::Tcp(t) => t.dst_port = new_port,
            Payload::Icmp(i) => i.ident = new_port,
            _ => {}
        }
    }

    fn alloc_port(&mut self, proto: u8) -> u16 {
        loop {
            let p = self.next_port;
            self.next_port = if self.next_port == u16::MAX {
                40000
            } else {
                self.next_port + 1
            };
            if !self.by_port.contains_key(&(proto, p)) {
                return p;
            }
        }
    }

    /// Translates an outbound packet in place; returns the link to send
    /// it on, or why it is dropped.
    fn outbound(&mut self, pkt: &mut Packet, now: SimTime) -> Result<LinkId, DropReason> {
        let (src_port, dst_port) = Self::flow_ports(&pkt.payload).ok_or(DropReason::NatNoPorts)?;
        let protocol = pkt.protocol();
        let key = FlowKey {
            proto: protocol,
            internal: (pkt.src, src_port),
            remote: match self.kind {
                NatKind::Cone => None,
                NatKind::Symmetric => Some((pkt.dst, dst_port)),
            },
        };
        let external_port = match self.mappings.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.alloc_port(protocol);
                self.mappings.insert(key, p);
                self.by_port.insert(
                    (protocol, p),
                    Mapping {
                        external_port: p,
                        internal: (pkt.src, src_port),
                        last_used: now,
                    },
                );
                p
            }
        };
        if let Some(m) = self.by_port.get_mut(&(protocol, external_port)) {
            m.last_used = now;
        }
        Self::rewrite_src(pkt, IpAddr::V4(self.public_addr), external_port);
        Ok(self.outside)
    }

    /// Translates an inbound packet in place; returns the link to send
    /// it on, or why it is dropped.
    fn inbound(&mut self, pkt: &mut Packet, now: SimTime) -> Result<LinkId, DropReason> {
        let (src_port, dst_port) = Self::flow_ports(&pkt.payload).ok_or(DropReason::NatNoPorts)?;
        let protocol = pkt.protocol();
        let m = self
            .by_port
            .get_mut(&(protocol, dst_port))
            .ok_or(DropReason::NatUnsolicited)?;
        // Symmetric filtering: only the mapped remote may use the port.
        if self.kind == NatKind::Symmetric {
            let allowed = self.mappings.iter().any(|(k, &p)| {
                p == dst_port && k.proto == protocol && k.remote == Some((pkt.src, src_port))
            });
            if !allowed {
                return Err(DropReason::NatSymmetricFilter);
            }
        }
        m.last_used = now;
        let internal = m.internal;
        Self::rewrite_dst(pkt, internal.0, internal.1);
        Ok(self.inside)
    }

    fn gc(&mut self, now: SimTime) {
        let timeout = self.mapping_timeout;
        let expired: Vec<(u8, u16)> = self
            .by_port
            .iter()
            .filter(|(_, m)| now.since(m.last_used) > timeout)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            if let Some(m) = self.by_port.remove(&key) {
                self.mappings.retain(|_, &mut p| p != m.external_port);
            }
        }
    }
}

impl Node for Nat {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(
            SimDuration::from_secs(30),
            TimerHandle {
                owner: TimerOwner::Node,
                token: 1,
            },
        );
    }

    fn handle_packet(&mut self, iface: usize, mut pkt: Packet, ctx: &mut Ctx) {
        let translated = match iface {
            0 => self.outbound(&mut pkt, ctx.now),
            1 => self.inbound(&mut pkt, ctx.now),
            _ => return,
        };
        match translated {
            Ok(link) => ctx.transmit(link, pkt),
            Err(reason) => {
                self.dropped += 1;
                ctx.drop_packet(&pkt, reason);
            }
        }
    }

    fn handle_timer(&mut self, _timer: TimerHandle, ctx: &mut Ctx) {
        self.gc(ctx.now);
        ctx.set_timer(
            SimDuration::from_secs(30),
            TimerHandle {
                owner: TimerOwner::Node,
                token: 1,
            },
        );
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{proto, v4, IcmpKind, IcmpMessage, UdpData, UdpDatagram};
    use bytes::Bytes;

    fn udp_packet(src: IpAddr, sport: u16, dst: IpAddr, dport: u16) -> Packet {
        Packet::new(
            src,
            dst,
            Payload::Udp(UdpDatagram {
                src_port: sport,
                dst_port: dport,
                data: UdpData::Raw(Bytes::from_static(b"x")),
            }),
        )
    }

    /// Runs a closure with a Ctx wired to a throwaway world; returns the
    /// packets the NAT transmitted (captured via a sink node on each side).
    fn harness(
        kind: NatKind,
    ) -> (
        crate::engine::Sim,
        crate::link::NodeId,
        crate::link::NodeId,
        crate::link::NodeId,
    ) {
        use crate::engine::Sim;
        use crate::link::{Endpoint, LinkParams};

        struct Sink {
            got: Vec<Packet>,
        }
        impl Node for Sink {
            fn handle_packet(&mut self, _: usize, pkt: Packet, _: &mut Ctx) {
                self.got.push(pkt);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Sim::new(3);
        let inside = sim.world.add_node(Box::new(Sink { got: vec![] }));
        let nat_node = sim
            .world
            .add_node(Box::new(Nat::new(Ipv4Addr::new(203, 0, 113, 1), kind)));
        let outside = sim.world.add_node(Box::new(Sink { got: vec![] }));
        let l_in = sim.world.connect(
            Endpoint {
                node: inside,
                iface: 0,
            },
            Endpoint {
                node: nat_node,
                iface: 0,
            },
            LinkParams::access(),
        );
        let l_out = sim.world.connect(
            Endpoint {
                node: nat_node,
                iface: 1,
            },
            Endpoint {
                node: outside,
                iface: 0,
            },
            LinkParams::access(),
        );
        sim.world
            .node_mut::<Nat>(nat_node)
            .unwrap()
            .set_links(l_in, l_out);
        (sim, inside, nat_node, outside)
    }

    #[test]
    fn outbound_udp_rewritten_and_reply_translated_back() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _inside, nat_node, _outside) = harness(NatKind::Cone);
        let internal = v4(192, 168, 1, 10);
        let remote = v4(8, 8, 8, 8);
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, remote, 53),
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        // The mapping table records the translation.
        let (ext_src, ext_port) = {
            let nat = sim.world.node::<Nat>(nat_node).unwrap();
            assert_eq!(nat.mapping_count(), 1);
            let ((_, port), m) = nat.by_port.iter().next().unwrap();
            assert_eq!(m.internal, (internal, 5000));
            (IpAddr::V4(nat.public_addr), *port)
        };
        // Reply comes back to the external port and is accepted.
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 1,
                pkt: udp_packet(remote, 53, ext_src, ext_port),
            },
        );
        sim.run_until(SimTime(2_000_000_000));
        let nat = sim.world.node::<Nat>(nat_node).unwrap();
        assert_eq!(nat.dropped, 0);
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _inside, nat_node, _outside) = harness(NatKind::Cone);
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 1,
                pkt: udp_packet(v4(8, 8, 8, 8), 53, v4(203, 0, 113, 1), 40000),
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(sim.world.node::<Nat>(nat_node).unwrap().dropped, 1);
    }

    #[test]
    fn raw_hip_and_esp_dropped() {
        use crate::engine::Event;
        use crate::packet::EspPacket;
        use crate::time::SimTime;
        let (mut sim, _inside, nat_node, _outside) = harness(NatKind::Cone);
        let hip = Packet::new(
            v4(192, 168, 1, 10),
            v4(8, 8, 8, 8),
            Payload::HipControl(Bytes::from_static(b"I1")),
        );
        let esp = Packet::new(
            v4(192, 168, 1, 10),
            v4(8, 8, 8, 8),
            Payload::Esp(EspPacket {
                spi: 1,
                seq: 1,
                ciphertext: Bytes::new(),
                icv: [0; 16],
            }),
        );
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: hip,
            },
        );
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: esp,
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(
            sim.world.node::<Nat>(nat_node).unwrap().dropped,
            2,
            "NAT without HIP/ESP helpers drops protocol 139 and 50 — the paper's motivation for Teredo"
        );
    }

    #[test]
    fn cone_reuses_mapping_across_remotes() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _i, nat_node, _o) = harness(NatKind::Cone);
        let internal = v4(192, 168, 1, 10);
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, v4(8, 8, 8, 8), 53),
            },
        );
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, v4(9, 9, 9, 9), 53),
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(sim.world.node::<Nat>(nat_node).unwrap().mapping_count(), 1);
    }

    #[test]
    fn symmetric_allocates_per_remote() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _i, nat_node, _o) = harness(NatKind::Symmetric);
        let internal = v4(192, 168, 1, 10);
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, v4(8, 8, 8, 8), 53),
            },
        );
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, v4(9, 9, 9, 9), 53),
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(sim.world.node::<Nat>(nat_node).unwrap().mapping_count(), 2);
    }

    #[test]
    fn symmetric_filters_third_party() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _i, nat_node, _o) = harness(NatKind::Symmetric);
        let internal = v4(192, 168, 1, 10);
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: udp_packet(internal, 5000, v4(8, 8, 8, 8), 53),
            },
        );
        sim.run_until(SimTime(500_000_000));
        let port = {
            let nat = sim.world.node::<Nat>(nat_node).unwrap();
            nat.by_port.keys().next().unwrap().1
        };
        // A different remote tries to use the mapping.
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 1,
                pkt: udp_packet(v4(9, 9, 9, 9), 53, v4(203, 0, 113, 1), port),
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(sim.world.node::<Nat>(nat_node).unwrap().dropped, 1);
    }

    #[test]
    fn icmp_ident_translated() {
        use crate::engine::Event;
        use crate::time::SimTime;
        let (mut sim, _i, nat_node, _o) = harness(NatKind::Cone);
        let ping = Packet::new(
            v4(192, 168, 1, 10),
            v4(8, 8, 8, 8),
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 77,
                seq: 1,
                payload_len: 56,
            }),
        );
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive {
                node: nat_node,
                iface: 0,
                pkt: ping,
            },
        );
        sim.run_until(SimTime(1_000_000_000));
        let nat = sim.world.node::<Nat>(nat_node).unwrap();
        assert_eq!(nat.mapping_count(), 1);
        let m = nat.by_port.values().next().unwrap();
        assert_eq!(m.internal, (v4(192, 168, 1, 10), 77));
    }

    #[test]
    fn gc_expires_idle_mappings() {
        let mut nat = Nat::new(Ipv4Addr::new(1, 1, 1, 1), NatKind::Cone);
        nat.mapping_timeout = SimDuration::from_secs(1);
        nat.by_port.insert(
            (proto::UDP, 40000),
            Mapping {
                external_port: 40000,
                internal: (v4(10, 0, 0, 1), 5),
                last_used: SimTime::ZERO,
            },
        );
        nat.mappings.insert(
            FlowKey {
                proto: proto::UDP,
                internal: (v4(10, 0, 0, 1), 5),
                remote: None,
            },
            40000,
        );
        nat.gc(SimTime(2_000_000_000));
        assert_eq!(nat.mapping_count(), 0);
        assert!(nat.mappings.is_empty());
    }
}
