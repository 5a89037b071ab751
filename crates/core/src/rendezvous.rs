//! The HIP rendezvous server (RFC 5204).
//!
//! Mobile hosts register their HIT → locator binding; initiators that
//! only know a peer's HIT (and its RVS) send their I1 to the RVS, which
//! relays it to the registered locator with a FROM parameter carrying
//! the initiator's source address. The responder then answers the
//! initiator *directly* — the RVS touches only the first packet, as the
//! paper's §II-B describes for simultaneous relocation.
//!
//! Registration here is a single signed `REG_REQUEST` rather than the
//! RFC's full BEX-with-REG-parameters: the security property exercised
//! (binding is signed by the key that owns the HIT) is the same, and
//! DESIGN.md records the simplification.

use crate::identity::{Hit, PublicHi};
use crate::wire::{encode_locator, param_type, HipPacket, PacketType, Param};
use netsim::engine::{Ctx, Node};
use netsim::fx::FxHashMap;
use netsim::link::LinkId;
use netsim::packet::{Packet, Payload};
use netsim::DropReason;
use std::any::Any;
use std::net::IpAddr;

/// A rendezvous server node.
pub struct RendezvousServer {
    /// The server's locator.
    pub addr: IpAddr,
    link: LinkId,
    registrations: FxHashMap<Hit, IpAddr>,
    /// Highest registration sequence accepted per HIT (replay guard: a
    /// captured REG_REQUEST cannot re-bind the HIT to a stale locator).
    reg_seq: FxHashMap<Hit, u32>,
    /// I1 packets relayed (diagnostics).
    pub relayed: u64,
    /// Registrations rejected for a bad signature or a stale SEQ
    /// (diagnostics).
    pub rejected: u64,
}

impl RendezvousServer {
    /// Creates a server at `addr` attached to `link`.
    pub fn new(addr: IpAddr, link: LinkId) -> Self {
        RendezvousServer {
            addr,
            link,
            registrations: FxHashMap::default(),
            reg_seq: FxHashMap::default(),
            relayed: 0,
            rejected: 0,
        }
    }

    /// Current registration for a HIT (tests).
    pub fn registration(&self, hit: &Hit) -> Option<IpAddr> {
        self.registrations.get(hit).copied()
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    /// True when no HITs are registered.
    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }

    /// Handles one packet; `Err` names why it was dropped.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) -> Result<(), DropReason> {
        let Payload::HipControl(bytes) = &pkt.payload else {
            return Err(DropReason::HipUnexpected);
        };
        let hip = HipPacket::decode(bytes).ok_or(DropReason::HipDecode)?;
        match hip.packet_type {
            PacketType::RegRequest => self.on_reg_request(&hip, pkt, ctx),
            PacketType::I1 => self.on_i1(&hip, pkt, ctx),
            _ => Err(DropReason::HipUnexpected),
        }
    }

    fn on_reg_request(
        &mut self,
        hip: &HipPacket,
        wire: &Packet,
        ctx: &mut Ctx,
    ) -> Result<(), DropReason> {
        // The registration must be signed by the key that owns the HIT.
        let hi_bytes = hip.host_id().ok_or(DropReason::HipMalformed)?;
        let hi = PublicHi::from_bytes(hi_bytes).ok_or(DropReason::HipMalformed)?;
        if hi.hit() != hip.sender_hit {
            return Err(DropReason::HipAuth);
        }
        let sig = hip.signature().ok_or(DropReason::HipAuth)?;
        let covered = hip.bytes_before(param_type::HIP_SIGNATURE);
        if !hi.verify(&covered, sig) {
            return Err(DropReason::HipAuth);
        }
        // Replay guard: the signed SEQ must strictly increase per HIT.
        let seq = hip.seq().unwrap_or(0);
        if self
            .reg_seq
            .get(&hip.sender_hit)
            .is_some_and(|&last| seq <= last)
        {
            return Err(DropReason::RvsStaleSeq);
        }
        self.reg_seq.insert(hip.sender_hit, seq);
        let locator = hip.locators().first().copied().unwrap_or(wire.src);
        self.registrations.insert(hip.sender_hit, locator);
        let resp = HipPacket::new(
            PacketType::RegResponse,
            hip.sender_hit,
            hip.sender_hit,
            vec![],
        );
        ctx.transmit(
            self.link,
            Packet::new(self.addr, wire.src, Payload::HipControl(resp.encode())),
        );
        ctx.trace_state(|| format!("rvs: registered {:?} at {locator}", hip.sender_hit));
        Ok(())
    }

    fn on_i1(&mut self, hip: &HipPacket, wire: &Packet, ctx: &mut Ctx) -> Result<(), DropReason> {
        let &locator = self
            .registrations
            .get(&hip.receiver_hit)
            .ok_or(DropReason::RvsUnregistered)?;
        // Relay with FROM (initiator's locator) and VIA_RVS (ours).
        let mut params = hip.params.clone();
        params.push(Param::From(encode_locator(&wire.src)));
        params.push(Param::ViaRvs(encode_locator(&self.addr)));
        let relayed = HipPacket::new(PacketType::I1, hip.sender_hit, hip.receiver_hit, params);
        self.relayed += 1;
        ctx.transmit(
            self.link,
            Packet::new(self.addr, locator, Payload::HipControl(relayed.encode())),
        );
        Ok(())
    }
}

impl Node for RendezvousServer {
    fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
        if let Err(reason) = self.on_packet(&pkt, ctx) {
            if matches!(reason, DropReason::HipAuth | DropReason::RvsStaleSeq) {
                self.rejected += 1;
            }
            ctx.drop_packet(&pkt, reason);
        }
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
    use crate::identity::HostIdentity;
    use crate::wire::decode_locator;
    use netsim::packet::v4;
    use rand::SeedableRng;

    fn make_signed_reg(
        id: &HostIdentity,
        locator: IpAddr,
        rng: &mut rand::rngs::StdRng,
    ) -> HipPacket {
        let mut params = vec![
            Param::HostId(id.public().to_bytes()),
            Param::Locator(vec![encode_locator(&locator)]),
        ];
        let unsigned = HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(id.sign(&covered, rng)));
        HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params)
    }

    #[test]
    fn registration_requires_valid_signature() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let id = HostIdentity::generate_rsa(512, &mut rng);
        let mut sim = netsim::Sim::new(1);
        struct Sink;
        impl Node for Sink {
            fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let sink = sim.world.add_node(Box::new(Sink));
        let rvs_addr = v4(10, 0, 0, 9);
        let rvs = sim
            .world
            .add_node(Box::new(RendezvousServer::new(rvs_addr, LinkId(0))));
        sim.world.connect(
            netsim::Endpoint {
                node: rvs,
                iface: 0,
            },
            netsim::Endpoint {
                node: sink,
                iface: 0,
            },
            netsim::LinkParams::datacenter(),
        );

        let good = make_signed_reg(&id, v4(10, 0, 0, 5), &mut rng);
        let bad = {
            // Tamper with the advertised locator after signing.
            let mut params = good.params.clone();
            for p in &mut params {
                if let Param::Locator(l) = p {
                    l[0] = encode_locator(&v4(66, 6, 6, 6));
                }
            }
            HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params)
        };
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(
                    v4(10, 0, 0, 5),
                    rvs_addr,
                    Payload::HipControl(good.encode()),
                ),
            },
        );
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 5), rvs_addr, Payload::HipControl(bad.encode())),
            },
        );
        assert!(sim.run_to_quiescence(100).is_quiescent());
        let server = sim.world.node::<RendezvousServer>(rvs).unwrap();
        assert_eq!(server.len(), 1);
        assert_eq!(server.registration(&id.hit()), Some(v4(10, 0, 0, 5)));
        assert_eq!(server.rejected, 1);
    }

    #[test]
    fn i1_relayed_with_from_param() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let responder = HostIdentity::generate_rsa(512, &mut rng);
        let initiator_hit = Hit([3; 16]);

        struct Capture {
            got: Vec<Packet>,
        }
        impl Node for Capture {
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

        let mut sim = netsim::Sim::new(2);
        let cap = sim.world.add_node(Box::new(Capture { got: vec![] }));
        let rvs_addr = v4(10, 0, 0, 9);
        let rvs = sim
            .world
            .add_node(Box::new(RendezvousServer::new(rvs_addr, LinkId(0))));
        sim.world.connect(
            netsim::Endpoint {
                node: rvs,
                iface: 0,
            },
            netsim::Endpoint {
                node: cap,
                iface: 0,
            },
            netsim::LinkParams::datacenter(),
        );
        // Register the responder.
        let reg = make_signed_reg(&responder, v4(10, 0, 0, 7), &mut rng);
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 7), rvs_addr, Payload::HipControl(reg.encode())),
            },
        );
        // Initiator's I1 toward the responder HIT arrives at the RVS.
        let i1 = HipPacket::new(PacketType::I1, initiator_hit, responder.hit(), vec![]);
        sim.schedule(
            netsim::SimDuration::from_millis(1),
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(
                    v4(192, 0, 2, 33),
                    rvs_addr,
                    Payload::HipControl(i1.encode()),
                ),
            },
        );
        assert!(sim.run_to_quiescence(100).is_quiescent());
        let capture = sim.world.node::<Capture>(cap).unwrap();
        let relayed = capture
            .got
            .iter()
            .filter_map(|p| match &p.payload {
                Payload::HipControl(b) => HipPacket::decode(b),
                _ => None,
            })
            .find(|h| h.packet_type == PacketType::I1)
            .expect("I1 relayed");
        assert_eq!(relayed.receiver_hit, responder.hit());
        let from = relayed
            .find(|p| match p {
                Param::From(a) => Some(decode_locator(a)),
                _ => None,
            })
            .expect("FROM parameter present");
        assert_eq!(from, v4(192, 0, 2, 33));
        assert_eq!(sim.world.node::<RendezvousServer>(rvs).unwrap().relayed, 1);
    }
}
