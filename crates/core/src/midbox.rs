//! A HIP-aware middlebox firewall (§IV-A scenario II).
//!
//! "For both scenarios, a HIP-based firewall can be used; in the first
//! scenario, the firewall is installed at the end-host and in the second
//! scenario, the firewall is installed to middlebox such as the
//! hypervisor" — citing Lindqvist et al., *Enterprise network packet
//! filtering for mobile cryptographic identities*.
//!
//! The middlebox sits on the path (e.g. in the hypervisor's vSwitch) and
//! filters by *identity*, not by address:
//!
//! - HIP control packets are parsed; the (initiator, responder) HIT pair
//!   is checked against the policy. Denied pairs never complete a BEX.
//! - The box learns each association's SPIs from the ESP_INFO parameters
//!   in I2/R2, so it can attribute later ESP packets to a HIT pair and
//!   filter those too — without holding any keys (it sees only
//!   ciphertext, exactly like the real HIP firewall).
//! - Non-HIP traffic is subject to a separate default (the paper's
//!   middleboxes drop cleartext between tenants).

use crate::firewall::{Action, Firewall};
use crate::identity::Hit;
use crate::wire::{HipPacket, PacketType};
use netsim::engine::{Ctx, Node};
use netsim::fx::FxHashMap;
use netsim::link::LinkId;
use netsim::packet::{Packet, Payload};
use netsim::DropReason;
use std::any::Any;

/// A stateful HIP middlebox firewall bridging two links.
pub struct HipMidboxFirewall {
    left: LinkId,
    right: LinkId,
    /// Identity policy applied to the *pair* (checked for both HITs).
    pub policy: Firewall,
    /// What to do with traffic that is neither HIP nor attributable ESP.
    pub default_other: Action,
    /// SPI → the HIT pair that negotiated it.
    spi_owner: FxHashMap<u32, (Hit, Hit)>,
    /// Base exchanges observed to completion.
    pub exchanges_seen: u64,
    /// Packets dropped by policy.
    pub dropped: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl HipMidboxFirewall {
    /// Creates a firewall bridging `left` and `right`. Wire the links
    /// after topology construction via [`Self::set_links`].
    pub fn new(policy: Firewall) -> Self {
        HipMidboxFirewall {
            left: LinkId(usize::MAX),
            right: LinkId(usize::MAX),
            policy,
            default_other: Action::Allow,
            spi_owner: FxHashMap::default(),
            exchanges_seen: 0,
            dropped: 0,
            forwarded: 0,
        }
    }

    /// Wires the two bridged links (iface 0 ↔ left, iface 1 ↔ right).
    pub fn set_links(&mut self, left: LinkId, right: LinkId) {
        self.left = left;
        self.right = right;
    }

    /// The HIT pair currently attributed to `spi`, if learned.
    pub fn owner_of_spi(&self, spi: u32) -> Option<(Hit, Hit)> {
        self.spi_owner.get(&spi).copied()
    }

    fn pair_allowed(&mut self, a: &Hit, b: &Hit) -> bool {
        self.policy.check(a) == Action::Allow && self.policy.check(b) == Action::Allow
    }

    fn inspect(&mut self, pkt: &Packet) -> Action {
        match &pkt.payload {
            Payload::HipControl(bytes) => {
                let Some(hip) = HipPacket::decode(bytes) else {
                    // Unparseable HIP is hostile by definition here.
                    return Action::Deny;
                };
                if !self.pair_allowed(&hip.sender_hit, &hip.receiver_hit) {
                    return Action::Deny;
                }
                // Learn SPIs from ESP_INFO (I2 carries the initiator's,
                // R2 the responder's, UPDATE rekeys).
                if let Some((_, new_spi)) = hip.esp_info() {
                    if new_spi != 0 {
                        self.spi_owner
                            .insert(new_spi, (hip.sender_hit, hip.receiver_hit));
                    }
                }
                if hip.packet_type == PacketType::R2 {
                    self.exchanges_seen += 1;
                }
                Action::Allow
            }
            Payload::Esp(esp) => match self.spi_owner.get(&esp.spi).copied() {
                Some((a, b)) => {
                    if self.pair_allowed(&a, &b) {
                        Action::Allow
                    } else {
                        Action::Deny
                    }
                }
                // ESP for an SA the box never saw negotiated: refuse —
                // this is the anti-bypass property of the HIP firewall.
                None => Action::Deny,
            },
            _ => self.default_other,
        }
    }
}

impl Node for HipMidboxFirewall {
    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let out = if iface == 0 { self.right } else { self.left };
        match self.inspect(&pkt) {
            Action::Allow => {
                self.forwarded += 1;
                ctx.transmit(out, pkt);
            }
            Action::Deny => {
                self.dropped += 1;
                ctx.drop_packet(&pkt, DropReason::MidboxPolicy);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Param;
    use bytes::Bytes;
    use netsim::packet::{v4, EspPacket};

    fn control(ptype: PacketType, from: Hit, to: Hit, params: Vec<Param>) -> Packet {
        let pkt = HipPacket::new(ptype, from, to, params);
        Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::HipControl(pkt.encode()),
        )
    }

    fn esp(spi: u32) -> Packet {
        Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::Esp(EspPacket {
                spi,
                seq: 1,
                ciphertext: Bytes::from(vec![0; 48]),
                icv: [0; 16],
            }),
        )
    }

    #[test]
    fn learns_spis_and_attributes_esp() {
        let mut fw = HipMidboxFirewall::new(Firewall::allow_all());
        let (a, b) = (Hit([1; 16]), Hit([2; 16]));
        assert_eq!(
            fw.inspect(&control(
                PacketType::I2,
                a,
                b,
                vec![Param::EspInfo {
                    old_spi: 0,
                    new_spi: 0x111
                }]
            )),
            Action::Allow
        );
        assert_eq!(
            fw.inspect(&control(
                PacketType::R2,
                b,
                a,
                vec![Param::EspInfo {
                    old_spi: 0,
                    new_spi: 0x222
                }]
            )),
            Action::Allow
        );
        assert_eq!(fw.exchanges_seen, 1);
        assert_eq!(fw.owner_of_spi(0x111), Some((a, b)));
        assert_eq!(fw.owner_of_spi(0x222), Some((b, a)));
        assert_eq!(fw.inspect(&esp(0x111)), Action::Allow);
        assert_eq!(fw.inspect(&esp(0x222)), Action::Allow);
    }

    #[test]
    fn unknown_spi_denied() {
        let mut fw = HipMidboxFirewall::new(Firewall::allow_all());
        assert_eq!(
            fw.inspect(&esp(0xdead)),
            Action::Deny,
            "no BEX observed → no ESP"
        );
    }

    #[test]
    fn denied_hit_cannot_even_start_a_bex() {
        let mut policy = Firewall::deny_by_default();
        let good = Hit([1; 16]);
        let peer = Hit([2; 16]);
        policy.allow(good);
        policy.allow(peer);
        let mut fw = HipMidboxFirewall::new(policy);
        let evil = Hit([9; 16]);
        assert_eq!(
            fw.inspect(&control(PacketType::I1, evil, peer, vec![])),
            Action::Deny
        );
        assert_eq!(
            fw.inspect(&control(PacketType::I1, good, peer, vec![])),
            Action::Allow
        );
    }

    #[test]
    fn garbage_hip_control_denied() {
        let mut fw = HipMidboxFirewall::new(Firewall::allow_all());
        let pkt = Packet::new(
            v4(1, 1, 1, 1),
            v4(2, 2, 2, 2),
            Payload::HipControl(Bytes::from_static(b"garbage")),
        );
        assert_eq!(fw.inspect(&pkt), Action::Deny);
    }

    #[test]
    fn cleartext_policy_is_configurable() {
        let mut fw = HipMidboxFirewall::new(Firewall::allow_all());
        let tcp = Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::Tcp(netsim::packet::TcpSegment {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: netsim::packet::TcpFlags::SYN,
                window: 100,
                data: Bytes::new(),
                gso_mss: 0,
            }),
        );
        assert_eq!(fw.inspect(&tcp), Action::Allow);
        fw.default_other = Action::Deny;
        assert_eq!(
            fw.inspect(&tcp),
            Action::Deny,
            "tenant policy: no cleartext"
        );
    }
}
