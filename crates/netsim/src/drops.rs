//! Why a packet was dropped: one typed reason per refusal, shared by
//! every layer from the links up to the HIP shim.
//!
//! A drop is recorded in one place, [`Ctx::drop_packet`] (the engine
//! records its own link and crashed-node drops the same way): it bumps
//! the reason's counter and writes a trace `Drop` record labelled with
//! [`DropReason::name`]. [`Sim`] registers every reason's counter in one
//! block, at the first drop and when its metrics are taken, so the bump
//! is an index, every run manifest lists every reason (zero included),
//! and the trace's drop records grouped by reason equal the counters
//! whenever the trace is not truncated.
//!
//! [`Ctx::drop_packet`]: crate::Ctx::drop_packet
//! [`Sim`]: crate::Sim

use std::fmt;

/// Declares [`DropReason`] with its counter names, in one table.
macro_rules! drop_reasons {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal,)*) => {
        /// Why a packet was dropped. See the module docs.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum DropReason {
            $($(#[doc = $doc])* $variant,)*
        }

        impl DropReason {
            /// Every reason, in declaration order (`ALL[r as usize] == r`).
            pub const ALL: &'static [DropReason] = &[$(DropReason::$variant,)*];

            /// The counter name, which is also the trace record's label.
            pub const fn name(self) -> &'static str {
                match self {
                    $(DropReason::$variant => $name,)*
                }
            }
        }
    };
}

drop_reasons! {
    /// Random loss from the link's configured `LinkParams::loss`.
    LinkLoss => "link.drop.loss",
    /// Output-queue tail drop (organic congestion).
    QueueOverflow => "link.drop.queue_overflow",
    /// Loss from an injected `LossBurst` episode.
    LossBurst => "fault.loss_burst",
    /// The link is administratively down (`LinkDown` episode).
    LinkDown => "fault.link_down",
    /// The link is severed by a `Partition` episode.
    Partition => "fault.partition",
    /// The sender or the receiver is crashed (`NodeCrash` episode).
    NodeDown => "fault.node_down",
    /// No route toward the destination (router or host).
    NoRoute => "ip.drop.no_route",
    /// An IPv6 destination on a host with neither IPv6 nor Teredo.
    NoV6Route => "ip.drop.no_v6_route",
    /// The TTL ran out at a router.
    TtlExpired => "ip.drop.ttl",
    /// A router's route points back out of the arrival interface.
    Hairpin => "ip.drop.hairpin",
    /// A host received a packet for an address it does not own.
    NotLocal => "host.drop.not_local",
    /// Identity (HIT/LSI) or ESP/HIP traffic at a host with no shim.
    NoShim => "host.drop.no_shim",
    /// A UDP datagram to a port no app has bound.
    UdpNoListener => "udp.drop.no_listener",
    /// The Teredo relay got IPv6 for a non-Teredo address (it has no
    /// native IPv6 uplink).
    TeredoNoUplink => "teredo.drop.no_v6_uplink",
    /// The Teredo relay found IPv4 inside a Teredo tunnel.
    TeredoV4Inner => "teredo.drop.v4_inner",
    /// The Teredo relay got a packet it does not relay.
    TeredoUnhandled => "teredo.drop.unhandled",
    /// The NAT cannot translate the protocol (no ports).
    NatNoPorts => "nat.drop.no_ports",
    /// Inbound traffic to a NAT port with no mapping.
    NatUnsolicited => "nat.drop.unsolicited",
    /// A symmetric NAT's mapping belongs to another remote.
    NatSymmetricFilter => "nat.drop.symmetric_filter",
    /// The HIP middlebox's policy refused the packet.
    MidboxPolicy => "midbox.drop.policy",
    /// A HIP control packet that does not decode.
    HipDecode => "hip.drop.decode",
    /// A HIP control packet addressed to another host's HIT.
    HipNotOurs => "hip.drop.not_ours",
    /// A required HIP parameter is missing or unusable.
    HipMalformed => "hip.drop.malformed",
    /// A HIP packet that the association's state does not accept (or
    /// that has no association, or a CLOSE_ACK with the wrong echo).
    HipUnexpected => "hip.drop.unexpected",
    /// A peer's I2 lost the simultaneous-BEX tie (RFC 5201 §4.4.2).
    HipCollision => "hip.drop.collision",
    /// A signature, HMAC, puzzle, host identity or DH check failed.
    HipAuth => "hip.drop.auth",
    /// The HIT firewall refused the peer.
    HipFirewall => "hip.drop.firewall",
    /// No local or peer locator to send the answer (or the I1) to.
    HipNoLocator => "hip.drop.no_locator",
    /// An outbound packet for an identity the shim cannot resolve.
    HipUnknownPeer => "hip.drop.unknown_peer",
    /// An outbound packet for an association that is closing.
    HipClosing => "hip.drop.closing",
    /// A rendezvous registration whose SEQ does not advance (replay).
    RvsStaleSeq => "rvs.drop.stale_seq",
    /// An I1 relayed toward a HIT the rendezvous server does not know.
    RvsUnregistered => "rvs.drop.unregistered",
    /// ESP for an SPI with no SA (or outbound with no SA yet).
    EspNoSa => "esp.drop.no_sa",
    /// ESP refused by the anti-replay window.
    EspReplay => "esp.drop.replay",
    /// ESP whose ICV, padding or framing does not check.
    EspAuth => "esp.drop.auth",
}

impl DropReason {
    /// Whether a link refused the packet; these are the reasons the
    /// `link.drops` aggregate counts.
    pub const fn is_link(self) -> bool {
        matches!(
            self,
            DropReason::LinkLoss
                | DropReason::QueueOverflow
                | DropReason::LossBurst
                | DropReason::LinkDown
                | DropReason::Partition
        )
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_each_reason_at_its_index_under_a_unique_name() {
        let mut names = std::collections::BTreeSet::new();
        for (i, &r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?}");
            assert!(names.insert(r.name()), "{} named twice", r.name());
        }
    }

    #[test]
    fn link_reasons_are_the_five_link_causes() {
        let link: Vec<_> = DropReason::ALL.iter().filter(|r| r.is_link()).collect();
        assert_eq!(link.len(), 5);
        assert!(!DropReason::NodeDown.is_link());
    }
}
