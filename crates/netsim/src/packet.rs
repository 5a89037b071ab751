//! Packet model.
//!
//! Packets are structured (headers as typed fields, not serialized bytes)
//! except where a protocol genuinely operates on opaque bytes: ESP
//! ciphertext and HIP control payloads are real byte strings produced by
//! real cryptography. Every packet knows its *wire length* so links can
//! charge serialization delay faithfully.

use bytes::Bytes;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// IP protocol numbers we model (a subset of the IANA registry).
pub mod proto {
    /// ICMP (v4 and v6 folded together).
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPsec Encapsulating Security Payload.
    pub const ESP: u8 = 50;
    /// Host Identity Protocol (RFC 5201 allocates protocol 139).
    pub const HIP: u8 = 139;
}

/// A simulated IP packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source address (may be a locator, a HIT or an LSI depending on
    /// which layer of the stack the packet is traversing).
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Remaining hop count; routers drop at zero.
    pub ttl: u8,
    /// Transport payload.
    pub payload: Payload,
}

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// Transport-layer content of a packet.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// An IPsec ESP packet (HIP data plane). The ciphertext is real.
    Esp(EspPacket),
    /// A HIP control packet (serialized, signed bytes).
    HipControl(Bytes),
}

impl Packet {
    /// Builds a packet with the default TTL.
    pub fn new(src: IpAddr, dst: IpAddr, payload: Payload) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            payload,
        }
    }

    /// IP protocol number of the payload.
    pub fn protocol(&self) -> u8 {
        match &self.payload {
            Payload::Tcp(_) => proto::TCP,
            Payload::Udp(_) => proto::UDP,
            Payload::Icmp(_) => proto::ICMP,
            Payload::Esp(_) => proto::ESP,
            Payload::HipControl(_) => proto::HIP,
        }
    }

    /// Size of the IP header on the wire for this address family.
    fn ip_header_len(&self) -> usize {
        if self.dst.is_ipv6() {
            40
        } else {
            20
        }
    }

    /// Total bytes this packet occupies on a link.
    pub fn wire_len(&self) -> usize {
        self.ip_header_len() + self.payload.wire_len()
    }
}

impl Payload {
    /// Bytes the payload contributes to the wire length.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Tcp(seg) => 20 + seg.data.len(),
            Payload::Udp(d) => 8 + d.data.wire_len(),
            Payload::Icmp(m) => 8 + m.payload_len,
            // SPI (4) + seq (4) + ciphertext (includes IV/padding) + ICV.
            Payload::Esp(e) => e.wire_len(),
            Payload::HipControl(b) => b.len(),
        }
    }
}

/// TCP header flags.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize (connection open).
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Finish (sender is done transmitting).
    pub fin: bool,
    /// Reset (abort the connection).
    pub rst: bool,
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.ack {
            s.push('A');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        write!(f, "[{s}]")
    }
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

/// A TCP segment.
#[derive(Clone, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first data byte (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Payload bytes.
    pub data: Bytes,
    /// Always 0: TCP emits one MSS-sized segment per packet. The field
    /// is left over from sender GSO (super-segments, since deleted) and
    /// goes once nothing outside the workspace builds segments with it;
    /// the link debug-asserts that it stays 0.
    pub gso_mss: u16,
}

/// A UDP datagram.
#[derive(Clone, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// The payload.
    pub data: UdpData,
}

/// UDP payloads: opaque bytes, a tunneled inner packet (Teredo), or a DNS
/// message (kept structured to avoid a DNS codec nobody measures).
#[derive(Clone, Debug)]
pub enum UdpData {
    /// Opaque application bytes.
    Raw(Bytes),
    /// A Teredo-encapsulated inner IPv6 packet (RFC 4380: IPv6-in-UDP).
    Teredo(Box<Packet>),
    /// A structured DNS message.
    Dns(crate::dns::DnsMessage),
}

impl UdpData {
    /// Bytes on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            UdpData::Raw(b) => b.len(),
            UdpData::Teredo(p) => p.wire_len(),
            UdpData::Dns(m) => m.wire_len(),
        }
    }
}

/// An ICMP message (echo only; that is all the experiments need).
#[derive(Clone, Debug)]
pub struct IcmpMessage {
    /// What kind of ICMP message.
    pub kind: IcmpKind,
    /// Identifier distinguishing concurrent ping sessions.
    pub ident: u16,
    /// Sequence number within a session.
    pub seq: u16,
    /// Size of the echo payload (bytes are never inspected, only counted).
    pub payload_len: usize,
}

/// ICMP message kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpKind {
    /// Ping request (hosts auto-reply).
    EchoRequest,
    /// Ping reply.
    EchoReply,
    /// Destination unreachable (sent by NAT/routers on drops when enabled).
    Unreachable,
}

/// An IPsec ESP packet as produced by the HIP BEET data plane.
#[derive(Clone, Debug)]
pub struct EspPacket {
    /// Security Parameter Index identifying the SA at the receiver.
    pub spi: u32,
    /// Monotonic sequence number (anti-replay).
    pub seq: u32,
    /// IV + AES-CBC ciphertext of the inner payload. Real bytes.
    pub ciphertext: Bytes,
    /// Truncated HMAC-SHA-256 integrity check value, carried inline.
    /// Real bytes.
    pub icv: [u8; 16],
}

impl EspPacket {
    /// Bytes this ESP payload occupies on the wire (excluding IP).
    pub fn wire_len(&self) -> usize {
        // SPI (4) + seq (4) + IV+ciphertext + ICV.
        8 + self.ciphertext.len() + self.icv.len()
    }
}

/// Convenience constructors used across the workspace and in tests.
pub fn v4(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(a, b, c, d))
}

/// Builds an IPv6 address from eight segments.
pub fn v6(segs: [u16; 8]) -> IpAddr {
    IpAddr::V6(Ipv6Addr::new(
        segs[0], segs[1], segs[2], segs[3], segs[4], segs[5], segs[6], segs[7],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_tcp() {
        let pkt = Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::Tcp(TcpSegment {
                src_port: 1000,
                dst_port: 80,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65535,
                data: Bytes::new(),
                gso_mss: 0,
            }),
        );
        // 20 IP + 20 TCP
        assert_eq!(pkt.wire_len(), 40);
        assert_eq!(pkt.protocol(), proto::TCP);
    }

    #[test]
    fn wire_len_ipv6_header() {
        let pkt = Packet::new(
            v6([0x2001, 0, 0, 0, 0, 0, 0, 1]),
            v6([0x2001, 0, 0, 0, 0, 0, 0, 2]),
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq: 1,
                payload_len: 56,
            }),
        );
        assert_eq!(pkt.wire_len(), 40 + 8 + 56);
    }

    #[test]
    fn wire_len_teredo_nesting() {
        let inner = Packet::new(
            v6([0x2001, 0, 0, 0, 0, 0, 0, 1]),
            v6([0x2001, 0, 0, 0, 0, 0, 0, 2]),
            Payload::Udp(UdpDatagram {
                src_port: 1,
                dst_port: 2,
                data: UdpData::Raw(Bytes::from_static(b"hello")),
            }),
        );
        let inner_len = inner.wire_len();
        let outer = Packet::new(
            v4(192, 0, 2, 1),
            v4(192, 0, 2, 2),
            Payload::Udp(UdpDatagram {
                src_port: 3544,
                dst_port: 3544,
                data: UdpData::Teredo(Box::new(inner)),
            }),
        );
        // Outer v4 IP (20) + UDP (8) + full inner packet.
        assert_eq!(outer.wire_len(), 20 + 8 + inner_len);
    }

    #[test]
    fn esp_wire_len_counts_crypto_bytes() {
        let pkt = Packet::new(
            v4(1, 2, 3, 4),
            v4(5, 6, 7, 8),
            Payload::Esp(EspPacket {
                spi: 0x1234,
                seq: 9,
                ciphertext: Bytes::from(vec![0u8; 64]),
                icv: [0u8; 16],
            }),
        );
        assert_eq!(pkt.wire_len(), 20 + 8 + 64 + 16);
    }

    #[test]
    fn flags_debug_compact() {
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "[SA]");
        assert_eq!(format!("{:?}", TcpFlags::RST), "[R]");
    }
}
