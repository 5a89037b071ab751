//! HIP control-packet wire format (RFC 5201 §5).
//!
//! Packets are genuinely serialized to bytes: the HMAC and signature
//! parameters are computed over these exact bytes, parsed back on the
//! far side, and verified against the re-serialized content — so a
//! tampered bit anywhere really does break verification, like on a real
//! wire.
//!
//! Layout (simplified from RFC 5201 §5.1, checksum omitted — the
//! simulator's links don't corrupt bits):
//!
//! ```text
//! type (1) | version (1) | controls (2) | sender HIT (16) | receiver HIT (16)
//! then parameters, each: type (2) | length (2) | value | pad to 8
//! ```
//!
//! Parameters must appear sorted by type number; HMAC (61505) and
//! HIP_SIGNATURE (61697) therefore come last, and each covers exactly
//! the bytes that precede it.

use crate::identity::Hit;
use bytes::Bytes;

/// HIP packet types (RFC 5201 §5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PacketType {
    /// Initiator's trigger (header only; DoS-cheap for the responder).
    I1,
    /// Responder's challenge: puzzle + DH + Host Identity, pre-computable.
    R1,
    /// Initiator's answer: solution + DH + SPI + identity, HMAC + signed.
    I2,
    /// Responder's conclusion: SPI, HMAC + signed. SAs now live.
    R2,
    /// Mobility/rekey (RFC 5206).
    Update,
    /// Asynchronous error/status notification.
    Notify,
    /// Association teardown request.
    Close,
    /// Teardown acknowledgement.
    CloseAck,
    /// Simplified rendezvous registration request (see `rendezvous`).
    RegRequest,
    /// Simplified rendezvous registration response.
    RegResponse,
}

impl PacketType {
    /// Wire value.
    pub fn id(self) -> u8 {
        match self {
            PacketType::I1 => 1,
            PacketType::R1 => 2,
            PacketType::I2 => 3,
            PacketType::R2 => 4,
            PacketType::Update => 16,
            PacketType::Notify => 17,
            PacketType::Close => 18,
            PacketType::CloseAck => 19,
            PacketType::RegRequest => 20,
            PacketType::RegResponse => 21,
        }
    }

    /// From wire value.
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            1 => PacketType::I1,
            2 => PacketType::R1,
            3 => PacketType::I2,
            4 => PacketType::R2,
            16 => PacketType::Update,
            17 => PacketType::Notify,
            18 => PacketType::Close,
            19 => PacketType::CloseAck,
            20 => PacketType::RegRequest,
            21 => PacketType::RegResponse,
            _ => return None,
        })
    }
}

/// Parameter type numbers (RFC 5201 §5.2 where applicable).
pub mod param_type {
    /// SPIs for the ESP SAs.
    pub const ESP_INFO: u16 = 65;
    /// Generation counter of a pre-computed R1.
    pub const R1_COUNTER: u16 = 128;
    /// Locator set for mobility/multihoming.
    pub const LOCATOR: u16 = 193;
    /// The computational puzzle.
    pub const PUZZLE: u16 = 257;
    /// A puzzle solution.
    pub const SOLUTION: u16 = 321;
    /// Update sequence number.
    pub const SEQ: u16 = 385;
    /// Acknowledged update sequence numbers.
    pub const ACK: u16 = 449;
    /// Diffie-Hellman public value.
    pub const DIFFIE_HELLMAN: u16 = 513;
    /// Offered/chosen HIP transform suites.
    pub const HIP_TRANSFORM: u16 = 577;
    /// The sender's Host Identity.
    pub const HOST_ID: u16 = 705;
    /// Echo request nonce.
    pub const ECHO_REQUEST: u16 = 897;
    /// Echo response nonce.
    pub const ECHO_RESPONSE: u16 = 961;
    /// Offered/chosen ESP transform suites.
    pub const ESP_TRANSFORM: u16 = 4095;
    /// Rendezvous: original source locator.
    pub const FROM: u16 = 65498;
    /// Keyed MAC over the preceding bytes.
    pub const HMAC: u16 = 61505;
    /// Public-key signature over the preceding bytes.
    pub const HIP_SIGNATURE: u16 = 61697;
    /// Rendezvous: relayed via this server.
    pub const VIA_RVS: u16 = 65502;
}

/// A decoded HIP parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Param {
    /// SPIs for the ESP SAs: `(old_spi, new_spi)` (old = 0 during BEX).
    EspInfo {
        /// SPI being replaced (0 during the base exchange).
        old_spi: u32,
        /// Newly allocated inbound SPI of the sender.
        new_spi: u32,
    },
    /// Generation counter of the R1 (anti-replay for precomputed R1s).
    R1Counter(u64),
    /// Locators for mobility/multihoming (16-byte-padded addresses;
    /// IPv4 uses the v4-mapped form).
    Locator(Vec<[u8; 16]>),
    /// The puzzle: difficulty K, lifetime, opaque tag, random I.
    Puzzle {
        /// Difficulty: lowest K bits of the hash must be zero.
        k: u8,
        /// Puzzle lifetime in seconds (advisory).
        lifetime: u8,
        /// Responder-chosen opaque tag echoed in the solution.
        opaque: u16,
        /// The random puzzle value.
        i: u64,
    },
    /// The solution: echoed K/opaque/I plus the solving J.
    Solution {
        /// Echoed difficulty.
        k: u8,
        /// Echoed opaque tag.
        opaque: u16,
        /// Echoed puzzle value.
        i: u64,
        /// The value that solves the puzzle.
        j: u64,
    },
    /// Update sequence number.
    Seq(u32),
    /// Acknowledged update sequence numbers.
    Ack(Vec<u32>),
    /// DH group id + public value.
    DiffieHellman {
        /// Group identifier (RFC 5201 §5.2.6).
        group: u8,
        /// The public value, fixed-length for the group.
        public: Vec<u8>,
    },
    /// Offered/chosen HIP transform suite ids (1 = AES-CBC+HMAC-SHA256).
    HipTransform(Vec<u16>),
    /// The sender's serialized Host Identity.
    HostId(Vec<u8>),
    /// Echo request nonce (address verification, replay protection).
    EchoRequest(u64),
    /// Echo response nonce.
    EchoResponse(u64),
    /// Offered/chosen ESP transform suite ids.
    EspTransform(Vec<u16>),
    /// Rendezvous: the original source locator of a relayed I1.
    From([u8; 16]),
    /// Rendezvous: packet travelled via this RVS.
    ViaRvs([u8; 16]),
    /// HMAC-SHA-256 over the preceding bytes (keyed with KEYMAT).
    Hmac([u8; 32]),
    /// Public-key signature over the preceding bytes.
    Signature(Vec<u8>),
    /// A parameter we do not understand (type, raw value): RFC 5201
    /// requires unrecognized non-critical parameters to be skipped.
    Unknown(u16, Vec<u8>),
}

impl Param {
    /// The wire type number.
    pub fn type_code(&self) -> u16 {
        use param_type::*;
        match self {
            Param::EspInfo { .. } => ESP_INFO,
            Param::R1Counter(_) => R1_COUNTER,
            Param::Locator(_) => LOCATOR,
            Param::Puzzle { .. } => PUZZLE,
            Param::Solution { .. } => SOLUTION,
            Param::Seq(_) => SEQ,
            Param::Ack(_) => ACK,
            Param::DiffieHellman { .. } => DIFFIE_HELLMAN,
            Param::HipTransform(_) => HIP_TRANSFORM,
            Param::HostId(_) => HOST_ID,
            Param::EchoRequest(_) => ECHO_REQUEST,
            Param::EchoResponse(_) => ECHO_RESPONSE,
            Param::EspTransform(_) => ESP_TRANSFORM,
            Param::From(_) => FROM,
            Param::ViaRvs(_) => VIA_RVS,
            Param::Hmac(_) => HMAC,
            Param::Signature(_) => HIP_SIGNATURE,
            Param::Unknown(t, _) => *t,
        }
    }

    fn encode_value(&self) -> Vec<u8> {
        match self {
            Param::EspInfo { old_spi, new_spi } => {
                let mut v = old_spi.to_be_bytes().to_vec();
                v.extend_from_slice(&new_spi.to_be_bytes());
                v
            }
            Param::R1Counter(c) => c.to_be_bytes().to_vec(),
            Param::Locator(locs) => {
                let mut v = Vec::with_capacity(locs.len() * 16);
                for l in locs {
                    v.extend_from_slice(l);
                }
                v
            }
            Param::Puzzle {
                k,
                lifetime,
                opaque,
                i,
            } => {
                let mut v = vec![*k, *lifetime];
                v.extend_from_slice(&opaque.to_be_bytes());
                v.extend_from_slice(&i.to_be_bytes());
                v
            }
            Param::Solution { k, opaque, i, j } => {
                let mut v = vec![*k, 0];
                v.extend_from_slice(&opaque.to_be_bytes());
                v.extend_from_slice(&i.to_be_bytes());
                v.extend_from_slice(&j.to_be_bytes());
                v
            }
            Param::Seq(s) => s.to_be_bytes().to_vec(),
            Param::Ack(acks) => acks.iter().flat_map(|a| a.to_be_bytes()).collect(),
            Param::DiffieHellman { group, public } => {
                let mut v = vec![*group];
                v.extend_from_slice(public);
                v
            }
            Param::HipTransform(suites) | Param::EspTransform(suites) => {
                suites.iter().flat_map(|s| s.to_be_bytes()).collect()
            }
            Param::HostId(hi) => hi.clone(),
            Param::EchoRequest(n) | Param::EchoResponse(n) => n.to_be_bytes().to_vec(),
            Param::From(a) | Param::ViaRvs(a) => a.to_vec(),
            Param::Hmac(m) => m.to_vec(),
            Param::Signature(s) => s.clone(),
            Param::Unknown(_, v) => v.clone(),
        }
    }

    fn decode(type_code: u16, value: &[u8]) -> Option<Param> {
        use param_type::*;
        Some(match type_code {
            ESP_INFO => {
                if value.len() != 8 {
                    return None;
                }
                Param::EspInfo {
                    old_spi: u32::from_be_bytes(value[..4].try_into().ok()?),
                    new_spi: u32::from_be_bytes(value[4..8].try_into().ok()?),
                }
            }
            R1_COUNTER => Param::R1Counter(u64::from_be_bytes(value.try_into().ok()?)),
            LOCATOR => {
                if !value.len().is_multiple_of(16) {
                    return None;
                }
                Param::Locator(
                    value
                        .chunks(16)
                        .map(|c| <[u8; 16]>::try_from(c).unwrap())
                        .collect(),
                )
            }
            PUZZLE => {
                if value.len() != 12 {
                    return None;
                }
                Param::Puzzle {
                    k: value[0],
                    lifetime: value[1],
                    opaque: u16::from_be_bytes(value[2..4].try_into().ok()?),
                    i: u64::from_be_bytes(value[4..12].try_into().ok()?),
                }
            }
            SOLUTION => {
                if value.len() != 20 {
                    return None;
                }
                Param::Solution {
                    k: value[0],
                    opaque: u16::from_be_bytes(value[2..4].try_into().ok()?),
                    i: u64::from_be_bytes(value[4..12].try_into().ok()?),
                    j: u64::from_be_bytes(value[12..20].try_into().ok()?),
                }
            }
            SEQ => Param::Seq(u32::from_be_bytes(value.try_into().ok()?)),
            ACK => {
                if !value.len().is_multiple_of(4) {
                    return None;
                }
                Param::Ack(
                    value
                        .chunks(4)
                        .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            DIFFIE_HELLMAN => {
                let (&group, public) = value.split_first()?;
                Param::DiffieHellman {
                    group,
                    public: public.to_vec(),
                }
            }
            HIP_TRANSFORM | ESP_TRANSFORM => {
                if !value.len().is_multiple_of(2) {
                    return None;
                }
                let suites = value
                    .chunks(2)
                    .map(|c| u16::from_be_bytes(c.try_into().unwrap()))
                    .collect();
                if type_code == HIP_TRANSFORM {
                    Param::HipTransform(suites)
                } else {
                    Param::EspTransform(suites)
                }
            }
            HOST_ID => Param::HostId(value.to_vec()),
            ECHO_REQUEST => Param::EchoRequest(u64::from_be_bytes(value.try_into().ok()?)),
            ECHO_RESPONSE => Param::EchoResponse(u64::from_be_bytes(value.try_into().ok()?)),
            FROM => Param::From(value.try_into().ok()?),
            VIA_RVS => Param::ViaRvs(value.try_into().ok()?),
            HMAC => Param::Hmac(value.try_into().ok()?),
            HIP_SIGNATURE => Param::Signature(value.to_vec()),
            _ => Param::Unknown(type_code, value.to_vec()),
        })
    }
}

/// A HIP control packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HipPacket {
    /// Which message of the protocol this is.
    pub packet_type: PacketType,
    /// The sender's Host Identity Tag.
    pub sender_hit: Hit,
    /// The intended receiver's HIT (null in I1-to-RVS and registrations).
    pub receiver_hit: Hit,
    /// TLV parameters, kept sorted in wire order.
    pub params: Vec<Param>,
}

/// Current protocol version byte.
const VERSION: u8 = 1;

impl HipPacket {
    /// Creates a packet; parameters are sorted into wire order.
    pub fn new(
        packet_type: PacketType,
        sender: Hit,
        receiver: Hit,
        mut params: Vec<Param>,
    ) -> Self {
        params.sort_by_key(Param::type_code);
        HipPacket {
            packet_type,
            sender_hit: sender,
            receiver_hit: receiver,
            params,
        }
    }

    /// Serializes the full packet.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(128);
        out.push(self.packet_type.id());
        out.push(VERSION);
        out.extend_from_slice(&[0u8, 0u8]); // controls
        out.extend_from_slice(&self.sender_hit.0);
        out.extend_from_slice(&self.receiver_hit.0);
        for p in &self.params {
            let value = p.encode_value();
            out.extend_from_slice(&p.type_code().to_be_bytes());
            out.extend_from_slice(&(value.len() as u16).to_be_bytes());
            out.extend_from_slice(&value);
            // Pad to an 8-byte boundary.
            let pad = (8 - (4 + value.len()) % 8) % 8;
            out.extend(std::iter::repeat_n(0u8, pad));
        }
        Bytes::from(out)
    }

    /// Parses a packet. Returns `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<HipPacket> {
        if data.len() < 36 {
            return None;
        }
        let packet_type = PacketType::from_id(data[0])?;
        if data[1] != VERSION {
            return None;
        }
        let sender_hit = Hit(data[4..20].try_into().ok()?);
        let receiver_hit = Hit(data[20..36].try_into().ok()?);
        let mut params = Vec::new();
        let mut off = 36;
        while off < data.len() {
            if off + 4 > data.len() {
                return None;
            }
            let tc = u16::from_be_bytes(data[off..off + 2].try_into().ok()?);
            let len = u16::from_be_bytes(data[off + 2..off + 4].try_into().ok()?) as usize;
            if off + 4 + len > data.len() {
                return None;
            }
            params.push(Param::decode(tc, &data[off + 4..off + 4 + len])?);
            let pad = (8 - (4 + len) % 8) % 8;
            off += 4 + len + pad;
        }
        Some(HipPacket {
            packet_type,
            sender_hit,
            receiver_hit,
            params,
        })
    }

    /// The bytes covered by the HMAC parameter: everything before it.
    /// (Also the signature coverage when no HMAC is present.)
    pub fn bytes_before(&self, type_code: u16) -> Vec<u8> {
        let truncated = HipPacket {
            packet_type: self.packet_type,
            sender_hit: self.sender_hit,
            receiver_hit: self.receiver_hit,
            params: self
                .params
                .iter()
                .filter(|p| p.type_code() < type_code)
                .cloned()
                .collect(),
        };
        truncated.encode().to_vec()
    }

    /// Like [`Self::bytes_before`] but with the receiver HIT zeroed —
    /// the R1 signature coverage, allowing R1 pre-computation before the
    /// initiator (and hence the receiver HIT field) is known.
    pub fn bytes_before_with_zero_receiver(&self, type_code: u16) -> Vec<u8> {
        let truncated = HipPacket {
            packet_type: self.packet_type,
            sender_hit: self.sender_hit,
            receiver_hit: Hit::NULL,
            params: self
                .params
                .iter()
                .filter(|p| p.type_code() < type_code)
                .cloned()
                .collect(),
        };
        truncated.encode().to_vec()
    }

    /// First parameter matching `pred`.
    pub fn find<'a, T>(&'a self, pred: impl Fn(&'a Param) -> Option<T>) -> Option<T> {
        self.params.iter().find_map(pred)
    }

    /// The puzzle parameter, if present.
    pub fn puzzle(&self) -> Option<(u8, u8, u16, u64)> {
        self.find(|p| match p {
            Param::Puzzle {
                k,
                lifetime,
                opaque,
                i,
            } => Some((*k, *lifetime, *opaque, *i)),
            _ => None,
        })
    }

    /// The solution parameter, if present.
    pub fn solution(&self) -> Option<(u8, u16, u64, u64)> {
        self.find(|p| match p {
            Param::Solution { k, opaque, i, j } => Some((*k, *opaque, *i, *j)),
            _ => None,
        })
    }

    /// The DH parameter, if present.
    pub fn diffie_hellman(&self) -> Option<(u8, &[u8])> {
        self.find(|p| match p {
            Param::DiffieHellman { group, public } => Some((*group, public.as_slice())),
            _ => None,
        })
    }

    /// The HOST_ID parameter, if present.
    pub fn host_id(&self) -> Option<&[u8]> {
        self.find(|p| match p {
            Param::HostId(hi) => Some(hi.as_slice()),
            _ => None,
        })
    }

    /// The ESP_INFO parameter, if present.
    pub fn esp_info(&self) -> Option<(u32, u32)> {
        self.find(|p| match p {
            Param::EspInfo { old_spi, new_spi } => Some((*old_spi, *new_spi)),
            _ => None,
        })
    }

    /// The HMAC parameter, if present.
    pub fn hmac(&self) -> Option<&[u8; 32]> {
        self.find(|p| match p {
            Param::Hmac(m) => Some(m),
            _ => None,
        })
    }

    /// The signature parameter, if present.
    pub fn signature(&self) -> Option<&[u8]> {
        self.find(|p| match p {
            Param::Signature(s) => Some(s.as_slice()),
            _ => None,
        })
    }

    /// The SEQ parameter, if present.
    pub fn seq(&self) -> Option<u32> {
        self.find(|p| match p {
            Param::Seq(s) => Some(*s),
            _ => None,
        })
    }

    /// The ACK parameter, if present.
    pub fn ack(&self) -> Option<&[u32]> {
        self.find(|p| match p {
            Param::Ack(a) => Some(a.as_slice()),
            _ => None,
        })
    }

    /// Locators, decoded to `IpAddr`s.
    pub fn locators(&self) -> Vec<std::net::IpAddr> {
        self.find(|p| match p {
            Param::Locator(l) => Some(l.iter().map(decode_locator).collect()),
            _ => None,
        })
        .unwrap_or_default()
    }
}

/// Encodes an address into the 16-byte locator form (v4-mapped for IPv4).
pub fn encode_locator(addr: &std::net::IpAddr) -> [u8; 16] {
    match addr {
        std::net::IpAddr::V6(v6) => v6.octets(),
        std::net::IpAddr::V4(v4) => {
            let mut b = [0u8; 16];
            b[10] = 0xff;
            b[11] = 0xff;
            b[12..16].copy_from_slice(&v4.octets());
            b
        }
    }
}

/// Decodes a 16-byte locator back into an address.
pub fn decode_locator(b: &[u8; 16]) -> std::net::IpAddr {
    if b[..10] == [0u8; 10] && b[10] == 0xff && b[11] == 0xff {
        std::net::IpAddr::V4(std::net::Ipv4Addr::new(b[12], b[13], b[14], b[15]))
    } else {
        std::net::IpAddr::V6(std::net::Ipv6Addr::from(*b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{v4, v6};

    fn hits() -> (Hit, Hit) {
        (Hit([1; 16]), Hit([2; 16]))
    }

    fn sample_params() -> Vec<Param> {
        vec![
            Param::Signature(vec![9; 64]),
            Param::Puzzle {
                k: 10,
                lifetime: 37,
                opaque: 0xbeef,
                i: 0x1122334455667788,
            },
            Param::DiffieHellman {
                group: 4,
                public: vec![5; 192],
            },
            Param::HostId(vec![5, 1, 2, 3]),
            Param::HipTransform(vec![1, 2]),
            Param::EspInfo {
                old_spi: 0,
                new_spi: 0xdeadbeef,
            },
            Param::Hmac([7; 32]),
            Param::Seq(42),
            Param::Ack(vec![41, 42]),
            Param::EchoRequest(777),
            Param::Locator(vec![encode_locator(&v4(10, 0, 0, 1))]),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I2, a, b, sample_params());
        let bytes = pkt.encode();
        let parsed = HipPacket::decode(&bytes).expect("decodes");
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn params_sorted_by_type_code() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I2, a, b, sample_params());
        let codes: Vec<u16> = pkt.params.iter().map(Param::type_code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        // HMAC before SIGNATURE, both after everything else.
        assert!(codes.ends_with(&[param_type::HMAC, param_type::HIP_SIGNATURE]));
    }

    #[test]
    fn decode_rejects_truncation() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::R1, a, b, sample_params());
        let bytes = pkt.encode();
        for cut in [1, 10, 35, bytes.len() - 5] {
            assert!(HipPacket::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_type_and_version() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I1, a, b, vec![]);
        let mut bytes = pkt.encode().to_vec();
        bytes[0] = 200; // unknown type
        assert!(HipPacket::decode(&bytes).is_none());
        bytes[0] = 1;
        bytes[1] = 9; // bad version
        assert!(HipPacket::decode(&bytes).is_none());
    }

    #[test]
    fn unknown_params_preserved() {
        let (a, b) = hits();
        let pkt = HipPacket::new(
            PacketType::Update,
            a,
            b,
            vec![Param::Unknown(999, vec![1, 2, 3])],
        );
        let parsed = HipPacket::decode(&pkt.encode()).unwrap();
        assert_eq!(parsed.params, vec![Param::Unknown(999, vec![1, 2, 3])]);
    }

    #[test]
    fn hmac_coverage_excludes_hmac_and_signature() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I2, a, b, sample_params());
        let covered = pkt.bytes_before(param_type::HMAC);
        let parsed = HipPacket::decode(&covered).unwrap();
        assert!(parsed.hmac().is_none());
        assert!(parsed.signature().is_none());
        assert!(parsed.puzzle().is_some());
        // Signature coverage includes the HMAC.
        let sig_covered = pkt.bytes_before(param_type::HIP_SIGNATURE);
        let parsed = HipPacket::decode(&sig_covered).unwrap();
        assert!(parsed.hmac().is_some());
        assert!(parsed.signature().is_none());
    }

    #[test]
    fn zero_receiver_coverage_for_r1_precomputation() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::R1, a, b, sample_params());
        let cov = pkt.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE);
        let parsed = HipPacket::decode(&cov).unwrap();
        assert_eq!(parsed.receiver_hit, Hit::NULL);
        assert_eq!(parsed.sender_hit, a);
        // Two packets differing only in receiver HIT share the coverage.
        let pkt2 = HipPacket::new(PacketType::R1, a, Hit([9; 16]), sample_params());
        assert_eq!(
            cov,
            pkt2.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE)
        );
    }

    #[test]
    fn locator_encoding_both_families() {
        let a4 = v4(192, 168, 1, 1);
        let a6 = v6([0x2001, 0x10, 0, 0, 0, 0, 0, 1]);
        assert_eq!(decode_locator(&encode_locator(&a4)), a4);
        assert_eq!(decode_locator(&encode_locator(&a6)), a6);
    }

    #[test]
    fn accessors() {
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I2, a, b, sample_params());
        assert_eq!(pkt.puzzle().unwrap().0, 10);
        assert_eq!(pkt.diffie_hellman().unwrap().0, 4);
        assert_eq!(pkt.esp_info().unwrap().1, 0xdeadbeef);
        assert_eq!(pkt.seq(), Some(42));
        assert_eq!(pkt.ack().unwrap(), &[41, 42]);
        assert_eq!(pkt.locators(), vec![v4(10, 0, 0, 1)]);
        assert_eq!(pkt.host_id().unwrap(), &[5, 1, 2, 3]);
    }

    #[test]
    fn padding_alignment() {
        // Every parameter boundary lands on an 8-byte offset.
        let (a, b) = hits();
        let pkt = HipPacket::new(PacketType::I2, a, b, sample_params());
        let bytes = pkt.encode();
        assert_eq!((bytes.len() - 36) % 8, 0);
    }
}
