//! The HIP data plane: IPsec ESP in Bound End-to-End Tunnel (BEET) mode
//! (RFC 5202 + the BEET ESP draft the paper cites).
//!
//! BEET's trick is that the *inner* addresses (the HITs) are fixed for
//! the SA's lifetime, so they are never transmitted — the SPI implies
//! them. That is why the paper calls BEET "more bandwidth-efficient than
//! the tunnel mode". We transmit only a compact serialization of the
//! transport payload; both the AES-CBC encryption and the truncated
//! HMAC-SHA-256 ICV are computed for real, so tampering and replay are
//! actually detected, not assumed.

use bytes::Bytes;
use netsim::packet::{
    EspPacket, IcmpKind, IcmpMessage, Packet, Payload, TcpFlags, TcpSegment, UdpData, UdpDatagram,
};
use sim_crypto::aes::{Aes128, BLOCK_LEN};
use sim_crypto::hmac::{verify_mac, HmacKey};
use sim_crypto::{etm, pkcs7};
use std::net::IpAddr;

/// ICV length: HMAC-SHA-256 truncated to 16 bytes.
pub const ICV_LEN: usize = 16;

/// Anti-replay window size in packets (RFC 4303 default is 64).
pub const REPLAY_WINDOW: u32 = 64;

/// Why an inbound ESP packet was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EspError {
    /// ICV mismatch: packet corrupted or forged.
    BadIcv,
    /// Sequence number already seen or too old.
    Replay,
    /// Ciphertext malformed (padding, truncation).
    BadCiphertext,
    /// Inner payload failed to parse.
    BadInner,
}

/// One direction of a security association.
pub struct EspSa {
    /// The SPI identifying this SA at the receiver.
    pub spi: u32,
    cipher: Aes128,
    /// Cached HMAC transcripts for the auth key: the ipad/opad states
    /// are absorbed once at SA setup, then cloned per packet.
    auth: HmacKey,
    /// Next outbound sequence number (transmit side).
    seq: u32,
    /// Receive side: highest sequence seen + sliding window bitmap.
    rcv_highest: u32,
    rcv_window: u64,
    /// The fixed inner source address (BEET: implied by the SPI).
    pub inner_src: IpAddr,
    /// The fixed inner destination address.
    pub inner_dst: IpAddr,
    /// Pooled plaintext buffer: decryption reuses one allocation per SA
    /// instead of allocating per packet.
    scratch: Vec<u8>,
}

impl EspSa {
    /// Creates an SA from KEYMAT-derived keys.
    pub fn new(
        spi: u32,
        enc_key: [u8; 16],
        auth_key: [u8; 32],
        inner_src: IpAddr,
        inner_dst: IpAddr,
    ) -> Self {
        EspSa {
            spi,
            cipher: Aes128::new(&enc_key),
            auth: HmacKey::new(&auth_key),
            seq: 0,
            rcv_highest: 0,
            rcv_window: 0,
            inner_src,
            inner_dst,
            scratch: Vec::new(),
        }
    }

    /// Encapsulates a transport payload (with its identity-mode flag)
    /// into an ESP packet. `iv_seed` supplies IV randomness.
    pub fn encapsulate(&mut self, mode: InnerMode, payload: &Payload, iv_seed: u64) -> EspPacket {
        self.seq = self.seq.wrapping_add(1);
        let len = inner_len(payload);
        // The wire buffer becomes the packet's `Bytes` (its one
        // allocation): IV, then the inner payload encoded straight after
        // it and PKCS#7-padded, then encrypted and MACed in place.
        let mut wire = Vec::with_capacity(BLOCK_LEN + pkcs7::padded_len(len));
        // IV derived from seed + seq (unique per packet).
        wire.extend_from_slice(&iv_seed.to_be_bytes());
        wire.extend_from_slice(&self.seq.to_be_bytes());
        wire.extend_from_slice(&[0; 4]);
        encode_inner_into(mode, payload, &mut wire);
        debug_assert_eq!(wire.len(), BLOCK_LEN + len);
        pkcs7::pad(&mut wire, len);
        let mac = etm::seal(&self.cipher, &self.auth, &self.aad(self.seq), &mut wire);
        EspPacket {
            spi: self.spi,
            seq: self.seq,
            ciphertext: Bytes::from(wire),
            icv: truncate(&mac),
        }
    }

    /// Encapsulates a run of transport payloads, one standalone ESP
    /// packet per payload: each is exactly what [`Self::encapsulate`]
    /// returns for it, with its own sequence number, IV and ICV. Kept as
    /// the burst-shaped entry point that `perfbench`'s
    /// `core.esp.encap_gso_ns_per_frame` kernel times.
    pub fn encapsulate_gso(
        &mut self,
        mode: InnerMode,
        payloads: &[Payload],
        iv_seed: u64,
    ) -> Vec<EspPacket> {
        payloads
            .iter()
            .map(|p| self.encapsulate(mode, p, iv_seed))
            .collect()
    }

    /// Authenticates, replay-checks and decrypts an inbound ESP packet,
    /// returning the inner mode and payload. The ICV is checked first: a
    /// frame that fails it changes nothing, and only then does the
    /// replay window move or anyone look at the padding or payload.
    pub fn decapsulate(&mut self, esp: &EspPacket) -> Result<(InnerMode, Payload), EspError> {
        let ct = &esp.ciphertext;
        if ct.len() < 2 * BLOCK_LEN || !ct.len().is_multiple_of(BLOCK_LEN) {
            // Too short or ragged to decrypt: MAC only, then the same
            // verdict order.
            let full = self.auth.mac_multi(&[&self.aad(esp.seq), ct]);
            if !verify_mac(&full[..ICV_LEN], &esp.icv) {
                return Err(EspError::BadIcv);
            }
            self.check_replay(esp.seq)?;
            return Err(EspError::BadCiphertext);
        }
        // MAC and decrypt in one pass, into the pooled buffer.
        self.scratch.resize(ct.len() - BLOCK_LEN, 0);
        let full = etm::open(
            &self.cipher,
            &self.auth,
            &self.aad(esp.seq),
            ct,
            &mut self.scratch,
        );
        if !verify_mac(&full[..ICV_LEN], &esp.icv) {
            // Keep no plaintext of a forged frame.
            self.scratch.clear();
            return Err(EspError::BadIcv);
        }
        self.check_replay(esp.seq)?;
        let body = pkcs7::unpad(&self.scratch).ok_or(EspError::BadCiphertext)?;
        decode_inner(&self.scratch[..body]).ok_or(EspError::BadInner)
    }

    /// The data the ICV covers ahead of the IV: `spi | seq`.
    fn aad(&self, seq: u32) -> [u8; etm::AAD_LEN] {
        let mut aad = [0u8; etm::AAD_LEN];
        aad[..4].copy_from_slice(&self.spi.to_be_bytes());
        aad[4..].copy_from_slice(&seq.to_be_bytes());
        aad
    }

    /// RFC 4303 §3.4.3 sliding-window replay check, updating the window.
    fn check_replay(&mut self, seq: u32) -> Result<(), EspError> {
        if seq == 0 {
            return Err(EspError::Replay);
        }
        if seq > self.rcv_highest {
            let shift = seq - self.rcv_highest;
            self.rcv_window = if shift >= 64 {
                0
            } else {
                self.rcv_window << shift
            };
            self.rcv_window |= 1;
            self.rcv_highest = seq;
            return Ok(());
        }
        let offset = self.rcv_highest - seq;
        if offset >= REPLAY_WINDOW {
            return Err(EspError::Replay);
        }
        let bit = 1u64 << offset;
        if self.rcv_window & bit != 0 {
            return Err(EspError::Replay);
        }
        self.rcv_window |= bit;
        Ok(())
    }

    /// Current outbound sequence number (diagnostics).
    pub fn tx_seq(&self) -> u32 {
        self.seq
    }
}

/// How the application addressed this packet — determines how the
/// receiver reconstructs the inner addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerMode {
    /// Application used HITs (IPv6).
    Hit,
    /// Application used LSIs (IPv4); both ends translate (the paper's
    /// "extra translations" penalty).
    Lsi,
}

impl InnerMode {
    fn id(self) -> u8 {
        match self {
            InnerMode::Hit => 1,
            InnerMode::Lsi => 2,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(InnerMode::Hit),
            2 => Some(InnerMode::Lsi),
            _ => None,
        }
    }
}

/// The first `ICV_LEN` bytes of a full MAC.
fn truncate(mac: &[u8]) -> [u8; ICV_LEN] {
    mac[..ICV_LEN].try_into().expect("MAC longer than the ICV")
}

/// Length of [`encode_inner_into`]'s output for `payload`.
fn inner_len(payload: &Payload) -> usize {
    2 + match payload {
        Payload::Tcp(seg) => 21 + seg.data.len(),
        Payload::Udp(udp) => match &udp.data {
            UdpData::Raw(data) => 8 + data.len(),
            _ => 8,
        },
        Payload::Icmp(_) => 9,
        Payload::Esp(_) | Payload::HipControl(_) => 0,
    }
}

/// Serializes a transport payload for encryption, appending to `out`.
///
/// Format: `mode (1) | kind (1) | kind-specific fields`.
fn encode_inner_into(mode: InnerMode, payload: &Payload, out: &mut Vec<u8>) {
    out.push(mode.id());
    match payload {
        Payload::Tcp(seg) => {
            out.push(1);
            out.extend_from_slice(&seg.src_port.to_be_bytes());
            out.extend_from_slice(&seg.dst_port.to_be_bytes());
            out.extend_from_slice(&seg.seq.to_be_bytes());
            out.extend_from_slice(&seg.ack.to_be_bytes());
            let flags = u8::from(seg.flags.syn)
                | u8::from(seg.flags.ack) << 1
                | u8::from(seg.flags.fin) << 2
                | u8::from(seg.flags.rst) << 3;
            out.push(flags);
            out.extend_from_slice(&seg.window.to_be_bytes());
            out.extend_from_slice(&(seg.data.len() as u32).to_be_bytes());
            out.extend_from_slice(&seg.data);
        }
        Payload::Udp(udp) => {
            let UdpData::Raw(data) = &udp.data else {
                // Structured UDP payloads (DNS, Teredo) are not carried
                // over ESP in the experiments; encode their length only.
                out.push(3);
                out.extend_from_slice(&udp.src_port.to_be_bytes());
                out.extend_from_slice(&udp.dst_port.to_be_bytes());
                out.extend_from_slice(&(udp.data.wire_len() as u32).to_be_bytes());
                return;
            };
            out.push(2);
            out.extend_from_slice(&udp.src_port.to_be_bytes());
            out.extend_from_slice(&udp.dst_port.to_be_bytes());
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(data);
        }
        Payload::Icmp(icmp) => {
            out.push(4);
            out.push(match icmp.kind {
                IcmpKind::EchoRequest => 1,
                IcmpKind::EchoReply => 2,
                IcmpKind::Unreachable => 3,
            });
            out.extend_from_slice(&icmp.ident.to_be_bytes());
            out.extend_from_slice(&icmp.seq.to_be_bytes());
            out.extend_from_slice(&(icmp.payload_len as u32).to_be_bytes());
        }
        Payload::Esp(_) | Payload::HipControl(_) => {
            // Nested tunnels are not modeled.
            out.push(0);
        }
    }
}

/// Parses the plaintext produced by [`encode_inner_into`].
fn decode_inner(data: &[u8]) -> Option<(InnerMode, Payload)> {
    let mode = InnerMode::from_id(*data.first()?)?;
    let kind = *data.get(1)?;
    let rest = &data[2..];
    let payload = match kind {
        1 => {
            if rest.len() < 21 {
                return None;
            }
            let data_len = u32::from_be_bytes(rest[17..21].try_into().ok()?) as usize;
            if rest.len() < 21 + data_len {
                return None;
            }
            let flags = rest[12];
            Payload::Tcp(TcpSegment {
                src_port: u16::from_be_bytes(rest[0..2].try_into().ok()?),
                dst_port: u16::from_be_bytes(rest[2..4].try_into().ok()?),
                seq: u32::from_be_bytes(rest[4..8].try_into().ok()?),
                ack: u32::from_be_bytes(rest[8..12].try_into().ok()?),
                flags: TcpFlags {
                    syn: flags & 1 != 0,
                    ack: flags & 2 != 0,
                    fin: flags & 4 != 0,
                    rst: flags & 8 != 0,
                },
                window: u32::from_be_bytes(rest[13..17].try_into().ok()?),
                data: Bytes::copy_from_slice(&rest[21..21 + data_len]),
                gso_mss: 0,
            })
        }
        2 => {
            if rest.len() < 8 {
                return None;
            }
            let data_len = u32::from_be_bytes(rest[4..8].try_into().ok()?) as usize;
            if rest.len() < 8 + data_len {
                return None;
            }
            Payload::Udp(UdpDatagram {
                src_port: u16::from_be_bytes(rest[0..2].try_into().ok()?),
                dst_port: u16::from_be_bytes(rest[2..4].try_into().ok()?),
                data: UdpData::Raw(Bytes::copy_from_slice(&rest[8..8 + data_len])),
            })
        }
        4 => {
            if rest.len() < 9 {
                return None;
            }
            Payload::Icmp(IcmpMessage {
                kind: match rest[0] {
                    1 => IcmpKind::EchoRequest,
                    2 => IcmpKind::EchoReply,
                    _ => IcmpKind::Unreachable,
                },
                ident: u16::from_be_bytes(rest[1..3].try_into().ok()?),
                seq: u16::from_be_bytes(rest[3..5].try_into().ok()?),
                payload_len: u32::from_be_bytes(rest[5..9].try_into().ok()?) as usize,
            })
        }
        _ => return None,
    };
    Some((mode, payload))
}

/// Reconstructs the inner packet from a decapsulated payload, applying
/// the BEET inner addresses.
pub fn rebuild_inner(
    sa: &EspSa,
    mode: InnerMode,
    payload: Payload,
    lsi_src: IpAddr,
    lsi_dst: IpAddr,
) -> Packet {
    match mode {
        InnerMode::Hit => Packet::new(sa.inner_src, sa.inner_dst, payload),
        InnerMode::Lsi => Packet::new(lsi_src, lsi_dst, payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::v4;

    fn pair() -> (EspSa, EspSa) {
        let enc = [1u8; 16];
        let auth = [2u8; 32];
        let src = v4(1, 0, 0, 1);
        let dst = v4(1, 0, 0, 2);
        (
            EspSa::new(0x100, enc, auth, src, dst),
            EspSa::new(0x100, enc, auth, src, dst),
        )
    }

    fn tcp_payload(data: &'static [u8]) -> Payload {
        Payload::Tcp(TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq: 7,
            ack: 9,
            flags: TcpFlags::ACK,
            window: 65535,
            data: Bytes::from_static(data),
            gso_mss: 0,
        })
    }

    #[test]
    fn encap_decap_round_trip_tcp() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"secret database query"), 42);
        assert!(esp.ciphertext.len() >= 32);
        let (mode, payload) = rx.decapsulate(&esp).expect("valid");
        assert_eq!(mode, InnerMode::Hit);
        match payload {
            Payload::Tcp(seg) => {
                assert_eq!(&seg.data[..], b"secret database query");
                assert_eq!(seg.src_port, 1000);
                assert_eq!(seg.seq, 7);
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut tx, _) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"plaintext marker AAAA"), 1);
        let hay = esp.ciphertext.as_ref();
        let needle = b"plaintext marker";
        assert!(
            !hay.windows(needle.len()).any(|w| w == needle),
            "payload must not appear in the clear"
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (mut tx, mut rx) = pair();
        let mut esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        let mut ct = esp.ciphertext.to_vec();
        ct[20] ^= 0x01;
        esp.ciphertext = Bytes::from(ct);
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn tampered_icv_rejected() {
        let (mut tx, mut rx) = pair();
        let mut esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        esp.icv[0] ^= 0xff;
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn wrong_key_rejected() {
        let (mut tx, _) = pair();
        let mut rx = EspSa::new(0x100, [9u8; 16], [9u8; 32], v4(1, 0, 0, 1), v4(1, 0, 0, 2));
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn replayed_packet_rejected() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        assert!(rx.decapsulate(&esp).is_ok());
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::Replay)));
    }

    #[test]
    fn out_of_order_within_window_accepted() {
        let (mut tx, mut rx) = pair();
        let e1 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"1"), 1);
        let e2 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"2"), 2);
        let e3 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"3"), 3);
        assert!(rx.decapsulate(&e3).is_ok());
        assert!(rx.decapsulate(&e1).is_ok(), "within window");
        assert!(rx.decapsulate(&e2).is_ok());
        assert!(
            matches!(rx.decapsulate(&e2), Err(EspError::Replay)),
            "but only once"
        );
    }

    #[test]
    fn ancient_sequence_rejected() {
        let (mut tx, mut rx) = pair();
        let old = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"old"), 1);
        // Advance the window far past it.
        for i in 0..100 {
            let e = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"x"), i + 2);
            let _ = rx.decapsulate(&e);
        }
        assert!(matches!(rx.decapsulate(&old), Err(EspError::Replay)));
    }

    #[test]
    fn lsi_mode_round_trip() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Lsi, &tcp_payload(b"legacy ipv4 app"), 1);
        let (mode, payload) = rx.decapsulate(&esp).unwrap();
        assert_eq!(mode, InnerMode::Lsi);
        let rebuilt = rebuild_inner(&rx, mode, payload, v4(1, 7, 7, 7), v4(1, 8, 8, 8));
        assert_eq!(rebuilt.src, v4(1, 7, 7, 7));
        assert_eq!(rebuilt.dst, v4(1, 8, 8, 8));
    }

    #[test]
    fn udp_and_icmp_round_trip() {
        let (mut tx, mut rx) = pair();
        let udp = Payload::Udp(UdpDatagram {
            src_port: 5353,
            dst_port: 9999,
            data: UdpData::Raw(Bytes::from_static(b"dgram")),
        });
        let esp = tx.encapsulate(InnerMode::Hit, &udp, 1);
        let (_, back) = rx.decapsulate(&esp).unwrap();
        match back {
            Payload::Udp(u) => match u.data {
                UdpData::Raw(b) => assert_eq!(&b[..], b"dgram"),
                _ => panic!(),
            },
            _ => panic!(),
        }
        let icmp = Payload::Icmp(IcmpMessage {
            kind: IcmpKind::EchoRequest,
            ident: 3,
            seq: 4,
            payload_len: 56,
        });
        let esp = tx.encapsulate(InnerMode::Hit, &icmp, 2);
        let (_, back) = rx.decapsulate(&esp).unwrap();
        match back {
            Payload::Icmp(i) => {
                assert_eq!(i.kind, IcmpKind::EchoRequest);
                assert_eq!(i.payload_len, 56);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn counters_accumulate() {
        let (mut tx, mut rx) = pair();
        let mut accepted = 0;
        for i in 0..5 {
            let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"xxxx"), i);
            accepted += usize::from(rx.decapsulate(&esp).is_ok());
        }
        assert_eq!(accepted, 5);
        assert_eq!(tx.tx_seq(), 5);
        assert_eq!(window(&rx), (5, 0b11111));
    }

    #[test]
    fn gso_frames_equal_per_frame_encapsulation() {
        let (mut tx, mut rx) = pair();
        let (mut utx, _) = pair();
        let payloads = [
            tcp_payload(b"first frame"),
            tcp_payload(b"second"),
            tcp_payload(b"third one here"),
        ];
        let frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 42);
        assert_eq!(frames.len(), 3);
        let mut accepted = 0;
        for (i, (frame, p)) in frames.iter().zip(&payloads).enumerate() {
            let single = utx.encapsulate(InnerMode::Hit, p, 42);
            assert_eq!(frame.seq, 1 + i as u32);
            assert_eq!(frame.ciphertext, single.ciphertext, "frame {i}");
            assert_eq!(frame.icv, single.icv, "frame {i}");
            let (mode, back) = rx.decapsulate(frame).expect("frame decap");
            accepted += 1;
            assert_eq!(mode, InnerMode::Hit);
            let (Payload::Tcp(got), Payload::Tcp(want)) = (&back, p) else {
                panic!()
            };
            assert_eq!(got.data, want.data);
            assert_eq!(got.seq, want.seq);
        }
        assert_eq!(tx.tx_seq(), utx.tx_seq());
        assert_eq!(accepted, 3);
    }

    #[test]
    fn gso_frames_replay_checked_individually() {
        let (mut tx, mut rx) = pair();
        let payloads = [tcp_payload(b"a"), tcp_payload(b"b")];
        let frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 7);
        // Out-of-order arrival within the burst is fine...
        assert!(rx.decapsulate(&frames[1]).is_ok());
        assert!(rx.decapsulate(&frames[0]).is_ok());
        // ...but each frame is accepted only once.
        assert!(matches!(rx.decapsulate(&frames[0]), Err(EspError::Replay)));
        assert!(matches!(rx.decapsulate(&frames[1]), Err(EspError::Replay)));
    }

    #[test]
    fn gso_tampered_frame_rejected_alone() {
        let (mut tx, mut rx) = pair();
        let payloads = [tcp_payload(b"a"), tcp_payload(b"b"), tcp_payload(b"c")];
        let frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 7);
        let mut tampered = frames[1].clone();
        let mut ct = tampered.ciphertext.to_vec();
        ct[20] ^= 0x01;
        tampered.ciphertext = Bytes::from(ct);
        assert!(rx.decapsulate(&frames[0]).is_ok());
        assert!(matches!(rx.decapsulate(&tampered), Err(EspError::BadIcv)));
        assert!(rx.decapsulate(&frames[2]).is_ok());
        // Auth failure must not have consumed the frame's sequence number.
        assert!(rx.decapsulate(&frames[1]).is_ok());
    }

    const SPI: u32 = 0x100;
    const AUTH_KEY: [u8; 32] = [2u8; 32];

    /// An ESP frame with sequence number `seq` carrying `ciphertext` (IV
    /// included) under `pair()`'s auth key; the ICV is correct unless
    /// `good_icv` is false, in which case one bit of it is flipped.
    fn forge(seq: u32, ciphertext: Vec<u8>, good_icv: bool) -> EspPacket {
        let mac = HmacKey::new(&AUTH_KEY).mac_multi(&[
            &SPI.to_be_bytes(),
            &seq.to_be_bytes(),
            &ciphertext,
        ]);
        let mut icv = truncate(&mac);
        if !good_icv {
            icv[ICV_LEN - 1] ^= 0x80;
        }
        EspPacket {
            spi: SPI,
            seq,
            ciphertext: Bytes::from(ciphertext),
            icv,
        }
    }

    /// `Payload` has no `PartialEq`; its `Debug` form shows every field.
    fn shown(r: &Result<(InnerMode, Payload), EspError>) -> String {
        format!("{r:?}")
    }

    fn window(sa: &EspSa) -> (u32, u64) {
        (sa.rcv_highest, sa.rcv_window)
    }

    #[test]
    fn short_and_ragged_ciphertexts_are_pinned() {
        // The receive path's verdict and replay-window effect for every
        // length around the one- and two-block boundaries. Lengths count
        // the IV. Garbage bytes are fixed, so the outcome is too.
        let garbage = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 37 + 11) as u8).collect() };
        for len in [0usize, 15, 16, 17, 31, 32, 33, 48] {
            for good_icv in [false, true] {
                let (mut tx, mut rx) = pair();
                let mut accepted = 0;
                // Accept seq 3 first so the window has history to keep.
                for _ in 0..3 {
                    let e = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"x"), 1);
                    if e.seq == 3 {
                        rx.decapsulate(&e).expect("valid frame");
                        accepted += 1;
                    }
                }
                let before = window(&rx);
                assert_eq!(before, (3, 1));
                let frame = forge(5, garbage(len), good_icv);
                let got = rx.decapsulate(&frame);
                accepted += usize::from(got.is_ok());
                if good_icv {
                    assert_eq!(got.err(), Some(EspError::BadCiphertext), "len={len}");
                    assert_eq!(
                        window(&rx),
                        (5, 0b101),
                        "len={len}: authentic frame consumes its seq"
                    );
                    let again = rx.decapsulate(&frame);
                    accepted += usize::from(again.is_ok());
                    assert_eq!(again.err(), Some(EspError::Replay), "len={len}");
                } else {
                    assert_eq!(got.err(), Some(EspError::BadIcv), "len={len}");
                    assert_eq!(
                        window(&rx),
                        before,
                        "len={len}: forged frame leaves the window alone"
                    );
                }
                assert_eq!(accepted, 1, "len={len}: only the seq-3 frame is accepted");
            }
        }
        // Well-formed frames of exactly two and three blocks (an ICMP
        // message pads to one ciphertext block, 8 bytes of TCP data to two).
        let icmp = Payload::Icmp(IcmpMessage {
            kind: IcmpKind::EchoReply,
            ident: 1,
            seq: 2,
            payload_len: 3,
        });
        for (payload, len) in [(icmp, 32usize), (tcp_payload(b"8 bytes!"), 48)] {
            for good_icv in [false, true] {
                let (mut tx, mut rx) = pair();
                let real = tx.encapsulate(InnerMode::Lsi, &payload, 9);
                assert_eq!(real.ciphertext.len(), len);
                let frame = forge(real.seq, real.ciphertext.to_vec(), good_icv);
                let got = rx.decapsulate(&frame);
                if good_icv {
                    assert_eq!(
                        shown(&got),
                        shown(&Ok((InnerMode::Lsi, payload.clone()))),
                        "len={len}"
                    );
                    assert_eq!(window(&rx), (1, 1));
                } else {
                    assert_eq!(got.err(), Some(EspError::BadIcv), "len={len}");
                    assert_eq!(window(&rx), (0, 0));
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn any_flipped_bit_is_rejected_and_the_next_frame_accepted(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1500),
            pick in proptest::prelude::any::<u64>(),
        ) {
            let (mut tx, mut rx) = pair();
            let payload = Payload::Tcp(TcpSegment {
                src_port: 1, dst_port: 2, seq: 3, ack: 4, flags: TcpFlags::ACK, window: 5,
                data: Bytes::from(data), gso_mss: 0,
            });
            let esp = tx.encapsulate(InnerMode::Hit, &payload, 7);
            let next = tx.encapsulate(InnerMode::Hit, &payload, 8);
            let bits = 8 * (esp.ciphertext.len() + ICV_LEN);
            let bit = (pick % bits as u64) as usize;
            let mut ciphertext = esp.ciphertext.to_vec();
            let mut icv = esp.icv;
            if bit < 8 * ciphertext.len() {
                ciphertext[bit / 8] ^= 1 << (bit % 8);
            } else {
                let bit = bit - 8 * ciphertext.len();
                icv[bit / 8] ^= 1 << (bit % 8);
            }
            let flipped = EspPacket { ciphertext: Bytes::from(ciphertext), icv, ..esp.clone() };
            proptest::prop_assert_eq!(rx.decapsulate(&flipped).err(), Some(EspError::BadIcv));
            proptest::prop_assert_eq!(window(&rx), (0, 0));
            let want = shown(&Ok((InnerMode::Hit, payload)));
            proptest::prop_assert_eq!(shown(&rx.decapsulate(&next)), want.clone());
            proptest::prop_assert_eq!(shown(&rx.decapsulate(&esp)), want);
        }
    }

    #[test]
    fn gso_interleaves_with_unbatched_traffic() {
        let (mut tx, mut rx) = pair();
        let before = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"pre"), 1);
        let frames = tx.encapsulate_gso(
            InnerMode::Hit,
            &[tcp_payload(b"mid1"), tcp_payload(b"mid2")],
            2,
        );
        let after = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"post"), 3);
        assert_eq!(before.seq, 1);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(frames[1].seq, 3);
        assert_eq!(after.seq, 4);
        assert!(rx.decapsulate(&before).is_ok());
        assert!(rx.decapsulate(&frames[0]).is_ok());
        assert!(rx.decapsulate(&frames[1]).is_ok());
        assert!(rx.decapsulate(&after).is_ok());
    }
}
