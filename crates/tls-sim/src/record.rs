//! The TLS record layer: framing + encrypt-then-MAC protection.
//!
//! Frames on the wire: `type (1) | length (4 BE) | body`. Before the
//! handshake completes, bodies are plaintext handshake messages; after,
//! application bodies are `IV (16) | AES-CBC ciphertext | MAC (16)`
//! where the MAC is HMAC-SHA-256 over `seq (8) | ciphertext`, truncated.

use sim_crypto::aes::Aes128;
use sim_crypto::hmac::{verify_mac, HmacKey};

/// Record content types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordType {
    /// Handshake messages (plaintext until keys exist).
    Handshake,
    /// Protected application payload.
    ApplicationData,
    /// Fatal error notification.
    Alert,
}

impl RecordType {
    fn id(self) -> u8 {
        match self {
            RecordType::Handshake => 22,
            RecordType::ApplicationData => 23,
            RecordType::Alert => 21,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            22 => Some(RecordType::Handshake),
            23 => Some(RecordType::ApplicationData),
            21 => Some(RecordType::Alert),
            _ => None,
        }
    }
}

/// Frames a record.
pub fn frame(rtype: RecordType, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(rtype.id());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// An incremental record deframer (handles partial TCP reads).
#[derive(Default)]
pub struct Deframer {
    buf: Vec<u8>,
}

impl Deframer {
    /// Feeds bytes; returns complete records.
    pub fn feed(&mut self, data: &[u8]) -> Vec<(RecordType, Vec<u8>)> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < 5 {
                break;
            }
            let Some(rtype) = RecordType::from_id(self.buf[0]) else {
                // Unknown type: unrecoverable framing error; drop buffer.
                self.buf.clear();
                break;
            };
            let len = u32::from_be_bytes(self.buf[1..5].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < 5 + len {
                break;
            }
            let body = self.buf[5..5 + len].to_vec();
            self.buf.drain(..5 + len);
            out.push((rtype, body));
        }
        out
    }

    /// Bytes buffered awaiting a complete record.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// One direction of record protection.
pub struct RecordCipher {
    cipher: Aes128,
    /// Cached HMAC transcripts, absorbed once per connection and cloned
    /// per record.
    mac_key: HmacKey,
    seq: u64,
}

/// MAC length on the wire.
pub const MAC_LEN: usize = 16;

impl RecordCipher {
    /// Builds from traffic keys.
    pub fn new(enc_key: [u8; 16], mac_key: [u8; 32]) -> Self {
        RecordCipher { cipher: Aes128::new(&enc_key), mac_key: HmacKey::new(&mac_key), seq: 0 }
    }

    /// Protects an application payload.
    pub fn seal(&mut self, plaintext: &[u8], iv_seed: u64) -> Vec<u8> {
        self.seq += 1;
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&iv_seed.to_be_bytes());
        iv[8..16].copy_from_slice(&self.seq.to_be_bytes());
        // The plaintext is ciphered straight into the body after the IV,
        // with no intermediate ciphertext vector.
        let padded = (plaintext.len() / 16 + 1) * 16;
        let mut body = Vec::with_capacity(16 + padded + MAC_LEN);
        body.extend_from_slice(&iv);
        self.cipher.cbc_encrypt_into(&iv, plaintext, &mut body);
        let mac = self.mac(self.seq, &body);
        body.extend_from_slice(&mac);
        body
    }

    /// Verifies and decrypts a protected body.
    pub fn open(&mut self, body: &[u8]) -> Option<Vec<u8>> {
        if body.len() < 16 + 16 + MAC_LEN {
            return None;
        }
        let (payload, mac) = body.split_at(body.len() - MAC_LEN);
        self.seq += 1;
        let expect = self.mac(self.seq, payload);
        if !verify_mac(&expect, mac) {
            self.seq -= 1; // do not consume a number for garbage
            return None;
        }
        let iv: [u8; 16] = payload[..16].try_into().ok()?;
        self.cipher.cbc_decrypt(&iv, &payload[16..])
    }

    fn mac(&self, seq: u64, data: &[u8]) -> [u8; MAC_LEN] {
        let full = self.mac_key.mac_multi(&[&seq.to_be_bytes(), data]);
        full[..MAC_LEN].try_into().expect("truncate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_deframe_round_trip() {
        let mut d = Deframer::default();
        let wire = [frame(RecordType::Handshake, b"hello"), frame(RecordType::ApplicationData, b"data")].concat();
        // Feed in awkward chunks.
        let mut records = Vec::new();
        for chunk in wire.chunks(3) {
            records.extend(d.feed(chunk));
        }
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], (RecordType::Handshake, b"hello".to_vec()));
        assert_eq!(records[1], (RecordType::ApplicationData, b"data".to_vec()));
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn seal_open_round_trip() {
        let mut tx = RecordCipher::new([1; 16], [2; 32]);
        let mut rx = RecordCipher::new([1; 16], [2; 32]);
        for msg in [&b"short"[..], &[0u8; 5000][..]] {
            let sealed = tx.seal(msg, 7);
            assert_eq!(rx.open(&sealed).as_deref(), Some(msg));
        }
    }

    #[test]
    fn sealed_body_is_iv_ciphertext_mac() {
        let mut tx = RecordCipher::new([1; 16], [2; 32]);
        for (i, len) in [0usize, 15, 16, 1000].into_iter().enumerate() {
            let msg: Vec<u8> = (0..len).map(|b| (b * 31) as u8).collect();
            let seq = i as u64 + 1;
            let sealed = tx.seal(&msg, 7);
            let mut iv = [0u8; 16];
            iv[..8].copy_from_slice(&7u64.to_be_bytes());
            iv[8..].copy_from_slice(&seq.to_be_bytes());
            let mut expected = iv.to_vec();
            expected.extend_from_slice(&Aes128::new(&[1; 16]).cbc_encrypt(&iv, &msg));
            let mac = HmacKey::new(&[2; 32]).mac_multi(&[&seq.to_be_bytes(), &expected]);
            expected.extend_from_slice(&mac[..MAC_LEN]);
            assert_eq!(sealed, expected, "len={len}");
        }
    }

    #[test]
    fn tampering_detected() {
        let mut tx = RecordCipher::new([1; 16], [2; 32]);
        let mut rx = RecordCipher::new([1; 16], [2; 32]);
        let mut sealed = tx.seal(b"important", 7);
        sealed[20] ^= 1;
        assert!(rx.open(&sealed).is_none());
    }

    #[test]
    fn wrong_keys_detected() {
        let mut tx = RecordCipher::new([1; 16], [2; 32]);
        let mut rx = RecordCipher::new([1; 16], [9; 32]);
        let sealed = tx.seal(b"important", 7);
        assert!(rx.open(&sealed).is_none());
    }

    #[test]
    fn sequence_binding_prevents_reorder() {
        let mut tx = RecordCipher::new([1; 16], [2; 32]);
        let mut rx = RecordCipher::new([1; 16], [2; 32]);
        let s1 = tx.seal(b"one", 1);
        let s2 = tx.seal(b"two", 2);
        // Deliver out of order: the MAC (bound to the receive counter)
        // must fail.
        assert!(rx.open(&s2).is_none());
        // In-order delivery after the failure still works.
        assert_eq!(rx.open(&s1).as_deref(), Some(&b"one"[..]));
        assert_eq!(rx.open(&s2).as_deref(), Some(&b"two"[..]));
    }

    #[test]
    fn garbage_framing_does_not_panic() {
        let mut d = Deframer::default();
        assert!(d.feed(&[0xff, 1, 2, 3, 4, 5]).is_empty());
    }
}
