//! The TLS record layer: framing + encrypt-then-MAC protection.
//!
//! Frames on the wire: `type (1) | length (4 BE) | body`. Before the
//! handshake completes, bodies are plaintext handshake messages; after,
//! application bodies are `IV (16) | AES-CBC ciphertext | MAC (16)`
//! where the MAC is HMAC-SHA-256 over `seq (8) | IV | ciphertext`,
//! truncated. [`sim_crypto::etm`] seals and opens them, as it does ESP
//! packets.

use sim_crypto::aes::{Aes128, BLOCK_LEN};
use sim_crypto::hmac::{verify_mac, HmacKey};
use sim_crypto::{etm, pkcs7};

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

/// Length of a record header: type (1) and body length (4, BE).
pub const HEADER_LEN: usize = 5;

/// Appends `value` as a `u32 BE length | value` field, the encoding of
/// every variable-length field in handshake messages and certificates.
pub(crate) fn put_field(out: &mut Vec<u8>, value: &[u8]) {
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(value);
}

/// The value of the [`put_field`] field at the front of `buf`, which it
/// then skips.
pub(crate) fn take_field<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (len, rest) = buf.split_first_chunk::<4>()?;
    let (value, rest) = rest.split_at_checked(u32::from_be_bytes(*len) as usize)?;
    *buf = rest;
    Some(value)
}

/// A record header with an unknown content type: the stream has no
/// frame boundary to trust from there on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownType;

/// The record at the front of `buf`: its type and body (it spans
/// [`HEADER_LEN`] `+ body.len()` bytes), or `None` while it has not
/// fully arrived. A header with an unknown type is an error as soon as
/// its first byte is in.
pub fn decode(buf: &[u8]) -> Result<Option<(RecordType, &[u8])>, UnknownType> {
    let Some((&id, rest)) = buf.split_first() else {
        return Ok(None);
    };
    let rtype = RecordType::from_id(id).ok_or(UnknownType)?;
    let Some((len, rest)) = rest.split_first_chunk::<4>() else {
        return Ok(None);
    };
    Ok(rest
        .get(..u32::from_be_bytes(*len) as usize)
        .map(|body| (rtype, body)))
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
        RecordCipher {
            cipher: Aes128::new(&enc_key),
            mac_key: HmacKey::new(&mac_key),
            seq: 0,
        }
    }

    /// Protects an application payload: the record body.
    pub fn seal(&mut self, plaintext: &[u8], iv_seed: u64) -> Vec<u8> {
        self.seal_after(None, plaintext, iv_seed)
    }

    /// Protects an application payload as a whole application-data
    /// record: [`frame`] of [`RecordCipher::seal`], built in one buffer.
    pub fn seal_record(&mut self, plaintext: &[u8], iv_seed: u64) -> Vec<u8> {
        self.seal_after(Some(RecordType::ApplicationData), plaintext, iv_seed)
    }

    /// The body protecting `plaintext`, after an `rtype` header if any,
    /// built in place: the IV (seed, then sequence number) and the padded
    /// plaintext, encrypted and MACed in one pass, then the truncated MAC.
    fn seal_after(&mut self, rtype: Option<RecordType>, plaintext: &[u8], iv_seed: u64) -> Vec<u8> {
        self.seq += 1;
        let aad = self.seq.to_be_bytes();
        let len = BLOCK_LEN + pkcs7::padded_len(plaintext.len()) + MAC_LEN;
        let mut out = Vec::with_capacity(HEADER_LEN + len);
        if let Some(rtype) = rtype {
            out.push(rtype.id());
            out.extend_from_slice(&(len as u32).to_be_bytes());
        }
        let start = out.len();
        out.extend_from_slice(&iv_seed.to_be_bytes());
        out.extend_from_slice(&aad);
        out.extend_from_slice(plaintext);
        pkcs7::pad(&mut out, plaintext.len());
        let mac = etm::seal(&self.cipher, &self.mac_key, &aad, &mut out[start..]);
        out.extend_from_slice(&mac[..MAC_LEN]);
        out
    }

    /// Verifies and decrypts a protected body. The MAC is checked first:
    /// a record that fails it consumes no sequence number, and one that
    /// passes consumes its number even if it then fails to decrypt.
    pub fn open(&mut self, body: &[u8]) -> Option<Vec<u8>> {
        if body.len() < 2 * BLOCK_LEN + MAC_LEN {
            return None;
        }
        let (ivct, mac) = body.split_at(body.len() - MAC_LEN);
        let aad = (self.seq + 1).to_be_bytes();
        if !ivct.len().is_multiple_of(BLOCK_LEN) {
            // Too ragged to decrypt: MAC only, then the same verdict.
            let full = self.mac_key.mac_multi(&[&aad, ivct]);
            if verify_mac(&full[..MAC_LEN], mac) {
                self.seq += 1;
            }
            return None;
        }
        let mut plain = vec![0u8; ivct.len() - BLOCK_LEN];
        let full = etm::open(&self.cipher, &self.mac_key, &aad, ivct, &mut plain);
        if !verify_mac(&full[..MAC_LEN], mac) {
            return None;
        }
        self.seq += 1;
        plain.truncate(pkcs7::unpad(&plain)?);
        Some(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    type Record = (RecordType, Vec<u8>);

    /// Appends `data` to `buf` and takes every complete record off its
    /// front, as a session reads them, up to a header with an unknown
    /// type, which stays in `buf` and is returned too.
    fn feed(buf: &mut BytesMut, data: &[u8]) -> (Vec<Record>, Option<UnknownType>) {
        buf.extend_from_slice(data);
        let mut records = Vec::new();
        loop {
            match decode(buf) {
                Ok(Some((rtype, body))) => {
                    let record = (rtype, body.to_vec());
                    buf.advance(HEADER_LEN + record.1.len());
                    records.push(record);
                }
                Ok(None) => return (records, None),
                Err(e) => return (records, Some(e)),
            }
        }
    }

    #[test]
    fn frame_deframe_round_trip() {
        let mut buf = BytesMut::new();
        let wire = [
            frame(RecordType::Handshake, b"hello"),
            frame(RecordType::ApplicationData, b"data"),
        ]
        .concat();
        // Feed in awkward chunks.
        let mut records = Vec::new();
        for chunk in wire.chunks(3) {
            let (got, unknown) = feed(&mut buf, chunk);
            assert_eq!(unknown, None);
            records.extend(got);
        }
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], (RecordType::Handshake, b"hello".to_vec()));
        assert_eq!(records[1], (RecordType::ApplicationData, b"data".to_vec()));
        assert_eq!(buf.len(), 0);
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
    fn seal_record_frames_the_sealed_body() {
        let mut whole = RecordCipher::new([1; 16], [2; 32]);
        let mut body = RecordCipher::new([1; 16], [2; 32]);
        for (len, iv) in [(0usize, 7), (15, 8), (16, 9), (1000, 10)] {
            let msg = vec![0x5a; len];
            let expected = frame(RecordType::ApplicationData, &body.seal(&msg, iv));
            assert_eq!(whole.seal_record(&msg, iv), expected, "len={len}");
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
        let mut buf = BytesMut::new();
        assert_eq!(
            feed(&mut buf, &[0xff, 1, 2, 3, 4, 5]),
            (vec![], Some(UnknownType))
        );
        // The records ahead of the bad header arrive; nothing after it
        // does, in that call or a later one (a session drops the rest
        // of the stream: `session::tests::unknown_record_type_fails_the_session`).
        let mut buf = BytesMut::new();
        let wire = [
            frame(RecordType::Handshake, b"ok"),
            vec![0xff, 0, 0, 0, 1, 0],
            frame(RecordType::Handshake, b"lost"),
        ]
        .concat();
        assert_eq!(
            feed(&mut buf, &wire),
            (
                vec![(RecordType::Handshake, b"ok".to_vec())],
                Some(UnknownType)
            )
        );
        assert_eq!(
            feed(&mut buf, &frame(RecordType::Handshake, b"later")),
            (vec![], Some(UnknownType))
        );
    }

    const ENC_KEY: [u8; 16] = [1; 16];
    const MAC_KEY: [u8; 32] = [2; 32];

    /// `msg` with textbook PKCS#7 padding.
    fn padded(msg: &[u8]) -> Vec<u8> {
        let pad = 16 - msg.len() % 16;
        [msg, &vec![pad as u8; pad]].concat()
    }

    /// Textbook CBC over whole blocks under [`ENC_KEY`], adding no
    /// padding, so a test can encrypt a malformed pad.
    fn raw_cbc(iv: [u8; 16], blocks: &[u8]) -> Vec<u8> {
        let aes = Aes128::new(&ENC_KEY);
        let mut prev = iv;
        let mut out = Vec::new();
        for chunk in blocks.chunks(16) {
            let mut block: [u8; 16] = chunk.try_into().expect("whole blocks");
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            aes.encrypt_block(&mut block);
            out.extend_from_slice(&block);
            prev = block;
        }
        out
    }

    /// `iv | ct | MAC` with the MAC record number `seq` expects; `ct`
    /// need not be whole blocks.
    fn forge(seq: u64, iv: [u8; 16], ct: &[u8]) -> Vec<u8> {
        let mut body = [&iv[..], ct].concat();
        let mac = HmacKey::new(&MAC_KEY).mac_multi(&[&seq.to_be_bytes(), &body]);
        body.extend_from_slice(&mac[..MAC_LEN]);
        body
    }

    #[test]
    fn open_verdicts_and_sequence_numbers_are_pinned() {
        let iv = [9u8; 16];
        let msg = |len: usize| (0..len).map(|b| (b * 7) as u8).collect::<Vec<u8>>();
        // Opens `body` as record 1 of a fresh receiver and pins the result
        // and whether the record consumed that sequence number.
        let check = |case: &str, body: &[u8], expected: Option<&[u8]>, consumes: bool| {
            let mut rx = RecordCipher::new(ENC_KEY, MAC_KEY);
            assert_eq!(rx.open(body).as_deref(), expected, "{case}");
            assert_eq!(rx.seq, u64::from(consumes), "{case}: sequence number");
        };
        for len in [0, 15, 16, 1000] {
            let body = forge(1, iv, &raw_cbc(iv, &padded(&msg(len))));
            check(&format!("valid {len} B"), &body, Some(&msg(len)), true);
        }
        for len in [0, 1, 16, 32, 47] {
            check(&format!("{len} B of zeros"), &vec![0; len], None, false);
        }
        // IV, 15 ciphertext bytes and a MAC that checks: still too short.
        check(
            "47 B with a valid MAC",
            &forge(1, iv, &[3; 15]),
            None,
            false,
        );
        let mut ragged = forge(1, iv, &[3; 17]);
        check("ragged, valid MAC", &ragged, None, true);
        *ragged.last_mut().expect("MAC") ^= 1;
        check("ragged, bad MAC", &ragged, None, false);
        let valid = forge(1, iv, &raw_cbc(iv, &padded(&msg(1000))));
        for (what, at) in [("IV", 3), ("ciphertext", 500), ("MAC", valid.len() - 1)] {
            let mut body = valid.clone();
            body[at] ^= 0x10;
            check(&format!("flipped bit in the {what}"), &body, None, false);
        }
        for (what, tail) in [
            ("pad byte 0", &[0u8][..]),
            ("pad byte 17", &[17]),
            ("mismatched run", &[3, 4, 3]),
        ] {
            let mut plain = vec![0x41; 32];
            plain[32 - tail.len()..].copy_from_slice(tail);
            let body = forge(1, iv, &raw_cbc(iv, &plain));
            check(&format!("valid MAC, {what}"), &body, None, true);
        }

        // Out of order: record 2 first fails and consumes nothing; then
        // both open in order, and a replay of record 2 fails.
        let mut tx = RecordCipher::new(ENC_KEY, MAC_KEY);
        let mut rx = RecordCipher::new(ENC_KEY, MAC_KEY);
        let (one, two) = (tx.seal(b"one", 5), tx.seal(b"two", 5));
        assert_eq!(rx.open(&two), None);
        assert_eq!(rx.seq, 0);
        assert_eq!(rx.open(&one).as_deref(), Some(&b"one"[..]));
        assert_eq!(rx.open(&two).as_deref(), Some(&b"two"[..]));
        assert_eq!(rx.open(&two), None);
        assert_eq!(rx.seq, 2);
    }
}
