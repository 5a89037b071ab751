//! HMAC-SHA-256 (RFC 2104), used for HIP packet MACs, ESP integrity and
//! the TLS record layer.
//!
//! The hot-path type is [`HmacKey`]: it absorbs the ipad into the inner
//! SHA-256 state and the opad into the outer state **once**, at key-setup
//! time. Each MAC then clones the two midstates instead of re-deriving
//! the key block — for short messages that removes one key-block XOR
//! pass and two SHA-256 compressions per MAC, which is exactly the
//! per-packet cost the ESP and TLS-record layers pay.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// A precomputed HMAC-SHA-256 key: the ipad-absorbed inner state and
/// opad-absorbed outer state, computed once. Store one per security
/// association / record cipher and clone per packet.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Precomputes the transcripts for `key` (hashed first if longer
    /// than one block).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// One-shot MAC of `message` from the cached transcripts.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        self.begin().chain(message).finalize()
    }

    /// One-shot MAC over several segments without concatenating them —
    /// the replacement for `hmac(key, [a, b, c].concat())` hot paths.
    pub fn mac_multi(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = self.begin();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// The inner chaining value after the ipad block: where a MAC whose
    /// inner hash runs outside this type starts.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn inner_state(&self) -> [u32; 8] {
        self.inner.chaining_value()
    }

    /// Finishes a MAC whose inner hash ran outside this type: `inner`
    /// has absorbed the ipad block and the whole message.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn finish(&self, inner: Sha256) -> [u8; DIGEST_LEN] {
        HmacSha256 {
            inner,
            outer: self.outer.clone(),
        }
        .finalize()
    }

    /// Starts an incremental MAC from the cached midstates.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }
}

/// Incremental HMAC-SHA-256. Obtained either from [`HmacSha256::new`]
/// (derives the key block on the spot) or from a cached
/// [`HmacKey::begin`] (clones precomputed midstates).
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Initializes with `key` (hashed first if longer than one block).
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Builder-style `update`.
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    /// Finalizes the MAC.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time MAC comparison.
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let data = [0xcdu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_5_truncated_output() {
        // RFC 4231 case 5: the published vector is the MAC truncated to
        // 128 bits — the same truncation the ESP ICV and TLS record MAC
        // apply on the wire.
        let key = [0x0cu8; 20];
        let mac = hmac_sha256(&key, b"Test With Truncation");
        assert_eq!(hex(&mac[..16]), "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let msg: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let mut h = HmacSha256::new(key);
        for c in msg.chunks(17) {
            h.update(c);
        }
        assert_eq!(h.finalize(), hmac_sha256(key, &msg));
    }

    #[test]
    fn cached_key_matches_fresh_derivation() {
        for key_len in [0usize, 1, 20, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31 % 256) as u8).collect();
            let cached = HmacKey::new(&key);
            for msg_len in [0usize, 1, 55, 56, 64, 100, 1500] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7 % 256) as u8).collect();
                assert_eq!(
                    cached.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key_len={key_len} msg_len={msg_len}"
                );
            }
        }
    }

    #[test]
    fn mac_multi_matches_concat() {
        let key = HmacKey::new(b"segmented");
        let parts: [&[u8]; 3] = [b"spi!", b"seq.", b"ciphertext bytes"];
        let concat: Vec<u8> = parts.concat();
        assert_eq!(key.mac_multi(&parts), key.mac(&concat));
    }

    #[test]
    fn cached_key_is_reusable() {
        // A cloned-per-packet key must not accumulate state.
        let key = HmacKey::new(b"reuse me");
        let a = key.mac(b"first packet");
        let _ = key.mac(b"second packet");
        assert_eq!(key.mac(b"first packet"), a);
    }

    #[test]
    fn verify_mac_semantics() {
        let a = [1u8, 2, 3];
        assert!(verify_mac(&a, &[1, 2, 3]));
        assert!(!verify_mac(&a, &[1, 2, 4]));
        assert!(!verify_mac(&a, &[1, 2]));
    }
}
