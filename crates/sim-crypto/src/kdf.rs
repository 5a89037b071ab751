//! Key derivation.
//!
//! - [`keymat`]: the HIP KEYMAT expansion of RFC 5201 §6.5 — the DH shared
//!   key is stretched into as many symmetric key bytes as the ESP SAs and
//!   HIP HMACs need, bound to both HITs.
//! - [`prf_expand`]: a TLS-1.2-style PRF used by the `tls-sim` baseline so
//!   both protocols derive keys with the same primitive (HMAC-SHA-256).

use crate::hmac::HmacKey;
use crate::sha256::{sha256_multi, DIGEST_LEN};

/// RFC 5201 §6.5 KEYMAT generation.
///
/// ```text
/// KEYMAT = K1 | K2 | K3 | ...
/// K1 = SHA-256(Kij | sort(HIT-I | HIT-R) | I | J | 0x01)
/// Ki = SHA-256(Kij | K(i-1) | 0x0i)
/// ```
///
/// `kij` is the DH shared secret, `hit_a`/`hit_b` the two HITs (sorted
/// numerically here, as the RFC requires), `i`/`j` the puzzle values.
pub fn keymat(
    kij: &[u8],
    hit_a: &[u8; 16],
    hit_b: &[u8; 16],
    i: u64,
    j: u64,
    out_len: usize,
) -> Vec<u8> {
    let (lo, hi) = if hit_a <= hit_b {
        (hit_a, hit_b)
    } else {
        (hit_b, hit_a)
    };
    let i_bytes = i.to_be_bytes();
    let j_bytes = j.to_be_bytes();
    let mut out = Vec::with_capacity(out_len + DIGEST_LEN);
    let mut counter = 1u8;
    let mut prev = sha256_multi(&[kij, lo, hi, &i_bytes, &j_bytes, &[counter]]);
    out.extend_from_slice(&prev);
    while out.len() < out_len {
        counter = counter.wrapping_add(1);
        prev = sha256_multi(&[kij, &prev, &[counter]]);
        out.extend_from_slice(&prev);
    }
    out.truncate(out_len);
    out
}

/// TLS-1.2-style P_SHA256 expansion: `P_hash(secret, label || seed)`.
///
/// Every iteration needs two HMACs under the same `secret` (plus the
/// initial `A(1)`), so the key transcripts are precomputed once via
/// [`HmacKey`] instead of re-deriving the key block per HMAC.
pub fn prf_expand(secret: &[u8], label: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    let key = HmacKey::new(secret);
    let mut label_seed = Vec::with_capacity(label.len() + seed.len());
    label_seed.extend_from_slice(label);
    label_seed.extend_from_slice(seed);
    let mut out = Vec::with_capacity(out_len + DIGEST_LEN);
    // A(1) = HMAC(secret, label_seed); A(i) = HMAC(secret, A(i-1))
    let mut a = key.mac(&label_seed);
    while out.len() < out_len {
        out.extend_from_slice(&key.mac_multi(&[&a, &label_seed]));
        a = key.mac(&a);
    }
    out.truncate(out_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keymat_deterministic_and_sized() {
        let kij = b"shared secret bytes";
        let hit_a = [1u8; 16];
        let hit_b = [2u8; 16];
        for len in [1usize, 31, 32, 33, 64, 100, 256] {
            let k1 = keymat(kij, &hit_a, &hit_b, 7, 9, len);
            let k2 = keymat(kij, &hit_a, &hit_b, 7, 9, len);
            assert_eq!(k1, k2);
            assert_eq!(k1.len(), len);
        }
    }

    #[test]
    fn keymat_symmetric_in_hit_order() {
        // Both ends must derive the same KEYMAT regardless of which HIT
        // they consider "theirs" — the RFC sorts the HITs.
        let kij = b"kij";
        let a = [0x11u8; 16];
        let b = [0x22u8; 16];
        assert_eq!(keymat(kij, &a, &b, 1, 2, 64), keymat(kij, &b, &a, 1, 2, 64));
    }

    #[test]
    fn keymat_sensitive_to_all_inputs() {
        let base = keymat(b"k", &[1; 16], &[2; 16], 1, 2, 32);
        assert_ne!(base, keymat(b"K", &[1; 16], &[2; 16], 1, 2, 32));
        assert_ne!(base, keymat(b"k", &[3; 16], &[2; 16], 1, 2, 32));
        assert_ne!(base, keymat(b"k", &[1; 16], &[2; 16], 9, 2, 32));
        assert_ne!(base, keymat(b"k", &[1; 16], &[2; 16], 1, 9, 32));
    }

    #[test]
    fn prf_expand_deterministic_distinct_labels() {
        let a = prf_expand(b"secret", b"key expansion", b"seed", 48);
        let b = prf_expand(b"secret", b"key expansion", b"seed", 48);
        let c = prf_expand(b"secret", b"master secret", b"seed", 48);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 48);
    }

    #[test]
    fn prf_expand_prefix_property() {
        // Longer output extends shorter output (streaming property).
        let short = prf_expand(b"s", b"l", b"x", 20);
        let long = prf_expand(b"s", b"l", b"x", 80);
        assert_eq!(&long[..20], &short[..]);
    }
}
