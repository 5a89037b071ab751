//! Encrypt-then-MAC in one pass: AES-128-CBC over a buffer and
//! HMAC-SHA-256 over `aad | IV | ciphertext`, the construction that
//! protects both ESP packets (`aad` = SPI and sequence number) and TLS
//! records (`aad` = the record sequence number).
//!
//! Both functions take `ivct`, the IV followed by whole ciphertext (or,
//! for [`seal`], plaintext) blocks, and return the full 32-byte MAC of
//! `aad | ivct`; the caller truncates it. [`seal`] encrypts in place and
//! MACs the result; [`open`] MACs the input and decrypts it into a
//! caller-supplied buffer, padding left in place, for the caller to
//! check once the MAC has been verified.
//!
//! On x86-64 CPUs with both AES-NI and SHA-NI the two run one stitched
//! loop (private module `ni`): each iteration CBC-processes four AES
//! blocks and hashes one 64-byte MAC block that does not depend on
//! them, so the serial `aesenc` chain and the `sha256rnds2` chain
//! overlap in the out-of-order core. It shares its rounds with the AES
//! and SHA-256 fast paths. Elsewhere the serial composition runs: CBC
//! over the buffer, then [`HmacKey::mac_multi`]. There is no switch.
//! The in-file proptests pin the stitched loop to the serial one, and
//! `tests/properties.rs` pins the public functions to
//! [`crate::aes::reference`] and [`crate::hmac::hmac_sha256`].

use crate::aes::{Aes128, BLOCK_LEN};
use crate::hmac::HmacKey;
use crate::sha256::DIGEST_LEN;

/// Length of the associated data the MAC covers ahead of the IV (ESP's
/// SPI and sequence number, or a TLS record's sequence number).
pub const AAD_LEN: usize = 8;

/// CBC-encrypts `ivct[16..]` in place under the IV `ivct[..16]` and
/// returns the HMAC of `aad | ivct` (IV and ciphertext).
///
/// # Panics
///
/// If `ivct` is not a whole number of blocks, at least one (the IV).
pub fn seal(aes: &Aes128, key: &HmacKey, aad: &[u8; AAD_LEN], ivct: &mut [u8]) -> [u8; DIGEST_LEN] {
    check_len(ivct.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::EtmNi::detect() {
        return ni.seal(aes, key, aad, ivct);
    }
    seal_serial(aes, key, aad, ivct)
}

/// Returns the HMAC of `aad | ivct` and CBC-decrypts `ivct[16..]` under
/// the IV `ivct[..16]` into `out`. The padding stays in `out`; nothing
/// in it is meaningful until the caller has checked the MAC.
///
/// # Panics
///
/// If `ivct` is not a whole number of blocks, at least one (the IV), or
/// `out` is not exactly `ivct.len() - 16` bytes long.
pub fn open(
    aes: &Aes128,
    key: &HmacKey,
    aad: &[u8; AAD_LEN],
    ivct: &[u8],
    out: &mut [u8],
) -> [u8; DIGEST_LEN] {
    check_len(ivct.len());
    assert_eq!(
        out.len(),
        ivct.len() - BLOCK_LEN,
        "etm::open: output must match the ciphertext length"
    );
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::EtmNi::detect() {
        return ni.open(aes, key, aad, ivct, out);
    }
    open_serial(aes, key, aad, ivct, out)
}

fn check_len(len: usize) {
    assert!(
        len >= BLOCK_LEN && len.is_multiple_of(BLOCK_LEN),
        "etm: IV and ciphertext must be whole blocks, got {len} bytes"
    );
}

/// [`seal`] as two passes: CBC, then the MAC.
fn seal_serial(
    aes: &Aes128,
    key: &HmacKey,
    aad: &[u8; AAD_LEN],
    ivct: &mut [u8],
) -> [u8; DIGEST_LEN] {
    let (iv, body) = ivct.split_at_mut(BLOCK_LEN);
    aes.cbc_encrypt_in_place((&*iv).try_into().expect("one block"), body);
    key.mac_multi(&[aad, ivct])
}

/// [`open`] as two passes: CBC, then the MAC.
fn open_serial(
    aes: &Aes128,
    key: &HmacKey,
    aad: &[u8; AAD_LEN],
    ivct: &[u8],
    out: &mut [u8],
) -> [u8; DIGEST_LEN] {
    let (iv, body) = ivct.split_at(BLOCK_LEN);
    out.copy_from_slice(body);
    aes.cbc_decrypt_in_place(iv.try_into().expect("one block"), out);
    key.mac_multi(&[aad, ivct])
}

#[cfg(target_arch = "x86_64")]
mod ni {
    //! The stitched loops. The only way in is an [`EtmNi`] token, which
    //! [`EtmNi::detect`] hands out only when both `Aesni::detect` and
    //! `ShaNi::detect` succeeded.
    //!
    //! The MAC input `aad | ivct` is hashed in 64-byte blocks from the
    //! HMAC inner midstate. Block 0 straddles `aad` and is assembled on
    //! the stack; block `j > 0` is read in place at `ivct[64j - 8..]`.
    //! The bytes after the last whole block go through [`Sha256`] for
    //! padding, then [`HmacKey::finish`] runs the outer hash.

    use super::{AAD_LEN, BLOCK_LEN, DIGEST_LEN};
    use crate::aes::ni::{
        cbc_decrypt_blocks, cbc_encrypt_blocks, dec_keys, enc_keys, load, store, Aesni,
    };
    use crate::aes::Aes128;
    use crate::hmac::HmacKey;
    use crate::sha256::ni::{Lanes, ShaNi};
    use crate::sha256::{Sha256, BLOCK_LEN as SHA_BLOCK};
    use core::arch::x86_64::{__m128i, _mm_xor_si128};

    /// Proof that the running CPU has both AES-NI and SHA-NI (with the
    /// shuffles SHA-NI needs).
    #[derive(Clone, Copy)]
    pub(super) struct EtmNi(Aesni, ShaNi);

    impl EtmNi {
        #[inline]
        pub(super) fn detect() -> Option<Self> {
            Some(EtmNi(Aesni::detect()?, ShaNi::detect()?))
        }

        #[inline]
        pub(super) fn seal(
            self,
            aes: &Aes128,
            key: &HmacKey,
            aad: &[u8; AAD_LEN],
            ivct: &mut [u8],
        ) -> [u8; DIGEST_LEN] {
            // SAFETY: `self` holds an `Aesni` and a `ShaNi` token, which exist
            // only if `is_x86_feature_detected!` returned true for "aes",
            // "sha", "ssse3" and "sse4.1".
            unsafe { seal(aes, key, aad, ivct) }
        }

        #[inline]
        pub(super) fn open(
            self,
            aes: &Aes128,
            key: &HmacKey,
            aad: &[u8; AAD_LEN],
            ivct: &[u8],
            out: &mut [u8],
        ) -> [u8; DIGEST_LEN] {
            // SAFETY: `self` holds an `Aesni` and a `ShaNi` token, which exist
            // only if `is_x86_feature_detected!` returned true for "aes",
            // "sha", "ssse3" and "sse4.1".
            unsafe { open(aes, key, aad, ivct, out) }
        }
    }

    /// MAC block 0: `aad` and as much of `ivct[..56]` as there is.
    #[inline(always)]
    fn first_block(aad: &[u8; AAD_LEN], ivct: &[u8]) -> [u8; SHA_BLOCK] {
        let mut block = [0u8; SHA_BLOCK];
        let n = ivct.len().min(SHA_BLOCK - AAD_LEN);
        block[..AAD_LEN].copy_from_slice(aad);
        block[AAD_LEN..AAD_LEN + n].copy_from_slice(&ivct[..n]);
        block
    }

    /// Whole MAC block `j` of `aad | ivct`; block 0 is `first`.
    #[inline(always)]
    fn mac_block<'a>(first: &'a [u8; SHA_BLOCK], ivct: &'a [u8], j: usize) -> &'a [u8; SHA_BLOCK] {
        if j == 0 {
            first
        } else {
            ivct[SHA_BLOCK * j - AAD_LEN..][..SHA_BLOCK]
                .try_into()
                .expect("one MAC block")
        }
    }

    /// Pads and hashes what follows the first `whole` MAC blocks, then
    /// runs the outer hash.
    fn finish(
        key: &HmacKey,
        state: [u32; 8],
        whole: usize,
        aad: &[u8; AAD_LEN],
        ivct: &[u8],
    ) -> [u8; DIGEST_LEN] {
        // The inner hash has absorbed the ipad block and `whole` blocks.
        let mut inner = Sha256::resume(state, (SHA_BLOCK * (1 + whole)) as u64);
        if whole == 0 {
            inner.update(aad);
            inner.update(ivct);
        } else {
            inner.update(&ivct[SHA_BLOCK * whole - AAD_LEN..]);
        }
        key.finish(inner)
    }

    /// MAC block `j` needs `ivct` up to byte `64j + 56`, i.e. blocks
    /// `..4j + 4`. Blocks `..4` are encrypted first; iteration `j` then
    /// encrypts the next four and hashes block `j`, final since the
    /// iteration before.
    #[target_feature(enable = "aes,sha,ssse3,sse4.1")]
    fn seal(aes: &Aes128, key: &HmacKey, aad: &[u8; AAD_LEN], ivct: &mut [u8]) -> [u8; DIGEST_LEN] {
        let k = enc_keys(aes);
        let blocks = ivct.len() / BLOCK_LEN;
        let whole = (AAD_LEN + ivct.len()) / SHA_BLOCK;
        let mut chain = _mm_xor_si128(load(&ivct[..BLOCK_LEN]), k[0]);
        let mut done = blocks.min(4);
        cbc_encrypt_blocks(&k, &mut chain, &mut ivct[BLOCK_LEN..BLOCK_LEN * done]);
        let first = first_block(aad, ivct);
        let mut lanes = Lanes::from_state(&key.inner_state());
        for j in 0..whole {
            let to = blocks.min(done + 4);
            cbc_encrypt_blocks(&k, &mut chain, &mut ivct[BLOCK_LEN * done..BLOCK_LEN * to]);
            done = to;
            lanes.compress_block(mac_block(&first, ivct, j));
        }
        debug_assert_eq!(done, blocks);
        finish(key, lanes.to_state(), whole, aad, ivct)
    }

    /// The ciphertext is final on entry, so iteration `j` decrypts the
    /// `j`-th four-block run (while there is one) next to MAC block `j`.
    /// There are at least as many MAC blocks as four-block runs; the
    /// blocks after the last run are decrypted one by one.
    #[target_feature(enable = "aes,sha,ssse3,sse4.1")]
    fn open(
        aes: &Aes128,
        key: &HmacKey,
        aad: &[u8; AAD_LEN],
        ivct: &[u8],
        out: &mut [u8],
    ) -> [u8; DIGEST_LEN] {
        let k = dec_keys(aes);
        let body = &ivct[BLOCK_LEN..];
        let runs = body.len() / (4 * BLOCK_LEN);
        let whole = (AAD_LEN + ivct.len()) / SHA_BLOCK;
        debug_assert!(whole >= runs);
        let first = first_block(aad, ivct);
        let mut lanes = Lanes::from_state(&key.inner_state());
        let mut prev = load(&ivct[..BLOCK_LEN]);
        for j in 0..whole {
            if j < runs {
                let at = 4 * BLOCK_LEN * j;
                let c: [__m128i; 4] =
                    std::array::from_fn(|i| load(&body[at + BLOCK_LEN * i..][..BLOCK_LEN]));
                let p = cbc_decrypt_blocks(&k, prev, c);
                for (i, b) in p.into_iter().enumerate() {
                    store(b, &mut out[at + BLOCK_LEN * i..][..BLOCK_LEN]);
                }
                prev = c[3];
            }
            lanes.compress_block(mac_block(&first, ivct, j));
        }
        let tail = 4 * BLOCK_LEN * runs;
        for (c, p) in body[tail..]
            .chunks_exact(BLOCK_LEN)
            .zip(out[tail..].chunks_exact_mut(BLOCK_LEN))
        {
            let c = load(c);
            let [b] = cbc_decrypt_blocks(&k, prev, [c]);
            store(b, p);
            prev = c;
        }
        finish(key, lanes.to_state(), whole, aad, ivct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stitched_loops_match_serial_composition(
            aes_key in any::<[u8; 16]>(),
            mac_key in proptest::collection::vec(any::<u8>(), 0..100),
            aad in any::<[u8; AAD_LEN]>(),
            bytes in proptest::collection::vec(any::<u8>(), 2000),
        ) {
            // Every `ivct` length from one block (the IV alone) to 2000
            // bytes: every remainder of the four-block runs and of the
            // 64-byte MAC blocks.
            let aes = Aes128::new(&aes_key);
            let key = HmacKey::new(&mac_key);
            for len in (BLOCK_LEN..=2000).step_by(BLOCK_LEN) {
                let plain = &bytes[..len];
                let mut serial = plain.to_vec();
                let serial_mac = seal_serial(&aes, &key, &aad, &mut serial);
                let mut serial_out = vec![0u8; len - BLOCK_LEN];
                prop_assert_eq!(open_serial(&aes, &key, &aad, &serial, &mut serial_out), serial_mac);
                prop_assert_eq!(&serial_out[..], &plain[BLOCK_LEN..]);

                #[cfg(target_arch = "x86_64")]
                if let Some(ni) = ni::EtmNi::detect() {
                    let mut sealed = plain.to_vec();
                    prop_assert_eq!(ni.seal(&aes, &key, &aad, &mut sealed), serial_mac, "len={}", len);
                    prop_assert_eq!(&sealed, &serial, "len={}", len);
                    let mut out = vec![0u8; len - BLOCK_LEN];
                    prop_assert_eq!(ni.open(&aes, &key, &aad, &sealed, &mut out), serial_mac, "len={}", len);
                    prop_assert_eq!(&out[..], &plain[BLOCK_LEN..], "len={}", len);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn seal_rejects_a_ragged_buffer() {
        let aes = Aes128::new(&[0; 16]);
        seal(&aes, &HmacKey::new(b"k"), &[0; AAD_LEN], &mut [0u8; 33]);
    }
}
