//! AES-128 (FIPS 197) with CBC mode.
//!
//! This is the symmetric cipher for the HIP ESP-BEET data plane and the
//! TLS record layer. Two implementations live here:
//!
//! - The **AES-NI path** (private module `ni`): on x86-64 CPUs with the
//!   AES instructions, every public method runs one `aesenc`/`aesdec`
//!   per round over the same expanded keys. Encryption uses the round
//!   keys; decryption uses the equivalent-inverse keys (`dk_bytes`),
//!   stored once by [`Aes128::new`]. CBC decryption keeps four
//!   independent blocks in flight and finishes the remainder block by
//!   block; CBC encryption is serial by construction.
//! - The **byte-wise reference** ([`mod@reference`]): separate SubBytes/
//!   ShiftRows/MixColumns/AddRoundKey passes as in FIPS 197's
//!   pseudocode. It is the portable path on other CPUs and
//!   architectures (CBC block by block) and the oracle the AES-NI path
//!   is pinned to.
//!
//! The path is chosen per call by `is_x86_feature_detected!("aes")`
//! alone; there is no switch. A single block is encrypted or decrypted
//! as one-block CBC under a zero IV. Both paths are pinned to the
//! FIPS 197 / SP 800-38A vectors below, and the in-file proptests call
//! the portable CBC and the AES-NI functions directly, so the portable
//! path stays tested on CPUs that have the instructions.
//!
//! CBC pads with PKCS#7 through [`crate::pkcs7`].

use crate::pkcs7;
use std::sync::OnceLock;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, generated once at first use.
fn inv_sbox() -> &'static [u8; 256] {
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key: the round keys (AES-NI encryption and the
/// [`mod@reference`] cipher) and the InvMixColumns-folded round keys of
/// the equivalent inverse cipher (AES-NI decryption).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    dk_bytes: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands a 16-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        // Equivalent inverse cipher: decryption round keys are the
        // encryption keys in reverse order, with InvMixColumns applied
        // to all but the first and last.
        let mut dk_bytes = round_keys;
        dk_bytes.reverse();
        for key in &mut dk_bytes[1..10] {
            reference::inv_mix_columns(key);
        }
        Aes128 {
            round_keys,
            dk_bytes,
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        // A one-block CBC encryption under a zero IV is the block cipher.
        self.cbc_encrypt_in_place(&[0; BLOCK_LEN], block);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        self.cbc_decrypt_in_place(&[0; BLOCK_LEN], block);
    }

    /// CBC encryption with PKCS#7 padding. Output is a multiple of 16 bytes
    /// and always at least one block longer than an exact-multiple input.
    pub fn cbc_encrypt(&self, iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.cbc_encrypt_into(iv, plaintext, &mut out);
        out
    }

    /// Like [`Self::cbc_encrypt`], but *appends* the ciphertext to `out`
    /// (which is not cleared), so callers can pool one buffer per
    /// association or prepend a header before the ciphertext.
    pub fn cbc_encrypt_into(&self, iv: &[u8; BLOCK_LEN], plaintext: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(pkcs7::padded_len(plaintext.len()));
        out.extend_from_slice(plaintext);
        pkcs7::pad(out, plaintext.len());
        self.cbc_encrypt_in_place(iv, &mut out[start..]);
    }

    /// CBC decryption undoing PKCS#7 padding; *appends* the plaintext to
    /// `out`. Returns false (leaving `out` as it was) on malformed input:
    /// a length that is not a positive multiple of 16, or bad padding.
    pub fn cbc_decrypt_into(
        &self,
        iv: &[u8; BLOCK_LEN],
        ciphertext: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(ciphertext);
        self.cbc_decrypt_in_place(iv, &mut out[start..]);
        let len = pkcs7::unpad(&out[start..]);
        out.truncate(start + len.unwrap_or(0));
        len.is_some()
    }

    /// Unpadded CBC encryption of whole blocks, in place.
    pub(crate) fn cbc_encrypt_in_place(&self, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::Aesni::detect() {
            return ni.cbc_encrypt(self, iv, buf);
        }
        self.cbc_encrypt_portable(iv, buf);
    }

    /// Unpadded CBC decryption of whole blocks, in place.
    pub(crate) fn cbc_decrypt_in_place(&self, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::Aesni::detect() {
            return ni.cbc_decrypt(self, iv, buf);
        }
        self.cbc_decrypt_portable(iv, buf);
    }

    /// Unpadded CBC encryption of whole blocks, in place, over the
    /// [`mod@reference`] cipher.
    fn cbc_encrypt_portable(&self, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        let mut prev = *iv;
        for chunk in buf.chunks_exact_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("one block");
            xor_block(block, &prev);
            reference::encrypt_block(self, block);
            prev = *block;
        }
    }

    /// Unpadded CBC decryption of whole blocks, in place, over the
    /// [`mod@reference`] cipher.
    fn cbc_decrypt_portable(&self, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        let mut prev = *iv;
        for chunk in buf.chunks_exact_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("one block");
            let ciphertext = *block;
            reference::decrypt_block(self, block);
            xor_block(block, &prev);
            prev = ciphertext;
        }
    }
}

fn xor_block(block: &mut [u8; BLOCK_LEN], with: &[u8; BLOCK_LEN]) {
    for (b, w) in block.iter_mut().zip(with) {
        *b ^= w;
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod ni {
    //! AES-NI rounds over [`Aes128`]'s expanded keys. The only way in is
    //! an [`Aesni`] token, which [`Aesni::detect`] hands out only after
    //! `is_x86_feature_detected!("aes")` returned true.
    //!
    //! The CBC loops here and the stitched encrypt-then-MAC loop in
    //! `crate::etm` share the helpers below ([`cbc_encrypt_blocks`],
    //! [`cbc_decrypt_blocks`]). They are `#[inline]` target-feature
    //! functions, so they inline into any caller that enables `aes`.

    use super::{Aes128, BLOCK_LEN};
    use core::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Proof that the running CPU has the AES instructions.
    #[derive(Clone, Copy)]
    pub(crate) struct Aesni(());

    impl Aesni {
        #[inline]
        pub(crate) fn detect() -> Option<Self> {
            is_x86_feature_detected!("aes").then_some(Aesni(()))
        }

        /// Unpadded CBC encryption of whole blocks, in place.
        #[inline]
        pub(super) fn cbc_encrypt(self, aes: &Aes128, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
            // SAFETY: `self` exists only if `is_x86_feature_detected!("aes")`
            // returned true in `Aesni::detect`.
            unsafe { cbc_encrypt(aes, iv, buf) }
        }

        /// Unpadded CBC decryption of whole blocks, in place.
        #[inline]
        pub(super) fn cbc_decrypt(self, aes: &Aes128, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
            // SAFETY: `self` exists only if `is_x86_feature_detected!("aes")`
            // returned true in `Aesni::detect`.
            unsafe { cbc_decrypt(aes, iv, buf) }
        }
    }

    #[inline]
    pub(crate) fn load(bytes: &[u8]) -> __m128i {
        let bytes: &[u8; BLOCK_LEN] = bytes.try_into().expect("one block");
        // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline]
    pub(crate) fn store(v: __m128i, bytes: &mut [u8]) {
        let bytes: &mut [u8; BLOCK_LEN] = bytes.try_into().expect("one block");
        // SAFETY: `bytes` is 16 writable bytes and `storeu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    /// The encryption round keys.
    #[inline]
    pub(crate) fn enc_keys(aes: &Aes128) -> [__m128i; 11] {
        std::array::from_fn(|r| load(&aes.round_keys[r]))
    }

    /// The equivalent-inverse-cipher decryption round keys.
    #[inline]
    pub(crate) fn dec_keys(aes: &Aes128) -> [__m128i; 11] {
        std::array::from_fn(|r| load(&aes.dk_bytes[r]))
    }

    /// CBC-encrypts the whole blocks of `buf` in place. `chain` holds
    /// the ciphertext block (or IV) before `buf` XOR round key 0, so the
    /// chaining XOR and round key 0 are one XOR, and is advanced past
    /// `buf`.
    #[inline]
    #[target_feature(enable = "aes")]
    pub(crate) fn cbc_encrypt_blocks(k: &[__m128i; 11], chain: &mut __m128i, buf: &mut [u8]) {
        for block in buf.chunks_exact_mut(BLOCK_LEN) {
            let mut s = _mm_xor_si128(load(block), *chain);
            for key in &k[1..10] {
                s = _mm_aesenc_si128(s, *key);
            }
            let c = _mm_aesenclast_si128(s, k[10]);
            store(c, block);
            *chain = _mm_xor_si128(c, k[0]);
        }
    }

    /// CBC-decrypts `N` consecutive ciphertext blocks, all in flight at
    /// once; `prev` is the ciphertext block (or IV) before `c[0]`. `k`
    /// holds the [`dec_keys`].
    #[inline]
    #[target_feature(enable = "aes")]
    pub(crate) fn cbc_decrypt_blocks<const N: usize>(
        k: &[__m128i; 11],
        prev: __m128i,
        c: [__m128i; N],
    ) -> [__m128i; N] {
        let mut s = c.map(|b| _mm_xor_si128(b, k[0]));
        for key in &k[1..10] {
            for b in &mut s {
                *b = _mm_aesdec_si128(*b, *key);
            }
        }
        std::array::from_fn(|i| {
            let chain = if i == 0 { prev } else { c[i - 1] };
            _mm_xor_si128(_mm_aesdeclast_si128(s[i], k[10]), chain)
        })
    }

    /// CBC-encrypts the whole blocks of `buf` in place.
    #[target_feature(enable = "aes")]
    fn cbc_encrypt(aes: &Aes128, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        let k = enc_keys(aes);
        cbc_encrypt_blocks(&k, &mut _mm_xor_si128(load(iv), k[0]), buf);
    }

    /// CBC-decrypts the whole blocks of `buf` in place with the equivalent
    /// inverse cipher. Decryption blocks do not depend on each other, so
    /// four are in flight at a time; the remainder goes one by one.
    #[target_feature(enable = "aes")]
    fn cbc_decrypt(aes: &Aes128, iv: &[u8; BLOCK_LEN], buf: &mut [u8]) {
        let k = dec_keys(aes);
        let mut prev = load(iv);
        let mut quads = buf.chunks_exact_mut(4 * BLOCK_LEN);
        for quad in &mut quads {
            let c: [__m128i; 4] =
                std::array::from_fn(|i| load(&quad[i * BLOCK_LEN..][..BLOCK_LEN]));
            let p = cbc_decrypt_blocks(&k, prev, c);
            for (out, b) in quad.chunks_exact_mut(BLOCK_LEN).zip(p) {
                store(b, out);
            }
            prev = c[3];
        }
        for chunk in quads.into_remainder().chunks_exact_mut(BLOCK_LEN) {
            let c = load(chunk);
            let [p] = cbc_decrypt_blocks(&k, prev, [c]);
            store(p, chunk);
            prev = c;
        }
    }
}

pub mod reference {
    //! The byte-oriented AES implementation: separate SubBytes/
    //! ShiftRows/MixColumns/AddRoundKey passes, exactly as in FIPS 197's
    //! pseudocode. Slow but obviously correct. It is the portable CBC
    //! path, and the AES-NI path is proven equivalent to it by proptest
    //! (random keys and blocks, and CBC over random messages).

    use super::{gmul, inv_sbox, xtime, Aes128, BLOCK_LEN, SBOX};

    /// Encrypts one block with the byte-wise reference rounds.
    pub fn encrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &aes.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &aes.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &aes.round_keys[10]);
    }

    /// Decrypts one block with the byte-wise reference rounds.
    pub fn decrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &aes.round_keys[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            add_round_key(block, &aes.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &aes.round_keys[0]);
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        let inv = inv_sbox();
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
    }

    // State is column-major: state[4*c + r] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    pub(super) fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    /// SP 800-38A's AES-128 key, shared by the CBC vectors.
    const NIST_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// SP 800-38A's four plaintext blocks.
    fn nist_plaintext() -> Vec<u8> {
        unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ))
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS 197 Appendix B worked example.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
        aes.decrypt_block(&mut block);
        assert_eq!(hex(&block), "3243f6a8885a308d313198a2e0370734");
    }

    #[test]
    fn fips197_appendix_c1_encrypt_and_decrypt() {
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().expect("16");
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes128::new(&key);
        let mut block = plain;
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        // The C.1 vector run backwards pins the fast decrypt path too.
        aes.decrypt_block(&mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn sp800_38a_cbc_vectors() {
        // SP 800-38A F.2.1/F.2.2. Our CBC always appends PKCS#7 padding,
        // so the first four ciphertext blocks must match the vector
        // exactly and one padding block follows.
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .expect("iv");
        let aes = Aes128::new(&NIST_KEY);
        let ct = aes.cbc_encrypt(&iv, &nist_plaintext());
        assert_eq!(ct.len(), 80);
        assert_eq!(
            hex(&ct[..64]),
            concat!(
                "7649abac8119b246cee98e9b12e9197d",
                "5086cb9b507219ee95db113a917678b2",
                "73bed6b8e3c1743b7116e69e22229516",
                "3ff1caa1681fac09120eca307586e1a7",
            )
        );
        assert_eq!(
            cbc_decrypt(&aes, &iv, &ct).expect("valid"),
            nist_plaintext()
        );
    }

    #[test]
    fn fast_path_matches_reference_blocks() {
        // Deterministic pseudo-random keys/blocks; the proptest suite in
        // tests/properties.rs covers truly random ones.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            for c in key.chunks_mut(8) {
                c.copy_from_slice(&next().to_be_bytes());
            }
            for c in block.chunks_mut(8) {
                c.copy_from_slice(&next().to_be_bytes());
            }
            let aes = Aes128::new(&key);
            let mut fast = block;
            aes.encrypt_block(&mut fast);
            let mut slow = block;
            reference::encrypt_block(&aes, &mut slow);
            assert_eq!(fast, slow, "encrypt diverged for key {key:02x?}");
            let mut fast_d = fast;
            aes.decrypt_block(&mut fast_d);
            let mut slow_d = slow;
            reference::decrypt_block(&aes, &mut slow_d);
            assert_eq!(fast_d, block);
            assert_eq!(slow_d, block);
        }
    }

    #[test]
    fn cbc_round_trip_various_lengths() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = *b"fedcba9876543210";
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1500] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = aes.cbc_encrypt(&iv, &msg);
            assert_eq!(ct.len() % BLOCK_LEN, 0);
            assert!(ct.len() > msg.len(), "padding always adds bytes");
            let pt = cbc_decrypt(&aes, &iv, &ct).unwrap();
            assert_eq!(pt, msg, "len={len}");
        }
    }

    #[test]
    fn cbc_rejects_malformed() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = [0u8; 16];
        assert!(cbc_decrypt(&aes, &iv, &[]).is_none());
        assert!(cbc_decrypt(&aes, &iv, &[0u8; 15]).is_none());
        // Random data is overwhelmingly unlikely to have valid padding with
        // this fixed vector (checked: it doesn't).
        let garbage = [0x5au8; 32];
        let result = cbc_decrypt(&aes, &iv, &garbage);
        if let Some(pt) = result {
            assert!(pt.len() < 32);
        }
    }

    /// [`Aes128::cbc_decrypt_into`] into a fresh vector.
    fn cbc_decrypt(aes: &Aes128, iv: &[u8; BLOCK_LEN], ct: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        aes.cbc_decrypt_into(iv, ct, &mut out).then_some(out)
    }

    /// PKCS#7-pads `msg` and CBC-encrypts it with the byte-wise reference
    /// cipher: the textbook construction both CBC paths must reproduce.
    fn reference_cbc(aes: &Aes128, iv: &[u8; BLOCK_LEN], msg: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let pad = BLOCK_LEN - msg.len() % BLOCK_LEN;
        let mut padded = msg.to_vec();
        padded.extend(std::iter::repeat_n(pad as u8, pad));
        let mut ct = padded.clone();
        let mut prev = *iv;
        for chunk in ct.chunks_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("block");
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            reference::encrypt_block(aes, block);
            prev = *block;
        }
        (padded, ct)
    }

    proptest! {
        #[test]
        fn aes_ni_and_portable_blocks_match_reference(
            key in any::<[u8; 16]>(),
            block in any::<[u8; 16]>(),
        ) {
            let aes = Aes128::new(&key);
            let mut ct = block;
            reference::encrypt_block(&aes, &mut ct);
            let mut pt = ct;
            reference::decrypt_block(&aes, &mut pt);
            prop_assert_eq!(pt, block);

            // Both paths encrypt a block as one-block CBC under a zero IV.
            let zero = [0; BLOCK_LEN];
            let mut t = block;
            aes.cbc_encrypt_portable(&zero, &mut t);
            prop_assert_eq!(t, ct);
            aes.cbc_decrypt_portable(&zero, &mut t);
            prop_assert_eq!(t, block);

            #[cfg(target_arch = "x86_64")]
            if let Some(ni) = ni::Aesni::detect() {
                let mut n = block;
                ni.cbc_encrypt(&aes, &zero, &mut n);
                prop_assert_eq!(n, ct);
                ni.cbc_decrypt(&aes, &zero, &mut n);
                prop_assert_eq!(n, block);
            }
        }

        #[test]
        fn aes_ni_and_portable_cbc_match_reference(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 16]>(),
            msg in proptest::collection::vec(any::<u8>(), 0..2000),
        ) {
            // 1–125 padded blocks: every remainder of the 4-block decrypt.
            let aes = Aes128::new(&key);
            let (padded, ct) = reference_cbc(&aes, &iv, &msg);

            let mut t = padded.clone();
            aes.cbc_encrypt_portable(&iv, &mut t);
            prop_assert_eq!(&t, &ct);
            aes.cbc_decrypt_portable(&iv, &mut t);
            prop_assert_eq!(&t, &padded);

            #[cfg(target_arch = "x86_64")]
            if let Some(ni) = ni::Aesni::detect() {
                let mut n = padded.clone();
                ni.cbc_encrypt(&aes, &iv, &mut n);
                prop_assert_eq!(&n, &ct);
                ni.cbc_decrypt(&aes, &iv, &mut n);
                prop_assert_eq!(&n, &padded);
            }

            // The dispatching public API, whichever path it takes.
            prop_assert_eq!(&aes.cbc_encrypt(&iv, &msg), &ct);
            prop_assert_eq!(cbc_decrypt(&aes, &iv, &ct).expect("valid padding"), msg);
        }
    }

    #[test]
    fn cbc_wrong_iv_garbles_first_block_only() {
        let aes = Aes128::new(b"0123456789abcdef");
        let msg = vec![0xabu8; 48];
        let ct = aes.cbc_encrypt(&[0u8; 16], &msg);
        if let Some(pt) = cbc_decrypt(&aes, &[1u8; 16], &ct) {
            assert_ne!(pt[..16], msg[..16]);
            assert_eq!(pt[16..], msg[16..pt.len()]);
        }
    }
}
