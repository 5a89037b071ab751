//! SHA-256 (FIPS 180-4).
//!
//! Used for HIT generation (ORCHID hashing), HIP puzzles, HMACs, signature
//! digests and the KEYMAT KDF. Implemented from the standard and pinned to
//! the FIPS test vectors below.
//!
//! Every [`Sha256`] funnels into one compression function over a run of
//! whole blocks: [`Sha256::update`] passes every whole block of its input
//! in one call, and [`Sha256::finalize`] builds the one or two padding
//! blocks on the stack and compresses them in one call. (The stitched
//! encrypt-then-MAC loops in `crate::etm` hash in SHA-NI lanes from
//! midstates instead, padding included, and [`compress_padded_block`]
//! compresses one block its caller padded.) On x86-64 CPUs with the SHA
//! extensions (`is_x86_feature_detected!("sha")`, plus the SSSE3/SSE4.1
//! shuffles it needs) the compression runs on `sha256rnds2`/`sha256msg1`/
//! `sha256msg2` (private module `ni`); elsewhere the scalar rounds below
//! run. There is no switch. The in-file proptests pin the two to each
//! other directly, so the scalar path stays tested on CPUs with SHA-NI.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`. After topping up a partly filled buffer, every
    /// whole block of `data` is compressed straight from the input slice
    /// in one call — no staging copy through the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % BLOCK_LEN;
        let (blocks, rest) = data.split_at(whole);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// The chaining value after the whole blocks absorbed so far; the
    /// hasher must hold no partial block.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn chaining_value(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0);
        self.state
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length, in one block if
        // the length still fits after the 0x80, otherwise in two.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let len = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(BLOCK_LEN));
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::ShaNi::detect() {
        return ni.compress(state, blocks);
    }
    compress_portable(state, blocks);
}

/// The scalar FIPS 180-4 compression, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod ni {
    //! The SHA-256 compression on the x86 SHA extensions. The only way in
    //! is a [`ShaNi`] token, which [`ShaNi::detect`] hands out only after
    //! `is_x86_feature_detected!` returned true for `sha`, `ssse3` and
    //! `sse4.1`.
    //!
    //! [`compress`] here and the stitched encrypt-then-MAC loop in
    //! `crate::etm` share the [`Lanes`] helpers. They are `#[inline]`
    //! target-feature functions, so they inline into any caller that
    //! enables `sha`, `ssse3` and `sse4.1`. [`Lanes::finish_tail`] and
    //! [`Lanes::digest`] end a hash in lanes, so a caller that hashes
    //! from a known midstate never builds a [`super::Sha256`].

    use super::{BLOCK_LEN, DIGEST_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Proof that the running CPU has SHA-NI and the shuffles it needs.
    #[derive(Clone, Copy)]
    pub(crate) struct ShaNi(());

    impl ShaNi {
        #[inline]
        pub(crate) fn detect() -> Option<Self> {
            let ok = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            ok.then_some(ShaNi(()))
        }

        /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
        #[inline]
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `self` exists only if `is_x86_feature_detected!` returned
            // true for "sha", "ssse3" and "sse4.1" in `ShaNi::detect`.
            unsafe { compress(state, blocks) }
        }
    }

    #[inline]
    fn load(bytes: &[u8]) -> __m128i {
        let bytes: &[u8; 16] = bytes.try_into().expect("16 bytes");
        // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline]
    fn store(v: __m128i, bytes: &mut [u8]) {
        let bytes: &mut [u8; 16] = bytes.try_into().expect("16 bytes");
        // SAFETY: `bytes` is 16 writable bytes and `storeu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    /// Byte-swaps each 32-bit lane: SHA-256 words are big-endian.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn bswap32(v: __m128i) -> __m128i {
        _mm_shuffle_epi8(
            v,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }

    #[inline]
    fn load_words(words: &[u32]) -> __m128i {
        let words: &[u32; 4] = words.try_into().expect("4 words");
        // SAFETY: `words` is 16 readable bytes and `loadu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    #[inline]
    fn store_words(v: __m128i, words: &mut [u32]) {
        let words: &mut [u32; 4] = words.try_into().expect("4 words");
        // SAFETY: `words` is 16 writable bytes and `storeu` has no alignment
        // requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
    }

    /// A SHA-256 chaining value as `sha256rnds2` wants it: the lane pairs
    /// ABEF and CDGH.
    #[derive(Clone, Copy)]
    pub(crate) struct Lanes {
        abef: __m128i,
        cdgh: __m128i,
    }

    impl Lanes {
        /// Rearranges the state words A..H into lanes.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        pub(crate) fn from_state(state: &[u32; 8]) -> Self {
            let cdab = _mm_shuffle_epi32(load_words(&state[0..4]), 0xb1);
            let efgh = _mm_shuffle_epi32(load_words(&state[4..8]), 0x1b);
            Lanes {
                abef: _mm_alignr_epi8(cdab, efgh, 8),
                cdgh: _mm_blend_epi16(efgh, cdab, 0xf0),
            }
        }

        /// The state words as two vectors, A..D and E..H.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        fn words(self) -> [__m128i; 2] {
            let feba = _mm_shuffle_epi32(self.abef, 0x1b);
            let dchg = _mm_shuffle_epi32(self.cdgh, 0xb1);
            [
                _mm_blend_epi16(feba, dchg, 0xf0),
                _mm_alignr_epi8(dchg, feba, 8),
            ]
        }

        /// The state words A..H.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        pub(crate) fn to_state(self) -> [u32; 8] {
            let [abcd, efgh] = self.words();
            let mut state = [0u32; 8];
            store_words(abcd, &mut state[0..4]);
            store_words(efgh, &mut state[4..8]);
            state
        }

        /// The digest of a finished hash: the state words, big-endian.
        #[inline]
        #[target_feature(enable = "ssse3,sse4.1")]
        pub(crate) fn digest(self) -> [u8; DIGEST_LEN] {
            let [abcd, efgh] = self.words();
            let mut out = [0u8; DIGEST_LEN];
            store(bswap32(abcd), &mut out[..16]);
            store(bswap32(efgh), &mut out[16..]);
            out
        }

        /// Ends a message of `total_len` bytes whose whole blocks are
        /// already compressed: pads `tail`, the bytes after the last whole
        /// block, with 0x80, zeros and the big-endian bit length, and
        /// compresses the result, one block if the length still fits after
        /// the 0x80 (a tail shorter than 56 bytes), otherwise two.
        #[inline]
        #[target_feature(enable = "sha,ssse3,sse4.1")]
        pub(crate) fn finish_tail(&mut self, tail: &[u8], total_len: u64) {
            debug_assert!(tail.len() < BLOCK_LEN);
            debug_assert_eq!(total_len % BLOCK_LEN as u64, tail.len() as u64);
            let mut pad = [0u8; 2 * BLOCK_LEN];
            // The tail in power-of-two pieces, largest first: each is a
            // fixed-size copy, written as moves, where one copy of the
            // variable length is a `memcpy` call.
            let mut at = 0;
            for size in [32, 16, 8, 4, 2, 1] {
                if tail.len() & size != 0 {
                    pad[at..at + size].copy_from_slice(&tail[at..at + size]);
                    at += size;
                }
            }
            pad[tail.len()] = 0x80;
            let two = tail.len() >= BLOCK_LEN - 8;
            let end = if two { 2 * BLOCK_LEN } else { BLOCK_LEN };
            pad[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
            let (first, second) = pad.split_at(BLOCK_LEN);
            self.compress_block(first.try_into().expect("one block"));
            if two {
                self.compress_block(second.try_into().expect("one block"));
            }
        }

        /// Runs the 64 rounds of one block and adds the result into the
        /// chaining value. `sha256rnds2` does two rounds per call; four
        /// message words are scheduled at a time with
        /// `sha256msg1`/`sha256msg2`.
        ///
        /// The sixteen quad-rounds are written out: the four schedule
        /// vectors are locals whose roles rotate by name, so every index
        /// is a constant and the schedule stays in registers. LLVM keeps
        /// a loop over an array indexed `i % 4` rolled, with the array on
        /// the stack; CI counts the `sha256rnds2` in `compress` (32) to
        /// catch that.
        #[inline]
        #[target_feature(enable = "sha,ssse3,sse4.1")]
        pub(crate) fn compress_block(&mut self, block: &[u8; BLOCK_LEN]) {
            let Lanes { mut abef, mut cdgh } = *self;
            let word = |i: usize| bswap32(load(&block[16 * i..16 * i + 16]));
            let (mut w0, mut w1, mut w2, mut w3) = (word(0), word(1), word(2), word(3));
            // Four rounds on W[4i..4i+4], held in `$w`.
            macro_rules! rounds {
                ($i:literal, $w:ident) => {
                    let wk = _mm_add_epi32($w, load_words(&K[4 * $i..4 * $i + 4]));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                };
            }
            // W[4i..4i+4] from the previous sixteen words, oldest quad
            // first, written over the oldest; then its four rounds.
            macro_rules! quad {
                ($i:literal, $a:ident, $b:ident, $c:ident, $d:ident) => {
                    let t = _mm_sha256msg1_epu32($a, $b);
                    let t = _mm_add_epi32(t, _mm_alignr_epi8($d, $c, 4));
                    $a = _mm_sha256msg2_epu32(t, $d);
                    rounds!($i, $a);
                };
            }
            rounds!(0, w0);
            rounds!(1, w1);
            rounds!(2, w2);
            rounds!(3, w3);
            quad!(4, w0, w1, w2, w3);
            quad!(5, w1, w2, w3, w0);
            quad!(6, w2, w3, w0, w1);
            quad!(7, w3, w0, w1, w2);
            quad!(8, w0, w1, w2, w3);
            quad!(9, w1, w2, w3, w0);
            quad!(10, w2, w3, w0, w1);
            quad!(11, w3, w0, w1, w2);
            quad!(12, w0, w1, w2, w3);
            quad!(13, w1, w2, w3, w0);
            quad!(14, w2, w3, w0, w1);
            quad!(15, w3, w0, w1, w2);
            self.abef = _mm_add_epi32(self.abef, abef);
            self.cdgh = _mm_add_epi32(self.cdgh, cdgh);
        }
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let mut lanes = Lanes::from_state(state);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            lanes.compress_block(block.try_into().expect("one block"));
        }
        *state = lanes.to_state();
    }

    #[cfg(test)]
    mod tests {
        use super::super::{sha256, BLOCK_LEN, DIGEST_LEN, H0};
        use super::{Lanes, ShaNi};

        /// SHA-256 of `data` entirely in lanes: whole blocks through
        /// `compress_block`, the rest through `finish_tail`, then `digest`.
        #[target_feature(enable = "sha,ssse3,sse4.1")]
        fn lanes_sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
            let mut lanes = Lanes::from_state(&H0);
            let blocks = data.chunks_exact(BLOCK_LEN);
            let tail = blocks.remainder();
            for block in blocks {
                lanes.compress_block(block.try_into().expect("one block"));
            }
            lanes.finish_tail(tail, data.len() as u64);
            lanes.digest()
        }

        #[test]
        fn lanes_finish_tail_matches_finalize() {
            if ShaNi::detect().is_none() {
                return;
            }
            // Every length 0..128 past 0, 1 and 23 whole blocks, so both
            // the one-block (tail < 56) and two-block padding, and their
            // split at 55/56, are hit at several block offsets.
            let data: Vec<u8> = (0..24 * BLOCK_LEN + 128)
                .map(|i| (i * 7 + 3) as u8)
                .collect();
            for whole in [0usize, 1, 23] {
                for extra in 0..128 {
                    let msg = &data[..whole * BLOCK_LEN + extra];
                    // SAFETY: `ShaNi::detect` returned a token, so the CPU
                    // has "sha", "ssse3" and "sse4.1".
                    let fast = unsafe { lanes_sha256(msg) };
                    assert_eq!(fast, sha256(msg), "whole={whole} extra={extra}");
                }
            }
        }
    }
}

/// Compresses one 64-byte `block` from the SHA-256 initial state and
/// returns the chaining value. When `block` is a whole padded message (at
/// most 55 bytes, then 0x80, zeros and the 64-bit big-endian bit length),
/// that value is the message's digest as eight big-endian words. For a
/// caller that hashes many such messages differing in a few bytes, such
/// as the HIP puzzle solver.
pub fn compress_padded_block(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
    let mut state = H0;
    compress(&mut state, block);
    state
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over several segments without concatenating them.
pub fn sha256_multi(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn multi_matches_concat() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_multi(&[a, b]), sha256(b"hello world"));
    }

    #[test]
    fn padding_boundaries_match_sha256sum() {
        // Byte i is (7i + 3) mod 256. The lengths straddle the one- and
        // two-block padding cases (55/56, 119/120) and block ends.
        // Expected digests were computed once with coreutils `sha256sum`.
        const PINNED: [(usize, &str); 7] = [
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
            (
                128,
                "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
            ),
        ];
        for (len, digest) in PINNED {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(hex(&sha256(&data)), digest, "len={len}");
        }
    }

    #[test]
    fn padded_block_is_the_digest_of_a_one_block_message() {
        let data: Vec<u8> = (0..BLOCK_LEN - 8).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..BLOCK_LEN - 8 {
            let mut block = [0u8; BLOCK_LEN];
            block[..len].copy_from_slice(&data[..len]);
            block[len] = 0x80;
            block[BLOCK_LEN - 8..].copy_from_slice(&(8 * len as u64).to_be_bytes());
            let words = compress_padded_block(&block);
            let digest: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(digest, sha256(&data[..len]), "len={len}");
        }
    }

    proptest! {
        #[test]
        fn sha_ni_compression_matches_scalar(
            state in any::<[u8; 32]>(),
            n in 1usize..5,
            bytes in proptest::collection::vec(any::<u8>(), 4 * BLOCK_LEN),
        ) {
            let data = &bytes[..n * BLOCK_LEN];
            let mut words = [0u32; 8];
            for (w, c) in words.iter_mut().zip(state.chunks_exact(4)) {
                *w = u32::from_le_bytes(c.try_into().expect("4 bytes"));
            }
            let mut scalar = words;
            compress_portable(&mut scalar, data);
            // Whole-run and block-by-block scalar calls agree too.
            let mut stepwise = words;
            for block in data.chunks_exact(BLOCK_LEN) {
                compress_portable(&mut stepwise, block);
            }
            prop_assert_eq!(stepwise, scalar);
            #[cfg(target_arch = "x86_64")]
            if let Some(ni) = ni::ShaNi::detect() {
                let mut fast = words;
                ni.compress(&mut fast, data);
                prop_assert_eq!(fast, scalar);
            }
        }
    }
}
