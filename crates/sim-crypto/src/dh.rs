//! Finite-field Diffie-Hellman key agreement.
//!
//! The HIP base exchange carries a DIFFIE_HELLMAN parameter; RFC 5201
//! mandates the RFC 3526 MODP groups. We provide group 14 (2048-bit, the
//! HIP default), group 5 (1536-bit) and a small 512-bit test group for
//! fast unit tests.
//!
//! Each group has one read-only context, built on the group's first use
//! and shared by every key pair after it: the prime, `p − 1`, the
//! prime's Montgomery context and a fixed-base table of `g^(d·16^i)` for
//! every 4-bit digit `d` of a private exponent. A public value then costs
//! one Montgomery multiply per non-zero digit (at most 32 for the test
//! group's 128-bit exponents, 64 for the MODP groups' 256-bit ones), and
//! a shared secret a windowed power on the cached context, with no hex
//! parsing or division. `BigUint::modpow` is the tests' oracle for both.

use crate::bigint::{BigUint, Montgomery};
use rand::Rng;
use std::sync::OnceLock;

/// Width of a private-exponent digit in the fixed-base table.
const DIGIT_BITS: usize = 4;

/// Diffie-Hellman group identifiers matching the HIP DIFFIE_HELLMAN
/// parameter's Group ID field (RFC 5201 §5.2.6).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DhGroup {
    /// RFC 3526 1536-bit MODP group (HIP Group ID 3).
    Modp1536,
    /// RFC 3526 2048-bit MODP group (HIP Group ID 4, the HIP default).
    Modp2048,
    /// Non-standard 512-bit group for fast tests and simulations where the
    /// cost model, not the arithmetic, provides the timing.
    Test512,
}

impl DhGroup {
    /// HIP wire identifier.
    pub fn group_id(self) -> u8 {
        match self {
            DhGroup::Modp1536 => 3,
            DhGroup::Modp2048 => 4,
            DhGroup::Test512 => 255,
        }
    }

    /// Looks a group up by its wire identifier.
    pub fn from_group_id(id: u8) -> Option<Self> {
        match id {
            3 => Some(DhGroup::Modp1536),
            4 => Some(DhGroup::Modp2048),
            255 => Some(DhGroup::Test512),
            _ => None,
        }
    }

    /// The group prime.
    pub fn prime(self) -> BigUint {
        let hex = match self {
            DhGroup::Modp1536 => MODP_1536,
            DhGroup::Modp2048 => MODP_2048,
            DhGroup::Test512 => TEST_512,
        };
        BigUint::from_hex(hex).expect("built-in group prime parses")
    }

    /// The generator (2 for all supported groups).
    pub fn generator(self) -> BigUint {
        BigUint::from_u64(2)
    }

    /// Size of a public value in bytes.
    pub fn public_len(self) -> usize {
        match self {
            DhGroup::Modp1536 => 192,
            DhGroup::Modp2048 => 256,
            DhGroup::Test512 => 64,
        }
    }

    /// Private exponent size in bits (256 is ample for these groups).
    fn exponent_bits(self) -> usize {
        match self {
            DhGroup::Test512 => 128,
            _ => 256,
        }
    }

    /// The group's context, built on first use. The 512-bit prime fits
    /// the 8-limb Montgomery kernel, the MODP primes the 32-limb one.
    fn ctx(self) -> &'static dyn GroupArith {
        static TEST_512_CTX: OnceLock<GroupCtx<8>> = OnceLock::new();
        static MODP_1536_CTX: OnceLock<GroupCtx<32>> = OnceLock::new();
        static MODP_2048_CTX: OnceLock<GroupCtx<32>> = OnceLock::new();
        match self {
            DhGroup::Modp1536 => MODP_1536_CTX.get_or_init(|| GroupCtx::new(self)),
            DhGroup::Modp2048 => MODP_2048_CTX.get_or_init(|| GroupCtx::new(self)),
            DhGroup::Test512 => TEST_512_CTX.get_or_init(|| GroupCtx::new(self)),
        }
    }
}

/// A group's arithmetic, whatever its Montgomery width.
trait GroupArith: Sync {
    /// The group prime `p`.
    fn prime(&self) -> &BigUint;
    /// `p − 1`, the one degenerate peer value below `p` other than 0 and 1.
    fn p_minus_1(&self) -> &BigUint;
    /// `g^x mod p` for a private exponent `x`.
    fn public(&self, x: &BigUint) -> BigUint;
    /// `y^x mod p` for a peer value `y < p`.
    fn power(&self, y: &BigUint, x: &BigUint) -> BigUint;
}

/// The read-only context of one group on the `N`-limb Montgomery kernel.
struct GroupCtx<const N: usize> {
    mont: Montgomery<N>,
    p_minus_1: BigUint,
    /// `base[i][d - 1]` is `g^(d·16^i)` in the Montgomery domain, one row
    /// per 4-bit digit of a private exponent (32 rows of 15 entries,
    /// about 30 KB, for the test group).
    base: Vec<[[u64; N]; 15]>,
}

impl<const N: usize> GroupCtx<N> {
    fn new(group: DhGroup) -> Self {
        let prime = group.prime();
        let mont = Montgomery::<N>::new(&prime);
        // `g_i` runs through g^(16^i).
        let mut g_i = mont.to_mont(&group.generator());
        let base = (0..group.exponent_bits() / DIGIT_BITS)
            .map(|_| {
                let mut row = [g_i; 15];
                for d in 1..15 {
                    row[d] = mont.mul(&row[d - 1], &g_i);
                }
                g_i = mont.mul(&row[14], &g_i);
                row
            })
            .collect();
        GroupCtx {
            p_minus_1: prime.sub(&BigUint::one()),
            mont,
            base,
        }
    }
}

impl<const N: usize> GroupArith for GroupCtx<N> {
    fn prime(&self) -> &BigUint {
        self.mont.modulus()
    }

    fn p_minus_1(&self) -> &BigUint {
        &self.p_minus_1
    }

    /// The product of the table entries for `x`'s non-zero digits.
    fn public(&self, x: &BigUint) -> BigUint {
        debug_assert!(x.bits() <= DIGIT_BITS * self.base.len());
        let mut acc = self.mont.one();
        for (i, row) in self.base.iter().enumerate() {
            let d = x.bit_window(DIGIT_BITS * i, DIGIT_BITS);
            if d != 0 {
                acc = self.mont.mul(&acc, &row[d - 1]);
            }
        }
        self.mont.value_of(&acc)
    }

    fn power(&self, y: &BigUint, x: &BigUint) -> BigUint {
        self.mont.value_of(&self.mont.pow(&self.mont.to_mont(y), x))
    }
}

/// An ephemeral DH key pair for one exchange.
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    public: BigUint,
}

impl DhKeyPair {
    /// Generates an ephemeral key pair in `group`.
    pub fn generate<R: Rng + ?Sized>(group: DhGroup, rng: &mut R) -> Self {
        let private = loop {
            let x = BigUint::random_bits(rng, group.exponent_bits());
            if !x.is_zero() && !x.is_one() {
                break x;
            }
        };
        Self::from_private(group, private)
    }

    /// The key pair of a private exponent below `2^exponent_bits`.
    fn from_private(group: DhGroup, private: BigUint) -> Self {
        DhKeyPair {
            group,
            public: group.ctx().public(&private),
            private,
        }
    }

    /// The group this key pair lives in.
    pub fn group(&self) -> DhGroup {
        self.group
    }

    /// The public value, padded to the group's fixed length.
    pub fn public_bytes(&self) -> Vec<u8> {
        self.public.to_bytes_be_padded(self.group.public_len())
    }

    /// Computes the shared secret from the peer's public value.
    ///
    /// Returns `None` for degenerate peer values (0, 1, p-1, ≥p), which
    /// must be rejected to avoid small-subgroup confinement.
    pub fn shared_secret(&self, peer_public: &[u8]) -> Option<Vec<u8>> {
        let ctx = self.group.ctx();
        let y = BigUint::from_bytes_be(peer_public);
        if y.is_zero() || y.is_one() {
            return None;
        }
        if y.cmp_mag(ctx.prime()) != std::cmp::Ordering::Less {
            return None;
        }
        if y == *ctx.p_minus_1() {
            return None;
        }
        let secret = ctx.power(&y, &self.private);
        Some(secret.to_bytes_be_padded(self.group.public_len()))
    }
}

// RFC 3526 §2: 1536-bit MODP group.
const MODP_1536: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

// RFC 3526 §3: 2048-bit MODP group.
const MODP_2048: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

// A fixed 512-bit safe prime for the test group (generated once with the
// usual p = 2q+1 construction; value checked prime in tests).
const TEST_512: &str = "ee2c50993f2bc0bb8dcaccb41f81d9cf35e3f7bbd0e8c2b90d143f2704683b67\
27016b2dedc50d6920f98dce68f096b9efa87e7cd76a2e3c89518c5642dd65cf";

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    const GROUPS: [DhGroup; 3] = [DhGroup::Modp1536, DhGroup::Modp2048, DhGroup::Test512];

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn groups_round_trip_ids() {
        for g in [DhGroup::Modp1536, DhGroup::Modp2048, DhGroup::Test512] {
            assert_eq!(DhGroup::from_group_id(g.group_id()), Some(g));
        }
        assert_eq!(DhGroup::from_group_id(0), None);
    }

    #[test]
    fn agreement_test_group() {
        let mut r = rng();
        let a = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let b = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let s1 = a.shared_secret(&b.public_bytes()).unwrap();
        let s2 = b.shared_secret(&a.public_bytes()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), DhGroup::Test512.public_len());
    }

    #[test]
    fn agreement_modp2048() {
        let mut r = rng();
        let a = DhKeyPair::generate(DhGroup::Modp2048, &mut r);
        let b = DhKeyPair::generate(DhGroup::Modp2048, &mut r);
        assert_eq!(
            a.shared_secret(&b.public_bytes()).unwrap(),
            b.shared_secret(&a.public_bytes()).unwrap()
        );
    }

    #[test]
    fn degenerate_peers_rejected() {
        let mut r = rng();
        for g in GROUPS {
            let a = DhKeyPair::generate(g, &mut r);
            let p = g.prime();
            assert!(a.shared_secret(&[]).is_none()); // zero
            assert!(a.shared_secret(&[0; 8]).is_none()); // zero, padded
            assert!(a.shared_secret(&[1]).is_none()); // one
            assert!(a.shared_secret(&p.to_bytes_be()).is_none()); // == p
            let p_plus_1 = p.add(&BigUint::one());
            assert!(a.shared_secret(&p_plus_1.to_bytes_be()).is_none()); // > p
            assert!(a.shared_secret(&[0xff; 300]).is_none()); // ≫ p
            let p_minus_1 = p.sub(&BigUint::one());
            assert!(a.shared_secret(&p_minus_1.to_bytes_be()).is_none());
            // The values next to the refused ones are accepted.
            let p_minus_2 = p.sub(&BigUint::from_u64(2));
            assert!(a.shared_secret(&p_minus_2.to_bytes_be()).is_some());
            assert!(a.shared_secret(&[2]).is_some());
        }
    }

    #[test]
    fn context_holds_the_group_prime() {
        for g in GROUPS {
            let ctx = g.ctx();
            assert_eq!(*ctx.prime(), g.prime(), "{g:?}");
            assert_eq!(ctx.p_minus_1().add(&BigUint::one()), g.prime(), "{g:?}");
            assert_eq!(ctx.prime().bits(), 8 * g.public_len(), "{g:?}");
        }
    }

    /// The exponents the fixed-base table and the windowed power are
    /// most likely to get wrong, for a group with `bits`-bit exponents:
    /// the smallest, one digit, top digits zero, all ones, and a lone
    /// top bit.
    fn edge_exponents(bits: usize) -> Vec<BigUint> {
        let one = BigUint::one();
        let all_ones = one.shl(bits).sub(&one);
        vec![
            BigUint::from_u64(2),
            BigUint::from_u64(3),
            BigUint::from_u64(15),
            BigUint::from_u64(16),
            BigUint::from_u64(u64::MAX),
            all_ones.shr(bits / 2),
            all_ones.shr(4),
            all_ones.clone(),
            one.shl(bits - 1),
            // Every digit 0xf except the lowest: each row's last entry.
            all_ones.sub(&BigUint::from_u64(15)),
        ]
    }

    /// The fast paths against `modpow` for private exponent `x`, with
    /// the peer's private exponent `z` making the peer value.
    fn check_against_modpow(g: DhGroup, x: &BigUint, z: &BigUint) {
        let p = g.prime();
        let a = DhKeyPair::from_private(g, x.clone());
        let b = DhKeyPair::from_private(g, z.clone());
        assert_eq!(a.public, g.generator().modpow(x, &p), "{g:?} public, x={x}");
        let want = b.public.modpow(x, &p).to_bytes_be_padded(g.public_len());
        assert_eq!(
            a.shared_secret(&b.public_bytes()),
            Some(want),
            "{g:?} shared, x={x} z={z}"
        );
    }

    #[test]
    fn edge_exponents_match_modpow() {
        for g in GROUPS {
            let edges = edge_exponents(g.exponent_bits());
            for x in &edges {
                for z in [&edges[0], &edges[7]] {
                    check_against_modpow(g, x, z);
                }
            }
        }
    }

    #[test]
    fn distinct_pairs_distinct_secrets() {
        let mut r = rng();
        let a = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let b = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let c = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let ab = a.shared_secret(&b.public_bytes()).unwrap();
        let ac = a.shared_secret(&c.public_bytes()).unwrap();
        assert_ne!(ab, ac);
    }

    #[test]
    fn test_group_prime_is_prime() {
        let mut r = rng();
        let p = DhGroup::Test512.prime();
        assert_eq!(p.bits(), 512);
        assert!(crate::prime::is_probable_prime(&p, 16, &mut r));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_exponents_match_modpow(seed in any::<u64>(), top_zero in 0usize..8) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut exponent = |bits| loop {
                let x = BigUint::random_bits(&mut r, bits);
                if !x.is_zero() && !x.is_one() {
                    break x;
                }
            };
            for g in GROUPS {
                // The private exponent at full length or with up to seven
                // top digits zero.
                let x = exponent(g.exponent_bits() - DIGIT_BITS * top_zero);
                let z = exponent(g.exponent_bits());
                check_against_modpow(g, &x, &z);
            }
        }
    }
}
