//! Finite-field Diffie-Hellman key agreement.
//!
//! The HIP base exchange carries a DIFFIE_HELLMAN parameter; RFC 5201
//! mandates the RFC 3526 MODP groups. We provide group 14 (2048-bit, the
//! HIP default), group 5 (1536-bit) and a small 512-bit test group for
//! fast unit tests.

use crate::bigint::BigUint;
use rand::Rng;

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
        let p = group.prime();
        let private = loop {
            let x = BigUint::random_bits(rng, group.exponent_bits());
            if !x.is_zero() && !x.is_one() {
                break x;
            }
        };
        let public = group.generator().modpow(&private, &p);
        DhKeyPair {
            group,
            private,
            public,
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
        let p = self.group.prime();
        let y = BigUint::from_bytes_be(peer_public);
        if y.is_zero() || y.is_one() {
            return None;
        }
        if y.cmp_mag(&p) != std::cmp::Ordering::Less {
            return None;
        }
        if y == p.sub(&BigUint::one()) {
            return None;
        }
        let secret = y.modpow(&self.private, &p);
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
    use rand::SeedableRng;

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
        let a = DhKeyPair::generate(DhGroup::Test512, &mut r);
        let p = DhGroup::Test512.prime();
        assert!(a.shared_secret(&[]).is_none()); // zero
        assert!(a.shared_secret(&[1]).is_none()); // one
        assert!(a.shared_secret(&p.to_bytes_be()).is_none()); // == p
        let p_minus_1 = p.sub(&BigUint::one());
        assert!(a.shared_secret(&p_minus_1.to_bytes_be()).is_none());
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
}
