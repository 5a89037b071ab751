//! Host identities: the public-key names HIP gives to hosts.
//!
//! - **HI** (Host Identifier): an RSA or ECDSA public key (RFC 5201 §3).
//! - **HIT** (Host Identity Tag): a 128-bit ORCHID (RFC 4843) — the
//!   2001:10::/28 prefix followed by 100 bits of a SHA-256 hash of the
//!   HI. Applications use HITs exactly like IPv6 addresses.
//! - **LSI** (Local-Scope Identifier): a host-local IPv4 alias (1.0.0.0/8)
//!   for the HIT so unmodified IPv4 applications can use HIP (RFC 5338).
//!   The extra HIT↔LSI translation is what the paper blames for HIP's
//!   small deficit against SSL in its measurements.

use netsim::fx::FxHashMap;
use rand::rngs::StdRng;
use sim_crypto::ecdsa::{EcdsaKeyPair, EcdsaPublicKey, EcdsaSignature};
use sim_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sim_crypto::sha256::sha256;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A Host Identity Tag: 128 bits, ORCHID-encoded.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hit(pub [u8; 16]);

impl Hit {
    /// Derives the HIT from a serialized Host Identifier.
    pub fn from_hi_bytes(hi: &[u8]) -> Self {
        let h = sha256(hi);
        let mut b = [0u8; 16];
        // 28-bit ORCHID prefix 2001:0010::/28.
        b[0] = 0x20;
        b[1] = 0x01;
        b[2] = 0x00;
        b[3] = 0x10 | (h[0] & 0x0f);
        b[4..16].copy_from_slice(&h[1..13]);
        Hit(b)
    }

    /// The all-zero HIT (used as the unknown-responder placeholder).
    pub const NULL: Hit = Hit([0u8; 16]);

    /// As an IPv6 address for the application layer.
    pub fn to_ipv6(self) -> Ipv6Addr {
        Ipv6Addr::from(self.0)
    }

    /// As a generic `IpAddr`.
    pub fn to_ip(self) -> IpAddr {
        IpAddr::V6(self.to_ipv6())
    }

    /// Interprets an IPv6 address as a HIT (must be in the ORCHID range).
    pub fn from_ip(addr: &IpAddr) -> Option<Hit> {
        if !netsim::addr::is_hit(addr) {
            return None;
        }
        match addr {
            IpAddr::V6(v6) => Some(Hit(v6.octets())),
            IpAddr::V4(_) => None,
        }
    }

    /// True for the null placeholder.
    pub fn is_null(&self) -> bool {
        self.0 == [0u8; 16]
    }
}

impl fmt::Debug for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HIT({})", self.to_ipv6())
    }
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ipv6())
    }
}

/// The signature algorithm of a host identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HiAlgorithm {
    /// RSA (HIP's default; algorithm id 5 in the HOST_ID parameter).
    Rsa,
    /// ECDSA P-256 (the ECC extension the paper cites; id 7).
    Ecdsa,
}

impl HiAlgorithm {
    /// Wire identifier.
    pub fn id(self) -> u8 {
        match self {
            HiAlgorithm::Rsa => 5,
            HiAlgorithm::Ecdsa => 7,
        }
    }

    /// From wire identifier.
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            5 => Some(HiAlgorithm::Rsa),
            7 => Some(HiAlgorithm::Ecdsa),
            _ => None,
        }
    }
}

/// The public half of a host identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PublicHi {
    /// An RSA public key.
    Rsa(RsaPublicKey),
    /// An ECDSA P-256 public key.
    Ecdsa(EcdsaPublicKey),
}

impl PublicHi {
    /// Serializes as `algorithm (1) || key bytes` — the HOST_ID payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            PublicHi::Rsa(k) => {
                out.push(HiAlgorithm::Rsa.id());
                out.extend_from_slice(&k.to_bytes());
            }
            PublicHi::Ecdsa(k) => {
                out.push(HiAlgorithm::Ecdsa.id());
                out.extend_from_slice(&k.to_bytes());
            }
        }
        out
    }

    /// Parses the HOST_ID payload.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let (&alg, key) = data.split_first()?;
        match HiAlgorithm::from_id(alg)? {
            HiAlgorithm::Rsa => Some(PublicHi::Rsa(RsaPublicKey::from_bytes(key)?)),
            HiAlgorithm::Ecdsa => Some(PublicHi::Ecdsa(EcdsaPublicKey::from_bytes(key)?)),
        }
    }

    /// The HIT of this identity.
    pub fn hit(&self) -> Hit {
        Hit::from_hi_bytes(&self.to_bytes())
    }

    /// Verifies a signature produced by [`HostIdentity::sign`].
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        match self {
            PublicHi::Rsa(k) => k.verify(message, signature),
            PublicHi::Ecdsa(k) => match EcdsaSignature::from_bytes(signature) {
                Some(sig) => k.verify(message, &sig),
                None => false,
            },
        }
    }

    /// The algorithm in use.
    pub fn algorithm(&self) -> HiAlgorithm {
        match self {
            PublicHi::Rsa(_) => HiAlgorithm::Rsa,
            PublicHi::Ecdsa(_) => HiAlgorithm::Ecdsa,
        }
    }
}

/// A full host identity: key pair + cached HIT.
pub struct HostIdentity {
    keys: HiKeys,
    public: PublicHi,
    hit: Hit,
}

enum HiKeys {
    Rsa(RsaKeyPair),
    Ecdsa(EcdsaKeyPair),
}

impl HostIdentity {
    /// Generates an RSA host identity with a modulus of `bits` bits
    /// (the paper's HIPL deployment used RSA; 1024 was typical in 2012;
    /// tests use smaller keys for speed — timing comes from the cost
    /// model, not from this key's size).
    pub fn generate_rsa(bits: usize, rng: &mut StdRng) -> Self {
        let keys = RsaKeyPair::generate(bits, rng);
        let public = PublicHi::Rsa(keys.public().clone());
        let hit = public.hit();
        HostIdentity {
            keys: HiKeys::Rsa(keys),
            public,
            hit,
        }
    }

    /// Generates an ECDSA P-256 host identity (the ECC extension).
    pub fn generate_ecdsa(rng: &mut StdRng) -> Self {
        let keys = EcdsaKeyPair::generate(rng);
        let public = PublicHi::Ecdsa(keys.public().clone());
        let hit = public.hit();
        HostIdentity {
            keys: HiKeys::Ecdsa(keys),
            public,
            hit,
        }
    }

    /// The public identity.
    pub fn public(&self) -> &PublicHi {
        &self.public
    }

    /// This host's HIT.
    pub fn hit(&self) -> Hit {
        self.hit
    }

    /// The algorithm in use.
    pub fn algorithm(&self) -> HiAlgorithm {
        self.public.algorithm()
    }

    /// Signs `message` with the private key.
    pub fn sign(&self, message: &[u8], rng: &mut StdRng) -> Vec<u8> {
        match &self.keys {
            HiKeys::Rsa(k) => k.sign(message),
            HiKeys::Ecdsa(k) => k.sign(message, rng).to_bytes(),
        }
    }
}

/// Allocates Local-Scope Identifiers and maintains the HIT↔LSI mapping.
///
/// LSIs are host-local: two hosts may map the same peer to different
/// LSIs. Allocation is deterministic from the HIT with linear probing on
/// collision.
#[derive(Default)]
pub struct LsiMapper {
    by_lsi: FxHashMap<Ipv4Addr, Hit>,
    by_hit: FxHashMap<Hit, Ipv4Addr>,
}

impl LsiMapper {
    /// An empty mapper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the LSI for `hit`, allocating one if needed.
    pub fn lsi_for(&mut self, hit: Hit) -> Ipv4Addr {
        if let Some(&lsi) = self.by_hit.get(&hit) {
            return lsi;
        }
        // Seed from the HIT tail; probe on collision. 1.0.0.0 and
        // 1.255.255.255 are avoided as pseudo network/broadcast.
        let base = u32::from_be_bytes([0, hit.0[13], hit.0[14], hit.0[15]]);
        for probe in 0u32.. {
            let v = (base.wrapping_add(probe)) & 0x00ff_ffff;
            if v == 0 || v == 0x00ff_ffff {
                continue;
            }
            let octets = v.to_be_bytes();
            let lsi = Ipv4Addr::new(1, octets[1], octets[2], octets[3]);
            if let std::collections::hash_map::Entry::Vacant(e) = self.by_lsi.entry(lsi) {
                e.insert(hit);
                self.by_hit.insert(hit, lsi);
                return lsi;
            }
        }
        unreachable!("LSI space exhausted")
    }

    /// Looks up the HIT behind an LSI.
    pub fn hit_of(&self, lsi: &Ipv4Addr) -> Option<Hit> {
        self.by_lsi.get(lsi).copied()
    }

    /// Looks up the LSI of a HIT without allocating.
    pub fn lsi_of(&self, hit: &Hit) -> Option<Ipv4Addr> {
        self.by_hit.get(hit).copied()
    }

    /// Number of allocated LSIs.
    pub fn len(&self) -> usize {
        self.by_lsi.len()
    }

    /// True when no LSIs have been allocated.
    pub fn is_empty(&self) -> bool {
        self.by_lsi.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sim_crypto::bigint::BigUint;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn hit_is_orchid() {
        let mut r = rng();
        let id = HostIdentity::generate_rsa(512, &mut r);
        let ip = id.hit().to_ip();
        assert!(netsim::addr::is_hit(&ip), "{ip}");
        assert_eq!(Hit::from_ip(&ip), Some(id.hit()));
    }

    #[test]
    fn hit_depends_on_key() {
        let mut r = rng();
        let a = HostIdentity::generate_rsa(512, &mut r);
        let b = HostIdentity::generate_rsa(512, &mut r);
        assert_ne!(a.hit(), b.hit());
    }

    #[test]
    fn hit_matches_public_serialization() {
        let mut r = rng();
        let id = HostIdentity::generate_rsa(512, &mut r);
        let bytes = id.public().to_bytes();
        let parsed = PublicHi::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.hit(), id.hit());
        assert_eq!(&parsed, id.public());
    }

    #[test]
    fn rsa_sign_verify_through_identity() {
        let mut r = rng();
        let id = HostIdentity::generate_rsa(512, &mut r);
        let sig = id.sign(b"hip control packet", &mut r);
        assert!(id.public().verify(b"hip control packet", &sig));
        assert!(!id.public().verify(b"tampered", &sig));
    }

    #[test]
    fn ecdsa_identity_works() {
        let mut r = rng();
        let id = HostIdentity::generate_ecdsa(&mut r);
        assert_eq!(id.algorithm(), HiAlgorithm::Ecdsa);
        assert!(netsim::addr::is_hit(&id.hit().to_ip()));
        let sig = id.sign(b"msg", &mut r);
        assert!(id.public().verify(b"msg", &sig));
        let bytes = id.public().to_bytes();
        assert_eq!(PublicHi::from_bytes(&bytes).unwrap().hit(), id.hit());
    }

    #[test]
    fn public_hi_rejects_garbage() {
        assert!(PublicHi::from_bytes(&[]).is_none());
        assert!(PublicHi::from_bytes(&[99, 1, 2, 3]).is_none());
        assert!(PublicHi::from_bytes(&[5]).is_none());
    }

    /// A HOST_ID payload carrying the RSA key `(n, e)`.
    fn rsa_host_id(n: &BigUint, e: &BigUint) -> Vec<u8> {
        let mut out = vec![HiAlgorithm::Rsa.id()];
        for part in [n.to_bytes_be(), e.to_bytes_be()] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(&part);
        }
        out
    }

    #[test]
    fn public_hi_rejects_out_of_bound_rsa_keys() {
        let one = BigUint::one();
        let f4 = BigUint::from_u64(65537);
        // An odd 512-bit modulus that parses with e = 65537.
        let n = one.shl(511).add(&BigUint::from_u64(0x1235));
        assert!(PublicHi::from_bytes(&rsa_host_id(&n, &f4)).is_some());
        let forged = [
            (n.sub(&one), f4.clone()),                          // even n
            (one.shl(8000).add(&one), f4.clone()),              // 8001-bit n
            (one.shl(4096).add(&one), f4.clone()),              // 4097-bit n
            (n.clone(), BigUint::from_u64(65536)),              // even e
            (n.clone(), one.clone()),                           // e = 1
            (n.clone(), n.clone()),                             // e = n
            (n.clone(), n.add(&BigUint::from_u64(2))),          // e > n
            (n.clone(), one.shl(64).add(&one)),                 // 65-bit e
            (one.shl(8000).add(&one), one.shl(7000).add(&one)), // huge n and e
        ];
        for (n, e) in &forged {
            assert!(
                PublicHi::from_bytes(&rsa_host_id(n, e)).is_none(),
                "accepted n of {} bits, e of {} bits",
                n.bits(),
                e.bits()
            );
        }
    }

    #[test]
    fn lsi_allocation_is_stable_and_in_range() {
        let mut m = LsiMapper::new();
        let hit = Hit([7u8; 16]);
        let lsi = m.lsi_for(hit);
        assert_eq!(lsi.octets()[0], 1, "LSIs live in 1/8");
        assert_eq!(m.lsi_for(hit), lsi, "idempotent");
        assert_eq!(m.hit_of(&lsi), Some(hit));
        assert_eq!(m.lsi_of(&hit), Some(lsi));
    }

    #[test]
    fn lsi_collision_probes() {
        let mut m = LsiMapper::new();
        // Two HITs with identical tails collide on the seed LSI.
        let mut a = [0u8; 16];
        let mut b = [1u8; 16];
        a[13..16].copy_from_slice(&[9, 9, 9]);
        b[13..16].copy_from_slice(&[9, 9, 9]);
        let la = m.lsi_for(Hit(a));
        let lb = m.lsi_for(Hit(b));
        assert_ne!(la, lb);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn null_hit() {
        assert!(Hit::NULL.is_null());
        let mut r = rng();
        assert!(!HostIdentity::generate_rsa(512, &mut r).hit().is_null());
    }
}
