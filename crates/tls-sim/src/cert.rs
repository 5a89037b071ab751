//! Minimal X.509-shaped certificates: a subject name and an RSA public
//! key, signed by a certificate authority. The paper's SSL deployment
//! (OpenVPN-style) authenticates servers with exactly this chain shape:
//! one CA, per-server certificates.

use crate::record::{put_field, take_field};
use rand::rngs::StdRng;
use sim_crypto::rsa::{RsaKeyPair, RsaPublicKey};

/// A certificate: subject + public key + CA signature over both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The name this certificate binds (e.g. "db.rubis.cloud").
    pub subject: String,
    /// The bound public key.
    pub public_key: RsaPublicKey,
    signature: Vec<u8>,
}

impl Certificate {
    /// The bytes the CA signs.
    fn tbs(subject: &str, public_key: &RsaPublicKey) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, subject.as_bytes());
        out.extend_from_slice(&public_key.to_bytes());
        out
    }

    /// Verifies the CA signature.
    pub fn verify(&self, ca: &RsaPublicKey) -> bool {
        ca.verify(&Self::tbs(&self.subject, &self.public_key), &self.signature)
    }

    /// Serializes for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let key = self.public_key.to_bytes();
        for field in [self.subject.as_bytes(), &key, &self.signature] {
            put_field(&mut out, field);
        }
        out
    }

    /// Parses the wire form.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut cur = data;
        let subject = String::from_utf8(take_field(&mut cur)?.to_vec()).ok()?;
        let public_key = RsaPublicKey::from_bytes(take_field(&mut cur)?)?;
        let signature = take_field(&mut cur)?.to_vec();
        Some(Certificate {
            subject,
            public_key,
            signature,
        })
    }
}

/// A certificate authority: issues server certificates.
pub struct CertificateAuthority {
    keys: RsaKeyPair,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh key of `bits` bits.
    pub fn new(bits: usize, rng: &mut StdRng) -> Self {
        CertificateAuthority {
            keys: RsaKeyPair::generate(bits, rng),
        }
    }

    /// The CA's public key (distributed to clients out of band).
    pub fn public(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Issues a certificate binding `subject` to `public_key`.
    pub fn issue(&self, subject: &str, public_key: &RsaPublicKey) -> Certificate {
        let tbs = Certificate::tbs(subject, public_key);
        Certificate {
            subject: subject.to_owned(),
            public_key: public_key.clone(),
            signature: self.keys.sign(&tbs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn issue_and_verify() {
        let mut r = rng();
        let ca = CertificateAuthority::new(512, &mut r);
        let server = RsaKeyPair::generate(512, &mut r);
        let cert = ca.issue("db.cloud", server.public());
        assert!(cert.verify(ca.public()));
    }

    #[test]
    fn wrong_ca_rejected() {
        let mut r = rng();
        let ca1 = CertificateAuthority::new(512, &mut r);
        let ca2 = CertificateAuthority::new(512, &mut r);
        let server = RsaKeyPair::generate(512, &mut r);
        let cert = ca1.issue("db.cloud", server.public());
        assert!(!cert.verify(ca2.public()));
    }

    #[test]
    fn tampered_subject_rejected() {
        let mut r = rng();
        let ca = CertificateAuthority::new(512, &mut r);
        let server = RsaKeyPair::generate(512, &mut r);
        let mut cert = ca.issue("db.cloud", server.public());
        cert.subject = "evil.cloud".to_owned();
        assert!(!cert.verify(ca.public()));
    }

    #[test]
    fn bytes_round_trip() {
        let mut r = rng();
        let ca = CertificateAuthority::new(512, &mut r);
        let server = RsaKeyPair::generate(512, &mut r);
        let cert = ca.issue("web1.cloud", server.public());
        let parsed = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(parsed, cert);
        assert!(parsed.verify(ca.public()));
        assert!(Certificate::from_bytes(&cert.to_bytes()[..10]).is_none());
    }
}
