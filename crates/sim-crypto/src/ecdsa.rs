//! ECDSA over NIST P-256.
//!
//! The paper notes (§IV-B) that "the latest version of HIP supports also
//! elliptic-curve cryptography that can curb the processing costs without
//! hardware acceleration" (RFC 5201-bis / Ponomarev et al.). This module
//! lets hosts use ECDSA host identities instead of RSA ones, and the
//! `ecc_vs_rsa` bench quantifies the control-plane saving.
//!
//! Affine-coordinate arithmetic over the P-256 field; slow but simple —
//! protocol timing in the simulator comes from the cost model.

use crate::bigint::BigUint;
use crate::sha256::sha256;
use rand::Rng;
use std::sync::OnceLock;

/// NIST P-256 curve domain parameters.
struct Curve {
    p: BigUint,
    a: BigUint,
    b: BigUint,
    n: BigUint,
    g: Point,
}

/// A point on the curve (affine), with infinity represented explicitly.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Point {
    Infinity,
    Affine { x: BigUint, y: BigUint },
}

fn curve() -> &'static Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE.get_or_init(|| Curve {
        p: BigUint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap(),
        a: BigUint::from_hex("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc")
            .unwrap(),
        b: BigUint::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
            .unwrap(),
        n: BigUint::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
            .unwrap(),
        g: Point::Affine {
            x: BigUint::from_hex(
                "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            )
            .unwrap(),
            y: BigUint::from_hex(
                "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
            )
            .unwrap(),
        },
    })
}

impl Curve {
    fn mod_sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        if a.cmp_mag(b) != std::cmp::Ordering::Less {
            a.sub(b)
        } else {
            self.p.sub(&b.sub(a).rem(&self.p))
        }
    }

    fn add(&self, p1: &Point, p2: &Point) -> Point {
        match (p1, p2) {
            (Point::Infinity, q) => q.clone(),
            (q, Point::Infinity) => q.clone(),
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    // Either doubling or inverse points.
                    let y_sum = y1.add(y2).rem(&self.p);
                    if y_sum.is_zero() {
                        return Point::Infinity;
                    }
                    return self.double(p1);
                }
                // lambda = (y2 - y1) / (x2 - x1)
                let num = self.mod_sub(y2, y1);
                let den = self.mod_sub(x2, x1);
                let lambda =
                    num.mulmod(&den.modinv(&self.p).expect("nonzero denominator"), &self.p);
                self.chord(&lambda, x1, y1, x2)
            }
        }
    }

    fn double(&self, p: &Point) -> Point {
        match p {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => {
                if y.is_zero() {
                    return Point::Infinity;
                }
                // lambda = (3x^2 + a) / 2y
                let three_x2 = x.mulmod(x, &self.p).mulmod(&BigUint::from_u64(3), &self.p);
                let num = three_x2.add(&self.a).rem(&self.p);
                let den = y.mulmod(&BigUint::from_u64(2), &self.p);
                let lambda = num.mulmod(&den.modinv(&self.p).expect("nonzero 2y"), &self.p);
                self.chord(&lambda, x, y, x)
            }
        }
    }

    /// Finishes an addition/doubling given the chord/tangent slope:
    /// `x3 = lambda^2 - x1 - x2`, `y3 = lambda (x1 - x3) - y1`.
    fn chord(&self, lambda: &BigUint, x1: &BigUint, y1: &BigUint, x2: &BigUint) -> Point {
        let x3 = self.mod_sub(&self.mod_sub(&lambda.mulmod(lambda, &self.p), x1), x2);
        let y3 = self.mod_sub(&lambda.mulmod(&self.mod_sub(x1, &x3), &self.p), y1);
        Point::Affine { x: x3, y: y3 }
    }

    /// Double-and-add scalar multiplication.
    fn mul(&self, k: &BigUint, p: &Point) -> Point {
        let mut acc = Point::Infinity;
        for i in (0..k.bits()).rev() {
            acc = self.double(&acc);
            if k.bit(i) {
                acc = self.add(&acc, p);
            }
        }
        acc
    }

    fn on_curve(&self, p: &Point) -> bool {
        match p {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = y.mulmod(y, &self.p);
                let rhs = x
                    .mulmod(x, &self.p)
                    .mulmod(x, &self.p)
                    .add(&self.a.mulmod(x, &self.p))
                    .add(&self.b)
                    .rem(&self.p);
                lhs == rhs
            }
        }
    }
}

/// An ECDSA P-256 public key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EcdsaPublicKey {
    point: Point,
}

/// An ECDSA P-256 key pair.
#[derive(Clone)]
pub struct EcdsaKeyPair {
    d: BigUint,
    public: EcdsaPublicKey,
}

/// An ECDSA signature `(r, s)`, serialized as two 32-byte values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EcdsaSignature {
    r: BigUint,
    s: BigUint,
}

impl EcdsaKeyPair {
    /// Generates a key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let c = curve();
        let d = loop {
            let d = BigUint::random_below(rng, &c.n);
            if !d.is_zero() {
                break d;
            }
        };
        let point = c.mul(&d, &c.g);
        EcdsaKeyPair {
            d,
            public: EcdsaPublicKey { point },
        }
    }

    /// The public half.
    pub fn public(&self) -> &EcdsaPublicKey {
        &self.public
    }

    /// Signs the SHA-256 digest of `message` with a random nonce.
    pub fn sign<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> EcdsaSignature {
        let c = curve();
        let z = BigUint::from_bytes_be(&sha256(message)).rem(&c.n);
        loop {
            let k = loop {
                let k = BigUint::random_below(rng, &c.n);
                if !k.is_zero() {
                    break k;
                }
            };
            let Point::Affine { x, .. } = c.mul(&k, &c.g) else {
                continue;
            };
            let r = x.rem(&c.n);
            if r.is_zero() {
                continue;
            }
            let k_inv = k.modinv(&c.n).expect("k in [1, n) is invertible");
            let s = k_inv.mulmod(&z.add(&r.mulmod(&self.d, &c.n)), &c.n);
            if s.is_zero() {
                continue;
            }
            return EcdsaSignature { r, s };
        }
    }
}

impl EcdsaPublicKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &EcdsaSignature) -> bool {
        let c = curve();
        let (r, s) = (&signature.r, &signature.s);
        if r.is_zero() || s.is_zero() {
            return false;
        }
        if r.cmp_mag(&c.n) != std::cmp::Ordering::Less
            || s.cmp_mag(&c.n) != std::cmp::Ordering::Less
        {
            return false;
        }
        if !c.on_curve(&self.point) || self.point == Point::Infinity {
            return false;
        }
        let z = BigUint::from_bytes_be(&sha256(message)).rem(&c.n);
        let Some(s_inv) = s.modinv(&c.n) else {
            return false;
        };
        let u1 = z.mulmod(&s_inv, &c.n);
        let u2 = r.mulmod(&s_inv, &c.n);
        let point = c.add(&c.mul(&u1, &c.g), &c.mul(&u2, &self.point));
        match point {
            Point::Infinity => false,
            Point::Affine { x, .. } => &x.rem(&c.n) == r,
        }
    }

    /// Serializes as uncompressed SEC1: `04 || X (32) || Y (32)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.point {
            Point::Infinity => vec![0x00],
            Point::Affine { x, y } => {
                let mut out = Vec::with_capacity(65);
                out.push(0x04);
                out.extend_from_slice(&x.to_bytes_be_padded(32));
                out.extend_from_slice(&y.to_bytes_be_padded(32));
                out
            }
        }
    }

    /// Parses an uncompressed SEC1 point, validating curve membership.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() != 65 || data[0] != 0x04 {
            return None;
        }
        let point = Point::Affine {
            x: BigUint::from_bytes_be(&data[1..33]),
            y: BigUint::from_bytes_be(&data[33..65]),
        };
        if !curve().on_curve(&point) {
            return None;
        }
        Some(EcdsaPublicKey { point })
    }
}

impl EcdsaSignature {
    /// Serializes as `r (32) || s (32)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.r.to_bytes_be_padded(32);
        out.extend_from_slice(&self.s.to_bytes_be_padded(32));
        out
    }

    /// Parses the 64-byte serialization.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() != 64 {
            return None;
        }
        Some(EcdsaSignature {
            r: BigUint::from_bytes_be(&data[..32]),
            s: BigUint::from_bytes_be(&data[32..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2718)
    }

    #[test]
    fn generator_on_curve() {
        let c = curve();
        assert!(c.on_curve(&c.g));
    }

    #[test]
    fn generator_has_order_n() {
        let c = curve();
        assert_eq!(c.mul(&c.n, &c.g), Point::Infinity);
        // n-1 times G is not infinity
        let n_minus_1 = c.n.sub(&BigUint::one());
        assert_ne!(c.mul(&n_minus_1, &c.g), Point::Infinity);
    }

    #[test]
    fn point_addition_laws() {
        let c = curve();
        let two_g_via_double = c.double(&c.g);
        let two_g_via_add = c.add(&c.g, &c.g);
        assert_eq!(two_g_via_double, two_g_via_add);
        assert!(c.on_curve(&two_g_via_double));
        // G + infinity = G
        assert_eq!(c.add(&c.g, &Point::Infinity), c.g);
        // 2G + G == 3G
        let three_g = c.mul(&BigUint::from_u64(3), &c.g);
        assert_eq!(c.add(&two_g_via_add, &c.g), three_g);
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut r = rng();
        let kp = EcdsaKeyPair::generate(&mut r);
        let sig = kp.sign(b"elliptic hip", &mut r);
        assert!(kp.public().verify(b"elliptic hip", &sig));
    }

    #[test]
    fn verify_rejects_tampering() {
        let mut r = rng();
        let kp = EcdsaKeyPair::generate(&mut r);
        let sig = kp.sign(b"message", &mut r);
        assert!(!kp.public().verify(b"other message", &sig));
        let other = EcdsaKeyPair::generate(&mut r);
        assert!(!other.public().verify(b"message", &sig));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let mut r = rng();
        let kp = EcdsaKeyPair::generate(&mut r);
        let sig = kp.sign(b"serialize me", &mut r);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), 64);
        assert_eq!(EcdsaSignature::from_bytes(&bytes).unwrap(), sig);
        assert!(EcdsaSignature::from_bytes(&bytes[..63]).is_none());
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let mut r = rng();
        let kp = EcdsaKeyPair::generate(&mut r);
        let bytes = kp.public().to_bytes();
        assert_eq!(bytes.len(), 65);
        assert_eq!(&EcdsaPublicKey::from_bytes(&bytes).unwrap(), kp.public());
        // Off-curve point rejected.
        let mut bad = bytes.clone();
        bad[64] ^= 0x01;
        assert!(EcdsaPublicKey::from_bytes(&bad).is_none());
    }

    #[test]
    fn zero_signature_rejected() {
        let mut r = rng();
        let kp = EcdsaKeyPair::generate(&mut r);
        let zero = EcdsaSignature {
            r: BigUint::zero(),
            s: BigUint::zero(),
        };
        assert!(!kp.public().verify(b"m", &zero));
    }
}
