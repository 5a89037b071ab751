//! Probabilistic prime generation (trial division + Miller–Rabin),
//! used by the RSA key generator.

use crate::bigint::{with_montgomery, BigUint, Montgomery, MontgomeryTask};
use rand::Rng;

/// Small primes for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Miller–Rabin primality test with `rounds` random bases.
///
/// Deterministically handles small inputs; for the key sizes used here
/// (≥256 bits) 20 rounds gives an error probability below 2^-40. Odd `n`
/// up to 4096 bits is tested on one Montgomery context, with every
/// square taken in the Montgomery domain; the witnesses are the same
/// `random_below` draws either way.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    // The value of a single-word `n`, for comparing with small primes.
    let word = (n.bits() <= 64).then(|| n.low_u64());
    if word == Some(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if word == Some(p) {
            return true;
        }
        if n.rem_u64(p) == 0 {
            return false;
        }
    }
    miller_rabin(n, rounds, &mut |bound| BigUint::random_below(rng, bound))
}

/// The Miller–Rabin rounds for an odd `n` past trial division, drawing
/// each witness with `below(bound)`, a uniform value in `[0, bound)`.
/// Not generic over the RNG, so the kernel is compiled once here rather
/// than once per caller's RNG type.
fn miller_rabin(n: &BigUint, rounds: u32, below: &mut dyn FnMut(&BigUint) -> BigUint) -> bool {
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let test = MillerRabin {
        n_minus_1: &n_minus_1,
        d: &d,
        s,
        rounds,
        below,
    };
    match with_montgomery(n, test) {
        Ok(verdict) => verdict,
        Err(test) => test.rounds(
            BigUint::one(),
            n_minus_1.clone(),
            |a| a.modpow(&d, n),
            |x| x.mulmod(x, n),
        ),
    }
}

/// The witness rounds of a Miller–Rabin test of `n = d·2^s + 1`.
struct MillerRabin<'a> {
    n_minus_1: &'a BigUint,
    d: &'a BigUint,
    s: usize,
    rounds: u32,
    below: &'a mut dyn FnMut(&BigUint) -> BigUint,
}

impl MillerRabin<'_> {
    /// Runs the rounds with values of type `T`, in which `one` and
    /// `minus_one` stand for 1 and `n - 1`, `pow_d(a)` computes `a^d` and
    /// `square(x)` computes `x²`.
    fn rounds<T: PartialEq>(
        self,
        one: T,
        minus_one: T,
        pow_d: impl Fn(&BigUint) -> T,
        square: impl Fn(&T) -> T,
    ) -> bool {
        'witness: for _ in 0..self.rounds {
            // Random base in [2, n-2].
            let a = loop {
                let a = (self.below)(self.n_minus_1);
                if !a.is_zero() && !a.is_one() {
                    break a;
                }
            };
            let mut x = pow_d(&a);
            if x == one || x == minus_one {
                continue;
            }
            for _ in 1..self.s {
                x = square(&x);
                if x == minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

impl MontgomeryTask for MillerRabin<'_> {
    type Output = bool;

    fn run<const N: usize>(self, ctx: &Montgomery<N>) -> bool {
        let d = self.d;
        let minus_one = ctx.to_mont(self.n_minus_1);
        self.rounds(
            ctx.one(),
            minus_one,
            |a| ctx.pow(&ctx.to_mont(a), d),
            |x| ctx.sqr(x),
        )
    }
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
/// Panics if `bits < 8`.
pub fn generate_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    loop {
        let mut candidate = BigUint::random_exact_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if is_probable_prime(&candidate, 20, rng) {
            return candidate;
        }
    }
}

/// Generates a "safe-enough" prime `p` such that `gcd(p-1, e) == 1`,
/// as required for an RSA factor with public exponent `e`.
pub fn generate_rsa_factor<R: Rng + ?Sized>(bits: usize, e: &BigUint, rng: &mut R) -> BigUint {
    loop {
        let p = generate_prime(bits, rng);
        if p.sub(&BigUint::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 211, 65537] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 10, &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 21, 91, 561, 41041, 825265] {
            // 561, 41041, 825265 are Carmichael numbers.
            assert!(!is_probable_prime(&BigUint::from_u64(c), 10, &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&p, 20, &mut rng()));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, 20, &mut rng()));
    }

    #[test]
    fn mersenne_primes_on_both_sides_of_the_kernel_limit() {
        // M3217 runs on the 64-limb Montgomery kernel, M4253 (4253 bits)
        // on the square-and-multiply fallback; both are prime, and their
        // products with M127 are composite.
        let mersenne = |p: usize| BigUint::one().shl(p).sub(&BigUint::one());
        let m127 = mersenne(127);
        for p in [3217, 4253] {
            let m = mersenne(p);
            assert!(is_probable_prime(&m, 2, &mut rng()), "M{p}");
            assert!(
                !is_probable_prime(&m.mul(&m127), 2, &mut rng()),
                "M{p}·M127"
            );
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, 20, &mut r));
        }
    }

    #[test]
    fn rsa_factor_coprime_to_e() {
        let mut r = rng();
        let e = BigUint::from_u64(65537);
        let p = generate_rsa_factor(128, &e, &mut r);
        assert!(p.sub(&BigUint::one()).gcd(&e).is_one());
    }
}
