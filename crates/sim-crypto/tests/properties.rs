//! Property-based tests for the cryptographic substrate: algebraic laws
//! for the big-integer engine, the Montgomery `modpow` against a
//! square-and-multiply oracle at every width, Miller–Rabin verdicts, and
//! round-trip and tamper properties for the symmetric primitives.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sim_crypto::aes::{reference, Aes128};
use sim_crypto::bigint::BigUint;
use sim_crypto::etm;
use sim_crypto::hmac::{hmac_sha256, verify_mac, HmacKey};
use sim_crypto::kdf::{keymat, prf_expand};
use sim_crypto::prime;
use sim_crypto::sha256::{sha256, Sha256};

fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|v| BigUint::from_bytes_be(&v))
}

fn nonzero_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..32)
        .prop_map(|v| BigUint::from_bytes_be(&v).add(&BigUint::one()))
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn div_rem_reconstructs(a in biguint(), d in nonzero_biguint()) {
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
        prop_assert!(r.cmp_mag(&d) == std::cmp::Ordering::Less);
    }

    #[test]
    fn bytes_round_trip(v in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&v);
        // Canonical form strips leading zeros.
        let stripped: Vec<u8> = v.iter().skip_while(|&&b| b == 0).copied().collect();
        prop_assert_eq!(n.to_bytes_be(), stripped);
    }

    #[test]
    fn hex_round_trip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).expect("parses"), a);
    }

    #[test]
    fn shifts_invert(a in biguint(), n in 0usize..200) {
        prop_assert_eq!(a.shl(n).shr(n), a);
    }

    #[test]
    fn modpow_small_exponent_matches_naive(
        base in biguint(),
        e in 0u64..24,
        m in nonzero_biguint(),
    ) {
        prop_assume!(!m.is_one());
        let expect = {
            let mut acc = BigUint::one().rem(&m);
            for _ in 0..e {
                acc = acc.mulmod(&base, &m);
            }
            acc
        };
        prop_assert_eq!(base.modpow(&BigUint::from_u64(e), &m), expect);
    }

    #[test]
    fn modinv_is_inverse(a in nonzero_biguint(), m in nonzero_biguint()) {
        prop_assume!(!m.is_one());
        if let Some(inv) = a.modinv(&m) {
            prop_assert!(a.mulmod(&inv, &m).is_one());
        } else {
            // Not coprime: gcd must be > 1 (or a ≡ 0 mod m).
            let g = a.gcd(&m);
            prop_assert!(!g.is_one() || a.rem(&m).is_zero());
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        cuts in proptest::collection::vec(1usize..64, 0..8),
    ) {
        let mut h = Sha256::new();
        let mut off = 0;
        for c in cuts {
            let end = (off + c).min(data.len());
            h.update(&data[off..end]);
            off = end;
        }
        h.update(&data[off..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn aes_cbc_round_trips(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let aes = Aes128::new(&key);
        let ct = aes.cbc_encrypt(&iv, &msg);
        // The dispatching CBC (AES-NI or portable) must equal textbook CBC
        // (PKCS#7 pad, XOR the previous block, encrypt) over the byte-wise
        // reference cipher.
        let pad = 16 - msg.len() % 16;
        let mut expected = msg.clone();
        expected.extend(std::iter::repeat_n(pad as u8, pad));
        let mut prev = iv;
        for chunk in expected.chunks_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().expect("block");
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            reference::encrypt_block(&aes, block);
            prev = *block;
        }
        prop_assert_eq!(&ct, &expected);
        let mut out = Vec::new();
        prop_assert!(aes.cbc_decrypt_into(&iv, &ct, &mut out));
        prop_assert_eq!(out, msg);
    }

    #[test]
    fn etm_matches_reference_cbc_and_hmac(
        aes_key in any::<[u8; 16]>(),
        mac_key in proptest::collection::vec(any::<u8>(), 0..100),
        aad in any::<[u8; 8]>(),
        iv in any::<[u8; 16]>(),
        blocks in 0usize..125,
        fill in proptest::collection::vec(any::<u8>(), 2000),
    ) {
        // `seal` is textbook CBC over the byte-wise reference cipher, then
        // HMAC-SHA-256 over `aad | IV | ciphertext`; `open` undoes the CBC
        // and returns the same MAC.
        let aes = Aes128::new(&aes_key);
        let key = HmacKey::new(&mac_key);
        let plain = &fill[..16 * blocks];
        let mut expected = iv.to_vec();
        let mut prev = iv;
        for chunk in plain.chunks(16) {
            let mut block: [u8; 16] = chunk.try_into().expect("block");
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            reference::encrypt_block(&aes, &mut block);
            expected.extend_from_slice(&block);
            prev = block;
        }
        let expected_mac = hmac_sha256(&mac_key, &[&aad[..], &expected].concat());

        let mut ivct = [&iv[..], plain].concat();
        prop_assert_eq!(etm::seal(&aes, &key, &aad, &mut ivct), expected_mac);
        prop_assert_eq!(&ivct, &expected);
        let mut out = vec![0u8; plain.len()];
        prop_assert_eq!(etm::open(&aes, &key, &aad, &ivct, &mut out), expected_mac);
        prop_assert_eq!(&out[..], plain);
    }

    #[test]
    fn encrypt_block_matches_bytewise_reference(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = block;
        aes.encrypt_block(&mut fast);
        let mut slow = block;
        reference::encrypt_block(&aes, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn decrypt_block_matches_bytewise_reference(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = block;
        aes.decrypt_block(&mut fast);
        let mut slow = block;
        reference::decrypt_block(&aes, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn aes_cbc_round_trips_all_short_lengths(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        fill in any::<u8>(),
        len in 0usize..64,
    ) {
        let msg = vec![fill; len];
        let aes = Aes128::new(&key);
        let ct = aes.cbc_encrypt(&iv, &msg);
        let mut out = Vec::new();
        prop_assert!(aes.cbc_decrypt_into(&iv, &ct, &mut out));
        prop_assert_eq!(out, msg);
    }

    #[test]
    fn cached_hmac_key_matches_oneshot(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        cut in 0usize..500,
    ) {
        let cached = HmacKey::new(&key);
        prop_assert_eq!(cached.mac(&msg), hmac_sha256(&key, &msg));
        let split = cut.min(msg.len());
        prop_assert_eq!(
            cached.mac_multi(&[&msg[..split], &msg[split..]]),
            hmac_sha256(&key, &msg)
        );
    }

    #[test]
    fn hmac_verifies_and_detects_flips(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        flip in 0usize..32,
    ) {
        let mac = hmac_sha256(&key, &msg);
        prop_assert!(verify_mac(&mac, &mac));
        let mut bad = mac;
        bad[flip] ^= 0x01;
        prop_assert!(!verify_mac(&mac, &bad));
    }

    #[test]
    fn keymat_is_order_independent_and_prefix_stable(
        kij in proptest::collection::vec(any::<u8>(), 1..64),
        a in any::<[u8; 16]>(),
        b in any::<[u8; 16]>(),
        i in any::<u64>(),
        j in any::<u64>(),
    ) {
        let k1 = keymat(&kij, &a, &b, i, j, 96);
        let k2 = keymat(&kij, &b, &a, i, j, 96);
        prop_assert_eq!(&k1, &k2, "HIT order must not matter");
        let shorter = keymat(&kij, &a, &b, i, j, 48);
        prop_assert_eq!(&k1[..48], &shorter[..]);
    }

    #[test]
    fn prf_prefix_property(
        secret in proptest::collection::vec(any::<u8>(), 1..48),
        seed in proptest::collection::vec(any::<u8>(), 0..48),
        len_a in 1usize..100,
        len_b in 1usize..100,
    ) {
        let (short, long) = if len_a < len_b { (len_a, len_b) } else { (len_b, len_a) };
        let a = prf_expand(&secret, b"label", &seed, short);
        let b = prf_expand(&secret, b"label", &seed, long);
        prop_assert_eq!(&b[..short], &a[..]);
    }
}

/// Test-only oracle for `modpow`: left-to-right square-and-multiply with a
/// full Knuth reduction after every product, sharing no code with the
/// Montgomery kernel.
fn oracle_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let base = base.rem(m);
    let mut acc = BigUint::one().rem(m);
    for i in (0..exp.bits()).rev() {
        acc = acc.mul(&acc).rem(m);
        if exp.bit(i) {
            acc = acc.mul(&base).rem(m);
        }
    }
    acc
}

/// `2^bits - 1`.
fn all_ones(bits: usize) -> BigUint {
    BigUint::one().shl(bits).sub(&BigUint::one())
}

/// A random odd modulus of exactly `limbs` limbs.
fn odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
    let bits = 64 * (limbs - 1) + rng.random_range(1..=64usize);
    let m = BigUint::random_exact_bits(rng, bits);
    if m.is_even() {
        m.add(&BigUint::one())
    } else {
        m
    }
}

fn check_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) {
    assert_eq!(
        base.modpow(exp, m),
        oracle_modpow(base, exp, m),
        "base {base} exp {exp} m {m}"
    );
}

/// Every odd width from 1 to 64 limbs (the kernel's 4/8/16/32/64-limb
/// buckets and their edges), plus one past the kernel's 4096-bit limit.
#[test]
fn montgomery_modpow_matches_oracle_at_every_width() {
    let mut rng = StdRng::seed_from_u64(0x6d6f6e74);
    for limbs in 1..=65 {
        let m = odd_modulus(&mut rng, limbs);
        if m.is_one() {
            continue;
        }
        let base = BigUint::random_bits(&mut rng, 64 * (limbs + 1));
        let exp = BigUint::random_bits(&mut rng, 100);
        check_modpow(&base, &exp, &m);
    }
}

/// Adversarial moduli, bases and exponents at both sides of every width
/// edge: all-ones moduli `2^(64k) - 1` (top of a bucket at k = 4, 8, ...),
/// a lone top bit, a top limb of 1, and random; bases 0, 1, `m - 1`, `m`,
/// above `m` and random; exponents 0, 1, 2, 65537, all-ones across the
/// 1-bit/4-bit window switch, and random.
#[test]
fn montgomery_modpow_matches_oracle_on_edge_values() {
    let mut rng = StdRng::seed_from_u64(0x65646765);
    for limbs in [1usize, 2, 4, 5, 8, 9, 16, 17, 32, 33, 64] {
        let top = 64 * limbs;
        let moduli = [
            all_ones(top),
            BigUint::one().shl(top - 1).add(&BigUint::one()),
            BigUint::one()
                .shl(top - 64)
                .add(&BigUint::random_bits(&mut rng, top - 64))
                .shr(1)
                .shl(1)
                .add(&BigUint::one()),
            odd_modulus(&mut rng, limbs),
        ];
        for m in moduli.iter().filter(|m| !m.is_one()) {
            let m_minus_1 = m.sub(&BigUint::one());
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                m.clone(),
                m.add(&BigUint::random_bits(&mut rng, top)),
                BigUint::random_below(&mut rng, m),
            ];
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64(2),
                BigUint::from_u64(65537),
                all_ones(63),
                all_ones(64),
                all_ones(129),
                BigUint::random_bits(&mut rng, 160),
            ];
            for base in &bases {
                for exp in &exps {
                    check_modpow(base, exp, m);
                }
            }
            // (m - 1)^2 = 1: the largest base, squared.
            assert!(m_minus_1.modpow(&BigUint::from_u64(2), m).is_one());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn montgomery_modpow_matches_oracle(
        limbs in 1usize..65,
        seed in any::<u64>(),
        exp_bits in 0usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = odd_modulus(&mut rng, limbs);
        prop_assume!(!m.is_one());
        let base = BigUint::random_bits(&mut rng, 64 * (limbs + 1));
        let exp = BigUint::random_bits(&mut rng, exp_bits);
        prop_assert_eq!(base.modpow(&exp, &m), oracle_modpow(&base, &exp, &m));
    }
}

/// Miller–Rabin verdicts around 256 bits. Chernick's `(6k+1)(12k+1)(18k+1)`
/// is a Carmichael number when all three factors are prime: every base
/// coprime to it passes Fermat's test, so only the strong (square-root)
/// steps can reject it. The two `k` give 256- and 257-bit numbers (4 and
/// 5 limbs), whose ~85-bit factors pass trial division.
#[test]
fn miller_rabin_verdicts_at_256_bits() {
    let mut rng = StdRng::seed_from_u64(0x6d72);
    let one = BigUint::one();
    for k in ["3a00000000000000023ed", "3c000000000000000930d"] {
        let k = BigUint::from_hex(k).unwrap();
        let factors: Vec<BigUint> = [6u64, 12, 18]
            .iter()
            .map(|&c| k.mul(&BigUint::from_u64(c)).add(&one))
            .collect();
        let n = factors[0].mul(&factors[1]).mul(&factors[2]);
        assert!(n.bits() >= 256);
        for p in &factors {
            assert!(prime::is_probable_prime(p, 20, &mut rng), "factor {p}");
            // Korselt's criterion: p - 1 divides n - 1.
            assert!(n.sub(&one).rem(&p.sub(&one)).is_zero());
        }
        assert!(
            !prime::is_probable_prime(&n, 20, &mut rng),
            "Carmichael {n}"
        );
    }
    let primes = [
        // P-256 field prime and group order, secp256k1's field prime,
        // 2^255 - 19.
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
        "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed",
    ];
    for p in primes {
        let p = BigUint::from_hex(p).unwrap();
        assert!(prime::is_probable_prime(&p, 20, &mut rng), "prime {p}");
        // Its square and its product with 2^127 - 1 are composite.
        assert!(!prime::is_probable_prime(&p.mul(&p), 20, &mut rng));
        let m127 = all_ones(127);
        assert!(!prime::is_probable_prime(&p.mul(&m127), 20, &mut rng));
    }
    assert!(!prime::is_probable_prime(&all_ones(256), 20, &mut rng));
}
