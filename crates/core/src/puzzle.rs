//! The HIP computational puzzle (RFC 5201 §4.1.2).
//!
//! The responder includes `(K, I)` in R1; the initiator must find `J`
//! such that the lowest `K` bits of `SHA-256(I | HIT-I | HIT-R | J)` are
//! zero. Verification costs one hash; solving costs 2^K hashes in
//! expectation — the asymmetry that lets a loaded server shed DoS load
//! by raising K (§IV-B of the paper).

use crate::identity::Hit;
use sim_crypto::sha256::{sha256_multi, Sha256};

/// Maximum difficulty we accept (2^26 hashes ≈ seconds of work).
pub const MAX_K: u8 = 26;

/// A puzzle's fixed prefix `(I | HIT-I | HIT-R)` absorbed into a SHA-256
/// midstate once, so each candidate `J` costs a single clone + 8-byte
/// update + finalize instead of re-buffering all four segments.
struct Midstate(Sha256);

impl Midstate {
    fn new(i: u64, initiator: &Hit, responder: &Hit) -> Self {
        let mut h = Sha256::new();
        h.update(&i.to_be_bytes());
        h.update(&initiator.0);
        h.update(&responder.0);
        Midstate(h)
    }

    fn low64(&self, j: u64) -> u64 {
        let mut h = self.0.clone();
        h.update(&j.to_be_bytes());
        let digest = h.finalize();
        // The check uses the low-order 64 bits (Ltrunc in the RFC).
        u64::from_be_bytes(digest[24..32].try_into().expect("8 bytes"))
    }
}

fn puzzle_hash(i: u64, initiator: &Hit, responder: &Hit, j: u64) -> u64 {
    let digest = sha256_multi(&[
        &i.to_be_bytes(),
        &initiator.0,
        &responder.0,
        &j.to_be_bytes(),
    ]);
    u64::from_be_bytes(digest[24..32].try_into().expect("8 bytes"))
}

/// Checks whether `j` solves the puzzle `(i, k)` for this HIT pair.
pub fn verify(i: u64, k: u8, initiator: &Hit, responder: &Hit, j: u64) -> bool {
    if k == 0 {
        return true;
    }
    if k > 63 {
        return false;
    }
    let mask = (1u64 << k) - 1;
    puzzle_hash(i, initiator, responder, j) & mask == 0
}

/// Solves the puzzle by brute force, counting attempts.
///
/// Starts from `j0` (pass something random for realistic behaviour,
/// or 0 for deterministic tests). Returns `(j, attempts)`.
///
/// # Panics
/// Panics if `k > MAX_K` — a defence against absurd difficulty values
/// arriving off the wire.
pub fn solve(i: u64, k: u8, initiator: &Hit, responder: &Hit, j0: u64) -> (u64, u64) {
    assert!(k <= MAX_K, "puzzle difficulty {k} exceeds MAX_K");
    if k == 0 {
        return (j0, 1);
    }
    let midstate = Midstate::new(i, initiator, responder);
    let mask = (1u64 << k) - 1;
    let mut j = j0;
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        if midstate.low64(j) & mask == 0 {
            return (j, attempts);
        }
        j = j.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits() -> (Hit, Hit) {
        (Hit([0xaa; 16]), Hit([0xbb; 16]))
    }

    #[test]
    fn solve_then_verify() {
        let (hi, hr) = hits();
        for k in [0u8, 1, 4, 8, 12] {
            let (j, attempts) = solve(0x1234, k, &hi, &hr, 0);
            assert!(verify(0x1234, k, &hi, &hr, j), "k={k}");
            assert!(attempts >= 1);
        }
    }

    #[test]
    fn difficulty_scales_attempts() {
        let (hi, hr) = hits();
        // Average attempts over a few puzzles grows roughly as 2^K.
        let avg = |k: u8| -> f64 {
            let total: u64 = (0..16u64).map(|i| solve(i, k, &hi, &hr, i * 7919).1).sum();
            total as f64 / 16.0
        };
        let a8 = avg(8);
        let a12 = avg(12);
        assert!(
            a12 > a8 * 4.0,
            "k=12 should need ≫ attempts than k=8 (got {a8:.0} vs {a12:.0})"
        );
    }

    #[test]
    fn wrong_j_rejected() {
        let (hi, hr) = hits();
        let (j, _) = solve(7, 12, &hi, &hr, 0);
        assert!(
            !verify(7, 12, &hi, &hr, j.wrapping_add(1)) || {
                // j+1 could also be a solution with ~2^-12 probability; accept
                // either but make sure verification is not vacuous:
                !verify(7, 12, &hi, &hr, j.wrapping_add(2))
                    || !verify(7, 12, &hi, &hr, j.wrapping_add(3))
            }
        );
    }

    #[test]
    fn solution_binds_hits() {
        let (hi, hr) = hits();
        let (j, _) = solve(7, 12, &hi, &hr, 0);
        let other = Hit([0xcc; 16]);
        // The same J almost surely fails for a different HIT pair.
        let cross = verify(7, 12, &other, &hr, j) && verify(7, 12, &hi, &other, j);
        assert!(!cross, "solution must be bound to the HIT pair");
    }

    #[test]
    fn k_zero_always_passes() {
        let (hi, hr) = hits();
        assert!(verify(1, 0, &hi, &hr, 999));
    }

    #[test]
    fn oversized_k_rejected_by_verify() {
        let (hi, hr) = hits();
        assert!(!verify(1, 64, &hi, &hr, 0));
    }

    #[test]
    #[should_panic]
    fn oversized_k_panics_solver() {
        let (hi, hr) = hits();
        let _ = solve(1, MAX_K + 1, &hi, &hr, 0);
    }

    /// Reference brute-force using the non-midstate hash path, for
    /// proving the midstate solver bit-identical.
    fn solve_reference(i: u64, k: u8, hi: &Hit, hr: &Hit, j0: u64) -> (u64, u64) {
        let mut j = j0;
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            if verify(i, k, hi, hr, j) {
                return (j, attempts);
            }
            j = j.wrapping_add(1);
        }
    }

    #[test]
    fn midstate_solver_matches_reference_exactly() {
        let (hi, hr) = hits();
        for (i, k, j0) in [
            (0x1234u64, 8u8, 0u64),
            (7, 12, 0),
            (99, 10, 0xdead_beef),
            (0, 1, u64::MAX - 3), // exercises wrapping j
            (42, 0, 17),
        ] {
            let fast = solve(i, k, &hi, &hr, j0);
            let slow = solve_reference(i, k, &hi, &hr, j0);
            assert_eq!(
                fast, slow,
                "i={i} k={k} j0={j0}: (j, attempts) must be identical"
            );
        }
    }

    #[test]
    fn midstate_hash_matches_multi_hash() {
        let (hi, hr) = hits();
        let m = Midstate::new(0xfeed, &hi, &hr);
        for j in 0..64u64 {
            assert_eq!(m.low64(j), puzzle_hash(0xfeed, &hi, &hr, j));
        }
    }
}
