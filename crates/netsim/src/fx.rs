//! A deterministic FxHash-style hasher for hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a
//! per-process `RandomState`. That is the right default against
//! adversarial keys, but inside the simulator every key is
//! simulator-generated (connection 4-tuples, ports), the maps are
//! consulted on every data segment, and — most importantly — the seed
//! randomness would make iteration order differ between processes,
//! which the determinism tests forbid relying on. This module provides
//! the multiply-rotate hash used by rustc (`FxHasher`): a few cycles
//! per key, no per-process state, identical across runs.
//!
//! Not DoS-resistant by design. That is safe for every map in the
//! workspace, including ones keyed by what a simulated attacker sends
//! (the HIP shim's per-SPI rate limiter): a simulated peer cannot
//! hash-flood the real process, and its keys are as deterministic as
//! everything else in the run. Keep it out of code that hashes input
//! from outside the simulation.
//!
//! `clippy.toml` at the workspace root disallows the std `HashMap` and
//! `HashSet`, so every map and set in the workspace is one of the
//! aliases below.

#![allow(
    clippy::disallowed_types,
    reason = "the Fx aliases are defined over the std types"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-FxHash multiplier (derived from the golden ratio, chosen
/// for dispersion under `wrapping_mul`).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds `FxHasher`s (zero-sized; no per-process randomness).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::IpAddr;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let key = (
            crate::packet::v4(10, 0, 0, 1),
            443u16,
            crate::packet::v4(10, 0, 0, 2),
            49152u16,
        );
        assert_eq!(hash_of(&key), hash_of(&key));
        // Two independent builders agree (no RandomState).
        let a = FxBuildHasher::default().hash_one(key);
        let b = FxBuildHasher::default().hash_one(key);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_tuples() {
        let k1 = (
            crate::packet::v4(10, 0, 0, 1),
            443u16,
            crate::packet::v4(10, 0, 0, 2),
            49152u16,
        );
        let k2 = (
            crate::packet::v4(10, 0, 0, 1),
            443u16,
            crate::packet::v4(10, 0, 0, 2),
            49153u16,
        );
        assert_ne!(hash_of(&k1), hash_of(&k2));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(IpAddr, u16), u32> = FxHashMap::default();
        for p in 0..1000u16 {
            m.insert(
                (crate::packet::v4(10, 0, (p >> 8) as u8, p as u8), p),
                u32::from(p),
            );
        }
        for p in 0..1000u16 {
            assert_eq!(
                m.get(&(crate::packet::v4(10, 0, (p >> 8) as u8, p as u8), p)),
                Some(&u32::from(p))
            );
        }
    }
}
