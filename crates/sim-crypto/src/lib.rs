//! # sim-crypto
//!
//! From-scratch cryptographic primitives for the `hipcloud` workspace.
//!
//! No cryptography crates are available in this environment, so everything
//! the Host Identity Protocol and the TLS baseline need is implemented
//! here directly from the standards and pinned to published test vectors:
//!
//! - [`bigint`] — arbitrary-precision unsigned arithmetic (Knuth division,
//!   fixed-width Montgomery modular exponentiation)
//! - [`prime`] — Miller–Rabin and prime generation
//! - [`rsa`] — PKCS#1 v1.5 signatures (the default HIP host identity)
//! - [`dh`] — RFC 3526 MODP Diffie–Hellman (the BEX key agreement)
//! - [`ecdsa`] — P-256 signatures (the HIP ECC extension)
//! - [`mod@sha256`], [`hmac`] — FIPS 180-4 / RFC 2104
//! - [`aes`] — AES-128 in CBC mode, and [`pkcs7`] padding
//! - [`etm`] — AES-CBC encrypt-then-HMAC in one pass (ESP packets and
//!   TLS records)
//! - [`kdf`] — HIP KEYMAT (RFC 5201 §6.5) and a TLS-style PRF
//!
//! AES-128 and the SHA-256 compression run on the CPU's AES-NI and SHA-NI
//! instructions when `is_x86_feature_detected!` finds them, and on portable
//! code otherwise. When it finds both, [`etm`] runs one stitched loop that
//! CBC-processes four AES blocks next to each 64-byte HMAC block, so the
//! two instruction chains overlap; otherwise it runs CBC and then the MAC.
//! The three private `ni` modules (in `aes`, `sha256` and `etm`) hold the
//! workspace's only `unsafe` code; every other crate root has
//! `#![forbid(unsafe_code)]`.
//! Simulated time is charged from the cost model, never measured, so the
//! path taken does not change any simulated output.
//!
//! **Security disclaimer:** this crate exists to reproduce a systems
//! paper inside a simulator. It is *not* constant-time, side-channel
//! hardened, or audited. Do not use it to protect real data.

#![warn(missing_docs)]

pub mod aes;
pub mod bigint;
pub mod dh;
pub mod ecdsa;
pub mod etm;
pub mod hmac;
pub mod kdf;
pub mod pkcs7;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use aes::Aes128;
pub use bigint::BigUint;
pub use dh::{DhGroup, DhKeyPair};
pub use ecdsa::{EcdsaKeyPair, EcdsaPublicKey, EcdsaSignature};
pub use hmac::{hmac_sha256, HmacKey, HmacSha256};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::{sha256, Sha256};
