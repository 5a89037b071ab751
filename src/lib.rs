//! # hipcloud
//!
//! A full Rust reproduction of **"Secure Networking for Virtual Machines
//! in the Cloud"** (Komu, Sethi, Mallavarapu, Oirola, Khan, Tarkoma —
//! IEEE CLUSTER 2012): the Host Identity Protocol deployed *inside* IaaS
//! clouds, with a reverse HTTP proxy terminating HIP toward consumers.
//!
//! This crate is the umbrella: it re-exports the workspace layers so the
//! examples and downstream users need a single dependency.
//!
//! | layer | crate | what it is |
//! |---|---|---|
//! | [`crypto`] | `sim-crypto` | from-scratch RSA/DH/ECDSA/AES/SHA-256 |
//! | [`net`] | `netsim` | deterministic packet-level network simulator |
//! | [`hip`] | `hip-core` | **the paper's contribution**: the HIP stack |
//! | [`tls`] | `tls-sim` | the SSL baseline |
//! | [`cloud`] | `cloudsim` | EC2/OpenNebula-like IaaS substrate |
//! | [`web`] | `websvc` | RUBiS, HAProxy-like LB, jmeter/httperf/iperf |
//!
//! ## Quickstart
//!
//! Run the smallest end-to-end demo — two VMs, a base exchange, and a
//! TCP conversation through an ESP tunnel:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Reproduce the paper's evaluation:
//!
//! ```bash
//! cargo run -p bench --release --bin fig2_throughput
//! cargo run -p bench --release --bin tab_response_times
//! cargo run -p bench --release --bin fig3_iperf_rtt
//! cargo bench --workspace
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Cryptographic primitives (re-export of `sim-crypto`).
pub use sim_crypto as crypto;

/// The network simulator (re-export of `netsim`).
pub use netsim as net;

/// The Host Identity Protocol implementation (re-export of `hip-core`).
pub use hip_core as hip;

/// The TLS baseline (re-export of `tls-sim`).
pub use tls_sim as tls;

/// The IaaS cloud simulator (re-export of `cloudsim`).
pub use cloudsim as cloud;

/// The web-service substrate and load generators (re-export of `websvc`).
pub use websvc as web;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_line_up() {
        // A HIT produced through the umbrella path is ORCHID-classified
        // by the network layer's address helpers.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let id = crate::hip::identity::HostIdentity::generate_rsa(512, &mut rng);
        assert!(crate::net::addr::is_hit(&id.hit().to_ip()));
    }
}
