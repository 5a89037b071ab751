//! # hip-core
//!
//! The Host Identity Protocol: the primary contribution of *"Secure
//! Networking for Virtual Machines in the Cloud"* (Komu et al., CLUSTER
//! 2012), implemented as a layer-3.5 shim for `netsim` hosts.
//!
//! - [`identity`] — Host Identifiers (RSA/ECDSA), ORCHID HITs, LSIs
//! - [`wire`] — control-packet TLV wire format (RFC 5201 §5)
//! - [`puzzle`] — the DoS-throttling computational puzzle
//! - [`shim`] — the protocol engine: base exchange, ESP SAs, UPDATE
//!   mobility, CLOSE, rendezvous registration
//! - [`esp`] — the ESP-BEET data plane with real AES/HMAC and
//!   anti-replay
//! - [`firewall`] — HIT-based access control (the hosts.allow model)
//! - [`midbox`] — the hypervisor-resident HIP middlebox firewall
//! - [`rendezvous`] — the RVS middlebox relaying I1s
//! - [`dns_ext`] — HIP resource records (RFC 5205)
//! - [`cost`] — the calibrated crypto cost model shared with `tls-sim`
//!
//! ## Quick start
//!
//! Install a [`shim::HipShim`] on two `netsim` hosts, `add_peer` each
//! other's HIT + locator, and have an application connect to the peer's
//! HIT (or LSI): the shim runs the base exchange and tunnels the TCP
//! stream through ESP transparently. See `examples/quickstart.rs` at
//! the workspace root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod dns_ext;
pub mod esp;
pub mod firewall;
pub mod identity;
pub mod midbox;
pub mod puzzle;
pub mod rendezvous;
pub mod shim;
pub mod wire;

pub use cost::CostModel;
pub use esp::{EspError, EspSa, InnerMode};
pub use firewall::{Action, Firewall};
pub use identity::{HiAlgorithm, Hit, HostIdentity, LsiMapper, PublicHi};
pub use midbox::HipMidboxFirewall;
pub use rendezvous::RendezvousServer;
pub use shim::{HipConfig, HipShim, HipStats, PeerInfo};
pub use wire::{HipPacket, PacketType, Param};
