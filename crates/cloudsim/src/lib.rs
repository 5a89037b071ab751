//! # cloudsim
//!
//! An IaaS cloud simulator: the substrate standing in for the paper's
//! Amazon EC2 (public) and OpenNebula (private) testbeds.
//!
//! - [`flavor`] — EC2-style instance types (micro/large, compute units)
//! - [`topology`] — multi-cloud topology builder: cloud routers, VM
//!   access links, WAN interconnects, external hosts, infrastructure
//! - [`tenant`] — multi-tenancy registry + HIP isolation firewalls
//! - [`migration`] — cross-subnet VM migration announced over HIP

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flavor;
pub mod migration;
pub mod tenant;
pub mod topology;

pub use flavor::Flavor;
pub use migration::{migrate_with_hip, MigrationReport};
pub use tenant::{TenantId, TenantRegistry};
pub use topology::{CloudId, CloudKind, CloudTopology, VmHandle};
