//! # netsim
//!
//! A deterministic, packet-level discrete-event network simulator: the
//! substrate on which the `hipcloud` workspace reproduces the paper's
//! Amazon EC2 / OpenNebula testbed.
//!
//! - [`engine`] — event queue, virtual clock, node dispatch
//! - [`link`] — latency/bandwidth/loss links with real output queues
//! - [`packet`] — typed packets (TCP/UDP/ICMP/ESP/HIP-control)
//! - [`host`] — full end-host stacks: apps, TCP/UDP/ICMP, the layer-3.5
//!   shim hook where HIP plugs in, Teredo, CPU service model
//! - [`tcp`] — windowed TCP with congestion control and retransmission
//! - [`router`], [`nat`], [`teredo`], [`dns`] — middleboxes and naming
//! - [`addr`] — ORCHID/LSI/Teredo address classification
//! - [`drops`] — the typed reason every dropped packet is counted and
//!   traced under
//! - [`cpu`], [`time`], [`trace`] — supporting models
//!
//! Runs are bit-for-bit reproducible for a given seed: one clock, one
//! seeded RNG, FIFO tie-breaking. Parallelism belongs *across* runs
//! (see the `bench` crate), never inside one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod cpu;
pub mod dns;
pub mod drops;
pub mod engine;
pub mod fault;
pub mod fx;
pub mod host;
pub mod link;
pub mod nat;
pub mod packet;
pub mod router;
pub mod sched;
pub mod tcp;
pub mod teredo;
pub mod time;
pub mod trace;

pub use cpu::CpuModel;
pub use drops::DropReason;
pub use engine::{
    Ctx, Event, FaultAction, Node, RunOutcome, Sim, SimStats, TimerHandle, TimerOwner, TimerToken,
    World, IFACE_INTERNAL,
};
pub use fault::{FaultEpisode, FaultPlan, FaultPlanError};
pub use host::{App, AppEvent, Host, HostApi, HostCore, L35Shim, ShimApi};
pub use link::{Endpoint, Link, LinkId, LinkParams, NodeId};
/// The metrics crate: [`HostApi::metrics`] hands apps its registry, and
/// apps that cache metric handles name its types through this path.
pub use obs;
pub use packet::{Packet, Payload};
pub use tcp::{SockId, TcpEvent};
pub use time::{SimDuration, SimTime};
