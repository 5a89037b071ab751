//! EC2-style instance flavors.
//!
//! The paper's deployment (§V-A): "3 EBS-backed **micro** instances
//! (613 MB of memory and up to 2 EC2 compute units) as web servers and
//! an EBS-backed **large** instance (7.5 GB of memory and 4 EC2 compute
//! units) running MySQL". Flavors map onto [`netsim::CpuModel`]s: a
//! compute unit is the simulator's speed-1.0 core.

use netsim::CpuModel;

/// An instance type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// t1.micro: 613 MB, 1 vCPU bursting "up to 2 ECU" — sustained
    /// throughput is what matters for the saturation experiments, so we
    /// model the sustained rate of one compute unit.
    Micro,
    /// m1.small: 1.7 GB, 1 vCPU, 1 ECU.
    Small,
    /// m1.large: 7.5 GB, 2 vCPUs × 2 ECU.
    Large,
    /// A dedicated (non-VM) machine, e.g. the external load balancer —
    /// "a high-performance server as a reverse proxy".
    Dedicated,
}

impl Flavor {
    /// Memory in MB (recorded for completeness; the experiments are
    /// CPU-bound, matching the paper's observation that the DB — not
    /// memory — was the bottleneck).
    pub fn memory_mb(self) -> u32 {
        match self {
            Flavor::Micro => 613,
            Flavor::Small => 1_700,
            Flavor::Large => 7_680,
            Flavor::Dedicated => 16_384,
        }
    }

    /// Virtual CPU cores.
    pub fn vcpus(self) -> usize {
        match self {
            Flavor::Micro | Flavor::Small => 1,
            Flavor::Large => 2,
            Flavor::Dedicated => 8,
        }
    }

    /// EC2 compute units per core.
    pub fn ecu_per_core(self) -> f64 {
        match self {
            Flavor::Micro => 1.0,
            Flavor::Small => 1.0,
            Flavor::Large => 2.0,
            Flavor::Dedicated => 3.0,
        }
    }

    /// Builds the CPU model for this flavor. Micro instances are
    /// burstable (t1.micro's defining trait: full speed in short bursts,
    /// heavy throttling under sustained load) — the mechanism behind
    /// the paper's throughput decline once crypto keeps the web VMs'
    /// CPUs persistently busy.
    pub fn cpu_model(self) -> CpuModel {
        match self {
            Flavor::Micro => CpuModel::burstable(1, 2.0, 0.35, 0.10, 0.05),
            _ => CpuModel::new(self.vcpus(), self.ecu_per_core()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};

    #[test]
    fn micro_bursts_then_throttles() {
        let mut micro = Flavor::Micro.cpu_model();
        // Fresh credits: a small job runs at burst speed (2 ECU).
        let d = micro.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(5));
        // Sustained near-full load drains the bucket (spend ≈ 0.45/s,
        // accrue 0.25/s): widely spaced so no queueing confounds it.
        let mut t = SimTime::ZERO;
        for _ in 0..60 {
            t += SimDuration::from_secs(10);
            micro.charge(t, SimDuration::from_millis(9000));
        }
        assert_eq!(micro.credits(), Some(0.0), "credits exhausted");
        // Now throttled to the 0.35 baseline (probe at the same instant
        // so no new credits accrue).
        let backlog = micro.backlog(t);
        let d = micro
            .charge(t, SimDuration::from_millis(35))
            .saturating_sub(backlog);
        assert_eq!(d, SimDuration::from_millis(100), "35ms work at 0.35 ECU");
    }

    #[test]
    fn large_has_two_cores() {
        let mut large = Flavor::Large.cpu_model();
        let work = SimDuration::from_millis(10);
        let a = large.charge(SimTime::ZERO, work);
        let b = large.charge(SimTime::ZERO, work);
        assert_eq!(a, b, "two jobs run in parallel on two cores");
    }

    #[test]
    fn paper_memory_figures() {
        assert_eq!(Flavor::Micro.memory_mb(), 613);
        assert_eq!(Flavor::Large.memory_mb(), 7_680);
    }
}
