//! A simple multi-core CPU service model.
//!
//! Each VM/host owns a [`CpuModel`]: a set of cores with busy-until
//! watermarks and a speed factor expressed in *compute units* (matching
//! EC2 flavors: a micro instance bursts "up to 2 EC2 compute units", a
//! large instance has 4 spread over 2 virtual cores). Work items are
//! charged to the earliest-available core; the returned delay is the
//! queueing + service time. This is what makes throughput saturate as
//! concurrency grows in the Figure 2 reproduction: crypto work occupies
//! cores, requests queue, and the knee appears.

use crate::time::{SimDuration, SimTime};

/// CPU burst-credit state (the t1.micro token bucket: short bursts at
/// full speed, sustained load throttled to a baseline — the mechanism
/// behind EC2's "up to 2 EC2 compute units").
#[derive(Clone, Copy, Debug)]
struct Burst {
    /// Baseline speed once credits are exhausted.
    sustained_speed: f64,
    /// Credits (core-seconds of burst-speed execution) currently banked.
    credits: f64,
    /// Credit cap.
    max_credits: f64,
    /// Credits earned per second of wall time.
    accrual_per_sec: f64,
    /// Last time the bucket was updated.
    updated: SimTime,
}

/// Per-host CPU state.
#[derive(Clone, Debug)]
pub struct CpuModel {
    cores: Vec<SimTime>,
    /// Speed multiplier: work completes in `work / speed` core-time.
    speed: f64,
    /// Total busy core-time accumulated (for utilization reporting).
    busy_accum: SimDuration,
    burst: Option<Burst>,
}

impl CpuModel {
    /// `cores` cores, each running at `speed` compute units.
    pub fn new(cores: usize, speed: f64) -> Self {
        assert!(cores > 0 && speed > 0.0);
        CpuModel {
            cores: vec![SimTime::ZERO; cores],
            speed,
            busy_accum: SimDuration::ZERO,
            burst: None,
        }
    }

    /// A burstable CPU: runs at `burst_speed` while credits last, then
    /// throttles to `sustained_speed`. Credits accrue at
    /// `accrual_per_sec` core-seconds per second up to `max_credits`.
    pub fn burstable(
        cores: usize,
        burst_speed: f64,
        sustained_speed: f64,
        accrual_per_sec: f64,
        initial_credits: f64,
    ) -> Self {
        assert!(sustained_speed > 0.0 && burst_speed >= sustained_speed);
        let mut cpu = CpuModel::new(cores, burst_speed);
        cpu.burst = Some(Burst {
            sustained_speed,
            credits: initial_credits,
            max_credits: initial_credits.max(1.0),
            accrual_per_sec,
            updated: SimTime::ZERO,
        });
        cpu
    }

    /// A generous default for infrastructure nodes whose CPU is not the
    /// experiment's subject (routers, load generators).
    pub fn infinite() -> Self {
        CpuModel::new(64, 1000.0)
    }

    /// Remaining burst credits (diagnostics; `None` for fixed-speed CPUs).
    pub fn credits(&self) -> Option<f64> {
        self.burst.as_ref().map(|b| b.credits)
    }

    /// Service time for `work`, spending burst credits. A job larger
    /// than the banked credits runs the remainder at the sustained
    /// baseline — so persistent overspending really does throttle, while
    /// idle periods rebuild the bucket.
    fn service_time(&mut self, now: SimTime, work: SimDuration) -> f64 {
        let burst_speed = self.speed;
        let Some(b) = &mut self.burst else {
            return work.as_secs_f64() / burst_speed;
        };
        // Accrue credits for wall time since the last update.
        let elapsed = now.since(b.updated).as_secs_f64();
        if elapsed > 0.0 {
            b.credits = (b.credits + elapsed * b.accrual_per_sec).min(b.max_credits);
            b.updated = now;
        }
        let w = work.as_secs_f64();
        let burst_service_needed = w / burst_speed;
        if b.credits >= burst_service_needed {
            b.credits -= burst_service_needed;
            burst_service_needed
        } else {
            // Burn what is banked at burst speed, the rest throttled.
            let burst_service = b.credits;
            let work_done_bursting = burst_service * burst_speed;
            b.credits = 0.0;
            burst_service + (w - work_done_bursting) / b.sustained_speed
        }
    }

    /// Charges `work` (expressed at speed 1.0) and returns the delay from
    /// `now` until the work completes on this CPU.
    pub fn charge(&mut self, now: SimTime, work: SimDuration) -> SimDuration {
        if work == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let secs = self.service_time(now, work);
        let service = SimDuration::from_nanos(((secs * 1e9).round() as u64).max(1));
        // Earliest-available core.
        let core = self
            .cores
            .iter_mut()
            .min_by_key(|t| t.as_nanos())
            .expect("at least one core");
        let start = (*core).max(now);
        *core = start + service;
        self.busy_accum += service;
        core.since(now)
    }

    /// Queueing delay a new unit of work would currently experience.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.cores
            .iter()
            .map(|c| c.since(now))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total busy core-time charged so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::new(1, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_serves_immediately() {
        let mut cpu = CpuModel::new(1, 1.0);
        let d = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(10));
    }

    #[test]
    fn busy_cpu_queues() {
        let mut cpu = CpuModel::new(1, 1.0);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        let d = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(
            d,
            SimDuration::from_millis(20),
            "second job waits for the first"
        );
        assert_eq!(cpu.backlog(SimTime::ZERO), SimDuration::from_millis(20));
    }

    #[test]
    fn two_cores_serve_in_parallel() {
        let mut cpu = CpuModel::new(2, 1.0);
        let d1 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        let d2 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d1, SimDuration::from_millis(10));
        assert_eq!(d2, SimDuration::from_millis(10));
        let d3 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d3, SimDuration::from_millis(20));
    }

    #[test]
    fn speed_scales_service_time() {
        let mut cpu = CpuModel::new(1, 2.0);
        let d = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(5));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut cpu = CpuModel::new(1, 1.0);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        // After the core went idle, a new job at t=1s starts fresh.
        let d = cpu.charge(SimTime(1_000_000_000), SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(10));
    }

    #[test]
    fn zero_work_is_free() {
        let mut cpu = CpuModel::new(1, 1.0);
        assert_eq!(
            cpu.charge(SimTime::ZERO, SimDuration::ZERO),
            SimDuration::ZERO
        );
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn burstable_throttles_when_credits_exhaust() {
        // 1 core, burst 2.0 / sustained 0.5, no accrual, 0.02 core-sec.
        let mut cpu = CpuModel::burstable(1, 2.0, 0.5, 0.0, 0.02);
        // First job runs at burst speed: 20ms work → 10ms service,
        // consuming 0.01 credits.
        let d1 = cpu.charge(SimTime::ZERO, SimDuration::from_millis(20));
        assert_eq!(d1, SimDuration::from_millis(10));
        // Second identical job drains the rest.
        let t1 = SimTime(1_000_000_000);
        let d2 = cpu.charge(t1, SimDuration::from_millis(20));
        assert_eq!(d2, SimDuration::from_millis(10));
        assert_eq!(cpu.credits(), Some(0.0));
        // Third job is throttled: 20ms work at 0.5 → 40ms.
        let t2 = SimTime(2_000_000_000);
        let d3 = cpu.charge(t2, SimDuration::from_millis(20));
        assert_eq!(d3, SimDuration::from_millis(40));
    }

    #[test]
    fn burstable_credits_accrue_over_idle_time() {
        let mut cpu = CpuModel::burstable(1, 2.0, 0.5, 0.1, 0.0);
        // No credits: throttled.
        let d = cpu.charge(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(20));
        // After 1 s idle, 0.1 credits banked: burst again.
        let later = SimTime(1_000_000_000 + 20_000_000);
        let d = cpu.charge(later, SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(5));
    }

    #[test]
    fn fixed_speed_cpu_has_no_credits() {
        let cpu = CpuModel::new(1, 1.0);
        assert_eq!(cpu.credits(), None);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut cpu = CpuModel::new(2, 1.0);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(3));
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(4));
        assert_eq!(cpu.busy_time(), SimDuration::from_millis(7));
    }
}
