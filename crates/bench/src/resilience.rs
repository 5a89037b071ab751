//! FIG-RESILIENCE: graceful degradation of Basic/HIP/SSL under faults.
//!
//! The paper's evaluation measures the three scenarios only in steady
//! state. This experiment subjects the same FIG2 RUBiS deployment
//! (jmeter → LB → 3 web VMs → DB) to a scripted fault storyline and
//! measures how each security stack degrades and recovers:
//!
//! 1. **Node crash** — one of the three web VMs crashes and restarts
//!    later. The proxy must eject it, retry stranded requests on the
//!    survivors, and probe it back into rotation; under HIP the proxy's
//!    ESP hits a stale SPI after the restart and must re-run the base
//!    exchange (triggered by the victim's NOTIFY).
//! 2. **Loss burst** — the DB access link drops packets for a few
//!    seconds; TCP retransmission should ride it out with a latency
//!    bump and no errors.
//! 3. **Partition + heal** — a web VM's access link is partitioned
//!    away, then heals; ejection and probing readmit it.
//!
//! Per scenario we report the per-second goodput/error timeline, the
//! post-fault error rate, p99 latency, and the **time-to-recover** for
//! each episode (first second where goodput is back at ≥ 80% of the
//! pre-fault baseline, sustained for two consecutive seconds).

use crate::harness::{run_rubis, Cell, SCENARIOS};
use cloudsim::CloudTopology;
use netsim::{FaultAction, SimDuration};
use websvc::deploy::RubisConfig;
use websvc::loadgen::{JmeterApp, Timeline};
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// Concurrent closed-loop clients driving the deployment.
pub const CLIENTS: usize = 10;

/// Goodput fraction of baseline that counts as "recovered".
pub const RECOVERY_FRACTION: f64 = 0.8;

/// The scripted fault storyline (all offsets from simulation start).
#[derive(Clone, Copy, Debug)]
pub struct Storyline {
    /// Steady-state window before the first fault; also the
    /// measurement start for latency stats.
    pub warmup: SimDuration,
    /// Web VM #0 crashes here ...
    pub crash_at: SimDuration,
    /// ... and restarts this much later.
    pub crash_outage: SimDuration,
    /// The DB access-link loss burst starts here ...
    pub burst_at: SimDuration,
    /// ... lasts this long ...
    pub burst_len: SimDuration,
    /// ... dropping packets with this probability.
    pub burst_loss: f64,
    /// Web VM #1 is partitioned away here ...
    pub partition_at: SimDuration,
    /// ... and healed this much later.
    pub partition_len: SimDuration,
    /// Total simulated time (leave tail room after the last heal).
    pub end: SimDuration,
}

impl Storyline {
    /// The standard storyline: 5 s steady state, an 8 s web-VM outage,
    /// a 5 s 30%-loss burst on the DB link, a 3 s partition, 35 s total.
    pub fn standard() -> Self {
        Storyline {
            warmup: SimDuration::from_secs(5),
            crash_at: SimDuration::from_secs(5),
            crash_outage: SimDuration::from_secs(8),
            burst_at: SimDuration::from_secs(16),
            burst_len: SimDuration::from_secs(5),
            burst_loss: 0.3,
            partition_at: SimDuration::from_secs(24),
            partition_len: SimDuration::from_secs(3),
            end: SimDuration::from_secs(35),
        }
    }

    /// A compressed storyline for CI (`--quick`): same episodes, ~half
    /// the wall-clock.
    pub fn quick() -> Self {
        Storyline {
            warmup: SimDuration::from_secs(3),
            crash_at: SimDuration::from_secs(3),
            crash_outage: SimDuration::from_secs(5),
            burst_at: SimDuration::from_secs(10),
            burst_len: SimDuration::from_secs(3),
            burst_loss: 0.3,
            partition_at: SimDuration::from_secs(15),
            partition_len: SimDuration::from_secs(2),
            end: SimDuration::from_secs(22),
        }
    }
}

/// One scenario's resilience measurements.
#[derive(Clone, Debug)]
pub struct ResiliencePoint {
    /// Which security scenario.
    pub scenario: Scenario,
    /// Pre-fault goodput (requests/second, mean over the warmup).
    pub baseline_goodput: f64,
    /// Successful (200) requests over the whole run.
    pub ok_total: u64,
    /// Errored requests over the whole run.
    pub err_total: u64,
    /// Errors / (ok + errors) from the first fault onward.
    pub post_fault_error_rate: f64,
    /// p99 response time (ms) over the measured window.
    pub p99_ms: f64,
    /// Seconds from the crash until goodput recovered (None = never).
    pub ttr_crash_s: Option<u64>,
    /// Seconds from burst onset until goodput recovered.
    pub ttr_burst_s: Option<u64>,
    /// Seconds from partition onset until goodput recovered.
    pub ttr_partition_s: Option<u64>,
    /// HIP base exchanges re-run after a stale-SPI NOTIFY (0 outside
    /// the HIP scenario).
    pub rebex: u64,
    /// Per-second goodput/error buckets.
    pub timeline: Timeline,
}

/// Mean goodput over the warm, pre-fault buckets (bucket 0 is skipped:
/// it includes connection setup and, under HIP, the base exchanges).
pub fn baseline_goodput(tl: &Timeline, warmup_s: usize) -> f64 {
    if warmup_s <= 1 {
        return tl.at(0).0 as f64;
    }
    let sum: u64 = (1..warmup_s).map(|b| tl.at(b).0).sum();
    sum as f64 / (warmup_s - 1) as f64
}

/// Time-to-recover: seconds from `onset_s` until goodput first reaches
/// `RECOVERY_FRACTION` of `baseline` sustained for two consecutive
/// buckets. `None` when the timeline never recovers.
pub fn time_to_recover(tl: &Timeline, baseline: f64, onset_s: usize) -> Option<u64> {
    let threshold = RECOVERY_FRACTION * baseline;
    let last = tl.len();
    (onset_s..last.saturating_sub(1))
        .find(|&b| tl.at(b).0 as f64 >= threshold && tl.at(b + 1).0 as f64 >= threshold)
        .map(|b| (b - onset_s) as u64)
}

/// Runs one scenario through the storyline.
pub fn run_cell(scenario: Scenario, seed: u64, story: Storyline) -> Cell<ResiliencePoint> {
    run_rubis(
        RubisConfig::fig2(scenario, seed),
        story.warmup,
        story.end,
        0,
        |frontend, users, items| {
            JmeterApp::new(frontend, CLIENTS, WorkloadMix::default(), users, items)
        },
        |dep| {
            assert!(dep.webs.len() >= 2, "storyline needs at least two web VMs");
            assert!(dep.lb.is_some(), "fig2 deployment has a load balancer");
            let (web0, web1, db) = (dep.webs[0], dep.webs[1], dep.db);
            dep.topo.crash_vm(web0, story.crash_at);
            dep.topo
                .restart_vm(web0, story.crash_at + story.crash_outage);
            dep.topo
                .loss_burst(db, story.burst_at, story.burst_loss, story.burst_len);
            let links = vec![web1.link];
            let partition = FaultAction::Partition {
                links: links.clone(),
            };
            dep.topo.sim.schedule_fault(story.partition_at, partition);
            let heal = FaultAction::Heal { links };
            let healed_at = story.partition_at + story.partition_len;
            dep.topo.sim.schedule_fault(healed_at, heal);
        },
        |gen, topo| point(scenario, story, gen, topo),
    )
}

/// Reads a storyline run's point off its generator and shims.
fn point(
    scenario: Scenario,
    story: Storyline,
    gen: &JmeterApp,
    topo: &CloudTopology,
) -> ResiliencePoint {
    let timeline = gen.timeline.clone();
    let sec = |d: SimDuration| (d.as_nanos() / 1_000_000_000) as usize;
    let baseline = baseline_goodput(&timeline, sec(story.warmup));
    let sum = |from: usize| {
        (from..timeline.len())
            .map(|b| timeline.at(b))
            .fold((0, 0), |(ok, err), (o, e)| (ok + o, err + e))
    };
    let (ok_total, err_total) = sum(0);
    let (ok_post, err_post) = sum(sec(story.crash_at));
    let post_total = ok_post + err_post;
    let post_fault_error_rate = if post_total > 0 {
        err_post as f64 / post_total as f64
    } else {
        0.0
    };
    let ttr = |onset: SimDuration| time_to_recover(&timeline, baseline, sec(onset));
    ResiliencePoint {
        scenario,
        baseline_goodput: baseline,
        ok_total,
        err_total,
        post_fault_error_rate,
        p99_ms: gen.latency.percentile(99.0),
        ttr_crash_s: ttr(story.crash_at),
        ttr_burst_s: ttr(story.burst_at),
        ttr_partition_s: ttr(story.partition_at),
        rebex: topo.hip_shims().map(|s| s.stats.stale_spi_rebex).sum(),
        timeline,
    }
}

/// Runs the three scenarios in parallel (each cell is an independent
/// deterministic simulation); output order is Basic, HIP, SSL.
pub fn run_sweep(seed: u64, story: Storyline) -> Vec<Cell<ResiliencePoint>> {
    crate::sweep::par_sweep(&SCENARIOS, |&s| run_cell(s, seed, story))
}

/// Serializes a timeline as a JSON array of `[ok, err]` pairs (index =
/// sim-second), for the run manifest.
pub fn timeline_json(tl: &Timeline) -> String {
    let pairs: Vec<String> = (0..tl.len())
        .map(|b| format!("[{},{}]", tl.at(b).0, tl.at(b).1))
        .collect();
    format!("[{}]", pairs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(ok: &[u64]) -> Timeline {
        Timeline {
            ok: ok.to_vec(),
            err: vec![],
        }
    }

    #[test]
    fn ttr_finds_first_sustained_recovery() {
        // baseline 10, threshold 8: dip at 3..6, recovery at 6 (6,7 ≥ 8).
        let t = tl(&[9, 10, 11, 2, 1, 9, 9, 10]);
        assert_eq!(time_to_recover(&t, 10.0, 3), Some(2));
        // A lone spike does not count as recovery.
        let t = tl(&[9, 10, 11, 2, 9, 1, 9, 9]);
        assert_eq!(time_to_recover(&t, 10.0, 3), Some(3));
        // Never recovering yields None.
        let t = tl(&[9, 10, 11, 2, 2, 2]);
        assert_eq!(time_to_recover(&t, 10.0, 3), None);
    }

    #[test]
    fn baseline_skips_bucket_zero() {
        let t = tl(&[1, 10, 12, 14]);
        assert!((baseline_goodput(&t, 3) - 11.0).abs() < 1e-9);
        assert!((baseline_goodput(&t, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_json_shape() {
        let mut t = tl(&[3, 4]);
        t.err = vec![0, 2];
        assert_eq!(timeline_json(&t), "[[3,0],[4,2]]");
    }
}
