//! The response-time experiment (§V-B):
//!
//! "The experiments involved testing the performance of a single web
//! server connected to a database server, where we used the httperf
//! client to generate requests at a high rate (120 request/sec)...
//! MySQL query caching was enabled... The mean response times for
//! Basic, HIP and SSL cases were 116.4 ms, 132.2 ms and 128.3 ms
//! respectively."

use crate::harness::{run_rubis, Cell, SCENARIOS};
use netsim::SimDuration;
use websvc::deploy::RubisConfig;
use websvc::loadgen::HttperfApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// The paper's request rate.
pub const PAPER_RATE: f64 = 120.0;

/// One scenario's measured response-time distribution.
#[derive(Clone, Copy, Debug)]
pub struct TabRtRow {
    /// Which security scenario.
    pub scenario: Scenario,
    /// Responses completed in the measurement window.
    pub completed: u64,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub stddev_ms: f64,
    /// 99th-percentile response time (ms).
    pub p99_ms: f64,
}

/// Runs the open-loop response-time measurement for one scenario,
/// keeping the metrics registry and (when `trace_cap > 0`) the trace.
pub fn run_cell(
    scenario: Scenario,
    rate: f64,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    trace_cap: usize,
) -> Cell<TabRtRow> {
    run_rubis(
        RubisConfig::tab_rt(scenario, seed),
        warmup,
        warmup + measure,
        trace_cap,
        |frontend, users, items| {
            HttperfApp::new(frontend, rate, WorkloadMix::read_only(), users, items)
        },
        |_| {},
        |gen, _| TabRtRow {
            scenario,
            completed: gen.completed,
            mean_ms: gen.latency.mean(),
            stddev_ms: gen.latency.stddev(),
            p99_ms: gen.latency.percentile(99.0),
        },
    )
}

/// Runs all three scenarios (in parallel; independent simulations),
/// keeping each one's metrics and event count. Output is in scenario
/// order: Basic, HipLsi, Ssl.
pub fn run_all_cells(
    rate: f64,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<Cell<TabRtRow>> {
    crate::sweep::par_sweep(&SCENARIOS, |&s| run_cell(s, rate, seed, warmup, measure, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        // Short windows for test speed; the bin uses longer ones.
        let cells = run_all_cells(
            PAPER_RATE,
            5,
            SimDuration::from_secs(5),
            SimDuration::from_secs(15),
        );
        let mean = |s: Scenario| {
            cells
                .iter()
                .map(|c| c.point)
                .find(|r| r.scenario == s)
                .expect("present")
                .mean_ms
        };
        let basic = mean(Scenario::Basic);
        let hip = mean(Scenario::HipLsi);
        let ssl = mean(Scenario::Ssl);
        assert!(basic < ssl, "basic {basic:.1} < ssl {ssl:.1}");
        assert!(
            ssl < hip,
            "ssl {ssl:.1} < hip {hip:.1} (LSI translation penalty)"
        );
        // All stable (no overload): comparable magnitudes.
        assert!(
            hip < basic * 3.0,
            "hip {hip:.1} not exploded vs basic {basic:.1}"
        );
    }
}
