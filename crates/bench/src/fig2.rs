//! Figure 2: RUBiS throughput vs concurrent clients for Basic/HIP/SSL.
//!
//! "We generated requests with several concurrent clients continuously
//! generating random HTTP GET requests that resulted in queries to the
//! database server. Then we calculated the average throughput (the
//! number of successful requests served per second) for the three
//! scenarios. Database caching was not employed."

use crate::harness::{run_rubis, Cell, SCENARIOS};
use netsim::SimDuration;
use websvc::deploy::RubisConfig;
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// The client counts on the paper's x-axis.
pub const CLIENT_COUNTS: [usize; 8] = [2, 3, 4, 6, 10, 20, 30, 50];

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Point {
    /// Which security scenario.
    pub scenario: Scenario,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Successful requests per second in the measurement window.
    pub throughput: f64,
}

/// Runs one (scenario, clients) cell, returning metrics and (when
/// `trace_cap > 0`) the typed trace alongside the measured point.
pub fn run_cell(
    scenario: Scenario,
    clients: usize,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    trace_cap: usize,
) -> Cell<Fig2Point> {
    run_rubis(
        RubisConfig::fig2(scenario, seed),
        warmup,
        warmup + measure,
        trace_cap,
        |frontend, users, items| {
            JmeterApp::new(frontend, clients, WorkloadMix::default(), users, items)
        },
        |_| {},
        |gen, _| Fig2Point {
            scenario,
            clients,
            throughput: gen.completed as f64 / measure.as_secs_f64(),
        },
    )
}

/// Runs the full sweep, parallelized across cells (each cell is an
/// independent deterministic simulation — this is where the workspace
/// uses threads, never inside a run). Output is ordered by
/// (scenario, clients), matching the cell grid; each cell keeps its
/// metrics registry and event count, so the driver can merge
/// per-scenario stage histograms.
pub fn run_sweep_cells(
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<Cell<Fig2Point>> {
    let cells: Vec<(Scenario, usize)> = SCENARIOS
        .iter()
        .flat_map(|&s| CLIENT_COUNTS.iter().map(move |&c| (s, c)))
        .collect();
    crate::sweep::par_sweep(&cells, |&(s, c)| run_cell(s, c, seed, warmup, measure, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_has_sane_output() {
        let cell = run_cell(
            Scenario::Basic,
            4,
            1,
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            0,
        );
        let p = cell.point;
        assert!(p.throughput > 10.0, "throughput {}", p.throughput);
        let latency = cell.metrics.hist_get("client.latency").expect("latency");
        assert!(latency.mean() > 1e6, "mean latency {} ns", latency.mean());
    }

    #[test]
    fn sweep_is_deterministic_across_parallel_runs() {
        // The same seed must give identical results regardless of thread
        // scheduling (each cell is an isolated simulation).
        let short = SimDuration::from_millis(1500);
        let a = run_sweep_subset(9, short);
        let b = run_sweep_subset(9, short);
        assert_eq!(a, b);
    }

    fn run_sweep_subset(seed: u64, measure: SimDuration) -> Vec<(usize, u64)> {
        [2usize, 6]
            .iter()
            .map(|&c| {
                let p = run_cell(
                    Scenario::Basic,
                    c,
                    seed,
                    SimDuration::from_millis(500),
                    measure,
                    0,
                )
                .point;
                (c, (p.throughput * 1000.0) as u64)
            })
            .collect()
    }
}
