//! Offline stand-in for the `criterion` crate.
//!
//! Provides the subset of the criterion 0.8 API the workspace's bench
//! targets use: [`criterion_group!`] / [`criterion_main!`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`Bencher::iter`] and [`BenchmarkId::from_parameter`].
//!
//! Measurement is deliberately simple: each benchmark is auto-calibrated
//! to roughly `measurement_ms` of wall-clock work, timed over a fixed
//! number of samples, and the median per-iteration time is printed. No
//! statistics beyond min/median/max, no plots, no saved baselines — the
//! goal is a runnable `cargo bench` in a network-less container, not
//! publication-grade numbers (the paper figures come from the dedicated
//! `bench` binaries, which do their own measurement).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export so `criterion::black_box` keeps working.
pub use std::hint::black_box;

/// A benchmark identifier combining a function name and a parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Just the parameter, for use inside a named group.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    iters_per_sample: u64,
    sample_count: usize,
}

impl Bencher<'_> {
    /// Times `routine`, running it enough times for a stable median.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            let dt = start.elapsed();
            self.samples.push(dt / self.iters_per_sample.max(1) as u32);
        }
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    sample_count: usize,
    measurement: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honour `cargo bench -- <filter>` like the real crate does.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "bench");
        Criterion {
            sample_count: 20,
            measurement: Duration::from_millis(300),
            filter,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            sample_count: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_count: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timing samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = Some(n.max(2));
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl fmt::Display,
        f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        run_one(
            &name,
            self.sample_count.unwrap_or(self.parent.sample_count),
            self.parent.measurement,
            self.parent.filter.as_deref(),
            f,
        );
        self
    }

    /// Runs one parameterised benchmark in this group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(&mut self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_count: usize,
    measurement: Duration,
    filter: Option<&str>,
    mut f: F,
) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }

    // Calibration pass: find how many iterations fit one sample budget.
    let mut samples = Vec::new();
    let mut cal = Bencher {
        samples: &mut samples,
        iters_per_sample: 1,
        sample_count: 1,
    };
    f(&mut cal);
    let per_iter = samples.pop().unwrap_or(Duration::from_micros(1));
    let budget = measurement / sample_count.max(1) as u32;
    let iters = (budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    samples.clear();
    let mut b = Bencher {
        samples: &mut samples,
        iters_per_sample: iters,
        sample_count,
    };
    f(&mut b);
    samples.sort();

    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];
    println!("{name:<48} time: [{lo:>10.3?} {median:>10.3?} {hi:>10.3?}]");
}

/// Declares a benchmark group: `criterion_group!(benches, fn_a, fn_b);`
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench entry point: `criterion_main!(benches);`
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
