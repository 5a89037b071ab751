//! # bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§V), plus ablations. Each experiment is a library
//! function here and a binary under `src/bin/` that prints the same
//! rows/series the paper reports. The experiments share one harness:
//! every run ends in a [`harness::Cell`] through [`harness::finish`],
//! the RUBiS ones are driven by [`harness::run_rubis`], and the EC2
//! pair of Figure 3 ([`fig3::build`]) is also the world of the bulk
//! tests. The binaries parse their flags with [`cli::args`], fan runs out
//! with [`sweep::par_sweep`] and write their CSV, manifests and traces
//! through [`report::Output`]. DESIGN.md carries the experiment index;
//! EXPERIMENTS.md records paper-vs-measured.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fig2;
pub mod fig3;
pub mod harness;
pub mod report;
pub mod resilience;
pub mod sweep;
pub mod tab_rt;
