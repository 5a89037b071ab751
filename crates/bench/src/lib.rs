//! # bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§V), plus ablations. Each experiment is a library
//! function here and a binary under `src/bin/` that prints the same
//! rows/series the paper reports. DESIGN.md carries the experiment
//! index; EXPERIMENTS.md records paper-vs-measured.

#![warn(missing_docs)]

pub mod fig2;
pub mod fig3;
pub mod report;
pub mod resilience;
pub mod sweep;
pub mod tab_rt;
