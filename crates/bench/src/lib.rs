//! Experiment harness for the paper's evaluation (Section 6).
//!
//! Every table and figure of the paper maps to one function in
//! [`experiments`] and one thin binary in `src/bin/`. Each experiment
//! prints an aligned text table mirroring the paper's plot series and
//! writes a CSV to the configured output directory. The numbers every
//! non-timing table prints under `--quick` are pinned by
//! `tests/paper_oracle.rs`.
//!
//! The default scale (60k rows, ≤ 4 projections per `d`) keeps the full
//! suite within minutes; `--paper` switches to the published parameters
//! (600k rows, all `C(7, d)` projections). Shapes — who wins, by what
//! factor, where the crossovers sit — are scale-stable; absolute star
//! counts of course grow with `n`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod service;

pub use config::HarnessConfig;
pub use report::Report;
pub use runner::{run_algo, Algo, RunMeasurement};
