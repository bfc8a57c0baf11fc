//! Regenerates the §6.1 phase-three frequency measurement.
//!
//! Usage: `cargo run --release -p ldiv-bench --bin phase3 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(|cfg| vec![experiments::phase3_frequency(cfg)]);
}
