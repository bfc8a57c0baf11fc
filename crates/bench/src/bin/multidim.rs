//! Regenerates the §6.2 multi-dimensional vs suppression comparison.
//!
//! Usage: `cargo run --release -p ldiv-bench --bin multidim -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(|cfg| vec![experiments::multidim_comparison(cfg)]);
}
