//! Regenerates the paper's Figure 7 (KL-divergence vs l).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig7 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig7);
}
