//! Regenerates the paper's Figure 8 (KL-divergence vs d, l = 6).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig8 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig8);
}
