//! Regenerates the paper's Figure 5 (computation time vs d, l = 4).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig5 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig5);
}
