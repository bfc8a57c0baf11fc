//! Regenerates the paper's Figure 6 (computation time vs n, l = 6).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig6 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig6);
}
