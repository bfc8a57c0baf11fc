//! Regenerates the paper's Figure 4 (computation time vs l).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig4 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig4);
}
