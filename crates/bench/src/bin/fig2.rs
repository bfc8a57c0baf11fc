//! Regenerates the paper's Figure 2 (average stars vs l).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin fig2 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::fig2);
}
