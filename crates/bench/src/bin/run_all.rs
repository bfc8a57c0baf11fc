//! Regenerates every table and figure of the evaluation.
//!
//! Usage: `cargo run --release -p ldiv-bench --bin run_all -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(experiments::all);
}
