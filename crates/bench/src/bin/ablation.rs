//! Regenerates the residue-refinement ablation (A3/A4).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin ablation -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(|cfg| vec![experiments::ablation_residue(cfg)]);
}
