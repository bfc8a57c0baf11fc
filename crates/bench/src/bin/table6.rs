//! Regenerates the paper's Table 6 (attribute domain sizes).
//!
//! Usage: `cargo run --release -p ldiv-bench --bin table6 -- [options]`
//! (see `HarnessConfig::usage` for options; `--paper` = published scale).

use ldiv_bench::experiments;

fn main() {
    experiments::main(|cfg| vec![experiments::table6(cfg)]);
}
