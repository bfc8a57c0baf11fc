//! Per-mechanism scaling curves for partition-level sharding
//! (`ldiv-shard`): rows/s versus shard count, plus the KL-utility delta
//! each shard count costs relative to the unsharded run.
//!
//! Where `parallel_speedup` asserts that `--threads` changes *nothing*,
//! sharding changes the published table — so this bin reports two curves
//! per mechanism: throughput (anonymize + stitch + KL, wall-clock) and
//! the Eq. (2) KL ratio against shards = 1. The shards = 1 run itself is
//! asserted byte-identical to the unsharded mechanism (the same gate
//! `tests/shard_equivalence.rs` pins), so the baseline is honest.
//!
//! ```text
//! cargo run --release -p ldiv-bench --bin shard_scaling -- \
//!     --rows 100000 --shards 1,2,4,8 --l 4
//! ```
//!
//! Defaults keep a laptop run short: `--rows 50000`, `--shards 1,2,4`,
//! `--l 4`, every registered mechanism, `--threads 0` (auto),
//! `--repeat 1`. `--json` swaps the table for the machine-readable
//! report behind the committed `BENCH_shard.json` baseline; pair it with
//! `--repeat 5` or more so the p50/p99 latency columns mean something.

use ldiv_api::Params;
use ldiv_datagen::{sal, AcsConfig};
use ldiv_metrics::kl_divergence_with;
use ldiv_server::wire;
use ldiv_wire::Json;
use ldiversity::shard::run_sharded;
use ldiversity::standard_registry;
use std::time::Instant;

use ldiv_obs::hist::percentile;

fn parse_list<T: std::str::FromStr>(raw: &str, flag: &str) -> Vec<T> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad value '{s}' for {flag}"))
        })
        .collect()
}

/// One measured (mechanism, shard count) point.
struct Cell {
    shards: u32,
    /// None when the mechanism is infeasible at this l / shard count.
    measured: Option<Measured>,
}

struct Measured {
    rows_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// KL relative to the shards = 1 run; None for the baseline itself.
    kl_ratio: Option<f64>,
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rows_list: Vec<usize> = vec![50_000];
    let mut shards_list: Vec<u32> = vec![1, 2, 4];
    let mut l = 4u32;
    let mut threads = 0u32;
    let mut algos: Option<Vec<String>> = None;
    let mut seed = 77u64;
    let mut repeat = 1usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            json = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--rows" => rows_list = parse_list(value, "--rows"),
            "--shards" => shards_list = parse_list(value, "--shards"),
            "--l" => l = value.parse().expect("bad --l"),
            "--threads" => threads = value.parse().expect("bad --threads"),
            "--algos" => algos = Some(value.split(',').map(|s| s.trim().to_string()).collect()),
            "--seed" => seed = value.parse().expect("bad --seed"),
            "--repeat" => repeat = value.parse().expect("bad --repeat"),
            other => panic!(
                "unknown flag '{other}' (try --rows/--shards/--l/--threads/--algos/--seed/--repeat/--json)"
            ),
        }
    }
    repeat = repeat.max(1);
    if !shards_list.contains(&1) {
        shards_list.insert(0, 1); // the unsharded baseline anchors every delta
    }
    shards_list.sort_unstable();
    shards_list.dedup();

    let registry = standard_registry();
    let names: Vec<String> = match algos {
        Some(list) => {
            // Fail a typo'd --algos up front: a silent '-' column would
            // read as "infeasible at this l", not "no such mechanism".
            for name in &list {
                if registry.get(name).is_none() {
                    panic!("unknown mechanism '{name}' (known: {:?})", registry.names());
                }
            }
            list
        }
        None => registry.names().iter().map(|s| s.to_string()).collect(),
    };

    if !json {
        println!(
            "shard_scaling: l = {l}, threads = {threads} (0 = auto), cores available = {}",
            std::thread::available_parallelism().map_or(0, |p| p.get())
        );
    }
    let mut datasets_json = Vec::new();
    for &rows in &rows_list {
        let table = sal(&AcsConfig { rows, seed });
        if !json {
            println!("\ndataset sal rows={rows} (d={})", table.dimensionality());
            print!("{:>10}", "mechanism");
            for &k in &shards_list {
                print!("  {:>11}", format!("k={k} rows/s"));
                if k != 1 {
                    print!("  {:>7}", "KL x");
                }
            }
            println!();
        }
        let mut mechanisms_json = Vec::new();
        for name in &names {
            let mut baseline_kl: Option<f64> = None;
            let mut cells = Vec::new();
            for &k in &shards_list {
                let params = Params::new(l).with_threads(threads).with_shards(k);
                let mut latencies_ms = Vec::with_capacity(repeat);
                let mut outcome_kl: Option<f64> = None;
                let mut feasible = true;
                for rep in 0..repeat {
                    let start = Instant::now();
                    match run_sharded(&registry, name, &table, &params) {
                        Ok(publication) => {
                            let kl = kl_divergence_with(&table, &publication, &params.executor());
                            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                            outcome_kl = Some(kl);
                            if rep == 0 && baseline_kl.is_none() {
                                // Honest baseline: shards = 1 through the
                                // driver must be the mechanism's own bytes.
                                let direct = registry
                                    .get(name)
                                    .expect("registered")
                                    .anonymize(&table, &params)
                                    .expect("baseline run");
                                let direct_kl =
                                    kl_divergence_with(&table, &direct, &params.executor());
                                assert_eq!(
                                    wire::publication_json(&table, &direct, &params, direct_kl)
                                        .render(),
                                    wire::publication_json(&table, &publication, &params, kl)
                                        .render(),
                                    "{name}: shards=1 diverged from the unsharded mechanism"
                                );
                            }
                        }
                        Err(_) => {
                            feasible = false; // infeasible at this l: skip the cell
                            break;
                        }
                    }
                }
                let measured = if feasible {
                    let kl = outcome_kl.expect("feasible cell measured at least once");
                    let kl_ratio = match baseline_kl {
                        None => {
                            baseline_kl = Some(kl);
                            None
                        }
                        Some(base) => Some(kl / base.max(1e-12)),
                    };
                    let p50_ms = percentile(&latencies_ms, 0.50);
                    Some(Measured {
                        rows_per_sec: rows as f64 / (p50_ms / 1e3).max(f64::EPSILON),
                        p50_ms,
                        p99_ms: percentile(&latencies_ms, 0.99),
                        kl_ratio,
                    })
                } else {
                    None
                };
                cells.push(Cell {
                    shards: k,
                    measured,
                });
            }
            if json {
                let cell_objs: Vec<Json> = cells
                    .iter()
                    .map(|c| {
                        let mut obj = Json::obj().field("shards", c.shards);
                        match &c.measured {
                            Some(m) => {
                                obj = obj
                                    .field("feasible", true)
                                    .field("rows_per_sec", round3(m.rows_per_sec))
                                    .field("p50_ms", round3(m.p50_ms))
                                    .field("p99_ms", round3(m.p99_ms));
                                if let Some(ratio) = m.kl_ratio {
                                    obj = obj.field("kl_ratio", round3(ratio));
                                }
                            }
                            None => obj = obj.field("feasible", false),
                        }
                        obj
                    })
                    .collect();
                mechanisms_json.push(
                    Json::obj()
                        .field("mechanism", name.as_str())
                        .field("cells", Json::Arr(cell_objs)),
                );
            } else {
                print!("{name:>10}");
                for c in &cells {
                    match &c.measured {
                        Some(m) => {
                            print!("  {:>11.0}", m.rows_per_sec);
                            if let Some(ratio) = m.kl_ratio {
                                print!("  {:>7.3}", ratio);
                            }
                        }
                        None => {
                            print!("  {:>11}", "-");
                            if c.shards != 1 {
                                print!("  {:>7}", "-");
                            }
                        }
                    }
                }
                println!();
            }
        }
        if json {
            datasets_json.push(
                Json::obj()
                    .field("rows", rows)
                    .field("mechanisms", Json::Arr(mechanisms_json)),
            );
        }
    }
    if json {
        let report = Json::obj()
            .field("bench", "shard_scaling")
            .field("schema", 1i64)
            .field("l", l)
            .field("threads", threads)
            .field("seed", seed as i64)
            .field("repeat", repeat)
            .field("datasets", Json::Arr(datasets_json));
        println!("{}", report.render());
    } else {
        println!(
            "\nKL x = sharded KL / unsharded KL (1.000 = free). shards=1 wire \
             bytes asserted identical to the unsharded mechanism."
        );
    }
}
