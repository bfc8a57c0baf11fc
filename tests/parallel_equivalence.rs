//! Differential suite for the intra-run parallel execution engine.
//!
//! The determinism contract: every registered mechanism publishes
//! **byte-identical** output under any thread budget — same partition,
//! same payload, same KL float down to the last ulp, same wire bytes.
//! This is what lets the server cache key ignore `threads`, lets `/sweep`
//! mix cached and fresh entries, and lets operators turn `--threads` up
//! without re-validating anything.
//!
//! The suite compares the full wire-serialized publication
//! (`ldiv_server::wire::publication_json`, the exact bytes `POST
//! /anonymize` returns) of every mechanism at `threads ∈ {2, 8}` against
//! the sequential (`threads = 1`) run, unsharded and through a 2-way
//! sharded stitch. The table is big enough that the parallel paths
//! actually engage: Mondrian's fork threshold (4 096 rows per subtree),
//! the 4 096-point KL chunking and the 8 192-row Hilbert index chunks
//! are all crossed.

use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::read_csv_with;
use ldiversity::server::wire;
use ldiversity::{standard_registry, Executor, Params};

/// The canonical wire bytes of one run — mechanism output plus the KL
/// measured under the same budget. Dispatched through the sharding
/// driver (the path the facade, CLI and server all take): at one shard
/// this is the mechanism itself, at more it is the sharded stitch.
fn wire_bytes(
    table: &ldiversity::microdata::Table,
    registry: &ldiversity::MechanismRegistry,
    name: &str,
    params: &Params,
) -> String {
    let publication = ldiversity::shard::run_sharded(registry, name, table, params)
        .unwrap_or_else(|e| panic!("{name} at threads={}: {e}", params.threads));
    let kl = kl_divergence_with(table, &publication, &params.executor());
    wire::publication_json(table, &publication, params, kl).render()
}

#[test]
fn every_mechanism_is_byte_identical_across_thread_budgets() {
    // 20k rows: large enough to cross every parallel threshold, small
    // enough to run 6 mechanisms × 3 budgets × 2 shard counts in tier-1.
    let table = sal(&AcsConfig {
        rows: 20_000,
        seed: 1234,
    });
    let registry = standard_registry();
    for shards in [1u32, 2] {
        for name in registry.names() {
            let params = Params::new(4).with_shards(shards);
            let sequential = wire_bytes(&table, &registry, name, &params.with_threads(1));
            assert!(
                sequential.contains(&format!("\"mechanism\":\"{name}\"")),
                "{name}: {sequential}"
            );
            assert!(
                sequential.contains(&format!("shards={shards}")),
                "{name}: {sequential}"
            );
            for threads in [2u32, 8] {
                let parallel = wire_bytes(&table, &registry, name, &params.with_threads(threads));
                assert_eq!(
                    sequential, parallel,
                    "{name}: threads={threads} shards={shards} diverged from the sequential \
                     publication"
                );
            }
        }
    }
}

#[test]
fn parallel_csv_parse_reconstructs_the_same_table() {
    // The chunked CSV reader must produce an identical Table (schema
    // inference included) for every budget — fingerprint equality is the
    // workspace's canonical "same table" check.
    let table = sal(&AcsConfig {
        rows: 12_000,
        seed: 9,
    });
    let mut csv = Vec::new();
    ldiversity::microdata::write_table_csv(&mut csv, &table).unwrap();

    let sequential = read_csv_with(&csv[..], None, &Executor::sequential()).unwrap();
    for threads in [2u32, 8] {
        let parallel = read_csv_with(&csv[..], None, &Executor::new(threads)).unwrap();
        assert_eq!(parallel, sequential, "threads={threads}");
        assert_eq!(parallel.fingerprint(), sequential.fingerprint());
    }
}

#[test]
fn parallel_csv_parse_reports_the_same_first_error() {
    // Error reporting is part of the contract: the first bad line in
    // file order wins for every budget.
    let mut csv = String::from("a,b,sa\n");
    for i in 0..9_000 {
        csv.push_str(&format!("{},{},{}\n", i % 5, i % 3, i % 4));
    }
    csv.push_str("ragged-line\n"); // line 9002
    for i in 0..2_000 {
        csv.push_str(&format!("{},{},{}\n", i % 5, i % 3, i % 4));
    }
    csv.push_str("also,ragged\n");

    let err_at = |threads: u32| {
        read_csv_with(csv.as_bytes(), None, &Executor::new(threads))
            .unwrap_err()
            .to_string()
    };
    let sequential = err_at(1);
    assert!(sequential.contains("line 9002"), "{sequential}");
    for threads in [2u32, 8] {
        assert_eq!(err_at(threads), sequential, "threads={threads}");
    }
}

#[test]
fn anonymizer_builder_is_budget_invariant_end_to_end() {
    // The facade path (validation + KL against the original table)
    // through the builder's `.threads(..)` knob.
    let table = sal(&AcsConfig {
        rows: 6_000,
        seed: 55,
    });
    for name in ["tp+", "mondrian", "anatomy"] {
        let runs: Vec<_> = [1u32, 2, 8]
            .iter()
            .map(|&t| {
                ldiversity::Anonymizer::new()
                    .l(3)
                    .mechanism(name)
                    .threads(t)
                    .run(&table)
                    .unwrap_or_else(|e| panic!("{name} t={t}: {e}"))
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(
                run.publication.partition().groups(),
                runs[0].publication.partition().groups(),
                "{name}: partitions diverged"
            );
            assert_eq!(
                run.kl.to_bits(),
                runs[0].kl.to_bits(),
                "{name}: KL diverged beyond bit-identity"
            );
        }
    }
}
