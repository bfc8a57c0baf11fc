//! Differential guarantee suite for incremental re-publication
//! (`ldiv-store`) — the gate ISSUE 7 ships the dataset store behind.
//!
//! A stored dataset grows by append-only segments; `publish`
//! re-anonymizes only the SA-stratified shards whose rows changed and
//! stitches reloaded results for the rest. That reuse must be
//! invisible in the output:
//!
//! * **(a) exact row multiset** — the table a publish runs over is
//!   byte-for-byte the seed plus every appended batch, in order;
//! * **(b) l-eligibility after N appends** — every published group is
//!   l-eligible over the grown table (Definition 2), for every
//!   registered mechanism;
//! * **(c) shards = 1 is the one-shot path** — wire bytes identical to
//!   `mechanism.anonymize` on a cold parse of the concatenated CSV, so
//!   the store never changes what an unsharded caller sees;
//! * **(d) only dirty shards recompute** — a publish after a small
//!   append reuses every clean shard's persisted result (counter-
//!   verified), and a repeat publish recomputes nothing;
//! * **(e) warm equals cold** — the incremental publication is
//!   byte-identical to a cold store replaying the same history with no
//!   persisted results to lean on;
//! * **(f) restart survival** — reopening the store finds the same
//!   datasets and reuses the same persisted shard results.
//!
//! A golden fixture (`tests/golden/incremental_tp_plus_l2_shards2.json`)
//! pins the wire face of one incremental sharded run; regenerate with
//! `LDIV_UPDATE_GOLDEN=1 cargo test --test incremental_equivalence`.

mod common;

use common::{csv_of, TempRoot};
use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::{read_csv_with, samples, Table};
use ldiversity::server::wire;
use ldiversity::store::DatasetStore;
use ldiversity::{standard_registry, Executor, Params};
use std::io::BufReader;
use std::path::PathBuf;

fn parse_csv(csv: &[u8], exec: &Executor) -> Table {
    read_csv_with(BufReader::new(csv), None, exec).expect("parse CSV")
}

/// Splits a rendered CSV into (header, data lines).
fn split_csv(csv: &[u8]) -> (String, Vec<String>) {
    let text = String::from_utf8(csv.to_vec()).expect("CSV is UTF-8");
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().expect("CSV has a header");
    (header, lines.collect())
}

fn batch_csv(header: &str, rows: &[String]) -> Vec<u8> {
    format!("{header}\n{}\n", rows.join("\n")).into_bytes()
}

/// Seed CSV plus three append batches carved from one generated table.
/// Batches reuse the seed's own rows, so every batch label is trivially
/// inside the seed-inferred domain (appends reject unknown labels).
fn history(rows: usize, seed: u64, batch_rows: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let table = sal(&AcsConfig { rows, seed });
    let (header, data) = split_csv(&csv_of(&table));
    let batches = (0..3)
        .map(|i| {
            let start = (i * batch_rows) % data.len();
            let slice: Vec<String> = data
                .iter()
                .cycle()
                .skip(start)
                .take(batch_rows)
                .cloned()
                .collect();
            batch_csv(&header, &slice)
        })
        .collect();
    (csv_of(&table), batches)
}

/// Registers the seed and appends every batch; returns the fingerprint.
fn grow(store: &DatasetStore, seed: &[u8], batches: &[Vec<u8>], exec: &Executor) -> u64 {
    let reg = store.register(seed, exec).expect("register");
    assert!(reg.created, "fresh root, dataset must be new");
    for batch in batches {
        store.append(reg.fingerprint, batch, exec).expect("append");
    }
    reg.fingerprint
}

/// The concatenated one-shot CSV an incremental history is equivalent
/// to: the seed plus every batch's data lines, in append order.
fn concatenated(seed: &[u8], batches: &[Vec<u8>]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for batch in batches {
        let (_, data) = split_csv(batch);
        out.extend_from_slice(format!("{}\n", data.join("\n")).as_bytes());
    }
    out
}

#[test]
fn grown_dataset_is_the_exact_row_multiset_of_its_history() {
    let root = TempRoot::new("multiset");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();
    let (seed, batches) = history(600, 11, 40);
    let fp = grow(&store, &seed, &batches, &exec);

    let (stored, info) = store.load_table(fp, &exec).unwrap();
    assert_eq!(info.segments.len(), 4, "seed + 3 appends");
    assert_eq!(stored.len(), 600 + 3 * 40);

    // (a) The stored table is byte-for-byte the one-shot parse of the
    // concatenated history — same rows, same order, same schema.
    let oneshot = parse_csv(&concatenated(&seed, &batches), &exec);
    assert_eq!(stored.fingerprint(), oneshot.fingerprint());
    assert_eq!(csv_of(&stored), csv_of(&oneshot));
}

#[test]
fn publish_after_three_appends_is_l_eligible_for_every_mechanism() {
    let root = TempRoot::new("eligible");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();
    let (seed, batches) = history(600, 12, 40);
    let fp = grow(&store, &seed, &batches, &exec);

    let registry = standard_registry();
    let params = Params::new(3).with_shards(3);
    for name in registry.names() {
        let mechanism = registry.get(name).expect("registered");
        let out = store
            .publish(fp, mechanism, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // (b) Definition 2 over the *grown* table, through the repair
        // stitch — the same validation the one-shot path runs.
        out.publication
            .validate(&out.table, params.l)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.publication.covered_rows(), out.table.len(), "{name}");
        assert_eq!(out.stats.segments, 4, "{name}");
    }
}

#[test]
fn single_shard_publish_matches_the_cold_one_shot_bytes() {
    let root = TempRoot::new("oneshot");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();
    let (seed, batches) = history(400, 13, 30);
    let fp = grow(&store, &seed, &batches, &exec);

    let oneshot = parse_csv(&concatenated(&seed, &batches), &exec);
    let registry = standard_registry();
    let params = Params::new(3).with_shards(1);
    for name in registry.names() {
        let mechanism = registry.get(name).expect("registered");
        let out = store
            .publish(fp, mechanism, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let direct = mechanism
            .anonymize(&oneshot, &params)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // (c) The exact bytes `POST /anonymize` would return — the
        // store is invisible at shards = 1.
        let store_kl = kl_divergence_with(&out.table, &out.publication, &exec);
        let direct_kl = kl_divergence_with(&oneshot, &direct, &exec);
        assert_eq!(
            wire::publication_json(&out.table, &out.publication, &params, store_kl).render(),
            wire::publication_json(&oneshot, &direct, &params, direct_kl).render(),
            "{name}: incremental shards=1 diverged from the one-shot mechanism"
        );
    }
}

#[test]
fn small_appends_dirty_few_shards_and_repeat_publishes_none() {
    let root = TempRoot::new("dirty");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();
    let (header, data) = split_csv(&csv_of(&sal(&AcsConfig {
        rows: 2_000,
        seed: 14,
    })));
    let seed = batch_csv(&header, &data);
    let reg = store.register(&seed, &exec).unwrap();

    let registry = standard_registry();
    let mechanism = registry.get("tp").expect("registered");
    let params = Params::new(3).with_shards(4);

    // Cold publish: every shard computes.
    let cold = store.publish(reg.fingerprint, mechanism, &params).unwrap();
    assert_eq!(cold.stats.shards, 4);
    assert_eq!(cold.stats.computed, 4);
    assert_eq!(cold.stats.reused, 0);

    // Three small appends, publishing after each. Two rows land in at
    // most two SA-stratified shards, so at least half the plan reuses
    // its persisted result every time.
    for round in 0..3 {
        let batch = batch_csv(&header, &data[round * 2..round * 2 + 2]);
        store.append(reg.fingerprint, &batch, &exec).unwrap();
        let warm = store.publish(reg.fingerprint, mechanism, &params).unwrap();
        assert_eq!(warm.stats.shards, 4, "round {round}");
        assert!(
            warm.stats.computed <= 2,
            "round {round}: a 2-row append dirtied {} of 4 shards",
            warm.stats.computed
        );
        assert_eq!(warm.stats.reused, 4 - warm.stats.computed, "round {round}");
        warm.publication.validate(&warm.table, params.l).unwrap();
    }

    // (d) Nothing changed since the last publish: full reuse.
    let repeat = store.publish(reg.fingerprint, mechanism, &params).unwrap();
    assert_eq!(repeat.stats.computed, 0);
    assert_eq!(repeat.stats.reused, 4);

    // The process-level counters the server's /stats and /metrics
    // surface tell the same story.
    let stats = store.stats();
    assert_eq!(stats.publishes, 5);
    assert!(
        stats.shards_reused > stats.shards_computed,
        "reuse should dominate: computed={} reused={}",
        stats.shards_computed,
        stats.shards_reused
    );
}

#[test]
fn incremental_publication_matches_a_cold_store_replay() {
    let exec = Executor::default();
    let (seed, batches) = history(600, 15, 40);
    let registry = standard_registry();
    let params = Params::new(3).with_shards(3);
    let mechanism = registry.get("tp+").expect("registered");

    // Warm: publish after every append, accumulating persisted results.
    let warm_root = TempRoot::new("warm");
    let warm_store = DatasetStore::open(&warm_root.0).unwrap();
    let reg = warm_store.register(&seed, &exec).unwrap();
    for batch in &batches {
        warm_store.append(reg.fingerprint, batch, &exec).unwrap();
        warm_store
            .publish(reg.fingerprint, mechanism, &params)
            .unwrap();
    }
    let warm = warm_store
        .publish(reg.fingerprint, mechanism, &params)
        .unwrap();
    assert_eq!(warm.stats.computed, 0, "steady state reuses every shard");

    // Cold: the same history replayed into a fresh root, published once
    // with nothing persisted to reuse.
    let cold_root = TempRoot::new("cold");
    let cold_store = DatasetStore::open(&cold_root.0).unwrap();
    let fp = grow(&cold_store, &seed, &batches, &exec);
    let cold = cold_store.publish(fp, mechanism, &params).unwrap();
    assert_eq!(cold.stats.reused, 0);
    assert_eq!(cold.stats.lineage, warm.stats.lineage);

    // (e) Reuse is invisible on the wire.
    let warm_kl = kl_divergence_with(&warm.table, &warm.publication, &exec);
    let cold_kl = kl_divergence_with(&cold.table, &cold.publication, &exec);
    assert_eq!(
        wire::publication_json(&warm.table, &warm.publication, &params, warm_kl).render(),
        wire::publication_json(&cold.table, &cold.publication, &params, cold_kl).render(),
        "warm incremental publish diverged from the cold replay"
    );
}

#[test]
fn reopened_store_reuses_persisted_results_and_keeps_datasets() {
    let root = TempRoot::new("reopen");
    let exec = Executor::default();
    let (seed, batches) = history(400, 16, 30);
    let registry = standard_registry();
    let params = Params::new(3).with_shards(3);
    let mechanism = registry.get("anatomy").expect("registered");

    let fp;
    let first_bytes;
    {
        let store = DatasetStore::open(&root.0).unwrap();
        fp = grow(&store, &seed, &batches, &exec);
        let out = store.publish(fp, mechanism, &params).unwrap();
        let kl = kl_divergence_with(&out.table, &out.publication, &exec);
        first_bytes = wire::publication_json(&out.table, &out.publication, &params, kl).render();
    }

    // (f) A fresh handle over the same root: same datasets, and the
    // publish is pure reuse — no mechanism runs at all.
    let reopened = DatasetStore::open(&root.0).unwrap();
    let listed = reopened.datasets().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].fingerprint, fp);
    assert_eq!(listed[0].segments.len(), 4);

    let out = reopened.publish(fp, mechanism, &params).unwrap();
    assert_eq!(out.stats.computed, 0, "restart must not drop shard records");
    assert_eq!(out.stats.reused, out.stats.shards);
    let kl = kl_divergence_with(&out.table, &out.publication, &exec);
    assert_eq!(
        wire::publication_json(&out.table, &out.publication, &params, kl).render(),
        first_bytes,
        "publication changed across a store restart"
    );
}

// ---------------------------------------------------------------------
// Golden fixture: the committed wire face of one incremental sharded
// run, same mechanics as tests/golden_wire.rs.

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn incremental_sharded_wire_bytes_match_the_committed_fixture() {
    let root = TempRoot::new("golden");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();

    // The paper's Table 1 grown by two batches of its own rows: tiny,
    // fully deterministic, and feasible at l = 2 across 2 shards.
    let hospital = csv_of(&samples::hospital());
    let (header, data) = split_csv(&hospital);
    let reg = store.register(&hospital, &exec).unwrap();
    store
        .append(reg.fingerprint, &batch_csv(&header, &data[0..3]), &exec)
        .unwrap();
    store
        .append(reg.fingerprint, &batch_csv(&header, &data[3..6]), &exec)
        .unwrap();

    let registry = standard_registry();
    let mechanism = registry.get("tp+").expect("registered");
    let params = Params::new(2).with_shards(2);
    let out = store.publish(reg.fingerprint, mechanism, &params).unwrap();
    let kl = kl_divergence_with(&out.table, &out.publication, &exec);
    let actual = wire::publication_json(&out.table, &out.publication, &params, kl).render();

    let path = fixture_path("incremental_tp_plus_l2_shards2.json");
    if std::env::var("LDIV_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, format!("{actual}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with LDIV_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        actual,
        "incremental wire drift against {}: if intentional, regenerate \
         with LDIV_UPDATE_GOLDEN=1 and review the diff — persisted shard \
         records and the server's publish cache are on the line",
        path.display()
    );
}
