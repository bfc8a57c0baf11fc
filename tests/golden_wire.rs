//! Golden wire-format tests: committed per-mechanism JSON fixtures
//! diffed against `ldiv_server::wire` output.
//!
//! The wire bytes are load-bearing: the server's publication cache, the
//! CLI's `--format json`, and the parallel/shard differential suites all
//! compare them. Drift — a renamed field, a reordered key, a float
//! formatting change — silently invalidates every cached publication and
//! every downstream consumer, so it must fail *loudly* here instead.
//!
//! Fixtures live in `tests/golden/` and pin two inputs. The paper's
//! Table 1 (`samples::hospital`) at l = 2: every registered mechanism
//! unsharded, plus sharded (`shards = 2`) fixtures for one suppression
//! and one non-suppression mechanism so the stitch's wire face is pinned
//! too. And a 2 000-row SAL table (`sal2k_*`) at l = 4, every mechanism
//! unsharded, after a CSV round-trip with an inferred schema: large
//! enough that the CSV reader codes many distinct labels per column and
//! every KL payload indexes about two thousand support points and
//! hundreds of groups.
//! Params are fully explicit, `shards` included.
//!
//! Every `*.json` fixture also has a `*.bin` twin: the same value as
//! one LDVW binary block (`ldiv-wire`), cross-checked here so the two
//! faces can never drift apart.
//!
//! To regenerate after an *intentional* wire change:
//!
//! ```text
//! LDIV_UPDATE_GOLDEN=1 cargo test --test golden_wire
//! git diff tests/golden/   # review every byte you are about to bless
//! ```

use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::{read_csv, samples, write_table_csv, Table};
use ldiversity::server::wire;
use ldiversity::shard::run_sharded;
use ldiversity::{standard_registry, Params};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The 2 000-row SAL input, as a client would send it: written with
/// labelled cells and read back with an inferred schema.
fn sal2k() -> Table {
    let generated = sal(&AcsConfig {
        rows: 2_000,
        seed: 2_024,
    });
    let mut csv = Vec::new();
    write_table_csv(&mut csv, &generated).unwrap();
    read_csv(&csv[..], None).unwrap()
}

/// The canonical wire bytes of one run.
fn wire_bytes(table: &Table, mechanism: &str, params: &Params) -> String {
    let registry = standard_registry();
    let publication = run_sharded(&registry, mechanism, table, params)
        .unwrap_or_else(|e| panic!("{mechanism} {}: {e}", params.canonical()));
    let kl = kl_divergence_with(table, &publication, &params.executor());
    wire::publication_json(table, &publication, params, kl).render()
}

fn check_golden(fixture: &str, actual: &str) {
    let path = fixture_path(fixture);
    if std::env::var("LDIV_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, format!("{actual}\n")).unwrap();
        // Every JSON fixture carries a binary twin: the same value as
        // one LDVW block, kept in lockstep by the regeneration flow.
        let value = ldiversity::wire::Json::parse(actual).expect("fixture JSON parses");
        std::fs::write(path.with_extension("bin"), ldiversity::wire::encode(&value)).unwrap();
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
        "wire drift against {}: if intentional, regenerate with \
         LDIV_UPDATE_GOLDEN=1 and review the diff — stale server caches \
         and every JSON consumer are on the line",
        path.display()
    );
}

#[test]
fn unsharded_wire_bytes_match_the_committed_fixtures() {
    for name in standard_registry().names() {
        let fixture = format!("{}_l2.json", name.replace('+', "_plus"));
        let params = Params::new(2).with_shards(1);
        check_golden(&fixture, &wire_bytes(&samples::hospital(), name, &params));
    }
}

#[test]
fn sal2k_wire_bytes_match_the_committed_fixtures() {
    let table = sal2k();
    let params = Params::new(4).with_shards(1);
    for name in standard_registry().names() {
        let fixture = format!("sal2k_{}_l4.json", name.replace('+', "_plus"));
        check_golden(&fixture, &wire_bytes(&table, name, &params));
    }
}

#[test]
fn sharded_wire_bytes_match_the_committed_fixtures() {
    // One suppression payload (tp+) and one non-suppression payload
    // (anatomy) through the stitch: pins the sharded canonical params,
    // the stitch notes, and the rebuilt payload accounting.
    for name in ["tp+", "anatomy"] {
        let fixture = format!("{}_l2_shards2.json", name.replace('+', "_plus"));
        let params = Params::new(2).with_shards(2);
        check_golden(&fixture, &wire_bytes(&samples::hospital(), name, &params));
    }
}

/// Every committed `*.json` fixture — whichever suite owns it — has a
/// committed `*.bin` twin holding the same value as one LDVW block,
/// and the two faces decode to equal values that render identically.
/// Under `LDIV_UPDATE_GOLDEN=1` the twins are (re)written from the
/// JSON fixtures on disk, so regenerating any suite's fixtures and then
/// running this test refreshes the binary side too.
#[test]
fn every_golden_json_fixture_has_a_decoding_binary_twin() {
    let dir = fixture_path("");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    fixtures.sort();
    assert!(
        !fixtures.is_empty(),
        "no golden fixtures in {}",
        dir.display()
    );

    let update = std::env::var("LDIV_UPDATE_GOLDEN").is_ok();
    for json_path in fixtures {
        let text = std::fs::read_to_string(&json_path).unwrap();
        let value = ldiversity::wire::Json::parse(text.trim_end())
            .unwrap_or_else(|| panic!("{} does not parse", json_path.display()));
        let expected_block = ldiversity::wire::encode(&value);
        let bin_path = json_path.with_extension("bin");
        if update {
            std::fs::write(&bin_path, &expected_block).unwrap();
            continue;
        }
        let block = std::fs::read(&bin_path).unwrap_or_else(|e| {
            panic!(
                "missing binary twin {} ({e}); regenerate with LDIV_UPDATE_GOLDEN=1",
                bin_path.display()
            )
        });
        assert_eq!(
            block,
            expected_block,
            "{} drifted from its JSON twin; regenerate with LDIV_UPDATE_GOLDEN=1",
            bin_path.display()
        );
        let decoded = ldiversity::wire::decode(&block)
            .unwrap_or_else(|e| panic!("{}: {e}", bin_path.display()));
        assert_eq!(decoded, value, "{}", bin_path.display());
        assert_eq!(decoded.render(), text.trim_end(), "{}", bin_path.display());
    }
}

#[test]
fn fixtures_carry_the_fields_consumers_rely_on() {
    // Belt-and-braces: independent of fixture bytes, the shape contract
    // the cache and CLI parse against.
    let body = wire_bytes(&samples::hospital(), "tp", &Params::new(2).with_shards(1));
    for field in [
        "\"mechanism\":",
        "\"params\":",
        "\"canonical\":\"l=2;fanout=2;shards=1\"",
        "\"dataset_fingerprint\":",
        "\"rows\":10",
        "\"stars\":",
        "\"kl_divergence\":",
        "\"cached\":false",
    ] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
}
