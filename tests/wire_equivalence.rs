//! Differential gate for the LDVW binary wire format (`ldiv-wire`) —
//! the suite ISSUE 9 ships the codec behind.
//!
//! The binary face is only allowed to exist because it is *provably*
//! equivalent to the canonical JSON face. For every response shape the
//! workspace can emit — publication summaries for every mechanism ×
//! shard count, incremental store publications, sweep bodies, dataset
//! statistics, mechanism listings, every error kind, and the live
//! response of every JSON route — this suite asserts the full
//! differential square:
//!
//! ```text
//! value ──render──▶ JSON text ──parse──▶ value   (parse ∘ render = id)
//!   │                                      ▲
//! encode                                   │
//!   ▼                                      │
//! LDVW block ───────decode─────────────────┘     (decode ∘ encode = id)
//! ```
//!
//! and that the decoded value re-renders to byte-identical JSON, so a
//! client negotiating `application/x-ldiv-bin` loses nothing against a
//! client reading the default JSON.

mod common;

use common::{csv_of, request, TempRoot};
use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::{read_csv, samples, Table};
use ldiversity::server::{handle_request, wire, AppState, ServerConfig};
use ldiversity::shard::run_sharded;
use ldiversity::store::DatasetStore;
use ldiversity::wire::{decode, encode, stats, validate, Json, HEADER_LEN};
use ldiversity::{standard_registry, Executor, LdivError, Params};

/// The full differential square for one value: binary round-trip,
/// JSON round-trip, and cross-face render equality.
fn assert_round_trip(value: &Json, context: &str) {
    let block = encode(value);
    assert!(
        block.len() > HEADER_LEN,
        "{context}: block carries no payload"
    );
    validate(&block).unwrap_or_else(|e| panic!("{context}: {e}"));
    let decoded = decode(&block).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(&decoded, value, "{context}: decode(encode(x)) != x");

    let text = value.render();
    let reparsed = Json::parse(&text).unwrap_or_else(|| panic!("{context}: render did not parse"));
    assert_eq!(&reparsed, value, "{context}: parse(render(x)) != x");
    assert_eq!(
        decoded.render(),
        text,
        "{context}: binary and JSON faces render differently"
    );

    // The block summarizer walks the same bytes the decoder does.
    let s = stats(&block).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(s.total_len, block.len(), "{context}");
    assert!(s.values > 0, "{context}: stats counted no values");
}

fn dataset(rows: usize, seed: u64) -> Table {
    sal(&AcsConfig { rows, seed })
}

/// Every registered mechanism, unsharded and through the stitch at
/// shards ∈ {2, 4}: the exact publication bodies `POST /anonymize`
/// serves, pushed around the differential square.
#[test]
fn publication_bodies_round_trip_for_every_mechanism_and_shard_count() {
    let table = dataset(600, 17);
    let registry = standard_registry();
    for shards in [1u32, 2, 4] {
        let params = Params::new(3).with_shards(shards);
        for name in registry.names() {
            let publication = run_sharded(&registry, name, &table, &params)
                .unwrap_or_else(|e| panic!("{name} shards={shards}: {e}"));
            let kl = kl_divergence_with(&table, &publication, &params.executor());
            let body = wire::publication_json(&table, &publication, &params, kl);
            assert_round_trip(&body, &format!("{name} shards={shards}"));
        }
    }
}

/// The incremental store's publish paths: a fresh register → publish
/// and a grown (append → publish) history both produce bodies that
/// survive the binary round trip — including the stitch notes and the
/// segment-accumulated fingerprints only the store path produces.
#[test]
fn store_publish_bodies_round_trip_across_register_and_append() {
    let root = TempRoot::new("publish");
    let exec = Executor::default();
    let store = DatasetStore::open(&root.0).unwrap();
    let registry = standard_registry();
    let params = Params::new(2).with_shards(2);

    let hospital = csv_of(&samples::hospital());
    let reg = store.register(&hospital, &exec).unwrap();

    let mechanism = registry.get("tp+").expect("registered");
    let fresh = store.publish(reg.fingerprint, mechanism, &params).unwrap();
    let kl = kl_divergence_with(&fresh.table, &fresh.publication, &exec);
    assert_round_trip(
        &wire::publication_json(&fresh.table, &fresh.publication, &params, kl),
        "store register→publish",
    );

    // Grow by one batch of the table's own rows and publish again: the
    // partially-reused, stitched publication must round-trip too.
    let text = String::from_utf8(hospital.clone()).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let data: Vec<&str> = lines.collect();
    let batch = format!("{header}\n{}\n", data[..4].join("\n"));
    store
        .append(reg.fingerprint, batch.as_bytes(), &exec)
        .unwrap();
    let grown = store.publish(reg.fingerprint, mechanism, &params).unwrap();
    assert!(grown.stats.segments >= 2, "append must add a segment");
    let kl = kl_divergence_with(&grown.table, &grown.publication, &exec);
    assert_round_trip(
        &wire::publication_json(&grown.table, &grown.publication, &params, kl),
        "store append→publish",
    );
}

/// Every error kind the server can put on the wire — including a *real*
/// infeasibility from a mechanism run — survives the round trip with
/// its `error`/`kind` fields intact.
#[test]
fn error_bodies_round_trip_for_every_kind() {
    // A genuine Infeasible from the algorithm stack: l exceeding the
    // eligibility bound of the paper's Table 1.
    let table = samples::hospital();
    let registry = standard_registry();
    let infeasible = registry
        .run("tp", &table, &Params::new(100))
        .expect_err("l=100 on a 10-row table must be infeasible");

    let unknown = registry
        .run("nope", &table, &Params::new(2))
        .expect_err("unregistered mechanism must be unknown");

    let errors = [
        infeasible,
        unknown,
        LdivError::InvalidL(0),
        LdivError::InvalidParams("fanout must be >= 2".into()),
        LdivError::Usage("unknown flag --frobnicate".into()),
        LdivError::Io("tests/nope.csv: No such file".into()),
        LdivError::Algorithm("hilbert: empty index".into()),
        LdivError::Internal("invariant violated: \"quoted\" detail".into()),
        LdivError::DeadlineExceeded,
    ];
    for err in &errors {
        let body = wire::error_json(err);
        assert_round_trip(&body, &format!("error {err}"));
        let decoded = decode(&encode(&body)).unwrap();
        assert_eq!(decoded.get("error"), body.get("error"), "{err}");
        assert_eq!(decoded.get("kind"), body.get("kind"), "{err}");
    }
}

/// The remaining response surface: dataset statistics, the mechanism
/// listing, and a sweep-shaped body (`results` array of per-mechanism
/// publications, errors included) — all through the square.
#[test]
fn stats_mechanisms_and_sweep_shaped_bodies_round_trip() {
    let table = dataset(400, 23);
    // Re-parse through CSV so the fingerprint matches what the server
    // sees for an upload (schema re-inference is part of the content).
    let parsed = read_csv(&csv_of(&table)[..], None).unwrap();
    assert_round_trip(&wire::table_stats_json(&parsed), "table_stats");

    let registry = standard_registry();
    assert_round_trip(&wire::mechanisms_json(&registry), "mechanisms");

    // A sweep body: one entry per mechanism, with one deliberate error
    // entry mixed in the way `/sweep` degrades per-mechanism failures.
    let params = Params::new(3);
    let mut results: Vec<Json> = registry
        .names()
        .iter()
        .map(|name| {
            let publication = run_sharded(&registry, name, &table, &params).unwrap();
            let kl = kl_divergence_with(&table, &publication, &params.executor());
            wire::publication_json(&table, &publication, &params, kl)
        })
        .collect();
    results.push(wire::error_json(&LdivError::DeadlineExceeded));
    let sweep = Json::obj()
        .field("l", params.l)
        .field("results", Json::Arr(results));
    assert_round_trip(&sweep, "sweep body");
}

/// Every JSON route, answered by the router itself: each response body —
/// success and error alike — goes around the square, so no route can
/// emit a value the binary face would change.
#[test]
fn every_json_route_body_round_trips() {
    let root = TempRoot::new("routes");
    let state = AppState::new(
        standard_registry(),
        ServerConfig {
            store_root: Some(root.0.clone()),
            ..ServerConfig::default()
        },
    );
    let csv = csv_of(&dataset(300, 29));
    let text = String::from_utf8(csv.clone()).unwrap();
    let batch = format!("{}\n", text.lines().take(4).collect::<Vec<_>>().join("\n"));
    let check = |status: u16, method: &str, path: &str, query: &[(&str, &str)], body: &[u8]| {
        let context = format!("{method} {path} {query:?}");
        let response = handle_request(&state, &request(method, path, query, body));
        assert_eq!(response.status, status, "{context}: {}", response.body);
        assert_eq!(response.content_type, "application/json", "{context}");
        let body = Json::parse(&response.body).unwrap_or_else(|| panic!("{context}: not JSON"));
        assert_round_trip(&body, &context);
        body
    };
    let tp = [("algo", "tp"), ("l", "3")];

    check(200, "GET", "/healthz", &[], b"");
    check(200, "GET", "/mechanisms", &[], b"");
    check(200, "POST", "/anonymize", &tp, &csv);
    check(200, "POST", "/anonymize", &tp, &csv); // a cache hit
    check(200, "POST", "/sweep", &[("l", "3")], &csv);
    let registered = check(200, "POST", "/datasets", &[], &csv);
    let Some(Json::Str(fp)) = registered.get("dataset") else {
        panic!("register returns the fingerprint: {registered}");
    };
    let dataset = format!("/datasets/{fp}");
    check(200, "GET", "/datasets", &[], b"");
    check(200, "GET", &dataset, &[], b"");
    check(
        200,
        "POST",
        &format!("{dataset}/append"),
        &[],
        batch.as_bytes(),
    );
    check(200, "POST", &format!("{dataset}/publish"), &tp, b"");
    check(200, "POST", &format!("{dataset}/publish"), &tp, b""); // a cache hit
    check(200, "GET", "/stats", &[], b"");
    check(200, "GET", "/trace", &[], b"");

    check(400, "POST", "/anonymize", &[("algo", "tp")], &csv);
    check(
        404,
        "POST",
        "/anonymize",
        &[("algo", "nope"), ("l", "3")],
        &csv,
    );
    check(404, "GET", "/nope", &[], b"");
    check(405, "GET", "/anonymize", &[], b"");
    check(
        422,
        "POST",
        "/anonymize",
        &[("algo", "tp"), ("l", "1000")],
        &csv,
    );
}
