//! Integration tests for the anonymization service over the full
//! standard registry: concurrent registry sharing, cache-key stability,
//! parallel-sweep determinism, and the end-to-end socket contract
//! (anonymize → cache hit verified via `/stats`).

mod common;

use common::{csv_of, http, request};
use ldiversity::datagen::{sal, AcsConfig};
use ldiversity::microdata::Table;
use ldiversity::server::wire;
use ldiversity::server::{handle_request, AppState, Server, ServerConfig};
use ldiversity::{standard_registry, Params};
use std::sync::Arc;

fn dataset(rows: usize, seed: u64) -> (Table, Vec<u8>) {
    let table = sal(&AcsConfig { rows, seed });
    let csv = csv_of(&table);
    (table, csv)
}

/// `Mechanism: Send + Sync` in practice: one registry, many threads, all
/// six mechanisms running concurrently, every result valid.
#[test]
fn registry_is_shareable_across_threads() {
    let registry = Arc::new(standard_registry());
    let table = Arc::new(sal(&AcsConfig {
        rows: 1_200,
        seed: 7,
    }));
    let params = Params::new(3);

    let handles: Vec<_> = registry
        .names()
        .iter()
        .map(|name| name.to_string())
        .flat_map(|name| {
            (0..2).map(move |_| name.clone()) // two threads per mechanism
        })
        .map(|name| {
            let registry = Arc::clone(&registry);
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let publication = registry.run(&name, &table, &params).unwrap();
                publication.validate(&table, params.l).unwrap();
                (name, publication.group_count())
            })
        })
        .collect();

    let mut results: Vec<(String, usize)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort();
    // Both runs of each mechanism agree (deterministic under sharing).
    for pair in results.chunks(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

/// The cache key is content-addressed: identical tables fingerprint
/// identically however they were built, and any change to a cell, the
/// schema, the row order, or a `Params` field moves the key.
#[test]
fn cache_keys_are_stable_and_sensitive() {
    let (a, csv) = dataset(300, 9);
    // Two independent parses of the same CSV bytes — what the server sees
    // for two identical uploads — fingerprint identically. (The generator
    // table itself fingerprints differently: parsing re-infers domain
    // sizes, and schema metadata is part of the content by design.)
    let b1 = ldiversity::microdata::read_csv(&csv[..], None).unwrap();
    let b2 = ldiversity::microdata::read_csv(&csv[..], None).unwrap();
    assert_eq!(b1.fingerprint(), b2.fingerprint());
    assert_eq!(b1.fingerprint(), b1.clone().fingerprint());

    // Different seed → different rows → different fingerprint.
    let (c, _) = dataset(300, 10);
    assert_ne!(a.fingerprint(), c.fingerprint());
    // A strict prefix of the same data is different content.
    let shorter = a.select_rows(&(0..299).collect::<Vec<_>>());
    assert_ne!(a.fingerprint(), shorter.fingerprint());

    // Params canonicalization: equal iff every field is equal.
    assert_eq!(Params::new(4).canonical(), Params::new(4).canonical());
    assert_ne!(Params::new(4).canonical(), Params::new(5).canonical());
    assert_ne!(
        Params::new(4).canonical(),
        Params::new(4).with_fanout(3).canonical()
    );
}

/// `/sweep` fans mechanisms across threads; its per-mechanism summaries
/// must be byte-identical to sequential single-mechanism runs.
#[test]
fn parallel_sweep_matches_sequential_runs() {
    let (_, csv) = dataset(900, 21);

    let state = AppState::new(standard_registry(), ServerConfig::default());
    let sweep = handle_request(&state, &request("POST", "/sweep", &[("l", "3")], &csv));
    assert_eq!(sweep.status, 200, "{}", sweep.body);

    // Sequential reference: the same wire rendering, one mechanism at a
    // time, on a fresh registry, over the same parsed table the server
    // saw (parsing re-infers the schema, so the generator table itself
    // is not byte-comparable). Dispatched through the sharding driver
    // with the server's own thread/shard configuration, so the reference
    // matches what the routes ran.
    let config = state.config();
    let params = Params::new(3)
        .with_threads(config.threads)
        .with_shards(config.shards);
    let table = ldiversity::microdata::read_csv(&csv[..], None).unwrap();
    let registry = standard_registry();
    for name in registry.names() {
        let publication = ldiversity::shard::run_sharded(&registry, name, &table, &params).unwrap();
        let kl = ldiversity::metrics::kl_divergence_with(&table, &publication, &params.executor());
        let expected = wire::publication_json(&table, &publication, &params, kl).render();
        assert!(
            sweep.body.contains(&expected),
            "sweep result for {name} diverges from the sequential run:\n\
             expected fragment: {expected}\nsweep body: {}",
            sweep.body
        );
    }

    // A second sweep is answered entirely from the cache and agrees.
    let before = state.cache_stats();
    let again = handle_request(&state, &request("POST", "/sweep", &[("l", "3")], &csv));
    let after = state.cache_stats();
    assert_eq!(after.hits - before.hits, registry.len() as u64);
    assert_eq!(
        again.body.replace("\"cached\":true", "\"cached\":false"),
        sweep.body
    );
}

/// The acceptance path end-to-end over a real socket: every registered
/// mechanism answers a POSTed CSV with a JSON publication, and repeating
/// an identical request is a cache hit, verified through `/stats`.
#[test]
fn end_to_end_anonymize_all_mechanisms_with_cache_hits() {
    let (_, csv) = dataset(800, 33);
    let server = Server::bind(
        "127.0.0.1:0",
        standard_registry(),
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    let (_, mechanisms) = http(addr, "GET", "/mechanisms", b"");
    for name in ["anatomy", "hilbert", "mondrian", "tds", "tp", "tp+"] {
        assert!(
            mechanisms.contains(&format!("\"name\":\"{name}\"")),
            "{mechanisms}"
        );

        let target = format!("/anonymize?algo={}&l=3", name.replace('+', "%2B"));
        let (status, first) = http(addr, "POST", &target, &csv);
        assert_eq!(status, 200, "{name}: {first}");
        assert!(
            first.contains(&format!("\"mechanism\":\"{name}\"")),
            "{first}"
        );
        assert!(first.contains("\"cached\":false"), "{name}: {first}");
        assert!(first.contains("\"kl_divergence\":"), "{name}: {first}");

        let (status, second) = http(addr, "POST", &target, &csv);
        assert_eq!(status, 200);
        assert!(second.contains("\"cached\":true"), "{name}: {second}");
    }

    // /stats proves the repeats were cache hits: 6 misses (first runs),
    // 6 hits (repeats).
    let (_, stats) = http(addr, "GET", "/stats", b"");
    assert!(stats.contains("\"hits\":6"), "{stats}");
    assert!(stats.contains("\"misses\":6"), "{stats}");
    assert!(stats.contains("\"entries\":6"), "{stats}");

    // Error contract over the socket: unknown mechanism → 404 JSON.
    let (status, error) = http(addr, "POST", "/anonymize?algo=nope&l=3", &csv);
    assert_eq!(status, 404, "{error}");
    assert!(error.contains("\"kind\":\"unknown_mechanism\""), "{error}");

    server.shutdown();
}

/// TDS with a fanout above 255 on a QI of 300 labels: the root splits
/// into more children than a byte can number, and the request succeeds.
#[test]
fn tds_splits_a_node_wider_than_255_children() {
    let mut csv = String::from("q,s\n");
    for i in 0..1_200 {
        let (v, k) = (i % 300, i / 300);
        csv.push_str(&format!("v{v:03},s{}\n", (v + k) % 7));
    }
    let server = Server::bind("127.0.0.1:0", standard_registry(), ServerConfig::default()).unwrap();
    let (status, body) = http(
        server.addr(),
        "POST",
        "/anonymize?algo=tds&l=2&fanout=300",
        csv.as_bytes(),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"mechanism\":\"tds\""), "{body}");
    server.shutdown();
}

/// 20 QI columns of 100 labels need 7 curve bits each, 140 in all: the
/// curve-based mechanisms keep each axis's top 6 bits and publish, as
/// TP and Mondrian do.
#[test]
fn curve_mechanisms_publish_a_table_wider_than_128_curve_bits() {
    let mut csv = (0..20).map(|a| format!("q{a},")).collect::<String>() + "s\n";
    for i in 0..600 {
        for a in 0..20 {
            csv.push_str(&format!("v{:02},", (i * (a + 7) + a * 13) % 100));
        }
        csv.push_str(&format!("s{}\n", i % 5));
    }
    let server = Server::bind("127.0.0.1:0", standard_registry(), ServerConfig::default()).unwrap();
    for algo in ["tp%2B", "hilbert", "tp", "mondrian"] {
        let target = format!("/anonymize?algo={algo}&l=2");
        let (status, body) = http(server.addr(), "POST", &target, csv.as_bytes());
        assert_eq!(status, 200, "{algo}: {body}");
    }
    let (_, stats) = http(server.addr(), "GET", "/stats", b"");
    assert!(stats.contains("\"panics_caught\":0"), "{stats}");
    server.shutdown();
}
