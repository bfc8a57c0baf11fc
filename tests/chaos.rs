//! Chaos suite: the live service under injected faults (`ldiv-guard`).
//!
//! Each test boots a real `Server` on an ephemeral port, arms a fault
//! plan through `guard::fault::install` (the programmatic form of
//! `LDIV_FAULT`), and asserts the robustness contract end-to-end over
//! raw sockets:
//!
//! * a panicking mechanism degrades to a well-formed `500` — the
//!   connection is answered, the worker survives, the pool stays at
//!   full strength, and the publication cache keeps serving hits
//!   byte-identical to its pre-fault responses;
//! * an elapsed per-request deadline surfaces as `504` within twice the
//!   configured budget, not as a hung or half-written response;
//! * a stalled queue overflows into immediate `503`s instead of an
//!   unbounded backlog;
//! * `/sweep` reports a faulted mechanism as a per-mechanism error
//!   entry inside a `200`, never by dropping the whole sweep;
//! * a benign `slow:1` plan, armed at every mechanism and store entry
//!   point, changes no response byte.
//!
//! The fault plan is process-global: an armed `panic:*` faults every
//! server in the process, not just the test's own. So every test holds
//! one mutex for its whole body, the healthy windows before and after
//! its fault included, and disarms before releasing it.

mod common;

use common::{
    dataset_csv, http, json_u64, registered_fingerprint, request, serial, with_faults, TempRoot,
};
use ldiversity::obs::registry::validate_prometheus;
use ldiversity::server::{handle_request, AppState, Server, ServerConfig};
use ldiversity::standard_registry;
use std::time::{Duration, Instant};

/// The headline chaos scenario: a concurrent burst against a server
/// whose every mechanism panics. Every connection must come back with a
/// well-formed 200/500/503/504, the cache must keep answering hits
/// (byte-identical to its pre-fault responses), and `/stats` must show
/// the worker pool at full strength with the panics accounted.
#[test]
fn panicking_mechanisms_degrade_to_500s_and_the_pool_survives() {
    let lock = serial();
    let csv = dataset_csv(400, 71);
    let server = Server::bind(
        "127.0.0.1:0",
        standard_registry(),
        ServerConfig {
            workers: 3,
            queue_depth: 32,
            cache_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Pre-fault baseline: one miss, then a hit whose body we pin.
    let (status, first) = http(addr, "POST", "/anonymize?algo=tp&l=3", &csv);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");
    let (status, cached_before) = http(addr, "POST", "/anonymize?algo=tp&l=3", &csv);
    assert_eq!(status, 200);
    assert!(cached_before.contains("\"cached\":true"), "{cached_before}");

    with_faults(&lock, "panic:*", || {
        // A concurrent burst: cached (tp) and uncached mechanisms mixed.
        let targets = [
            "/anonymize?algo=tp&l=3", // cached → 200 even under faults
            "/anonymize?algo=mondrian&l=3",
            "/anonymize?algo=anatomy&l=3",
            "/anonymize?algo=tds&l=3",
            "/anonymize?algo=hilbert&l=3",
            "/anonymize?algo=tp%2B&l=3",
        ];
        let results: Vec<(String, u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    let target = targets[i % targets.len()];
                    let csv = &csv;
                    scope.spawn(move || {
                        let (status, body) = http(addr, "POST", target, csv);
                        (target.to_string(), status, body)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut fault_500s = 0;
        for (target, status, body) in &results {
            assert!(
                matches!(status, 200 | 500 | 503 | 504),
                "{target}: unexpected status {status}: {body}"
            );
            // Well-formed single-document JSON either way.
            assert!(
                body.starts_with('{') && body.ends_with('}'),
                "{target}: malformed body: {body}"
            );
            match status {
                500 => {
                    assert!(body.contains("\"kind\":\"internal\""), "{target}: {body}");
                    assert!(body.contains("injected fault"), "{target}: {body}");
                    fault_500s += 1;
                }
                200 => assert!(body.contains("\"cached\":true"), "{target}: {body}"),
                _ => {}
            }
        }
        // The injected panics actually fired...
        assert!(fault_500s >= 1, "no injected 500 in {results:?}");
        // ...and the cache kept serving through them.
        assert!(
            results
                .iter()
                .any(|(t, s, _)| t.contains("algo=tp&") && *s == 200),
            "cached mechanism did not answer during the fault window: {results:?}"
        );
    });

    // Faults cleared: the very next request is a cache hit byte-identical
    // to the pre-fault response.
    let (status, cached_after) = http(addr, "POST", "/anonymize?algo=tp&l=3", &csv);
    assert_eq!(status, 200);
    assert_eq!(
        cached_after, cached_before,
        "cache content drifted across the fault window"
    );

    // /stats: the pool is at full strength and the panics were counted.
    let (status, stats) = http(addr, "GET", "/stats", b"");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&stats, "alive"), 3, "{stats}");
    assert_eq!(json_u64(&stats, "target"), 3, "{stats}");
    assert!(json_u64(&stats, "panics_caught") >= 1, "{stats}");

    server.shutdown();
}

/// A request whose run dawdles past the configured per-request deadline
/// answers `504 deadline_exceeded` within twice the budget — cancelled
/// cooperatively, not hung until some outer timeout.
#[test]
fn deadline_surfaces_as_504_within_twice_the_budget() {
    let lock = serial();
    let csv = dataset_csv(300, 72);
    with_faults(&lock, "slow:5000", || {
        let server = Server::bind(
            "127.0.0.1:0",
            standard_registry(),
            ServerConfig {
                workers: 2,
                deadline_ms: 400,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        let (status, body) = http(server.addr(), "POST", "/anonymize?algo=tp&l=3", &csv);
        let elapsed = start.elapsed();
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("\"kind\":\"deadline_exceeded\""), "{body}");
        assert!(
            elapsed < Duration::from_millis(800),
            "504 took {elapsed:?}, over 2x the 400ms budget"
        );
        // The timed-out request still lands in the anonymize route's
        // latency histogram (observation happens on request completion,
        // whatever the status) and the scrape stays grammatical.
        let (status, scrape) = http(server.addr(), "GET", "/metrics", b"");
        assert_eq!(status, 200);
        if let Err((line, reason)) = validate_prometheus(&scrape) {
            panic!("scrape violates the line grammar at line {line}: {reason}");
        }
        assert!(
            scrape.contains("ldiv_request_duration_seconds_count{route=\"/anonymize\"} 1"),
            "504 missing from the route histogram: {scrape}"
        );
        server.shutdown();
    });
}

/// With the dequeue stalled and a tiny queue, a burst overflows into
/// immediate 503s — bounded back-pressure, not a growing backlog — and
/// the server drains cleanly once the stall is lifted.
#[test]
fn a_stalled_queue_sheds_load_with_503s() {
    let lock = serial();
    let csv = dataset_csv(300, 73);
    with_faults(&lock, "queue_stall", || {
        let server = Server::bind(
            "127.0.0.1:0",
            standard_registry(),
            ServerConfig {
                workers: 1,
                queue_depth: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..10)
                .map(|_| {
                    let csv = &csv;
                    scope.spawn(move || http(addr, "POST", "/anonymize?algo=tp&l=3", csv).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            statuses.iter().all(|s| matches!(s, 200 | 503)),
            "unexpected statuses: {statuses:?}"
        );
        assert!(
            statuses.contains(&503),
            "a 10-deep burst against a stalled 1-worker/2-slot queue shed nothing: {statuses:?}"
        );
        server.shutdown();
    });
}

/// `/metrics` under fire: scrapes interleaved with a `panic:*` burst
/// are always well-formed under the strict Prometheus line grammar, the
/// panics land in `ldiv_panics_caught_total`, and every faulted request
/// still counts into the anonymize route's latency histogram.
#[test]
fn metrics_scrapes_stay_well_formed_during_a_panic_burst() {
    let lock = serial();
    let csv = dataset_csv(300, 76);
    let server = Server::bind(
        "127.0.0.1:0",
        standard_registry(),
        ServerConfig {
            workers: 3,
            queue_depth: 32,
            cache_capacity: 0, // no cache: every burst request really runs
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    with_faults(&lock, "panic:*", || {
        // Faulted anonymize requests racing scrapes on sibling threads.
        let scrapes: Vec<String> = std::thread::scope(|scope| {
            let faulted: Vec<_> = (0..6)
                .map(|_| {
                    let csv = &csv;
                    scope.spawn(move || http(addr, "POST", "/anonymize?algo=tp&l=3", csv))
                })
                .collect();
            let scrapers: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || http(addr, "GET", "/metrics", b"")))
                .collect();
            for handle in faulted {
                let (status, body) = handle.join().unwrap();
                assert_eq!(status, 500, "faulted run must degrade to 500: {body}");
            }
            scrapers
                .into_iter()
                .map(|h| {
                    let (status, body) = h.join().unwrap();
                    assert_eq!(status, 200);
                    body
                })
                .collect()
        });
        for scrape in &scrapes {
            if let Err((line, reason)) = validate_prometheus(scrape) {
                panic!("mid-burst scrape violates the grammar at line {line}: {reason}");
            }
        }
    });

    // Post-burst accounting: all six panics caught, all six requests in
    // the anonymize histogram bucket tail (+inf counts everything).
    let (status, scrape) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    if let Err((line, reason)) = validate_prometheus(&scrape) {
        panic!("post-burst scrape violates the grammar at line {line}: {reason}");
    }
    assert!(
        scrape.contains("ldiv_panics_caught_total 6"),
        "panic count missing: {scrape}"
    );
    assert!(
        scrape.contains("ldiv_request_duration_seconds_count{route=\"/anonymize\"} 6"),
        "faulted requests missing from the route histogram: {scrape}"
    );
    assert!(
        scrape.contains("ldiv_request_duration_seconds_bucket{route=\"/anonymize\",le=\"+Inf\"} 6"),
        "+Inf bucket disagrees with the count: {scrape}"
    );

    server.shutdown();
}

/// `/sweep` under a targeted fault: the panicking mechanism becomes a
/// per-mechanism error entry inside a 200; every other mechanism still
/// reports a full summary.
#[test]
fn sweep_reports_a_faulted_mechanism_as_an_error_entry() {
    let lock = serial();
    let csv = dataset_csv(400, 74);
    with_faults(&lock, "panic:mondrian", || {
        let state = AppState::new(standard_registry(), ServerConfig::default());
        let response = handle_request(&state, &request("POST", "/sweep", &[("l", "3")], &csv));
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.body.contains("\"kind\":\"internal\""),
            "{}",
            response.body
        );
        assert!(
            response.body.contains("\"mechanism\":\"mondrian\""),
            "{}",
            response.body
        );
        // The fault stayed contained: the other five summaries are real.
        for name in ["anatomy", "hilbert", "tds", "tp", "tp+"] {
            let entry = format!("\"mechanism\":\"{name}\",\"params\"");
            assert!(
                response.body.contains(&entry),
                "missing healthy summary for {name}: {}",
                response.body
            );
        }
    });
}

/// A `panic:*` burst across the dataset store's append→publish window.
/// The store must stay consistent: faulted ingestion answers a
/// well-formed 500 and commits *nothing* (no partial segments, no
/// stray temp files, manifest unchanged), and once the plan is
/// disarmed the same append and publish succeed as if the burst never
/// happened.
#[test]
fn store_survives_a_panic_burst_across_the_append_publish_window() {
    let lock = serial();
    let root = std::env::temp_dir().join(format!("ldiv-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let csv = dataset_csv(400, 75);
    let batch = {
        // A batch from the dataset's own rows: header + three lines,
        // trivially inside the registered domain.
        let text = String::from_utf8(csv.clone()).unwrap();
        let lines: Vec<&str> = text.lines().take(4).collect();
        format!("{}\n", lines.join("\n")).into_bytes()
    };

    let server = Server::bind(
        "127.0.0.1:0",
        standard_registry(),
        ServerConfig {
            workers: 3,
            queue_depth: 32,
            cache_capacity: 16,
            store_root: Some(root.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Healthy window: register, one append, one publish.
    let (status, registered) = http(addr, "POST", "/datasets", &csv);
    assert_eq!(status, 200, "{registered}");
    let fp = registered_fingerprint(&registered);
    let (status, appended) = http(addr, "POST", &format!("/datasets/{fp}/append"), &batch);
    assert_eq!(status, 200, "{appended}");
    let publish_target = format!("/datasets/{fp}/publish?algo=tp&l=3&shards=2");
    let (status, published) = http(addr, "POST", &publish_target, b"");
    assert_eq!(status, 200, "{published}");
    assert!(published.contains("\"cached\":false"), "{published}");

    let dataset_dir = root.join("datasets").join(&fp);
    // Recursive listing: manifest.txt plus segments/ plus shards/.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type().unwrap().is_dir() {
                names.extend(
                    listing(&entry.path())
                        .into_iter()
                        .map(|child| format!("{name}/{child}")),
                );
            } else {
                names.push(name);
            }
        }
        names.sort();
        names
    }
    let files_before = listing(&dataset_dir);
    let manifest_before = std::fs::read(dataset_dir.join("manifest.txt")).unwrap();

    with_faults(&lock, "panic:*", || {
        // The burst: appends and publishes interleaved, all faulted.
        for _ in 0..3 {
            let (status, body) = http(addr, "POST", &format!("/datasets/{fp}/append"), &batch);
            assert_eq!(status, 500, "faulted append must degrade: {body}");
            assert!(body.contains("\"kind\":\"internal\""), "{body}");
            let fresh = format!("/datasets/{fp}/publish?algo=tp%2B&l=3&shards=2");
            let (status, body) = http(addr, "POST", &fresh, b"");
            assert_eq!(status, 500, "faulted publish must degrade: {body}");
            // The pre-fault publication is cached under the *current*
            // lineage and served without crossing the fault boundary.
            let (status, body) = http(addr, "POST", &publish_target, b"");
            assert_eq!(status, 200, "cached publish must survive: {body}");
            assert!(body.contains("\"cached\":true"), "{body}");
        }

        // Mid-burst consistency: no partial segments, no temp files,
        // the manifest byte-identical to the pre-burst commit.
        let files_during = listing(&dataset_dir);
        assert_eq!(files_during, files_before, "faulted appends left debris");
        assert!(
            !files_during.iter().any(|name| name.contains(".tmp-")),
            "unrenamed temp file leaked: {files_during:?}"
        );
        assert_eq!(
            std::fs::read(dataset_dir.join("manifest.txt")).unwrap(),
            manifest_before,
            "faulted append moved the manifest"
        );
    });

    // Disarmed: the same operations succeed, from the same state.
    let (status, body) = http(addr, "POST", &format!("/datasets/{fp}/append"), &batch);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"index\":2"), "{body}");
    let (status, body) = http(addr, "POST", &publish_target, b"");
    assert_eq!(status, 200, "{body}");
    // The lineage moved with the append, so this is a fresh publication
    // over the grown table, not a stale cache hit.
    assert!(body.contains("\"cached\":false"), "{body}");
    assert!(body.contains("\"rows\":406"), "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A benign plan changes nothing a client can see: with every fault
/// site sleeping 1 ms — each mechanism's entry point (all six, through
/// `/sweep`, per shard) and the store's `store:register`,
/// `store:append` and `store:publish` sites — every answer is the
/// status and body the disarmed service gives.
#[test]
fn a_slow_fault_plan_changes_no_response_byte() {
    let lock = serial();
    let csv = dataset_csv(400, 77);
    let batch = {
        // The dataset's header plus five of its own rows.
        let text = String::from_utf8(csv.clone()).unwrap();
        let lines: Vec<&str> = text.lines().take(6).collect();
        format!("{}\n", lines.join("\n")).into_bytes()
    };
    let run = || {
        // A fresh state and store per run: identical history on both sides.
        let root = TempRoot::new("chaos-slow");
        let state = AppState::new(
            standard_registry(),
            ServerConfig {
                shards: 2,
                store_root: Some(root.0.clone()),
                ..ServerConfig::default()
            },
        );
        let mut answers = Vec::new();
        let mut send = |path: &str, query: &[(&str, &str)], body: &[u8]| {
            let response = handle_request(&state, &request("POST", path, query, body));
            answers.push((response.status, response.body.clone()));
            response.body
        };
        send("/sweep", &[("l", "3")], &csv);
        let fp = registered_fingerprint(&send("/datasets", &[], &csv));
        send(&format!("/datasets/{fp}/append"), &[], &batch);
        send(
            &format!("/datasets/{fp}/publish"),
            &[("algo", "tp+"), ("l", "3")],
            b"",
        );
        answers
    };

    let disarmed = run();
    let slowed = with_faults(&lock, "slow:1", run);
    for (status, body) in &disarmed {
        assert_eq!(*status, 200, "{body}");
    }
    assert_eq!(disarmed, slowed, "a slow:1 plan moved a response");
}
