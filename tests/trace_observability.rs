//! Integration tests for `ldiv-trace`: the request-scoped tracing and
//! latency-histogram surface across the serve/shard/store pipeline.
//!
//! * `GET /trace` returns a span tree for a completed `/anonymize`
//!   whose leaf durations account for the trace's wall time (within the
//!   documented tolerance: leaves cover at least a quarter of the wall
//!   on a single-threaded, single-shard run, and never exceed it);
//! * armed tracing adds the `X-Ldiv-Trace-Id` response header but never
//!   changes a response body, JSON or binary, on the publication or the
//!   dataset-store routes — byte-identity armed vs disarmed;
//! * the `/metrics` scrape obeys the strict Prometheus line grammar and
//!   carries the per-route / per-mechanism latency histograms;
//! * `/stats` and `/metrics` cannot drift: every integer leaf of `/stats`
//!   is exactly one non-histogram `/metrics` series with the same value,
//!   and a fresh store-backed server renders a pinned `/stats` document.
//!
//! The armed flag is process-global, so every test that touches it
//! serializes on one mutex and restores the disarmed default.

mod common;

use common::{dataset_csv, json_u64, registered_fingerprint, request, serial, TempRoot};
use ldiversity::obs;
use ldiversity::obs::registry::validate_prometheus;
use ldiversity::server::{handle_request, AppState, Server, ServerConfig};
use ldiversity::standard_registry;
use ldiversity::wire::Json;

fn header<'a>(response: &'a ldiversity::server::Response, name: &str) -> Option<&'a str> {
    response
        .headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

/// The acceptance scenario: a traced `/anonymize` on a pinned
/// single-thread, single-shard configuration produces a `/trace` span
/// tree whose leaf spans account for the wall time.
#[test]
fn trace_reports_a_span_tree_accounting_for_wall_time() {
    let _guard = serial();
    obs::set_armed(true);
    let csv = dataset_csv(500, 41);
    // One thread, one shard: the pipeline stages run sequentially on the
    // handler thread, so leaf durations are disjoint sub-intervals of
    // the wall and their sum is directly comparable to it.
    let state = AppState::new(
        standard_registry(),
        ServerConfig {
            threads: 1,
            shards: 1,
            ..ServerConfig::default()
        },
    );

    let response = handle_request(
        &state,
        &request("POST", "/anonymize", &[("algo", "tp"), ("l", "3")], &csv),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    let trace_id = header(&response, "X-Ldiv-Trace-Id")
        .expect("armed tracing sets the trace-id header")
        .to_string();

    let trace = handle_request(&state, &request("GET", "/trace", &[], b""));
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert!(trace.body.contains("\"armed\":true"), "{}", trace.body);
    assert!(
        trace.body.contains(&format!("\"id\":\"{trace_id}\"")),
        "trace {trace_id} missing from ring: {}",
        trace.body
    );
    // The span tree covers the pipeline stages end to end.
    for stage in ["csv:read", "cache:lookup", "shard:anonymize", "kl"] {
        assert!(
            trace.body.contains(&format!("\"name\":\"{stage}\"")),
            "no {stage} span: {}",
            trace.body
        );
    }
    // Leaf spans account for the wall time: they never exceed it, and on
    // this pinned configuration they cover at least a quarter of it (the
    // remainder is routing, header assembly, and cache bookkeeping).
    let wall_ns = json_u64(&trace.body, "wall_ns");
    let leaf_ns = json_u64(&trace.body, "leaf_ns");
    assert!(wall_ns > 0);
    assert!(
        leaf_ns <= wall_ns,
        "leaf sum {leaf_ns} exceeds wall {wall_ns}"
    );
    assert!(
        leaf_ns * 4 >= wall_ns,
        "leaf spans cover {leaf_ns} of {wall_ns} ns — less than 25% accounted"
    );

    obs::set_armed(false);
}

/// Tracing is execution-only: arming it changes no response body, JSON
/// or binary, on the anonymize and sweep paths or the dataset store's
/// register, append and publish. Disarmed responses carry no trace-id
/// header; armed ones do.
#[test]
fn responses_are_byte_identical_armed_and_disarmed() {
    let _guard = serial();
    let csv = dataset_csv(400, 42);
    let batch = {
        // The dataset's header plus five of its own rows.
        let text = String::from_utf8(csv.clone()).unwrap();
        let lines: Vec<&str> = text.lines().take(6).collect();
        format!("{}\n", lines.join("\n")).into_bytes()
    };
    let run = |armed: bool| {
        obs::set_armed(armed);
        // A fresh store-backed state per run: identical cache and store
        // history on both sides.
        let root = TempRoot::new("obs-armed");
        let state = AppState::new(
            standard_registry(),
            ServerConfig {
                store_root: Some(root.0.clone()),
                ..ServerConfig::default()
            },
        );
        let send = |path: &str, query: &[(&str, &str)], body: &[u8]| {
            handle_request(&state, &request("POST", path, query, body))
        };
        let anonymize = send("/anonymize", &[("algo", "tp"), ("l", "3")], &csv);
        let binary = send(
            "/anonymize",
            &[("algo", "mondrian"), ("l", "3"), ("format", "bin")],
            &csv,
        );
        let sweep = send("/sweep", &[("l", "3")], &csv);
        let registered = send("/datasets", &[], &csv);
        let fp = registered_fingerprint(&registered.body);
        let appended = send(&format!("/datasets/{fp}/append"), &[], &batch);
        let published = send(
            &format!("/datasets/{fp}/publish"),
            &[("algo", "tp+"), ("l", "3")],
            b"",
        );
        [anonymize, binary, sweep, registered, appended, published]
    };

    let off = run(false);
    let on = run(true);
    obs::set_armed(false);

    assert!(off[1].bytes.is_some(), "format=bin answers an LDVW block");
    for (off, on) in off.iter().zip(&on) {
        assert_eq!(off.status, 200, "{}", off.body);
        assert_eq!(off.body, on.body, "body drifted under tracing");
        assert_eq!(off.bytes, on.bytes, "binary body drifted under tracing");
        assert!(header(off, "X-Ldiv-Trace-Id").is_none());
        assert!(header(on, "X-Ldiv-Trace-Id").is_some());
    }
}

/// The `/metrics` scrape passes the strict Prometheus line-grammar
/// validator and carries the counter registry plus both latency
/// histogram families.
#[test]
fn metrics_scrape_obeys_the_prometheus_line_grammar() {
    let _guard = serial();
    let csv = dataset_csv(300, 43);
    let state = AppState::new(standard_registry(), ServerConfig::default());
    // Touch several routes so every family has samples.
    let ok = handle_request(
        &state,
        &request("POST", "/anonymize", &[("algo", "tp"), ("l", "3")], &csv),
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle_request(&state, &request("GET", "/stats", &[], b""));
    handle_request(&state, &request("GET", "/nope", &[], b""));

    let scrape = handle_request(&state, &request("GET", "/metrics", &[], b""));
    assert_eq!(scrape.status, 200);
    if let Err((line, reason)) = validate_prometheus(&scrape.body) {
        panic!("scrape violates the line grammar at line {line}: {reason}");
    }
    for series in [
        "ldiv_requests_total 4",
        "ldiv_anonymize_runs_total 1",
        "ldiv_request_duration_seconds_bucket{route=\"/anonymize\",le=",
        "ldiv_request_duration_seconds_count{route=\"/anonymize\"} 1",
        "ldiv_request_duration_seconds_count{route=\"other\"} 1",
        "ldiv_run_duration_seconds_count{mechanism=\"tp\"} 1",
    ] {
        assert!(scrape.body.contains(series), "no `{series}` in scrape");
    }
}

/// A real server with every `/stats` group present (a worker pool and a
/// store) and every knob the document reports pinned. Requests go
/// straight to its router, exactly as the socket path calls it.
fn store_server(root: &TempRoot) -> Server {
    let config = ServerConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 16,
        threads: 1,
        shards: 1,
        deadline_ms: 60_000,
        store_root: Some(root.0.clone()),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", standard_registry(), config).unwrap()
}

/// `/stats` of a fresh store-backed server, byte for byte: field names,
/// nesting and order are a client contract (dashboards and the
/// benchmark read dotted paths such as `cache.hits`).
#[test]
fn a_fresh_store_backed_server_renders_the_pinned_stats_document() {
    let _guard = serial();
    let root = TempRoot::new("obs-fresh");
    let server = store_server(&root);
    let stats = handle_request(server.state(), &request("GET", "/stats", &[], b""));
    assert_eq!(
        stats.body,
        concat!(
            r#"{"requests":1,"anonymize_runs":0,"rejected":0,"panics_caught":0,"coalesced":0,"#,
            r#""workers":2,"queue_depth":8,"run_threads":1,"run_shards":1,"deadline_ms":60000,"#,
            r#""pool":{"alive":2,"target":2,"worker_panics":0,"respawned":0},"#,
            r#""store":{"datasets":0,"segments":0,"rows":0,"shard_records":0,"#,
            r#""persisted_responses":0,"registers":0,"appends":0,"appended_rows":0,"#,
            r#""publishes":0,"shards_computed":0,"shards_reused":0,"segments_read":0},"#,
            r#""coalesce":{"in_flight":0,"waiting":0},"#,
            r#""cache":{"hits":0,"misses":0,"entries":0,"capacity":16,"evictions":0}}"#,
        )
    );
    server.shutdown();
}

/// The promise the registry makes: `/stats` and `/metrics` report one
/// list. After traffic that moves every group, each integer leaf of
/// `/stats` (`cache.hits`) is exactly one unlabelled `/metrics` series
/// named after its path (`ldiv_cache_hits_total`; `_total` marks a
/// counter), with the same value, and no series is left over.
#[test]
fn stats_and_metrics_report_the_same_values() {
    let _guard = serial();
    let root = TempRoot::new("obs-drift");
    let server = store_server(&root);
    let send = |method: &str, path: &str, query: &[(&str, &str)], body: &[u8]| {
        let response = handle_request(server.state(), &request(method, path, query, body));
        assert!(response.status < 500, "{path}: {}", response.body);
        response.body
    };
    let csv = dataset_csv(300, 44);
    let tp = [("algo", "tp"), ("l", "3")];
    send("POST", "/anonymize", &tp, &csv);
    send("POST", "/anonymize", &tp, &csv);
    send("POST", "/sweep", &[("l", "3")], &csv);
    let fp = registered_fingerprint(&send("POST", "/datasets", &[], &csv));
    let text = String::from_utf8(csv.clone()).unwrap();
    let batch = text.lines().take(4).collect::<Vec<_>>().join("\n");
    send(
        "POST",
        &format!("/datasets/{fp}/append"),
        &[],
        batch.as_bytes(),
    );
    let publish = format!("/datasets/{fp}/publish");
    send("POST", &publish, &tp, b"");
    send("POST", &publish, &tp, b"");
    send("GET", "/nope", &[], b"");
    let scrape = send("GET", "/metrics", &[], b"");
    let stats = send("GET", "/stats", &[], b"");
    server.shutdown();

    if let Err((line, reason)) = validate_prometheus(&scrape) {
        panic!("scrape violates the line grammar at line {line}: {reason}");
    }
    // Histogram series are the labelled ones.
    let mut series: Vec<(&str, i64)> = scrape
        .lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{'))
        .map(|line| {
            let (name, value) = line.split_once(' ').unwrap();
            (name, value.parse().unwrap_or_else(|_| panic!("{line}")))
        })
        .collect();
    let Some(Json::Obj(fields)) = Json::parse(&stats) else {
        panic!("/stats is not a JSON object: {stats}");
    };
    let leaves = fields.into_iter().flat_map(|(key, value)| match value {
        Json::Obj(group) => group
            .into_iter()
            .map(|(leaf, value)| (format!("{key}.{leaf}"), value))
            .collect(),
        value => vec![(key, value)],
    });
    for (path, value) in leaves {
        let Json::Int(value) = value else {
            panic!("/stats {path} is not an integer: {value}");
        };
        let gauge = format!("ldiv_{}", path.replace('.', "_"));
        let counter = format!("{gauge}_total");
        let at = series
            .iter()
            .position(|(name, _)| *name == gauge || *name == counter)
            .unwrap_or_else(|| panic!("/stats {path} has no /metrics series"));
        let (name, reported) = series.swap_remove(at);
        let kind = if name == counter { "counter" } else { "gauge" };
        let typed = format!("# TYPE {name} {kind}\n");
        assert!(scrape.contains(&typed), "{name} is not a {kind}");
        // The /stats request, routed after the scrape, counted itself.
        let expected = if path == "requests" { value - 1 } else { value };
        assert_eq!(reported, expected, "/stats {path} vs /metrics {name}");
    }
    assert!(
        series.is_empty(),
        "series without a /stats value: {series:?}"
    );
}

/// `/metrics` of a fresh store-backed server's first request, byte for
/// byte: every series name, type, help text and value. The latency
/// histograms hold no observation yet (a request is timed after its
/// response renders), so the body is the sample list alone.
#[test]
fn a_fresh_store_backed_server_renders_the_pinned_metrics_text() {
    let _guard = serial();
    let root = TempRoot::new("obs-fresh-metrics");
    let server = store_server(&root);
    let metrics = handle_request(server.state(), &request("GET", "/metrics", &[], b""));
    server.shutdown();
    assert_eq!(metrics.body, PINNED_METRICS);
}

const PINNED_METRICS: &str = "\
# HELP ldiv_requests_total HTTP requests routed
# TYPE ldiv_requests_total counter
ldiv_requests_total 1
# HELP ldiv_anonymize_runs_total Anonymization runs executed (cache misses)
# TYPE ldiv_anonymize_runs_total counter
ldiv_anonymize_runs_total 0
# HELP ldiv_rejected_total Connections shed with 503 under overload
# TYPE ldiv_rejected_total counter
ldiv_rejected_total 0
# HELP ldiv_panics_caught_total Panics converted to errors at isolation boundaries
# TYPE ldiv_panics_caught_total counter
ldiv_panics_caught_total 0
# HELP ldiv_coalesced_total Requests served by joining an identical in-flight computation
# TYPE ldiv_coalesced_total counter
ldiv_coalesced_total 0
# HELP ldiv_workers Configured worker threads
# TYPE ldiv_workers gauge
ldiv_workers 2
# HELP ldiv_queue_depth Bounded connection queue depth
# TYPE ldiv_queue_depth gauge
ldiv_queue_depth 8
# HELP ldiv_run_threads Intra-run thread budget (0 = auto)
# TYPE ldiv_run_threads gauge
ldiv_run_threads 1
# HELP ldiv_run_shards Partition-level shards per run
# TYPE ldiv_run_shards gauge
ldiv_run_shards 1
# HELP ldiv_deadline_ms Per-request time budget in milliseconds (0 = unlimited)
# TYPE ldiv_deadline_ms gauge
ldiv_deadline_ms 60000
# HELP ldiv_pool_alive Worker threads currently alive
# TYPE ldiv_pool_alive gauge
ldiv_pool_alive 2
# HELP ldiv_pool_target Worker threads the pool keeps alive
# TYPE ldiv_pool_target gauge
ldiv_pool_target 2
# HELP ldiv_pool_worker_panics_total Panics that reached the worker loop
# TYPE ldiv_pool_worker_panics_total counter
ldiv_pool_worker_panics_total 0
# HELP ldiv_pool_respawned_total Workers respawned after a panic
# TYPE ldiv_pool_respawned_total counter
ldiv_pool_respawned_total 0
# HELP ldiv_store_datasets Datasets registered in the store
# TYPE ldiv_store_datasets gauge
ldiv_store_datasets 0
# HELP ldiv_store_segments Immutable segments on disk
# TYPE ldiv_store_segments gauge
ldiv_store_segments 0
# HELP ldiv_store_rows Rows on disk across all datasets
# TYPE ldiv_store_rows gauge
ldiv_store_rows 0
# HELP ldiv_store_shard_records Persisted per-shard results on disk
# TYPE ldiv_store_shard_records gauge
ldiv_store_shard_records 0
# HELP ldiv_store_persisted_responses Persisted publication responses on disk
# TYPE ldiv_store_persisted_responses gauge
ldiv_store_persisted_responses 0
# HELP ldiv_store_registers_total Datasets registered by this process
# TYPE ldiv_store_registers_total counter
ldiv_store_registers_total 0
# HELP ldiv_store_appends_total Segments appended by this process
# TYPE ldiv_store_appends_total counter
ldiv_store_appends_total 0
# HELP ldiv_store_appended_rows_total Rows ingested via append by this process
# TYPE ldiv_store_appended_rows_total counter
ldiv_store_appended_rows_total 0
# HELP ldiv_store_publishes_total Incremental publishes by this process
# TYPE ldiv_store_publishes_total counter
ldiv_store_publishes_total 0
# HELP ldiv_store_shards_computed_total Shards that ran the mechanism
# TYPE ldiv_store_shards_computed_total counter
ldiv_store_shards_computed_total 0
# HELP ldiv_store_shards_reused_total Shards reloaded from persisted results
# TYPE ldiv_store_shards_reused_total counter
ldiv_store_shards_reused_total 0
# HELP ldiv_store_segments_read_total Segment files parsed by this process
# TYPE ldiv_store_segments_read_total counter
ldiv_store_segments_read_total 0
# HELP ldiv_coalesce_in_flight Coalesced computations currently in flight
# TYPE ldiv_coalesce_in_flight gauge
ldiv_coalesce_in_flight 0
# HELP ldiv_coalesce_waiting Requests parked on an in-flight identical computation
# TYPE ldiv_coalesce_waiting gauge
ldiv_coalesce_waiting 0
# HELP ldiv_cache_hits_total Publication cache hits
# TYPE ldiv_cache_hits_total counter
ldiv_cache_hits_total 0
# HELP ldiv_cache_misses_total Publication cache misses
# TYPE ldiv_cache_misses_total counter
ldiv_cache_misses_total 0
# HELP ldiv_cache_entries Publication cache entries held
# TYPE ldiv_cache_entries gauge
ldiv_cache_entries 0
# HELP ldiv_cache_capacity Publication cache capacity in entries
# TYPE ldiv_cache_capacity gauge
ldiv_cache_capacity 16
# HELP ldiv_cache_evictions_total Publication cache evictions
# TYPE ldiv_cache_evictions_total counter
ldiv_cache_evictions_total 0
";

/// The route table, pinned: one `METHOD PATH -> status label` line per
/// method and path below, on a server holding one registered dataset,
/// every request bodiless. The label is the one the request was timed
/// under, read from its trace's `route` annotation.
#[test]
fn every_method_on_every_path_answers_the_pinned_status_and_label() {
    let _guard = serial();
    let root = TempRoot::new("obs-routes");
    let state = AppState::new(
        standard_registry(),
        ServerConfig {
            store_root: Some(root.0.clone()),
            ..ServerConfig::default()
        },
    );
    let registered = handle_request(
        &state,
        &request("POST", "/datasets", &[], &dataset_csv(40, 45)),
    );
    let fp = registered_fingerprint(&registered.body);
    obs::set_armed(true);
    let mut lines = String::new();
    for path in [
        "/healthz",
        "/mechanisms",
        "/stats",
        "/metrics",
        "/trace",
        "/anonymize",
        "/sweep",
        "/datasets",
        "/datasets/<fp>",
        "/datasets/<fp>/",
        "/datasets/<fp>/append",
        "/datasets/<fp>/publish",
        "/datasets/<fp>/bogus",
        "/datasets/0000000000000000",
        "/datasets/nope/append",
        "/nope",
    ] {
        for method in ["GET", "POST", "PUT", "DELETE"] {
            let target = path.replace("<fp>", &fp);
            let response = handle_request(&state, &request(method, &target, &[], b""));
            let id = header(&response, "X-Ldiv-Trace-Id").expect("armed tracing names the trace");
            let trace = obs::recent_traces(obs::TRACE_RING_CAP)
                .into_iter()
                .find(|trace| trace.id_hex() == id)
                .expect("the request's trace is in the ring");
            let label = trace
                .meta_value("route")
                .expect("every request is labelled");
            lines.push_str(&format!("{method} {path} -> {} {label}\n", response.status));
        }
    }
    obs::set_armed(false);
    // Leave the ring as the other tests expect to find it: their own
    // traces first.
    obs::clear_traces();
    assert_eq!(lines, PINNED_ROUTES);
}

const PINNED_ROUTES: &str = "\
GET /healthz -> 200 /healthz
POST /healthz -> 405 /healthz
PUT /healthz -> 405 /healthz
DELETE /healthz -> 405 /healthz
GET /mechanisms -> 200 /mechanisms
POST /mechanisms -> 405 /mechanisms
PUT /mechanisms -> 405 /mechanisms
DELETE /mechanisms -> 405 /mechanisms
GET /stats -> 200 /stats
POST /stats -> 405 /stats
PUT /stats -> 405 /stats
DELETE /stats -> 405 /stats
GET /metrics -> 200 /metrics
POST /metrics -> 405 /metrics
PUT /metrics -> 405 /metrics
DELETE /metrics -> 405 /metrics
GET /trace -> 200 /trace
POST /trace -> 405 /trace
PUT /trace -> 405 /trace
DELETE /trace -> 405 /trace
GET /anonymize -> 405 /anonymize
POST /anonymize -> 400 /anonymize
PUT /anonymize -> 405 /anonymize
DELETE /anonymize -> 405 /anonymize
GET /sweep -> 405 /sweep
POST /sweep -> 400 /sweep
PUT /sweep -> 405 /sweep
DELETE /sweep -> 405 /sweep
GET /datasets -> 200 /datasets
POST /datasets -> 400 /datasets
PUT /datasets -> 405 /datasets
DELETE /datasets -> 405 /datasets
GET /datasets/<fp> -> 200 /datasets/{fp}
POST /datasets/<fp> -> 405 /datasets/{fp}
PUT /datasets/<fp> -> 405 /datasets/{fp}
DELETE /datasets/<fp> -> 405 /datasets/{fp}
GET /datasets/<fp>/ -> 200 /datasets/{fp}
POST /datasets/<fp>/ -> 405 /datasets/{fp}
PUT /datasets/<fp>/ -> 405 /datasets/{fp}
DELETE /datasets/<fp>/ -> 405 /datasets/{fp}
GET /datasets/<fp>/append -> 405 /datasets/{fp}/append
POST /datasets/<fp>/append -> 400 /datasets/{fp}/append
PUT /datasets/<fp>/append -> 405 /datasets/{fp}/append
DELETE /datasets/<fp>/append -> 405 /datasets/{fp}/append
GET /datasets/<fp>/publish -> 405 /datasets/{fp}/publish
POST /datasets/<fp>/publish -> 400 /datasets/{fp}/publish
PUT /datasets/<fp>/publish -> 405 /datasets/{fp}/publish
DELETE /datasets/<fp>/publish -> 405 /datasets/{fp}/publish
GET /datasets/<fp>/bogus -> 404 other
POST /datasets/<fp>/bogus -> 404 other
PUT /datasets/<fp>/bogus -> 404 other
DELETE /datasets/<fp>/bogus -> 404 other
GET /datasets/0000000000000000 -> 404 /datasets/{fp}
POST /datasets/0000000000000000 -> 405 /datasets/{fp}
PUT /datasets/0000000000000000 -> 405 /datasets/{fp}
DELETE /datasets/0000000000000000 -> 405 /datasets/{fp}
GET /datasets/nope/append -> 404 /datasets/{fp}/append
POST /datasets/nope/append -> 404 /datasets/{fp}/append
PUT /datasets/nope/append -> 404 /datasets/{fp}/append
DELETE /datasets/nope/append -> 404 /datasets/{fp}/append
GET /nope -> 404 other
POST /nope -> 404 other
PUT /nope -> 404 other
DELETE /nope -> 404 other
";
