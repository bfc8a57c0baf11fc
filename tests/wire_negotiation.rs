//! Content-negotiation tests for the LDVW binary wire format across
//! the HTTP surface (`?format=bin` / `Accept: application/x-ldiv-bin`).
//!
//! Negotiation is strictly a post-render transform, so everything the
//! JSON face promises must hold unchanged:
//!
//! * default responses (no negotiation) are plain `application/json`;
//! * a negotiated binary body decodes to exactly the value the JSON
//!   face renders, on `/anonymize`, `/sweep`, and the `/datasets`
//!   family alike;
//! * the explicit `?format=` query beats the `Accept` header in both
//!   directions;
//! * 4xx/5xx bodies stay JSON even when binary was requested, so a
//!   failing client always gets readable text;
//! * non-JSON routes (`/metrics`) ignore negotiation entirely;
//! * tracing is format-blind: `X-Ldiv-Trace-Id` and the per-route
//!   histogram labels are identical under `LDIV_TRACE=1`-style arming.

mod common;

use common::{csv_of, dataset_csv, serial, TempRoot};
use ldiversity::microdata::samples;
use ldiversity::obs;
use ldiversity::server::{handle_request, AppState, Request, Response, ServerConfig};
use ldiversity::standard_registry;
use ldiversity::wire::{decode, Json, HEADER_LEN, MAGIC};

fn request(
    method: &str,
    path: &str,
    query: &[(&str, &str)],
    headers: &[(&str, &str)],
    body: &[u8],
) -> Request {
    let mut request = common::request(method, path, query, body);
    request.headers = headers
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    request
}

fn fresh_state() -> AppState {
    AppState::new(standard_registry(), ServerConfig::default())
}

fn store_state(root: &std::path::Path) -> AppState {
    AppState::new(
        standard_registry(),
        ServerConfig {
            store_root: Some(root.to_path_buf()),
            ..ServerConfig::default()
        },
    )
}

/// The negotiated binary payload of a 2xx response, decoded.
fn decoded_bin(response: &Response) -> Json {
    assert!(response.status < 400, "{}", response.body);
    assert_eq!(response.content_type, "application/x-ldiv-bin");
    let bytes = response
        .bytes
        .as_ref()
        .expect("binary response carries bytes");
    assert_eq!(&bytes[..4], &MAGIC, "framed as an LDVW block");
    assert!(bytes.len() > HEADER_LEN);
    assert!(
        response.body.is_empty(),
        "binary response must not also carry text"
    );
    decode(bytes).expect("negotiated payload decodes")
}

/// A plain default-JSON 2xx response, parsed.
fn parsed_json(response: &Response) -> Json {
    assert!(response.status < 400, "{}", response.body);
    assert_eq!(response.content_type, "application/json");
    assert!(
        response.bytes.is_none(),
        "JSON response has no byte payload"
    );
    Json::parse(&response.body).expect("JSON body parses")
}

/// `/anonymize`: the three ways to ask for binary all decode to exactly
/// the value the default JSON face renders, and the explicit `?format=`
/// query overrides the `Accept` header in both directions. Every
/// compared request runs on a fresh state so each sees a cold cache
/// (`"cached":false`) — negotiation itself must not warm anything.
#[test]
fn anonymize_negotiates_binary_against_an_identical_json_face() {
    let csv = dataset_csv(400, 41);
    let q = [("algo", "tp"), ("l", "3")];

    let default = handle_request(
        &fresh_state(),
        &request("POST", "/anonymize", &q, &[], &csv),
    );
    let json_value = parsed_json(&default);
    assert_eq!(json_value.get("cached"), Some(&Json::Bool(false)));

    let by_query = handle_request(
        &fresh_state(),
        &request(
            "POST",
            "/anonymize",
            &[("algo", "tp"), ("l", "3"), ("format", "bin")],
            &[],
            &csv,
        ),
    );
    assert_eq!(decoded_bin(&by_query), json_value);

    let by_accept = handle_request(
        &fresh_state(),
        &request(
            "POST",
            "/anonymize",
            &q,
            &[("accept", "application/x-ldiv-bin")],
            &csv,
        ),
    );
    assert_eq!(decoded_bin(&by_accept), json_value);

    // Accept lists with parameters and other types still negotiate.
    let by_accept_list = handle_request(
        &fresh_state(),
        &request(
            "POST",
            "/anonymize",
            &q,
            &[("accept", "text/html, application/x-ldiv-bin;q=0.9")],
            &csv,
        ),
    );
    assert_eq!(decoded_bin(&by_accept_list), json_value);

    // Explicit ?format=json wins over an Accept asking for binary.
    let query_wins = handle_request(
        &fresh_state(),
        &request(
            "POST",
            "/anonymize",
            &[("algo", "tp"), ("l", "3"), ("format", "json")],
            &[("accept", "application/x-ldiv-bin")],
            &csv,
        ),
    );
    assert_eq!(parsed_json(&query_wins), json_value);

    // The binary request's bytes are exactly encode(json face): byte
    // equality, not just value equality.
    assert_eq!(
        by_query.bytes.as_deref().unwrap(),
        ldiversity::wire::encode(&json_value).as_slice()
    );
}

/// `/sweep` and the `/datasets` family negotiate like `/anonymize`:
/// the binary body decodes to the cold JSON face. Dataset comparisons
/// run against twin store roots replaying the same history, so both
/// sides are deterministic and cold.
#[test]
fn sweep_and_dataset_routes_negotiate_binary() {
    let csv = dataset_csv(400, 43);

    let sweep_json = parsed_json(&handle_request(
        &fresh_state(),
        &request("POST", "/sweep", &[("l", "3")], &[], &csv),
    ));
    let sweep_bin = decoded_bin(&handle_request(
        &fresh_state(),
        &request(
            "POST",
            "/sweep",
            &[("l", "3"), ("format", "bin")],
            &[],
            &csv,
        ),
    ));
    assert_eq!(sweep_bin, sweep_json);

    // Twin store roots, same history: register → list → info → publish.
    let hospital = csv_of(&samples::hospital());
    let json_root = TempRoot::new("json");
    let bin_root = TempRoot::new("bin");
    let json_state = store_state(&json_root.0);
    let bin_state = store_state(&bin_root.0);

    let reg_json = parsed_json(&handle_request(
        &json_state,
        &request("POST", "/datasets", &[], &[], &hospital),
    ));
    let reg_bin = decoded_bin(&handle_request(
        &bin_state,
        &request("POST", "/datasets", &[("format", "bin")], &[], &hospital),
    ));
    assert_eq!(reg_bin, reg_json);
    let fp = match reg_json.get("dataset") {
        Some(Json::Str(fp)) => fp.clone(),
        other => panic!("no fingerprint in register response: {other:?}"),
    };

    let list_json = parsed_json(&handle_request(
        &json_state,
        &request("GET", "/datasets", &[], &[], b""),
    ));
    let list_bin = decoded_bin(&handle_request(
        &bin_state,
        &request(
            "GET",
            "/datasets",
            &[],
            &[("accept", "application/x-ldiv-bin")],
            b"",
        ),
    ));
    assert_eq!(list_bin, list_json);

    let info_path = format!("/datasets/{fp}");
    let info_json = parsed_json(&handle_request(
        &json_state,
        &request("GET", &info_path, &[], &[], b""),
    ));
    let info_bin = decoded_bin(&handle_request(
        &bin_state,
        &request("GET", &info_path, &[("format", "bin")], &[], b""),
    ));
    assert_eq!(info_bin, info_json);

    let publish_path = format!("/datasets/{fp}/publish");
    let publish_q = [("algo", "tp+"), ("l", "2")];
    let publish_json = parsed_json(&handle_request(
        &json_state,
        &request("POST", &publish_path, &publish_q, &[], b""),
    ));
    let publish_bin = decoded_bin(&handle_request(
        &bin_state,
        &request(
            "POST",
            &publish_path,
            &[("algo", "tp+"), ("l", "2"), ("format", "bin")],
            &[],
            b"",
        ),
    ));
    assert_eq!(publish_bin, publish_json);
}

/// Failures stay readable: 4xx/5xx bodies are JSON even when the
/// client negotiated binary, on plain and store-backed states alike.
#[test]
fn errors_stay_json_even_when_binary_is_requested() {
    let csv = dataset_csv(200, 47);
    let state = fresh_state();

    let cases = [
        // Unknown mechanism → 404.
        request(
            "POST",
            "/anonymize",
            &[("algo", "nope"), ("l", "3"), ("format", "bin")],
            &[("accept", "application/x-ldiv-bin")],
            &csv,
        ),
        // Missing parameters → 400.
        request("POST", "/anonymize", &[("format", "bin")], &[], &csv),
        // No store root configured → 400 on the datasets family.
        request("POST", "/datasets", &[("format", "bin")], &[], &csv),
        // Unknown route → 404.
        request(
            "GET",
            "/no-such-route",
            &[("format", "bin")],
            &[("accept", "application/x-ldiv-bin")],
            b"",
        ),
    ];
    for req in &cases {
        let response = handle_request(&state, req);
        assert!(
            response.status >= 400,
            "{} {} should fail: {}",
            req.method,
            req.path,
            response.body
        );
        assert_eq!(
            response.content_type, "application/json",
            "{} {}: error body must stay JSON",
            req.method, req.path
        );
        assert!(response.bytes.is_none());
        let body = Json::parse(&response.body).expect("error body parses");
        assert!(body.get("kind").is_some(), "{}", response.body);
    }
}

/// Non-JSON routes ignore negotiation: `/metrics` keeps its Prometheus
/// text face whatever the client asks for.
#[test]
fn metrics_ignores_binary_negotiation() {
    let state = fresh_state();
    let response = handle_request(
        &state,
        &request(
            "GET",
            "/metrics",
            &[("format", "bin")],
            &[("accept", "application/x-ldiv-bin")],
            b"",
        ),
    );
    assert_eq!(response.status, 200);
    assert!(
        response.content_type.starts_with("text/plain"),
        "{}",
        response.content_type
    );
    assert!(response.bytes.is_none());
    assert!(response.body.contains("ldiv_requests_total"));
}

/// Tracing is format-blind: with arming on, a binary `/anonymize`
/// still carries `X-Ldiv-Trace-Id`, and the latency histogram files it
/// under the same `route="/anonymize"` label as JSON traffic — the
/// format never becomes a label dimension.
#[test]
fn trace_header_and_route_labels_are_format_blind() {
    let _guard = serial();
    obs::set_armed(true);
    let csv = dataset_csv(300, 53);
    let state = fresh_state();

    let json_response = handle_request(
        &state,
        &request(
            "POST",
            "/anonymize",
            &[("algo", "tp"), ("l", "3")],
            &[],
            &csv,
        ),
    );
    let bin_response = handle_request(
        &state,
        &request(
            "POST",
            "/anonymize",
            &[("algo", "tp"), ("l", "3"), ("format", "bin")],
            &[],
            &csv,
        ),
    );
    obs::set_armed(false);

    for response in [&json_response, &bin_response] {
        assert!(
            response
                .headers
                .iter()
                .any(|(k, _)| *k == "X-Ldiv-Trace-Id"),
            "missing trace id header"
        );
    }
    assert_eq!(
        decoded_bin(&bin_response).get("mechanism"),
        Some(&Json::Str("tp".into()))
    );

    // Both requests landed in the one route bucket; no format label.
    let metrics = handle_request(&state, &request("GET", "/metrics", &[], &[], b""));
    assert!(
        metrics
            .body
            .contains("ldiv_request_duration_seconds_count{route=\"/anonymize\"} 2"),
        "{}",
        metrics.body
    );
    assert!(!metrics.body.contains("fmt="), "{}", metrics.body);
    assert!(!metrics.body.contains("format="), "{}", metrics.body);
}
