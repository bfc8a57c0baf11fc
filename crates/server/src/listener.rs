//! The TCP listener, request routing and server lifecycle.
//!
//! Architecture: one accept thread owns the `TcpListener` and hands each
//! accepted connection to the [`WorkerPool`]; when the bounded queue is
//! full the accept thread itself answers `503` and closes, so overload
//! degrades loudly instead of queueing unboundedly. Routing
//! ([`handle_request`]) is a pure function from request to response over
//! the shared [`AppState`], which keeps every route unit-testable without
//! sockets.
//!
//! Routes — the patterns are `route_of`'s table, and each one is both
//! the request's dispatch key and its latency label. A path that names a
//! route answers 405 for any method the route doesn't serve; any other
//! path answers 404.
//!
//! | Route | Behaviour |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /mechanisms` | registered mechanisms + descriptions |
//! | `GET /stats` | request, cache, coalesce, pool and store values |
//! | `GET /metrics` | the same values in Prometheus text, plus latency histograms |
//! | `GET /trace[?n=N]` | the last `N` completed request traces as span trees |
//! | `POST /anonymize?algo=A&l=L[&fanout=F][&dataset=PATH]` | CSV body (or dataset file) → JSON publication summary |
//! | `POST /sweep?l=L[&fanout=F][&dataset=PATH]` | every registered mechanism in parallel |
//! | `POST /datasets` | CSV body → register in the persistent store (idempotent by content) |
//! | `GET /datasets` | registered datasets with segment/row counts |
//! | `GET /datasets/{fp}` | one dataset's segment history |
//! | `POST /datasets/{fp}/append` | CSV body → new immutable segment |
//! | `POST /datasets/{fp}/publish?algo=A&l=L[&fanout=F]` | incremental re-publication (per-shard result reuse) |
//!
//! The `/datasets` family requires a store root
//! (`ldiv serve --store-root DIR`); without one those routes answer 400.
//! A publish response is byte-identical to `POST /anonymize` over the
//! same rows — reuse shows up only in `/stats` and `/metrics` counters,
//! never in the body.

use crate::cache::{CacheKey, LruCache};
use crate::coalesce::{Outcome, SingleFlight};
use crate::http::{parse_head, read_body, HttpError, Request, Response};
use crate::jobs::{PoolHealth, WorkerPool};
use crate::wire;
use ldiv_api::{Deadline, LdivError, Mechanism, MechanismRegistry, Params, Publication};
use ldiv_guard::{classify_panic, guarded};
use ldiv_metrics::kl_divergence_with;
use ldiv_microdata::{read_csv_with, Table};
use ldiv_obs::registry::write_metric;
use ldiv_obs::{Counter, HistogramFamily, Registry as MetricsRegistry, Sample};
use ldiv_store::{fingerprint_hex, DatasetStore, StoreError};
use ldiv_wire::Json;
use std::borrow::Borrow;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads handling requests (min 1, clamped on use).
    pub workers: usize,
    /// Bounded depth of the connection queue (overflow → 503; min 1,
    /// clamped on use).
    pub queue_depth: usize,
    /// Publication-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Intra-run thread budget applied to every anonymization run this
    /// server performs (`0` = the machine's parallelism, `1` =
    /// sequential). Execution-only: responses and cache keys are
    /// identical for every budget, so this knob trades single-request
    /// latency against concurrent-request throughput without any
    /// behavioural effect.
    pub threads: u32,
    /// Partition-level shard count applied to every run (`0` or `1` =
    /// unsharded; `K > 1` splits each table K ways and stitches with
    /// eligibility repair). An operator knob like
    /// [`threads`](ServerConfig::threads), but **output-affecting**: the
    /// resolved count participates in `Params::canonical`, so cached
    /// publications never alias across shard configurations.
    pub shards: u32,
    /// Per-request time budget in milliseconds (`0` = unlimited). The
    /// budget is anchored when a request's parameters are parsed and
    /// covers the CSV parse and the whole run; an expiry surfaces as a
    /// 504 with kind `deadline_exceeded`. Execution-only, like
    /// [`threads`](ServerConfig::threads): a deadline never changes a
    /// published byte, so it stays out of cache keys.
    pub deadline_ms: u64,
    /// Directory `?dataset=PATH` references resolve under. `None`
    /// (default) disables dataset references entirely: a network-exposed
    /// service must not open arbitrary server-side paths on request.
    pub dataset_root: Option<std::path::PathBuf>,
    /// Root directory of the persistent dataset store backing the
    /// `/datasets` routes. `None` (default) disables the store: the
    /// routes answer 400 and nothing is written to disk. When set, the
    /// store also persists publication-cache entries for `publish`
    /// responses, which are reloaded into the cache at startup — the
    /// cache survives restarts for store-backed requests.
    pub store_root: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(4),
            queue_depth: 64,
            cache_capacity: 256,
            // Sequential per run by default: the worker pool already
            // saturates the machine across requests; operators serving
            // few, huge tables can raise this (or set 0 for auto).
            threads: 1,
            // Unsharded: sharding changes output, so it stays opt-in.
            shards: 1,
            deadline_ms: 0,
            dataset_root: None,
            store_root: None,
        }
    }
}

impl ServerConfig {
    /// The configuration as actually run: the worker pool needs at least
    /// one thread and a queue depth of at least one, and a run shards
    /// into `1..=MAX_SHARDS` pieces, so those bounds are applied here —
    /// keeping what `/stats` and banners report in sync with the pool's
    /// behaviour and the cache keys.
    fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.shards = Params::new(1).with_shards(self.shards).resolved_shards();
        self
    }
}

/// One publication-cache line: the stored summary (its `"cached": false`
/// face, exactly as first computed) plus the lazily encoded LDVW block
/// shared by every hit. The block encodes the *hit* face
/// (`"cached": true`) — the only face a cached binary response serves —
/// and is built at most once per cache line, so repeated binary hits
/// stop paying a re-encode. Cloning shares the block.
#[derive(Clone)]
struct CachedPublication {
    summary: Json,
    bin: Arc<OnceLock<Vec<u8>>>,
}

/// A publication result ready for wire negotiation: the JSON summary to
/// render, plus — when it was served from the cache — the shared handle
/// to the line's encoded LDVW block. Fresh results carry no handle and
/// negotiate binary through [`finalize_wire`] exactly as before; the
/// wire format stays absent from the cache key either way.
struct Served {
    summary: Json,
    bin: Option<Arc<OnceLock<Vec<u8>>>>,
    /// Whether this request ran the mechanism itself: a miss it led,
    /// not a hit or a joined flight. Publish persists only these lines.
    computed: bool,
}

/// Everything the routes share: the registry, the publication cache and
/// the counters.
pub struct AppState {
    registry: MechanismRegistry,
    cache: Mutex<LruCache<CachedPublication>>,
    /// In-flight single-flight table: concurrent identical misses
    /// coalesce onto one computation. Rides the publication cache —
    /// disabled (never consulted) when `cache_capacity` is 0.
    flights: SingleFlight,
    config: ServerConfig,
    store: Option<Arc<DatasetStore>>,
    /// The server's own counters and latency histograms. Each scrape
    /// lists the counters together with the values other owners hold
    /// ([`samples`]), and `/stats` and `/metrics` both render that one
    /// list, `/metrics` under the name [`Sample::name`] derives from
    /// each `/stats` path, so the two surfaces can't drift.
    metrics: MetricsRegistry,
    requests: Counter,
    anonymize_runs: Counter,
    rejected: Counter,
    panics_caught: Counter,
    coalesced: Counter,
    request_hist: Arc<HistogramFamily>,
    run_hist: Arc<HistogramFamily>,
    pool_health: OnceLock<Arc<PoolHealth>>,
}

impl AppState {
    /// State over a registry with the given configuration (normalized:
    /// worker/queue floors applied). When the configuration names a
    /// store root, the store is opened and any persisted publication
    /// responses are reloaded into the cache — store-backed cache
    /// entries survive restarts.
    ///
    /// # Panics
    /// Panics when a configured store root cannot be created or opened —
    /// an unusable store is a deployment error the server must surface
    /// at startup, not at first request.
    pub fn new(registry: MechanismRegistry, config: ServerConfig) -> Self {
        let config = config.normalized();
        let store = config.store_root.as_ref().map(|root| {
            let store = DatasetStore::open(root)
                .unwrap_or_else(|e| panic!("store root {}: {e}", root.display()));
            Arc::new(store)
        });
        let cache = LruCache::new(config.cache_capacity);
        let metrics = MetricsRegistry::new();
        // Registration order IS the order of the counters on `/stats`
        // and `/metrics`; keep it stable.
        let requests = metrics.counter("requests", "HTTP requests routed");
        let anonymize_runs = metrics.counter(
            "anonymize_runs",
            "Anonymization runs executed (cache misses)",
        );
        let rejected = metrics.counter("rejected", "Connections shed with 503 under overload");
        let panics_caught = metrics.counter(
            "panics_caught",
            "Panics converted to errors at isolation boundaries",
        );
        let coalesced = metrics.counter(
            "coalesced",
            "Requests served by joining an identical in-flight computation",
        );
        let request_hist = metrics.histogram(
            "ldiv_request_duration_seconds",
            "Request latency by route (log2 buckets).",
            "route",
        );
        let run_hist = metrics.histogram(
            "ldiv_run_duration_seconds",
            "Anonymization run latency by mechanism (log2 buckets).",
            "mechanism",
        );
        let state = AppState {
            registry,
            cache: Mutex::new(cache),
            flights: SingleFlight::new(),
            config,
            store,
            metrics,
            requests,
            anonymize_runs,
            rejected,
            panics_caught,
            coalesced,
            request_hist,
            run_hist,
            pool_health: OnceLock::new(),
        };
        if let Some(store) = &state.store {
            // Reload persisted publish responses (rendered with
            // `"cached": false`; `lookup_cached` flips the flag on hits).
            // Entries that no longer parse are skipped — a corrupt file
            // costs a recompute, never a failed startup.
            for entry in store.load_responses() {
                if let Some(summary) = Json::parse(&entry.body) {
                    let key = CacheKey {
                        dataset: entry.dataset,
                        mechanism: entry.mechanism,
                        params: entry.params,
                    };
                    state.remember(key, summary);
                }
            }
        }
        state
    }

    /// The mechanism registry the server dispatches into.
    pub fn registry(&self) -> &MechanismRegistry {
        &self.registry
    }

    /// The normalized configuration the service is running with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The persistent dataset store, when a store root is configured.
    pub fn store(&self) -> Option<&Arc<DatasetStore>> {
        self.store.as_ref()
    }

    /// The publication cache, with lock poisoning recovered rather than
    /// propagated: a panic elsewhere while the lock was held must not
    /// turn every later request into a crash. Safe here because cache
    /// mutations are single `get`/`insert` calls whose internal state is
    /// consistent between statements, and a torn entry at worst costs a
    /// recomputation.
    fn lock_cache(&self) -> MutexGuard<'_, LruCache<CachedPublication>> {
        self.cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Cache counters (also on `GET /stats`).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.lock_cache().stats()
    }

    /// Stores a publication summary (its `"cached": false` face) as a
    /// cache line.
    fn remember(&self, key: CacheKey, summary: Json) {
        let line = CachedPublication {
            summary,
            bin: Arc::new(OnceLock::new()),
        };
        self.lock_cache().insert(key, line);
    }

    /// Wires the worker pool's health gauge into `/stats` (done once by
    /// [`Server::bind`]; states without a pool simply omit the field).
    pub fn attach_pool_health(&self, health: Arc<PoolHealth>) {
        let _ = self.pool_health.set(health);
    }

    /// The `/stats` document (also what the CLI logs as its final
    /// drain summary on shutdown).
    pub fn stats_json(&self) -> Json {
        stats_json(self)
    }

    fn count_rejected(&self) {
        self.rejected.inc();
    }

    /// Counts an error that came out of a `guarded` boundary when it was
    /// a converted panic ([`LdivError::Internal`] is only ever produced
    /// that way on the request paths). Feeds the top-level
    /// `panics_caught` gauge on `/stats`.
    fn count_if_panic(&self, err: &LdivError) {
        if matches!(err, LdivError::Internal(_)) {
            self.panics_caught.inc();
        }
    }
}

/// HTTP status for a domain error.
fn status_for(err: &LdivError) -> u16 {
    match err {
        LdivError::Usage(_) | LdivError::Io(_) => 400,
        LdivError::UnknownMechanism { .. } => 404,
        LdivError::Infeasible(_) | LdivError::InvalidL(_) | LdivError::InvalidParams(_) => 422,
        LdivError::Algorithm(_) | LdivError::Internal(_) => 500,
        LdivError::DeadlineExceeded => 504,
    }
}

/// The response for a domain error, counting it when it was a converted
/// panic.
fn error_response(state: &AppState, err: &LdivError) -> Response {
    state.count_if_panic(err);
    Response::json(status_for(err), wire::error_json(err).render())
}

fn usage(msg: impl Into<String>) -> LdivError {
    LdivError::Usage(msg.into())
}

/// A `usage`-kind error response with an explicit status: routing
/// misses and HTTP framing errors, which no domain error maps onto.
fn usage_response(status: u16, msg: impl Into<String>) -> Response {
    Response::json(status, wire::error_json(&usage(msg)).render())
}

fn method_not_allowed(req: &Request) -> Response {
    usage_response(
        405,
        format!("method {} not allowed on {}", req.method, req.path),
    )
}

fn no_route(req: &Request) -> Response {
    usage_response(404, format!("no route for '{}'", req.path))
}

/// The paths outside `/datasets/` that name a route.
const FIXED_ROUTES: [&str; 8] = [
    "/healthz",
    "/mechanisms",
    "/stats",
    "/metrics",
    "/trace",
    "/anonymize",
    "/sweep",
    "/datasets",
];

/// The route table: a path's route pattern, `None` for an unknown path,
/// plus the `{fp}` text of a path under `/datasets/`. The pattern is
/// both the dispatch key and the label on
/// `ldiv_request_duration_seconds`, whose cardinality it bounds (raw
/// paths would let a client mint label values).
fn route_of(path: &str) -> (Option<&'static str>, Option<&str>) {
    let Some(tail) = path.strip_prefix("/datasets/") else {
        return (FIXED_ROUTES.into_iter().find(|route| *route == path), None);
    };
    let (fp, action) = tail.split_once('/').unwrap_or((tail, ""));
    let route = match action {
        "" => Some("/datasets/{fp}"),
        "append" => Some("/datasets/{fp}/append"),
        "publish" => Some("/datasets/{fp}/publish"),
        _ => None,
    };
    (route, Some(fp))
}

/// Records the request's latency into the route histogram on drop — an
/// unwind (a panic that escapes every inner boundary) still counts.
struct RouteTimer<'a> {
    family: &'a HistogramFamily,
    route: &'static str,
    start: Instant,
}

impl Drop for RouteTimer<'_> {
    fn drop(&mut self) {
        self.family.observe(self.route, self.start.elapsed());
    }
}

/// Routes one parsed request. Pure over `state` — no sockets involved —
/// so every route is directly testable.
pub fn handle_request(state: &AppState, req: &Request) -> Response {
    // Fallback trace for direct callers (tests, the CLI's in-process
    // dispatch): on the socket path `serve_connection` began the trace
    // before parsing, this returns None, and the outer trace wins.
    let _trace = ldiv_obs::begin("request");
    let (route, fp) = route_of(&req.path);
    let label = route.unwrap_or("other");
    ldiv_obs::annotate("route", label.to_string());
    let _timer = RouteTimer {
        family: &state.request_hist,
        route: label,
        start: Instant::now(),
    };
    state.requests.inc();
    let response = finalize_wire(req, route_request(state, req, route, fp));
    ldiv_obs::annotate("status", response.status.to_string());
    match ldiv_obs::current_trace_id_hex() {
        Some(id) => response.with_header("X-Ldiv-Trace-Id", id),
        None => response,
    }
}

/// Applies wire-format negotiation to a routed response.
///
/// Strictly a post-render transform: routing, the publication cache and
/// canonical params have already run on the JSON face, so negotiation
/// can never perturb a cache key or a default body. When the client
/// asked for binary (`?format=bin` or `Accept: application/x-ldiv-bin`)
/// and the response is a JSON 2xx, the body is re-encoded as one LDVW
/// block. Error bodies stay JSON so a failing client always gets
/// readable text.
fn finalize_wire(req: &Request, response: Response) -> Response {
    if response.content_type != "application/json" || response.status >= 400 || !wants_binary(req) {
        return response;
    }
    let Some(value) = Json::parse(&response.body) else {
        return response;
    };
    let _render = ldiv_obs::span_labeled("wire:render", || "bin".to_string());
    response.into_binary(ldiv_wire::encode(&value))
}

/// Whether the request negotiated the binary wire format. The explicit
/// `?format=` query wins over the `Accept` header in both directions.
fn wants_binary(req: &Request) -> bool {
    match req.query_param("format") {
        Some("bin") => return true,
        Some(_) => return false,
        None => {}
    }
    req.header("accept").is_some_and(|accept| {
        accept.split(',').any(|part| {
            part.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .eq_ignore_ascii_case("application/x-ldiv-bin")
        })
    })
}

/// Dispatches a request on its [`route_of`] pattern. A malformed
/// fingerprint answers 404 whatever the method, an unknown path 404,
/// and a known route 405 for any method it doesn't serve. Store errors
/// map onto statuses in [`store_error_response`].
fn route_request(
    state: &AppState,
    req: &Request,
    route: Option<&'static str>,
    fp: Option<&str>,
) -> Response {
    let parsed = fp.map(|text| ldiv_store::parse_fingerprint(text).ok_or(text));
    let fp = match parsed.transpose() {
        Ok(fp) => fp,
        Err(text) => {
            let msg = format!("'{text}' is not a dataset fingerprint (16 hex digits)");
            return usage_response(404, msg);
        }
    };
    let Some(route) = route else {
        return no_route(req);
    };
    match (req.method.as_str(), route, fp) {
        ("GET", "/healthz", _) => Response::json(200, Json::obj().field("status", "ok").render()),
        ("GET", "/mechanisms", _) => {
            Response::json(200, wire::mechanisms_json(&state.registry).render())
        }
        ("GET", "/stats", _) => Response::json(200, stats_json(state).render()),
        ("GET", "/metrics", _) => Response::metrics_text(200, metrics_text(state)),
        ("GET", "/trace", _) => Response::json(200, trace_json(req).render()),
        ("POST", "/anonymize", _) => match anonymize_route(state, req) {
            Ok(served) => respond_publication(req, served),
            Err(e) => error_response(state, &e),
        },
        ("POST", "/sweep", _) => match sweep_route(state, req) {
            Ok(json) => Response::json(200, render_summary(json)),
            Err(e) => error_response(state, &e),
        },
        ("POST", "/datasets", _) => store_response(state, register_route(state, req)),
        ("GET", "/datasets", _) => store_response(state, list_datasets_route(state)),
        ("GET", "/datasets/{fp}", Some(fp)) => store_response(state, dataset_info_route(state, fp)),
        ("POST", "/datasets/{fp}/append", Some(fp)) => {
            store_response(state, append_route(state, req, fp))
        }
        // Publish returns a `Served` (it fronts the publication cache
        // and may carry the line's encoded-block handle), so it renders
        // through the shared publication door.
        ("POST", "/datasets/{fp}/publish", Some(fp)) => match publish_route(state, req, fp) {
            Ok(served) => respond_publication(req, served),
            Err(e) => store_error_response(state, e),
        },
        _ => method_not_allowed(req),
    }
}

/// Renders a publication summary under a `wire:render` span (the last
/// pipeline stage a trace sees before `http:write`). The span's `fmt`
/// label says which face was rendered; binary negotiation adds a second
/// `wire:render` span labeled `bin` in [`finalize_wire`].
fn render_summary(json: Json) -> String {
    let _render = ldiv_obs::span_labeled("wire:render", || "json".to_string());
    json.render()
}

/// Turns a publication result into its response.
///
/// The JSON face renders under the usual `wire:render` span and then
/// negotiates through [`finalize_wire`] like any other route. A cache
/// *hit* that negotiated binary short-circuits: it serves the cache
/// line's shared LDVW block, encoding it on first use, so repeated
/// binary hits stop re-encoding the same summary. The block's bytes are
/// identical to what [`finalize_wire`] would produce —
/// `encode ∘ parse ∘ render = encode` by the gated round-trip
/// identities — so which path a response took is unobservable on the
/// wire.
fn respond_publication(req: &Request, served: Served) -> Response {
    if let Some(bin) = &served.bin {
        if wants_binary(req) {
            let _render = ldiv_obs::span_labeled("wire:render", || "bin".to_string());
            let block = bin
                .get_or_init(|| ldiv_wire::encode(&served.summary))
                .clone();
            return Response::json(200, String::new()).into_binary(block);
        }
    }
    Response::json(200, render_summary(served.summary))
}

/// The `GET /trace` document: the last `n` completed traces (default 16,
/// capped by the ring size), oldest first, each as a span tree. Rendering
/// is deterministic — spans are keyed by creation order, durations are
/// integer nanoseconds, and metadata keeps insertion order.
fn trace_json(req: &Request) -> Json {
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16)
        .clamp(1, ldiv_obs::TRACE_RING_CAP);
    let traces = ldiv_obs::recent_traces(n);
    Json::obj().field("armed", ldiv_obs::armed()).field(
        "traces",
        Json::Arr(traces.iter().map(|t| finished_trace_json(t)).collect()),
    )
}

fn finished_trace_json(trace: &ldiv_obs::FinishedTrace) -> Json {
    let mut meta = Json::obj();
    let mut seen: Vec<&str> = Vec::new();
    for (key, value) in &trace.meta {
        if seen.contains(key) {
            continue; // first annotation wins; keys stay unique
        }
        seen.push(key);
        meta = meta.field(key, value.as_str());
    }
    Json::obj()
        .field("id", trace.id_hex())
        .field("name", trace.name)
        .field("wall_ns", trace.wall_ns as i64)
        .field("leaf_ns", trace.leaf_total_ns() as i64)
        .field("meta", meta)
        .field("spans", Json::Arr(span_tree(trace, 0)))
}

fn span_tree(trace: &ldiv_obs::FinishedTrace, parent: u32) -> Vec<Json> {
    trace
        .spans
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| {
            Json::obj()
                .field("name", s.name)
                .field("label", s.label.as_str())
                .field("start_ns", s.start_ns as i64)
                .field("dur_ns", s.dur_ns as i64)
                .field("children", Json::Arr(span_tree(trace, s.id)))
        })
        .collect()
}

/// The response of a plain-JSON `/datasets` route.
fn store_response(state: &AppState, result: Result<Json, StoreError>) -> Response {
    match result {
        Ok(json) => Response::json(200, json.render()),
        Err(e) => store_error_response(state, e),
    }
}

/// Maps a store-route failure onto its response: `NotFound` → 404,
/// anything else through the shared domain-error mapping.
fn store_error_response(state: &AppState, e: StoreError) -> Response {
    match e {
        StoreError::NotFound(fp) => usage_response(
            404,
            format!("dataset {} is not registered", fingerprint_hex(fp)),
        ),
        e => error_response(state, &LdivError::from(e)),
    }
}

/// The store behind the `/datasets` routes, or the 400 telling the
/// operator how to enable it.
fn store_of(state: &AppState) -> Result<&Arc<DatasetStore>, StoreError> {
    state.store.as_ref().ok_or_else(|| {
        usage(
            "dataset store is disabled: start the server with a store root \
             (`ldiv serve --store-root DIR`)",
        )
        .into()
    })
}

/// Parameters for ingestion work (register/append): no `l` involved, but
/// the CSV parse still honours the server's thread budget and request
/// deadline, exactly like `table_from` does for the one-shot routes.
fn ingest_exec(state: &AppState) -> ldiv_exec::Executor {
    Params::new(1)
        .with_threads(state.config.threads)
        .with_deadline(Deadline::within_ms(state.config.deadline_ms))
        .executor()
}

fn require_body(req: &Request) -> Result<&[u8], StoreError> {
    if req.body.is_empty() {
        return Err(usage("no dataset: POST the CSV body").into());
    }
    Ok(&req.body)
}

fn register_route(state: &AppState, req: &Request) -> Result<Json, StoreError> {
    let store = store_of(state)?;
    let body = require_body(req)?;
    // The isolation boundary, like every compute route: a panic (fault
    // injection included) or deadline expiry inside ingestion becomes a
    // structured error, and the atomic manifest commit means it leaves
    // no partial dataset behind.
    let outcome = guarded("datasets:register", || {
        store.register(body, &ingest_exec(state))
    })?;
    Ok(wire::register_json(&outcome))
}

fn append_route(state: &AppState, req: &Request, fp: u64) -> Result<Json, StoreError> {
    let store = store_of(state)?;
    let body = require_body(req)?;
    let outcome = guarded("datasets:append", || {
        store.append(fp, body, &ingest_exec(state))
    })?;
    Ok(wire::append_json(&outcome))
}

fn dataset_info_route(state: &AppState, fp: u64) -> Result<Json, StoreError> {
    let info = store_of(state)?.dataset(fp)?;
    Ok(wire::dataset_json(&info).field(
        "segment_list",
        Json::Arr(info.segments.iter().map(wire::segment_json).collect()),
    ))
}

fn list_datasets_route(state: &AppState) -> Result<Json, StoreError> {
    let datasets = store_of(state)?.datasets()?;
    Ok(wire::datasets_json(&datasets))
}

/// Incremental re-publication with the response cache in front. The key's
/// dataset component is the **lineage** fingerprint (registration plus
/// every segment), so a publish after an append is a different cache line
/// from the publish before it. The body is built by the same
/// `publication_json` as `/anonymize` — byte-identical over the same rows;
/// reuse accounting goes to the store counters, never the body.
///
/// Misses single-flight on the lineage key ([`serve_publication`]): one
/// leader publishes and persists the durable cache line, concurrent
/// duplicates park and receive the same summary.
fn publish_route(state: &AppState, req: &Request, fp: u64) -> Result<Served, StoreError> {
    let store = store_of(state)?;
    let name = req
        .query_param("algo")
        .ok_or_else(|| StoreError::from(usage("missing query parameter 'algo'")))?;
    let params = params_from(state, req)?;
    let mechanism = state.registry.get_or_unknown(name)?;
    let lineage = store.dataset(fp)?.lineage();
    let key = publication_key(lineage, mechanism, &params);
    let served = guarded("datasets:publish", || {
        serve_publication(state, "datasets:publish", &key, &params, || {
            let outcome = store.publish(fp, mechanism, &params)?;
            Ok((outcome.table, outcome.publication))
        })
    })?;
    if served.computed {
        // Durable cache line: reloaded into the in-memory cache on restart.
        store.persist_response(
            lineage,
            &key.mechanism,
            &key.params,
            &served.summary.render(),
        );
    }
    Ok(served)
}

/// Every value `/stats` and `/metrics` report, read once per scrape, in
/// `/stats` order: the registry's counters, then the values whose
/// authoritative owners live elsewhere (config, pool, store, single-flight
/// table, cache), read live rather than double-booked into the registry.
/// The pool group exists only when a real server attached one, the store
/// group only with a store root.
fn samples(state: &AppState) -> Vec<Sample> {
    let config = &state.config;
    let mut samples = state.metrics.counter_samples();
    samples.extend([
        Sample::gauge(
            "workers",
            "Configured worker threads",
            config.workers as u64,
        ),
        Sample::gauge(
            "queue_depth",
            "Bounded connection queue depth",
            config.queue_depth as u64,
        ),
        Sample::gauge(
            "run_threads",
            "Intra-run thread budget (0 = auto)",
            config.threads.into(),
        ),
        Sample::gauge(
            "run_shards",
            "Partition-level shards per run",
            config.shards.into(),
        ),
        Sample::gauge(
            "deadline_ms",
            "Per-request time budget in milliseconds (0 = unlimited)",
            config.deadline_ms,
        ),
    ]);
    if let Some(health) = state.pool_health.get() {
        samples.extend([
            Sample::gauge(
                "pool.alive",
                "Worker threads currently alive",
                health.alive() as u64,
            ),
            Sample::gauge(
                "pool.target",
                "Worker threads the pool keeps alive",
                config.workers as u64,
            ),
            // Panics that escaped all the way to the worker loop: the
            // route-level `guarded` boundaries normally convert them
            // first (counted in `panics_caught`).
            Sample::counter(
                "pool.worker_panics",
                "Panics that reached the worker loop",
                health.panics_caught(),
            ),
            Sample::counter(
                "pool.respawned",
                "Workers respawned after a panic",
                health.respawned(),
            ),
        ]);
    }
    if let Some(store) = &state.store {
        let s = store.stats();
        samples.extend([
            Sample::gauge(
                "store.datasets",
                "Datasets registered in the store",
                s.datasets as u64,
            ),
            Sample::gauge(
                "store.segments",
                "Immutable segments on disk",
                s.segments as u64,
            ),
            Sample::gauge(
                "store.rows",
                "Rows on disk across all datasets",
                s.rows as u64,
            ),
            Sample::gauge(
                "store.shard_records",
                "Persisted per-shard results on disk",
                s.shard_records as u64,
            ),
            Sample::gauge(
                "store.persisted_responses",
                "Persisted publication responses on disk",
                s.persisted_responses as u64,
            ),
            Sample::counter(
                "store.registers",
                "Datasets registered by this process",
                s.registers,
            ),
            Sample::counter(
                "store.appends",
                "Segments appended by this process",
                s.appends,
            ),
            Sample::counter(
                "store.appended_rows",
                "Rows ingested via append by this process",
                s.appended_rows,
            ),
            Sample::counter(
                "store.publishes",
                "Incremental publishes by this process",
                s.publishes,
            ),
            Sample::counter(
                "store.shards_computed",
                "Shards that ran the mechanism",
                s.shards_computed,
            ),
            Sample::counter(
                "store.shards_reused",
                "Shards reloaded from persisted results",
                s.shards_reused,
            ),
            Sample::counter(
                "store.segments_read",
                "Segment files parsed by this process",
                s.segments_read,
            ),
        ]);
    }
    let (flights, cache) = (&state.flights, state.cache_stats());
    samples.extend([
        Sample::gauge(
            "coalesce.in_flight",
            "Coalesced computations currently in flight",
            flights.in_flight() as u64,
        ),
        Sample::gauge(
            "coalesce.waiting",
            "Requests parked on an in-flight identical computation",
            flights.waiting() as u64,
        ),
        Sample::counter("cache.hits", "Publication cache hits", cache.hits),
        Sample::counter("cache.misses", "Publication cache misses", cache.misses),
        Sample::gauge(
            "cache.entries",
            "Publication cache entries held",
            cache.entries as u64,
        ),
        Sample::gauge(
            "cache.capacity",
            "Publication cache capacity in entries",
            cache.capacity as u64,
        ),
        Sample::counter(
            "cache.evictions",
            "Publication cache evictions",
            cache.evictions,
        ),
    ]);
    samples
}

/// The `/stats` document: the sample list nested by path.
fn stats_json(state: &AppState) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    for sample in samples(state) {
        let value = Json::Int(sample.value as i64);
        match sample.path.split_once('.') {
            None => fields.push((sample.path.to_string(), value)),
            Some((group, leaf)) => match fields.iter_mut().find(|(name, _)| name == group) {
                Some((_, object)) => object.set(leaf, value),
                None => fields.push((group.to_string(), Json::obj().field(leaf, value))),
            },
        }
    }
    Json::Obj(fields)
}

/// The `GET /metrics` body: the sample list, then the latency histograms.
fn metrics_text(state: &AppState) -> String {
    let mut out = String::new();
    for s in samples(state) {
        write_metric(&mut out, &s);
    }
    state.metrics.render_histograms_into(&mut out);
    out
}

/// Parses the shared `l` / `fanout` query params; the intra-run thread
/// budget and the shard count come from the server configuration (they
/// are operator knobs, not client ones — a client must not dictate the
/// server's fan-out, nor flip it onto the sharded output path).
fn params_from(state: &AppState, req: &Request) -> Result<Params, LdivError> {
    let l: u32 = req
        .query_param("l")
        .ok_or_else(|| usage("missing query parameter 'l'"))?
        .parse()
        .map_err(|e| usage(format!("query parameter 'l': {e}")))?;
    // The deadline anchors HERE — an absolute instant the parse, the run
    // and every shard of it share.
    let mut params = Params::new(l)
        .with_threads(state.config.threads)
        .with_shards(state.config.shards)
        .with_deadline(Deadline::within_ms(state.config.deadline_ms));
    if let Some(f) = req.query_param("fanout") {
        params.fanout = f
            .parse()
            .map_err(|e| usage(format!("query parameter 'fanout': {e}")))?;
    }
    Ok(params)
}

/// The dataset of a request: a non-empty CSV body, else the file named by
/// `?dataset=` — which only works when the operator configured a dataset
/// root, and never resolves outside it (a network client must not be
/// able to probe or read arbitrary server-side paths).
fn table_from(state: &AppState, req: &Request, params: &Params) -> Result<Table, LdivError> {
    // The parse honours the server's per-run thread budget, like every
    // anonymization it feeds — without this, each concurrent request
    // would fan its CSV parse over the whole machine even under the
    // deliberate `threads = 1` default. Taking the executor from the
    // request's params also puts the parse under the request deadline.
    let exec = params.executor();
    let _parse = ldiv_obs::span("csv:read");
    if !req.body.is_empty() {
        return read_csv_with(&mut &req.body[..], None, &exec)
            .map_err(|e| usage(format!("request body: {e}")));
    }
    match req.query_param("dataset") {
        Some(path) => {
            let Some(root) = &state.config.dataset_root else {
                return Err(usage(
                    "dataset references are disabled: POST the CSV body, or start the \
                     server with a dataset root (`ldiv serve --dataset-root DIR`)",
                ));
            };
            let root = root
                .canonicalize()
                .map_err(|e| LdivError::Io(format!("dataset root: {e}")))?;
            // Canonicalize the joined path and require it to stay under
            // the root, so `..` segments and symlinks cannot escape.
            let resolved = root
                .join(path)
                .canonicalize()
                .map_err(|_| usage(format!("dataset '{path}' not found under the dataset root")))?;
            if !resolved.starts_with(&root) {
                return Err(usage(format!("dataset '{path}' escapes the dataset root")));
            }
            let file = std::fs::File::open(&resolved)
                .map_err(|_| usage(format!("dataset '{path}' not readable")))?;
            read_csv_with(BufReader::new(file), None, &exec)
                .map_err(|e| LdivError::Io(format!("dataset '{path}': {e}")))
        }
        None => Err(usage(
            "no dataset: POST a CSV body or pass ?dataset=PATH (requires a configured \
             dataset root)",
        )),
    }
}

/// The cache key of one publication: the dataset (content fingerprint, or
/// store lineage), the resolved mechanism name and the canonical params.
fn publication_key(dataset: u64, mechanism: &dyn Mechanism, params: &Params) -> CacheKey {
    CacheKey {
        dataset,
        mechanism: mechanism.name().to_ascii_lowercase(),
        params: params.canonical(),
    }
}

/// Runs mechanism `name` over a parsed table (`/anonymize`, and each
/// `/sweep` mechanism) through [`serve_publication`], keyed by the
/// table's content fingerprint.
fn run_cached(
    state: &AppState,
    table: &Table,
    name: &str,
    params: &Params,
) -> Result<Served, LdivError> {
    let mechanism = state.registry.get_or_unknown(name)?;
    let key = publication_key(table.fingerprint(), mechanism, params);
    serve_publication(state, "anonymize", &key, params, || {
        // The sharding driver honours `params.shards` (a mechanism alone
        // would not); with a resolved count of 1 this is `anonymize`
        // itself.
        Ok((
            table,
            ldiv_shard::anonymize_sharded(mechanism, table, params)?,
        ))
    })
}

/// The publication cache in front of one run: the one path every
/// publishing route takes. A hit returns the stored summary with
/// `"cached": true`.
///
/// Misses are **single-flight**: concurrent identical misses coalesce
/// onto one leader (see [`crate::coalesce`]), so a duplicate storm costs
/// one run, not fan-in of them. The leader re-probes the cache, then
/// calls `run` for the table and its publication, measures KL, builds
/// the summary and caches it; a failed run is never cached. Followers get
/// the leader's fresh summary byte-for-byte (no `cached` flip — they
/// rode the computation, they didn't hit the cache) and count into
/// `ldiv_coalesced_total`, success or failure. Coalescing rides the
/// cache: with caching disabled (capacity 0) every request computes,
/// which the chaos suite depends on.
///
/// `ldiv_run_duration_seconds` times `run` alone, and only on success: a
/// failed run has no meaningful mechanism latency. `label` names the
/// flight for panic classification, like the route's `guarded` label.
fn serve_publication<T: Borrow<Table>>(
    state: &AppState,
    label: &str,
    key: &CacheKey,
    params: &Params,
    run: impl FnOnce() -> Result<(T, Publication), LdivError>,
) -> Result<Served, LdivError> {
    if let Some(hit) = lookup_cached(state, key) {
        return Ok(hit);
    }
    let mut computed = false;
    let compute = || -> Result<Json, LdivError> {
        let started = Instant::now();
        let (table, publication) = run()?;
        state.run_hist.observe(&key.mechanism, started.elapsed());
        state.anonymize_runs.inc();
        let table = table.borrow();
        let kl = kl_divergence_with(table, &publication, &params.executor());
        let summary = wire::publication_json(table, &publication, params, kl);
        state.remember(key.clone(), summary.clone());
        computed = true;
        Ok(summary)
    };
    let outcome = if state.config.cache_capacity == 0 {
        Outcome::Led(compute())
    } else {
        state
            .flights
            .join(label, key, || match reprobe(state, key) {
                Some(hit) => Ok(hit),
                None => compute(),
            })
    };
    let summary = match outcome {
        Outcome::Led(result) => result?,
        Outcome::Joined(result) => {
            state.coalesced.inc();
            result?
        }
    };
    Ok(Served {
        summary,
        bin: None,
        computed,
    })
}

/// A cache probe under its own `cache:lookup` span — hits short-circuit
/// the whole run, so the probe is a stage of its own in a trace.
fn lookup_cached(state: &AppState, key: &CacheKey) -> Option<Served> {
    let _probe = ldiv_obs::span("cache:lookup");
    state.lock_cache().get(key).map(|found| Served {
        summary: found.summary.clone().field("cached", true),
        bin: Some(Arc::clone(&found.bin)),
        computed: false,
    })
}

/// The leader's cache re-probe after winning its key: the previous
/// leader may have published and retired between this request's public
/// miss and its join, and recomputing then would break "a storm runs
/// the mechanism exactly once". Uses
/// [`get_after_miss`](LruCache::get_after_miss) — the miss was already
/// recorded on the public probe, but a hit here really serves the
/// request, keeping `hits + coalesced + runs = requests` exact.
fn reprobe(state: &AppState, key: &CacheKey) -> Option<Json> {
    state
        .lock_cache()
        .get_after_miss(key)
        .map(|found| found.summary.clone().field("cached", true))
}

fn anonymize_route(state: &AppState, req: &Request) -> Result<Served, LdivError> {
    let name = req
        .query_param("algo")
        .ok_or_else(|| usage("missing query parameter 'algo'"))?;
    let params = params_from(state, req)?;
    // The isolation boundary around the job: a panicking mechanism (or
    // an expired deadline unwinding out of the parse or the run) becomes
    // a structured error — 500 / 504 — never a dead worker.
    guarded("anonymize", || {
        let table = table_from(state, req, &params)?;
        run_cached(state, &table, name, &params)
    })
}

/// Fans the dataset across every registered mechanism in parallel (one
/// scoped thread per mechanism — the pool handles connections, not
/// sub-tasks, so a sweep can never deadlock the queue that carried it).
/// Per-mechanism failures (e.g. an l the mechanism finds infeasible)
/// become error entries rather than failing the whole sweep.
fn sweep_route(state: &AppState, req: &Request) -> Result<Json, LdivError> {
    let params = params_from(state, req)?;
    let table = guarded("sweep:parse", || table_from(state, req, &params))?;
    let fingerprint = table.fingerprint();
    let names: Vec<String> = state
        .registry
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();

    let mut results: Vec<Option<Json>> = vec![None; names.len()];
    let trace_ctx = ldiv_obs::context();
    std::thread::scope(|scope| {
        let handles: Vec<_> = names
            .iter()
            .map(|name| {
                let table = &table;
                let trace_ctx = &trace_ctx;
                // Each worker carries its own isolation boundary, so one
                // panicking mechanism yields one error entry while the
                // rest of the sweep completes. The trace context rides
                // along so per-mechanism spans land in this request's
                // trace rather than vanishing with the worker thread.
                scope.spawn(move || {
                    ldiv_obs::with_context(trace_ctx, || {
                        match guarded(&format!("sweep:{name}"), || {
                            run_cached(state, table, name, &params).map(|served| served.summary)
                        }) {
                            Ok(summary) => summary,
                            Err(e) => {
                                state.count_if_panic(&e);
                                wire::error_json(&e).field("mechanism", name.as_str())
                            }
                        }
                    })
                })
            })
            .collect();
        for ((slot, handle), name) in results.iter_mut().zip(handles).zip(&names) {
            // Belt over the braces: should a worker die despite its
            // boundary, degrade that one mechanism to an error entry
            // instead of killing the connection thread.
            *slot = Some(handle.join().unwrap_or_else(|payload| {
                let e = classify_panic(&format!("sweep:{name}"), payload.as_ref());
                state.count_if_panic(&e);
                wire::error_json(&e).field("mechanism", name.as_str())
            }));
        }
    });

    let results = results.into_iter().map(|r| r.expect("joined")).collect();
    Ok(wire::sweep_json(&params, fingerprint, results))
}

/// A running server: the accept thread, its worker pool, and the shared
/// state. Dropping (or [`shutdown`](Server::shutdown)) stops accepting,
/// finishes in-flight requests and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `registry` in the background.
    pub fn bind(
        addr: &str,
        registry: MechanismRegistry,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(registry, config));
        let stop = Arc::new(AtomicBool::new(false));

        // The pool is built before the accept thread so its health gauge
        // can be wired into /stats; the pool itself then moves into the
        // accept thread, whose exit drops it (close queue, drain, join).
        let pool_state = Arc::clone(&state);
        let pool = WorkerPool::new(
            state.config.workers,
            state.config.queue_depth,
            move |stream: TcpStream| serve_connection(&pool_state, stream),
        );
        state.attach_pool_health(pool.health());

        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("ldiv-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Err(stream) = pool.submit(stream) {
                        accept_state.count_rejected();
                        reject_overloaded(stream);
                    }
                }
                // Pool drops here: queue closes, workers drain and join.
            })?;

        Ok(Server {
            addr,
            state,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (real port even when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters, cache, registry).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting, drains in-flight requests and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(thread) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a no-op connection.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Answers `503` on a connection the queue had no room for, without
/// blocking the accept loop on the client's upload.
///
/// Order matters: write the response, half-close our side, then drain
/// (bounded) whatever request bytes the client already sent. Closing
/// with unread data in the receive buffer makes the kernel send RST,
/// which destroys the in-flight 503 before the client can read it —
/// load shedding must reject requests, not reset connections.
fn reject_overloaded(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(5)));
    let mut w = BufWriter::new(&stream);
    let _ = Response::json(
        503,
        wire::error_json(&LdivError::Algorithm(
            "server overloaded: connection queue is full".into(),
        ))
        .render(),
    )
    .write_to(&mut w);
    let _ = std::io::Write::flush(&mut w);
    drop(w);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Discard at most 1 MiB of upload; the timeout bounds a client that
    // neither finishes nor closes.
    let mut sink = [0u8; 4096];
    let mut budget: usize = 1 << 20;
    let mut reader = &stream;
    while budget > 0 {
        match std::io::Read::read(&mut reader, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// One connection: parse, route, respond, close.
fn serve_connection(state: &AppState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    // Mirror the read timeout on writes: a client that stops draining
    // its receive window must not pin a worker on the response forever.
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(30)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // The socket path's trace covers the whole connection — parse, body
    // read, routing and the response write. `handle_request`'s own
    // `begin` then sees an active trace and becomes a no-op, so each
    // request has exactly one trace whichever door it came in by.
    let _trace = ldiv_obs::begin("request");
    let parsed = {
        let _parse = ldiv_obs::span("http:parse");
        parse_head(&mut reader)
    };
    let response = match parsed {
        Ok(mut request) => {
            // curl sends `Expect: 100-continue` for bodies over 1 KiB and
            // stalls ~1 s unless the interim comes back before the body.
            if request.expects_continue() {
                use std::io::Write as _;
                let _ = (&stream).write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            }
            let body_read = {
                let _read = ldiv_obs::span("http:read");
                read_body(&mut reader, &mut request)
            };
            match body_read {
                // The connection-level boundary: whatever unwinds out of
                // routing still produces a well-formed JSON response on
                // this socket — no dropped connections under faults.
                Ok(()) => match guarded("request", || Ok(handle_request(state, &request))) {
                    Ok(response) => response,
                    Err(e) => error_response(state, &e),
                },
                Err(HttpError { status, message }) => usage_response(status, message),
            }
        }
        Err(HttpError { status, message }) => usage_response(status, message),
    };
    let mut writer = BufWriter::new(stream);
    let _write = ldiv_obs::span("http:write");
    let _ = response.write_to(&mut writer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_api::{Mechanism, Publication};
    use ldiv_microdata::{samples, write_table_csv, Partition};

    /// A deterministic single-group mechanism for routing tests.
    struct Whole(&'static str);

    impl Mechanism for Whole {
        fn name(&self) -> &str {
            self.0
        }

        fn description(&self) -> &str {
            "test mechanism"
        }

        fn anonymize(&self, table: &Table, params: &Params) -> Result<Publication, LdivError> {
            params.validate_for(table)?;
            let partition = Partition::new_unchecked(vec![(0..table.len() as u32).collect()]);
            Ok(Publication::suppressed(self.0, table, partition))
        }
    }

    fn test_state() -> AppState {
        let registry = MechanismRegistry::new()
            .with(Box::new(Whole("alpha")))
            .with(Box::new(Whole("beta")));
        AppState::new(registry, ServerConfig::default())
    }

    fn post(path: &str, query: &[(&str, &str)], body: &[u8]) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn hospital_csv() -> Vec<u8> {
        let mut csv = Vec::new();
        write_table_csv(&mut csv, &samples::hospital()).unwrap();
        csv
    }

    #[test]
    fn health_mechanisms_and_unknown_routes() {
        let state = test_state();
        assert_eq!(handle_request(&state, &get("/healthz")).status, 200);
        let mechanisms = handle_request(&state, &get("/mechanisms"));
        assert_eq!(mechanisms.status, 200);
        assert!(mechanisms.body.contains("\"alpha\""), "{}", mechanisms.body);
        assert_eq!(handle_request(&state, &get("/nope")).status, 404);
        assert_eq!(handle_request(&state, &get("/anonymize")).status, 405);
        assert_eq!(
            handle_request(&state, &post("/healthz", &[], b"")).status,
            405
        );
    }

    #[test]
    fn anonymize_round_trip_and_cache_hit() {
        let state = test_state();
        let csv = hospital_csv();
        let req = post("/anonymize", &[("algo", "alpha"), ("l", "2")], &csv);

        let first = handle_request(&state, &req);
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body.contains("\"cached\":false"), "{}", first.body);

        let second = handle_request(&state, &req);
        assert_eq!(second.status, 200);
        assert!(second.body.contains("\"cached\":true"), "{}", second.body);
        // Identical apart from the cached flag.
        assert_eq!(
            first.body.replace("\"cached\":false", "\"cached\":true"),
            second.body
        );

        let stats = state.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Different params: a different cache line.
        let req3 = post(
            "/anonymize",
            &[("algo", "alpha"), ("l", "2"), ("fanout", "3")],
            &csv,
        );
        let third = handle_request(&state, &req3);
        assert!(third.body.contains("\"cached\":false"), "{}", third.body);
    }

    #[test]
    fn anonymize_maps_domain_errors_to_statuses() {
        let state = test_state();
        let csv = hospital_csv();
        // Missing l.
        assert_eq!(
            handle_request(&state, &post("/anonymize", &[("algo", "alpha")], &csv)).status,
            400
        );
        // Unknown mechanism.
        assert_eq!(
            handle_request(
                &state,
                &post("/anonymize", &[("algo", "nope"), ("l", "2")], &csv)
            )
            .status,
            404
        );
        // Infeasible l.
        let r = handle_request(
            &state,
            &post("/anonymize", &[("algo", "alpha"), ("l", "5")], &csv),
        );
        assert_eq!(r.status, 422, "{}", r.body);
        // No dataset at all.
        assert_eq!(
            handle_request(
                &state,
                &post("/anonymize", &[("algo", "alpha"), ("l", "2")], b"")
            )
            .status,
            400
        );
        // Dataset references are disabled without a configured root.
        assert_eq!(
            handle_request(
                &state,
                &post(
                    "/anonymize",
                    &[
                        ("algo", "alpha"),
                        ("l", "2"),
                        ("dataset", "/nonexistent.csv")
                    ],
                    b""
                )
            )
            .status,
            400
        );
    }

    #[test]
    fn dataset_references_are_confined_to_the_configured_root() {
        let root = std::env::temp_dir().join("ldiv_server_dataset_root");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("ok.csv"), hospital_csv()).unwrap();

        let registry = MechanismRegistry::new().with(Box::new(Whole("alpha")));
        let state = AppState::new(
            registry,
            ServerConfig {
                dataset_root: Some(root),
                ..ServerConfig::default()
            },
        );

        // A file under the root resolves.
        let ok = handle_request(
            &state,
            &post(
                "/anonymize",
                &[("algo", "alpha"), ("l", "2"), ("dataset", "ok.csv")],
                b"",
            ),
        );
        assert_eq!(ok.status, 200, "{}", ok.body);

        // Traversal out of the root is refused (canonicalized paths that
        // resolve outside the root, or that do not resolve at all).
        for escape in ["../../../../etc/passwd", "/etc/passwd", "missing.csv"] {
            let refused = handle_request(
                &state,
                &post(
                    "/anonymize",
                    &[("algo", "alpha"), ("l", "2"), ("dataset", escape)],
                    b"",
                ),
            );
            assert_eq!(refused.status, 400, "{escape}: {}", refused.body);
        }
    }

    #[test]
    fn responses_and_cache_keys_are_identical_across_thread_budgets() {
        // Regression for the determinism contract at the service level:
        // (1) the cache key ignores the thread budget, so a publication
        // computed at any budget serves all budgets; (2) two servers
        // configured with different budgets produce byte-identical
        // bodies (including the KL float) for the same request.
        let k8 = CacheKey {
            dataset: 42,
            mechanism: "alpha".into(),
            params: Params::new(2).with_threads(8).canonical(),
        };
        let k1 = CacheKey {
            dataset: 42,
            mechanism: "alpha".into(),
            params: Params::new(2).with_threads(1).canonical(),
        };
        assert_eq!(k8, k1, "thread budget must not split cache lines");

        let csv = hospital_csv();
        let req = post("/anonymize", &[("algo", "alpha"), ("l", "2")], &csv);
        let body_of = |threads: u32| {
            let registry = MechanismRegistry::new().with(Box::new(Whole("alpha")));
            let state = AppState::new(
                registry,
                ServerConfig {
                    threads,
                    ..ServerConfig::default()
                },
            );
            handle_request(&state, &req).body
        };
        assert_eq!(body_of(1), body_of(8));
    }

    #[test]
    fn shard_config_is_output_affecting_and_reported() {
        // Unlike `threads`, the shard count changes the published table:
        // the canonical params (and therefore the cache key) must split,
        // and /stats must report the resolved count.
        let state_of = |shards: u32| {
            AppState::new(
                MechanismRegistry::new().with(Box::new(Whole("alpha"))),
                ServerConfig {
                    shards,
                    ..ServerConfig::default()
                },
            )
        };
        let csv = hospital_csv();
        let req = post("/anonymize", &[("algo", "alpha"), ("l", "2")], &csv);

        let sharded = state_of(2);
        let body = handle_request(&sharded, &req).body;
        assert!(
            body.contains("shards=2"),
            "canonical params must spell the shard count: {body}"
        );
        assert!(body.contains("\"shards\":2"), "{body}");
        let stats = handle_request(&sharded, &get("/stats")).body;
        assert!(stats.contains("\"run_shards\":2"), "{stats}");

        let unsharded = state_of(1);
        let key_of = |state: &AppState| CacheKey {
            dataset: 42,
            mechanism: "alpha".into(),
            params: Params::new(2).with_shards(state.config.shards).canonical(),
        };
        assert_ne!(
            key_of(&sharded),
            key_of(&unsharded),
            "shard configurations must never share cache lines"
        );
    }

    #[test]
    fn sweep_covers_every_mechanism_and_populates_the_cache() {
        let state = test_state();
        let csv = hospital_csv();
        let sweep = handle_request(&state, &post("/sweep", &[("l", "2")], &csv));
        assert_eq!(sweep.status, 200, "{}", sweep.body);
        assert!(
            sweep.body.contains("\"mechanism\":\"alpha\""),
            "{}",
            sweep.body
        );
        assert!(
            sweep.body.contains("\"mechanism\":\"beta\""),
            "{}",
            sweep.body
        );

        // The sweep warmed the cache: a follow-up single anonymize hits.
        let one = handle_request(
            &state,
            &post("/anonymize", &[("algo", "beta"), ("l", "2")], &csv),
        );
        assert!(one.body.contains("\"cached\":true"), "{}", one.body);
    }

    fn unique_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("ldiv_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Hospital rows `0..3` as a standalone CSV batch (with header).
    fn batch_csv() -> Vec<u8> {
        let t = samples::hospital();
        let mut csv = Vec::new();
        write_table_csv(&mut csv, &t.select_rows(&[0, 1, 2])).unwrap();
        csv
    }

    /// The fingerprint a register response names.
    fn dataset_fp(body: &str) -> String {
        match Json::parse(body).and_then(|j| j.get("dataset").cloned()) {
            Some(Json::Str(fp)) => fp,
            _ => panic!("register returns the fingerprint: {body}"),
        }
    }

    fn store_state(root: &std::path::Path) -> AppState {
        AppState::new(
            MechanismRegistry::new().with(Box::new(Whole("alpha"))),
            ServerConfig {
                store_root: Some(root.to_path_buf()),
                shards: 1,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn dataset_routes_register_append_and_list() {
        let root = unique_root("datasets");
        let state = store_state(&root);

        let reg = handle_request(&state, &post("/datasets", &[], &hospital_csv()));
        assert_eq!(reg.status, 200, "{}", reg.body);
        assert!(reg.body.contains("\"created\":true"), "{}", reg.body);
        assert!(reg.body.contains("\"rows\":10"), "{}", reg.body);
        let fp = dataset_fp(&reg.body);

        // Idempotent by content.
        let again = handle_request(&state, &post("/datasets", &[], &hospital_csv()));
        assert!(again.body.contains("\"created\":false"), "{}", again.body);

        let append = handle_request(
            &state,
            &post(&format!("/datasets/{fp}/append"), &[], &batch_csv()),
        );
        assert_eq!(append.status, 200, "{}", append.body);
        assert!(append.body.contains("\"total_rows\":13"), "{}", append.body);
        assert!(append.body.contains("\"index\":1"), "{}", append.body);

        let list = handle_request(&state, &get("/datasets"));
        assert!(list.body.contains(&fp), "{}", list.body);
        let info = handle_request(&state, &get(&format!("/datasets/{fp}")));
        assert!(info.body.contains("\"segments\":2"), "{}", info.body);

        // Unknown dataset → 404; malformed fingerprint → 404; wrong
        // method → 405; empty body → 400.
        let missing = handle_request(
            &state,
            &post("/datasets/0000000000000000/append", &[], &batch_csv()),
        );
        assert_eq!(missing.status, 404, "{}", missing.body);
        assert_eq!(
            handle_request(&state, &post("/datasets/nope/append", &[], &batch_csv())).status,
            404
        );
        assert_eq!(
            handle_request(&state, &get(&format!("/datasets/{fp}/append"))).status,
            405
        );
        assert_eq!(
            handle_request(&state, &post("/datasets", &[], b"")).status,
            400
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dataset_routes_answer_400_without_a_store_root() {
        let state = test_state();
        for req in [
            post("/datasets", &[], &hospital_csv()),
            post("/datasets/0000000000000000/append", &[], &batch_csv()),
            post(
                "/datasets/0000000000000000/publish",
                &[("algo", "alpha"), ("l", "2")],
                b"",
            ),
        ] {
            let resp = handle_request(&state, &req);
            assert_eq!(resp.status, 400, "{}", resp.body);
            assert!(resp.body.contains("store-root"), "{}", resp.body);
        }
    }

    #[test]
    fn publish_matches_anonymize_byte_for_byte_at_one_shard() {
        // The service-level half of the incremental-equivalence gate: a
        // publish over a dataset grown by appends produces exactly the
        // bytes `/anonymize` produces for the concatenated CSV.
        let root = unique_root("publish_equiv");
        let state = store_state(&root);

        let reg = handle_request(&state, &post("/datasets", &[], &hospital_csv()));
        let fp = dataset_fp(&reg.body);
        let append = handle_request(
            &state,
            &post(&format!("/datasets/{fp}/append"), &[], &batch_csv()),
        );
        assert_eq!(append.status, 200, "{}", append.body);

        let published = handle_request(
            &state,
            &post(
                &format!("/datasets/{fp}/publish"),
                &[("algo", "alpha"), ("l", "2")],
                b"",
            ),
        );
        assert_eq!(published.status, 200, "{}", published.body);

        // The equivalent one-shot request: the registration CSV with the
        // batch rows appended (header stripped).
        let mut full = hospital_csv();
        let batch = batch_csv();
        let batch_rows = batch
            .splitn(2, |&b| b == b'\n')
            .nth(1)
            .expect("batch has rows")
            .to_vec();
        full.extend_from_slice(&batch_rows);
        let oneshot = handle_request(
            &state,
            &post("/anonymize", &[("algo", "alpha"), ("l", "2")], &full),
        );
        assert_eq!(oneshot.status, 200, "{}", oneshot.body);
        // The one-shot ran second, so its cache line (keyed by content
        // fingerprint, not lineage) was a miss — both are cold bodies.
        assert_eq!(published.body, oneshot.body);

        // Repeat publish: served from cache.
        let warm = handle_request(
            &state,
            &post(
                &format!("/datasets/{fp}/publish"),
                &[("algo", "alpha"), ("l", "2")],
                b"",
            ),
        );
        assert!(warm.body.contains("\"cached\":true"), "{}", warm.body);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn publish_cache_survives_a_restart() {
        let root = unique_root("restart");
        let fp;
        let cold_body;
        {
            let state = store_state(&root);
            let reg = handle_request(&state, &post("/datasets", &[], &hospital_csv()));
            fp = dataset_fp(&reg.body);
            let published = handle_request(
                &state,
                &post(
                    &format!("/datasets/{fp}/publish"),
                    &[("algo", "alpha"), ("l", "2")],
                    b"",
                ),
            );
            assert_eq!(published.status, 200, "{}", published.body);
            cold_body = published.body;
        }
        // A fresh AppState over the same root: the persisted response
        // reloads into the cache, so the first publish after "restart"
        // is already a hit, byte-identical apart from the cached flag.
        let state = store_state(&root);
        let warm = handle_request(
            &state,
            &post(
                &format!("/datasets/{fp}/publish"),
                &[("algo", "alpha"), ("l", "2")],
                b"",
            ),
        );
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert!(warm.body.contains("\"cached\":true"), "{}", warm.body);
        assert_eq!(
            warm.body,
            cold_body.replace("\"cached\":false", "\"cached\":true")
        );
        assert_eq!(state.cache_stats().hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_renders_prometheus_text() {
        let root = unique_root("metrics");
        let state = store_state(&root);
        handle_request(&state, &get("/healthz"));
        let metrics = handle_request(&state, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        assert_eq!(
            metrics.content_type,
            "text/plain; version=0.0.4; charset=utf-8"
        );
        for family in [
            "# TYPE ldiv_requests_total counter",
            "# TYPE ldiv_cache_hits_total counter",
            "# TYPE ldiv_cache_entries gauge",
            "# TYPE ldiv_store_datasets gauge",
            "# TYPE ldiv_store_shards_reused_total counter",
        ] {
            assert!(metrics.body.contains(family), "{}", metrics.body);
        }
        // Counters reflect traffic: the healthz + this request.
        assert!(
            metrics.body.contains("ldiv_requests_total 2"),
            "{}",
            metrics.body
        );
        // POST is not allowed.
        assert_eq!(
            handle_request(&state, &post("/metrics", &[], b"")).status,
            405
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let registry = MechanismRegistry::new().with(Box::new(Whole("alpha")));
        let server = Server::bind(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                cache_capacity: 16,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        let body = hospital_csv();
        let mut stream = TcpStream::connect(addr).unwrap();
        use std::io::{Read as _, Write as _};
        write!(
            stream,
            "POST /anonymize?algo=alpha&l=2 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(&body).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"mechanism\":\"alpha\""), "{response}");

        // Garbage gets a 400, not a hang.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        server.shutdown();
    }
}
