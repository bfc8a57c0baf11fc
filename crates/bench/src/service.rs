//! Throughput measurement for the `ldiv-server` service: requests/sec
//! over real sockets, cached vs. uncached.
//!
//! Two servers are measured over the same dataset and mechanism: one with
//! the publication cache disabled (`cache_capacity = 0`, so every request
//! recomputes the anonymization) and one with the cache enabled and
//! pre-warmed (so every timed request is a hit). The gap between the two
//! numbers is exactly what the cache buys on a repeat-heavy workload; the
//! hit/miss counters from `GET /stats` are carried along so callers can
//! assert the cached run really was served from the cache.

use ldiv_datagen::{sal, AcsConfig};
use ldiv_microdata::write_table_csv;
use ldiv_obs::hist::percentile;
use ldiv_server::{Server, ServerConfig};
use ldiv_wire::Json;
use ldiversity::standard_registry;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One measured service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PathThroughput {
    /// Timed requests issued.
    pub requests: usize,
    /// Wall-clock seconds for all of them.
    pub seconds: f64,
    /// Requests per second.
    pub rps: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
    /// Cache hits recorded by the server during the timed window.
    pub hits: u64,
    /// Cache misses recorded by the server during the timed window.
    pub misses: u64,
    /// Per-stage time decomposition of the timed window, aggregated from
    /// the server's request traces and sorted by stage name.
    pub stages: Vec<StageStat>,
}

/// Total time spent in one named pipeline stage across a timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage name (span name: `csv:read`, `shard:anonymize`, `kl`, …).
    pub stage: String,
    /// Spans recorded under that name.
    pub count: u64,
    /// Total milliseconds across those spans.
    pub total_ms: f64,
}

/// Aggregates finished traces into per-stage totals, sorted by stage
/// name for deterministic output. Shared by the service bench and the
/// figure harnesses (`fig2 --json`).
pub fn rollup_stages<'a>(
    traces: impl IntoIterator<Item = &'a std::sync::Arc<ldiv_obs::FinishedTrace>>,
) -> Vec<StageStat> {
    let mut stages: Vec<StageStat> = Vec::new();
    for trace in traces {
        for s in trace.stage_totals() {
            let ms = s.total_ns as f64 / 1e6;
            match stages.iter_mut().find(|x| x.stage == s.stage) {
                Some(x) => {
                    x.count += s.count;
                    x.total_ms += ms;
                }
                None => stages.push(StageStat {
                    stage: s.stage.to_string(),
                    count: s.count,
                    total_ms: ms,
                }),
            }
        }
    }
    stages.sort_by(|a, b| a.stage.cmp(&b.stage));
    stages
}

/// [`rollup_stages`] restricted to anonymize-route request traces (the
/// bench's own `/stats` probes produce traces too).
fn stage_rollup(traces: &[std::sync::Arc<ldiv_obs::FinishedTrace>]) -> Vec<StageStat> {
    rollup_stages(
        traces
            .iter()
            .filter(|t| t.meta_value("route") == Some("/anonymize")),
    )
}

/// Payload-size comparison between the two wire faces of one cached
/// response: the default JSON body vs. the same value negotiated as an
/// LDVW binary block (`?format=bin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireComparison {
    /// Body bytes of the JSON response.
    pub json_bytes: usize,
    /// Body bytes of the binary response, same cache line.
    pub bin_bytes: usize,
}

impl WireComparison {
    /// Binary size as a fraction of the JSON size.
    pub fn ratio(&self) -> f64 {
        self.bin_bytes as f64 / (self.json_bytes as f64).max(f64::EPSILON)
    }
}

/// One concurrent-storm measurement: `clients` threads driving real
/// sockets at once, each issuing its requests back-to-back.
#[derive(Debug, Clone, PartialEq)]
pub struct StormPath {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Wall-clock seconds for the whole storm.
    pub seconds: f64,
    /// Requests per second across the storm.
    pub rps: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
    /// Cache hits during the storm.
    pub hits: u64,
    /// Cache misses during the storm.
    pub misses: u64,
    /// Requests answered by joining an in-flight identical computation.
    pub coalesced: u64,
    /// Anonymization runs actually executed — the coalescing proof: an
    /// identical-request storm against a cold cache runs exactly one.
    pub anonymize_runs: u64,
}

/// The fan-in load results: an identical-request storm (every client
/// hammers one cache key, so single-flight coalescing must collapse the
/// first wave onto one run) and a mixed storm (clients spread over a few
/// distinct keys, showing distinct work is not serialized).
#[derive(Debug, Clone, PartialEq)]
pub struct StormThroughput {
    /// Hardware parallelism the storm ran against
    /// (`std::thread::available_parallelism`). Client-observed latency
    /// under closed-loop fan-in is Little's-law-bound by this — a
    /// 32-client storm on 1 core queues ~32 service times per request
    /// whatever the server does — so baseline gates must normalize
    /// tail-latency comparisons by `concurrency / cores`.
    pub cores: usize,
    /// All clients drive the same key against a cold cache.
    pub identical: Option<StormPath>,
    /// Clients spread across [`MIXED_KEY_GROUPS`] distinct keys.
    pub mixed: StormPath,
}

/// Distinct cache-key groups the mixed storm spreads its clients over
/// (via the output-neutral `fanout` parameter, which still enters the
/// canonical params and therefore the key).
pub const MIXED_KEY_GROUPS: usize = 4;

/// The cached-vs-uncached comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceThroughput {
    /// Every request recomputes (cache disabled).
    pub uncached: PathThroughput,
    /// Every request is a cache hit (cache enabled, pre-warmed).
    pub cached: PathThroughput,
    /// Cache hits again, but negotiated as binary (`?format=bin`) — the
    /// same cache line as `cached` (format is not a key component), with
    /// the body served from the line's shared encoded block.
    pub cached_bin: PathThroughput,
    /// Body bytes for the two faces of the cached response.
    pub wire: WireComparison,
    /// Concurrent fan-in storms, when `concurrency > 0` was configured.
    pub storm: Option<StormThroughput>,
}

impl ServiceThroughput {
    /// The speedup factor the cache delivers.
    pub fn speedup(&self) -> f64 {
        self.cached.rps / self.uncached.rps
    }
}

/// Settings for [`measure_service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceBenchConfig {
    /// Rows in the generated SAL-style dataset.
    pub rows: usize,
    /// Timed requests per path.
    pub requests: usize,
    /// Diversity parameter.
    pub l: u32,
    /// Mechanism to drive (`"hilbert"` by default: representative cost,
    /// deterministic).
    pub mechanism: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Concurrent client threads for the storm measurements; 0 disables
    /// the storms entirely (the classic three-path bench).
    pub concurrency: usize,
    /// Whether the identical-request (pure duplicate) storm runs in
    /// addition to the mixed one.
    pub duplicates: bool,
    /// Requests each storm client issues back-to-back. High enough by
    /// default that the one slow first wave (every client's opening
    /// request rides the single leader's compute) stays beneath the p99
    /// rank — the steady state is what the percentile should see.
    pub storm_requests: usize,
}

impl Default for ServiceBenchConfig {
    fn default() -> Self {
        ServiceBenchConfig {
            rows: 5_000,
            requests: 40,
            l: 4,
            mechanism: "hilbert",
            seed: 0xEDB7,
            concurrency: 0,
            duplicates: false,
            storm_requests: 150,
        }
    }
}

/// One blocking HTTP request against the server; returns the raw response
/// bytes (status line + headers + body). The byte form is what binary
/// (`?format=bin`) responses require — their bodies are not UTF-8.
pub fn http_request_raw(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write request");
    stream.write_all(body).expect("write body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// [`http_request_raw`] as text, for the JSON/metrics routes.
pub fn http_request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> String {
    String::from_utf8_lossy(&http_request_raw(addr, method, target, body)).into_owned()
}

/// The body of a raw HTTP response (everything after the first blank
/// line).
fn response_body(raw: &[u8]) -> &[u8] {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| &raw[at + 4..])
        .unwrap_or(&[])
}

// The wire format is machine-generated and field-ordered; a targeted
// scan keeps the bench free of a JSON parser.
fn stats_counter(stats: &str, key: &str) -> u64 {
    stats
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn cache_counters(addr: SocketAddr) -> (u64, u64) {
    let stats = http_request(addr, "GET", "/stats", b"");
    (
        stats_counter(&stats, "hits"),
        stats_counter(&stats, "misses"),
    )
}

/// The counter set a storm is judged by, scraped from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
struct ServeCounters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    anonymize_runs: u64,
}

fn serve_counters(addr: SocketAddr) -> ServeCounters {
    let stats = http_request(addr, "GET", "/stats", b"");
    ServeCounters {
        hits: stats_counter(&stats, "hits"),
        misses: stats_counter(&stats, "misses"),
        coalesced: stats_counter(&stats, "coalesced"),
        anonymize_runs: stats_counter(&stats, "anonymize_runs"),
    }
}

fn timed_requests(addr: SocketAddr, target: &str, body: &[u8], requests: usize) -> PathThroughput {
    let (hits0, misses0) = cache_counters(addr);
    // Open a fresh trace window: the server runs in-process, so its
    // completed request traces land in the shared ring this drains.
    // The ring holds the last 64 traces — with more timed requests than
    // that the stage totals cover only the tail of the window.
    let _ = ldiv_obs::take_traces();
    let mut latencies_ms = Vec::with_capacity(requests);
    let start = Instant::now();
    for _ in 0..requests {
        let sent = Instant::now();
        let response = http_request_raw(addr, "POST", target, body);
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        assert!(
            response.starts_with(b"HTTP/1.1 200"),
            "bench request failed: {}",
            String::from_utf8_lossy(&response)
        );
    }
    let seconds = start.elapsed().as_secs_f64();
    let stages = stage_rollup(&ldiv_obs::take_traces());
    let (hits1, misses1) = cache_counters(addr);
    PathThroughput {
        requests,
        seconds,
        rps: requests as f64 / seconds.max(f64::EPSILON),
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        hits: hits1 - hits0,
        misses: misses1 - misses0,
        stages,
    }
}

/// Drives one storm: each target gets its own client thread issuing
/// `per_client` requests back-to-back over real sockets. Latencies pool
/// across clients; the counter deltas come from `/stats`.
fn storm_drive(addr: SocketAddr, targets: &[String], body: &[u8], per_client: usize) -> StormPath {
    let before = serve_counters(addr);
    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .map(|target| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let sent = Instant::now();
                        let response = http_request_raw(addr, "POST", target, body);
                        lat.push(sent.elapsed().as_secs_f64() * 1e3);
                        assert!(
                            response.starts_with(b"HTTP/1.1 200"),
                            "storm request failed: {}",
                            String::from_utf8_lossy(&response)
                        );
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm client"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let after = serve_counters(addr);
    StormPath {
        clients: targets.len(),
        requests: latencies_ms.len(),
        seconds,
        rps: latencies_ms.len() as f64 / seconds.max(f64::EPSILON),
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        anonymize_runs: after.anonymize_runs - before.anonymize_runs,
    }
}

/// The fan-in storms. Each storm gets a fresh, **cold** server — the
/// first wave is the interesting part: with every client missing at
/// once, single-flight coalescing must collapse identical misses onto
/// one leader run. The worker pool is sized to the client count so the
/// whole fan-in can park concurrently instead of queueing.
fn measure_storm(cfg: &ServiceBenchConfig, csv: &[u8]) -> StormThroughput {
    let server_config = || ServerConfig {
        workers: cfg.concurrency.clamp(2, 64),
        queue_depth: cfg.concurrency.max(64),
        cache_capacity: 256,
        ..ServerConfig::default()
    };
    let target = format!("/anonymize?algo={}&l={}", cfg.mechanism, cfg.l);

    let identical = cfg.duplicates.then(|| {
        let server = Server::bind("127.0.0.1:0", standard_registry(), server_config())
            .expect("bind identical-storm server");
        let targets = vec![target.clone(); cfg.concurrency];
        let path = storm_drive(server.addr(), &targets, csv, cfg.storm_requests);
        server.shutdown();
        path
    });

    // The mixed storm spreads clients over MIXED_KEY_GROUPS distinct
    // cache keys via `fanout` (output-neutral for this measurement, but
    // a canonical-params — and therefore cache-key — component), so it
    // demonstrates that coalescing merges only *identical* work.
    let server = Server::bind("127.0.0.1:0", standard_registry(), server_config())
        .expect("bind mixed-storm server");
    let targets: Vec<String> = (0..cfg.concurrency)
        .map(|i| format!("{target}&fanout={}", 2 + (i % MIXED_KEY_GROUPS)))
        .collect();
    let mixed = storm_drive(server.addr(), &targets, csv, cfg.storm_requests);
    server.shutdown();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    StormThroughput {
        cores,
        identical,
        mixed,
    }
}

/// Measures requests/sec through `POST /anonymize` for the cached and the
/// uncached path. Tracing is armed for the duration so each path's
/// throughput comes with its per-stage time decomposition.
pub fn measure_service(cfg: &ServiceBenchConfig) -> ServiceThroughput {
    ldiv_obs::set_armed(true);
    let table = sal(&AcsConfig {
        rows: cfg.rows,
        seed: cfg.seed,
    });
    let mut csv = Vec::new();
    write_table_csv(&mut csv, &table).expect("render dataset CSV");
    let target = format!("/anonymize?algo={}&l={}", cfg.mechanism, cfg.l);

    let server_config = |cache_capacity| ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity,
        ..ServerConfig::default()
    };

    let uncached_server = Server::bind("127.0.0.1:0", standard_registry(), server_config(0))
        .expect("bind uncached server");
    let uncached = timed_requests(uncached_server.addr(), &target, &csv, cfg.requests);
    uncached_server.shutdown();

    let cached_server = Server::bind("127.0.0.1:0", standard_registry(), server_config(256))
        .expect("bind cached server");
    // Warm the single cache line, then time pure hits.
    let warm = http_request(cached_server.addr(), "POST", &target, &csv);
    assert!(warm.starts_with("HTTP/1.1 200"), "warm-up failed: {warm}");
    let cached = timed_requests(cached_server.addr(), &target, &csv, cfg.requests);

    // The binary face of the same cache line: `format` is not a cache-key
    // component, so the JSON warm-up above already warmed this path too —
    // every timed binary request is a hit, with the body re-encoded as an
    // LDVW block after the lookup.
    let bin_target = format!("{target}&format=bin");
    let cached_bin = timed_requests(cached_server.addr(), &bin_target, &csv, cfg.requests);
    let json_response = http_request_raw(cached_server.addr(), "POST", &target, &csv);
    let bin_response = http_request_raw(cached_server.addr(), "POST", &bin_target, &csv);
    let wire = WireComparison {
        json_bytes: response_body(&json_response).len(),
        bin_bytes: response_body(&bin_response).len(),
    };
    cached_server.shutdown();

    let storm = (cfg.concurrency > 0).then(|| measure_storm(cfg, &csv));

    ServiceThroughput {
        uncached,
        cached,
        cached_bin,
        wire,
        storm,
    }
}

/// The aligned text report the `server_throughput` binary prints.
pub fn render_report(cfg: &ServiceBenchConfig, t: &ServiceThroughput) -> String {
    let mut out = format!(
        "server throughput — {} rows, mechanism {}, l = {}, {} requests per path\n\n",
        cfg.rows, cfg.mechanism, cfg.l, cfg.requests
    );
    out.push_str(&format!(
        "{:>10} {:>12} {:>10} {:>9} {:>9} {:>8} {:>8}\n",
        "path", "req/s", "seconds", "p50 ms", "p99 ms", "hits", "misses"
    ));
    for (name, p) in [
        ("uncached", &t.uncached),
        ("cached", &t.cached),
        ("cached-bin", &t.cached_bin),
    ] {
        out.push_str(&format!(
            "{:>10} {:>12.1} {:>10.3} {:>9.2} {:>9.2} {:>8} {:>8}\n",
            name, p.rps, p.seconds, p.p50_ms, p.p99_ms, p.hits, p.misses
        ));
    }
    out.push_str(&format!("\ncache speedup: {:.1}×\n", t.speedup()));
    out.push_str(&format!(
        "wire payload: json {} bytes, bin {} bytes ({:.2}× of json)\n",
        t.wire.json_bytes,
        t.wire.bin_bytes,
        t.wire.ratio()
    ));
    if let Some(storm) = &t.storm {
        out.push_str(&format!(
            "\nstorm — {} clients × {} requests each ({} cores):\n{:>10} {:>12} {:>9} {:>9} {:>8} {:>8} {:>10} {:>6}\n",
            storm.mixed.clients,
            storm.mixed.requests / storm.mixed.clients.max(1),
            storm.cores,
            "storm",
            "req/s",
            "p50 ms",
            "p99 ms",
            "hits",
            "misses",
            "coalesced",
            "runs"
        ));
        let rows = storm
            .identical
            .iter()
            .map(|p| ("identical", p))
            .chain(std::iter::once(("mixed", &storm.mixed)));
        for (name, p) in rows {
            out.push_str(&format!(
                "{:>10} {:>12.1} {:>9.2} {:>9.2} {:>8} {:>8} {:>10} {:>6}\n",
                name, p.rps, p.p50_ms, p.p99_ms, p.hits, p.misses, p.coalesced, p.anonymize_runs
            ));
        }
    }
    for (name, p) in [("uncached", &t.uncached), ("cached", &t.cached)] {
        if p.stages.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\n{name} stages:\n{:>18} {:>7} {:>12}\n",
            "stage", "count", "total ms"
        ));
        for s in &p.stages {
            out.push_str(&format!(
                "{:>18} {:>7} {:>12.3}\n",
                s.stage, s.count, s.total_ms
            ));
        }
    }
    out
}

/// Rounds to three decimals so committed baselines stay short and diffs
/// stay readable; the raw measurements are noisier than that anyway.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// The JSON form of a stage rollup, shared by the serve and fig2 bench
/// reports.
pub fn stages_json(stages: &[StageStat]) -> Json {
    Json::Arr(
        stages
            .iter()
            .map(|s| {
                Json::obj()
                    .field("stage", s.stage.as_str())
                    .field("count", s.count as i64)
                    .field("total_ms", round3(s.total_ms))
            })
            .collect(),
    )
}

fn path_json(cfg: &ServiceBenchConfig, p: &PathThroughput) -> Json {
    Json::obj()
        .field("requests", p.requests)
        .field("seconds", round3(p.seconds))
        .field("requests_per_sec", round3(p.rps))
        .field("rows_per_sec", round3(p.rps * cfg.rows as f64))
        .field("p50_ms", round3(p.p50_ms))
        .field("p99_ms", round3(p.p99_ms))
        .field("cache_hits", p.hits as i64)
        .field("cache_misses", p.misses as i64)
        .field("stages", stages_json(&p.stages))
}

/// The JSON form of one storm path (fan-in counters included).
fn storm_json(p: &StormPath) -> Json {
    Json::obj()
        .field("clients", p.clients)
        .field("requests", p.requests)
        .field("seconds", round3(p.seconds))
        .field("requests_per_sec", round3(p.rps))
        .field("p50_ms", round3(p.p50_ms))
        .field("p99_ms", round3(p.p99_ms))
        .field("cache_hits", p.hits as i64)
        .field("cache_misses", p.misses as i64)
        .field("coalesced", p.coalesced as i64)
        .field("anonymize_runs", p.anonymize_runs as i64)
}

/// The machine-readable report behind `server_throughput --json`: the
/// committed `BENCH_serve.json` baseline is exactly this object.
/// Schema 2 added the per-stage decomposition (`stages`) to each path;
/// schema 3 added the binary-negotiated cached path (`cached_bin`) and
/// the `wire` payload-size comparison; schema 4 added the `storm`
/// section (concurrent fan-in with single-flight coalescing counters).
pub fn render_json_report(cfg: &ServiceBenchConfig, t: &ServiceThroughput) -> Json {
    let mut json = Json::obj()
        .field("bench", "server_throughput")
        .field("schema", 4i64)
        .field("rows", cfg.rows)
        .field("mechanism", cfg.mechanism)
        .field("l", cfg.l)
        .field("seed", cfg.seed as i64)
        .field("uncached", path_json(cfg, &t.uncached))
        .field("cached", path_json(cfg, &t.cached))
        .field("cached_bin", path_json(cfg, &t.cached_bin))
        .field(
            "wire",
            Json::obj()
                .field("json_bytes", t.wire.json_bytes)
                .field("bin_bytes", t.wire.bin_bytes)
                .field("ratio", round3(t.wire.ratio())),
        );
    if let Some(storm) = &t.storm {
        let mut s = Json::obj()
            .field("concurrency", storm.mixed.clients)
            .field(
                "requests_per_client",
                storm.mixed.requests / storm.mixed.clients.max(1),
            )
            .field("cores", storm.cores)
            .field("mixed_key_groups", MIXED_KEY_GROUPS);
        if let Some(identical) = &storm.identical {
            s = s.field("identical", storm_json(identical));
        }
        s = s.field("mixed", storm_json(&storm.mixed));
        json = json.field("storm", s);
    }
    json.field("cache_speedup", round3(t.speedup()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_path_is_served_from_the_cache() {
        let cfg = ServiceBenchConfig {
            rows: 400,
            requests: 6,
            l: 3,
            ..Default::default()
        };
        let t = measure_service(&cfg);
        // Uncached server has capacity 0: every request misses.
        assert_eq!(t.uncached.hits, 0);
        assert_eq!(t.uncached.misses as usize, cfg.requests);
        // Cached server was warmed: every timed request hits.
        assert_eq!(t.cached.hits as usize, cfg.requests);
        assert_eq!(t.cached.misses, 0);
        // The binary path hits the very same cache line: the JSON warm-up
        // warmed it (format is not a cache-key component), so every
        // binary request is a hit too.
        assert_eq!(t.cached_bin.hits as usize, cfg.requests);
        assert_eq!(t.cached_bin.misses, 0);
        // Both faces carried a real payload and the block framing plus
        // varint/float packing undercuts JSON text for this shape.
        assert!(t.wire.json_bytes > 0 && t.wire.bin_bytes > 0);
        assert!(
            t.wire.bin_bytes < t.wire.json_bytes,
            "bin {} !< json {}",
            t.wire.bin_bytes,
            t.wire.json_bytes
        );
        assert!(t.uncached.rps > 0.0 && t.cached.rps > 0.0 && t.cached_bin.rps > 0.0);
        assert!(t.uncached.p50_ms > 0.0 && t.uncached.p99_ms >= t.uncached.p50_ms);
        let report = render_report(&cfg, &t);
        assert!(report.contains("cache speedup"), "{report}");
        let json = render_json_report(&cfg, &t).render();
        let parsed = Json::parse(&json).expect("bench JSON parses back");
        assert_eq!(
            parsed.get("bench"),
            Some(&Json::Str("server_throughput".into()))
        );
        assert_eq!(parsed.get("schema"), Some(&Json::Int(4)));
        // No storm was configured: the section is absent, not empty.
        assert!(parsed.get("storm").is_none());
        assert!(json.contains("\"p99_ms\":"), "{json}");
        assert!(json.contains("\"cached_bin\":{"), "{json}");
        assert!(json.contains("\"wire\":{\"json_bytes\":"), "{json}");
        assert!(report.contains("cached-bin"), "{report}");
        assert!(report.contains("wire payload: json"), "{report}");
        // Tracing was armed for the window: the uncached path must show
        // the compute stages (each request ran the mechanism and the KL
        // accounting), while the cached path only probes the cache.
        let stage_names: Vec<&str> = t.uncached.stages.iter().map(|s| s.stage.as_str()).collect();
        for expected in ["cache:lookup", "csv:read", "kl", "shard:anonymize"] {
            assert!(
                stage_names.contains(&expected),
                "missing stage {expected}: {stage_names:?}"
            );
        }
        assert!(json.contains("\"stages\":["), "{json}");
        assert!(report.contains("uncached stages:"), "{report}");
    }

    #[test]
    fn storms_coalesce_identical_work_and_only_identical_work() {
        let cfg = ServiceBenchConfig {
            rows: 400,
            requests: 4,
            l: 3,
            concurrency: 4,
            duplicates: true,
            storm_requests: 3,
            ..Default::default()
        };
        let t = measure_service(&cfg);
        let storm = t.storm.as_ref().expect("storm configured");
        let identical = storm.identical.as_ref().expect("duplicates configured");
        // The coalescing proof: every client drove the same key against
        // a cold cache, and the mechanism still ran exactly once.
        assert_eq!(identical.anonymize_runs, 1, "{identical:?}");
        assert_eq!(identical.requests, cfg.concurrency * cfg.storm_requests);
        // Everything that didn't run was a hit or a coalesced join.
        assert_eq!(
            identical.hits + identical.coalesced + identical.anonymize_runs,
            identical.requests as u64,
            "{identical:?}"
        );
        // Mixed storm: one client per key group, so nothing coalesces
        // and every distinct key computes once — distinct work is never
        // merged or serialized away.
        assert_eq!(storm.mixed.anonymize_runs, MIXED_KEY_GROUPS as u64);
        assert_eq!(storm.mixed.coalesced, 0, "{:?}", storm.mixed);
        let json = render_json_report(&cfg, &t).render();
        assert!(json.contains("\"storm\":{\"concurrency\":4"), "{json}");
        assert!(json.contains("\"identical\":{"), "{json}");
        assert!(json.contains("\"anonymize_runs\":1"), "{json}");
        let report = render_report(&cfg, &t);
        assert!(report.contains("identical"), "{report}");
        assert!(report.contains("coalesced"), "{report}");
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
