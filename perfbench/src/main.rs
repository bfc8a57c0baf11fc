//! `perfbench`: the service benchmark for `ldiv serve`.
//!
//! One run starts the real server as a child process, sets it up
//! several times (`setup_s` is the median), and drives one of them
//! over loopback sockets in a closed loop — two clients, one request in
//! flight each, against two workers — for `--seconds`. Every response is
//! checked after the timed window against a reference the benchmark
//! builds in-process. With `--trace 1` the run replays every operation
//! in-process under bench-side spans and reports per-layer numbers
//! instead of end-to-end ones.
//!
//! ```text
//! perfbench --ldiv PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --ldiv PATH --smoke
//! ```
//!
//! The last line of stdout is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod client;
mod replay;
mod trace;
mod workload;

use ldiversity::wire::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{median, median_ms, total_ns};
use workload::{Inputs, Sizes, Workload, CLIENTS};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. `_ms` metrics are
/// medians over operations of one layer call's time; 0 means no
/// operation of the workload makes that call.
const PER_LAYER: [(&str, &str); 31] = [
    ("server.handle_ms", "ms"),
    ("server.outside_ms", "ms"),
    ("http.parse_ms", "ms"),
    ("http.write_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("coalesce.joined", "count"),
    ("csv.read_ms", "ms"),
    ("csv.ns_per_row", "ns/row"),
    ("table.fingerprint_ms", "ms"),
    ("mech.tp_ms", "ms"),
    ("mech.tp_plus_ms", "ms"),
    ("mech.hilbert_ms", "ms"),
    ("mech.anatomy_ms", "ms"),
    ("mech.mondrian_ms", "ms"),
    ("mech.tds_ms", "ms"),
    ("kl.suppressed_ms", "ms"),
    ("kl.boxes_ms", "ms"),
    ("kl.anatomy_ms", "ms"),
    ("kl.recoded_ms", "ms"),
    ("wire.summary_ms", "ms"),
    ("wire.ldvw_encode_ms", "ms"),
    ("wire.bin_ratio", "ratio"),
    ("store.append_ms", "ms"),
    ("store.load_table_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.shard_reuse_ratio", "ratio"),
    ("store.bytes_written_per_input_byte", "ratio"),
    ("shard.repair_merge_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Whether a span is one of the parts `server.handle` should be made
/// of on `anonymize_cold`: parse, mechanism, KL and summary.
fn handle_part(span: &str) -> bool {
    span == "csv.read"
        || span == "wire.summary"
        || span.starts_with("mech.")
        || span.starts_with("kl.")
}

/// How the store makes writes durable, stated so that a change to it
/// reads as a store-only change.
const STORE_FLUSH_POLICY: &str = "no fsync (temp file + rename)";

/// Scratch output, inside the checkout the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    ldiv: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        ldiv: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--ldiv" => parsed.ldiv = PathBuf::from(value),
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.ldiv.as_os_str().is_empty() {
        return Err("--ldiv PATH is required".into());
    }
    if !parsed.smoke && parsed.workload.is_none() {
        return Err("--workload NAME is required".into());
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// Removes every `LDIV_*` variable from this process's environment, so
/// neither the in-process replay nor the server child sees one.
fn clear_ldiv_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LDIV_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn main() {
    // Before any thread starts: environment edits are not thread-safe.
    let removed = clear_ldiv_env();
    ldiversity::obs::set_armed(false);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.smoke {
        smoke(&args)
    } else {
        let workload = args.workload.expect("checked by parse_args");
        run(&args, workload, Sizes::FULL, &removed).map(|outcome| outcome.print(args.trace))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// A finished run: the verdict, the metrics and the context lines.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    context: Json,
    problems: Vec<String>,
}

impl Outcome {
    fn print(&self, trace: bool) {
        for p in self.problems.iter().take(10) {
            eprintln!("perfbench: {p}");
        }
        println!("{}", self.context.render());
        let (values, names): (_, &[(&str, &str)]) = if trace {
            (&self.per_layer, &PER_LAYER)
        } else {
            (&self.end_to_end, &END_TO_END)
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Bytes under a directory, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// The commit when the working directory is a git work tree's root,
/// else "unknown".
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (paths and bytes, in path order),
/// which names the code measured even where there is no git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let fnv = |h: u64, bytes: &[u8]| {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        h = fnv(h, f.to_string_lossy().as_bytes());
        h = fnv(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Deletes a directory tree when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn fresh(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall time per phase of a run, for the context line.
struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn start() -> Phases {
        Phases {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    fn json(&self) -> Json {
        self.done
            .iter()
            .fold(Json::obj(), |j, &(name, s)| j.field(name, s))
    }
}

/// What the set-ups and the timed window measured, before any check.
struct Timed {
    drive: client::Drive,
    setup_s: Vec<f64>,
    rss_kib: u64,
    stats_before: Json,
    stats_after: Json,
    /// `store_trickle`: store directory growth over the window, in bytes.
    store_growth: u64,
    fingerprints: Vec<String>,
}

impl Timed {
    /// A `/stats` counter's change over the timed window.
    fn delta(&self, path: &str) -> Result<f64, String> {
        Ok(
            (client::stat(&self.stats_after, path)? - client::stat(&self.stats_before, path)?)
                as f64,
        )
    }

    /// `num` as a share of `num + other`, from counter deltas; 0 when
    /// both are 0.
    fn share(&self, num: &str, other: &str) -> Result<f64, String> {
        let (num, other) = (self.delta(num)?, self.delta(other)?);
        Ok(if num + other > 0.0 {
            num / (num + other)
        } else {
            0.0
        })
    }

    fn latencies_ms(&self, client: Option<usize>) -> Vec<f64> {
        self.drive
            .ops
            .iter()
            .filter(|op| client.is_none_or(|c| op.client == c))
            .map(|op| op.latency_s * 1e3)
            .collect()
    }
}

/// Completed operations per second in each of `n` equal slices of the
/// timed window, which shows drift within a run.
fn window_rates(drive: &client::Drive, n: usize) -> Json {
    let width = drive.wall_s / n as f64;
    Json::Arr(
        (0..n)
            .map(|i| {
                let done = drive
                    .ops
                    .iter()
                    .filter(|op| ((op.done_s / width) as usize).min(n - 1) == i)
                    .count();
                Json::Float(done as f64 / width.max(f64::EPSILON))
            })
            .collect(),
    )
}

/// Sets the workload up `sizes.setups` times, each on a fresh server,
/// and times one of them for `args.seconds`. About half the set-ups run
/// before the timed window and the rest after it, so that `setup_s`
/// samples the machine at both ends of the run rather than in one burst
/// that a passing slow spell of a shared host can cover.
fn measure(args: &Args, inputs: &Inputs, tmp: &Path) -> Result<Timed, String> {
    let setups = inputs.sizes.setups;
    let store_root =
        |i: usize| (inputs.workload == Workload::Store).then(|| tmp.join(format!("serve-{i}")));
    let untimed = |i: usize| -> Result<f64, String> {
        let root = store_root(i);
        let seconds = workload::set_up(inputs, &args.ldiv, root.as_deref())?.seconds;
        if let Some(root) = &root {
            let _ = std::fs::remove_dir_all(root);
        }
        Ok(seconds)
    };
    let timed_at = setups.div_ceil(2) - 1;
    let mut setup_s = (0..timed_at)
        .map(untimed)
        .collect::<Result<Vec<f64>, String>>()?;
    let setup = workload::set_up(inputs, &args.ldiv, store_root(timed_at).as_deref())?;
    setup_s.push(setup.seconds);
    let addr = setup.server.addr;
    let stored = || setup.store_root.as_deref().map_or(0, dir_bytes);

    let stats_before = client::stats(addr)?;
    let bytes_before = stored();
    let next = |c: usize, s: usize, g: usize| inputs.requests(&setup, c, s, g);
    let drive = client::drive(addr, CLIENTS, args.seconds, &next);
    let stats_after = client::stats(addr)?;
    let timed = Timed {
        drive,
        setup_s: Vec::new(),
        rss_kib: setup.server.peak_rss_kib()?,
        stats_before,
        stats_after,
        store_growth: stored().saturating_sub(bytes_before),
        fingerprints: setup.fingerprints.clone(),
    };
    drop(setup);
    for i in timed_at + 1..setups {
        setup_s.push(untimed(i)?);
    }
    Ok(Timed { setup_s, ..timed })
}

/// One benchmark run of one workload.
fn run(
    args: &Args,
    workload: Workload,
    sizes: Sizes,
    removed: &[String],
) -> Result<Outcome, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    let tmp = TempDir::fresh(out_dir.join(format!("tmp-{}", std::process::id())))?;
    let mut phases = Phases::start();
    let inputs = Inputs::generate(workload, args.seed, sizes);
    phases.lap("inputs");
    let timed = measure(args, &inputs, &tmp.0)?;
    phases.lap("setups_and_timed");

    // Check every response; with --trace 1, also replay under spans.
    // The traced store replay covers every operation, so it is the check.
    let mut problems = Vec::new();
    let passes: &[(&str, bool)] = match (args.trace, workload) {
        (false, _) => &[("check", false)],
        (true, Workload::Store) => &[("traced", true)],
        (true, _) => &[("check", false), ("traced", true)],
    };
    let mut replays = Vec::new();
    for &(name, traced) in passes {
        let work = TempDir::fresh(tmp.0.join(name))?;
        match replay::replay(
            &inputs,
            &timed.drive.ops,
            &timed.fingerprints,
            &work.0,
            traced,
        ) {
            Ok(r) => replays.push(r),
            Err(e) => problems.push(format!("replay {name}: {e}")),
        }
    }
    phases.lap("replay");
    let replay_ok = problems.is_empty();
    let wrong = replays.first().map(|r| r.wrong.clone()).unwrap_or_default();
    for r in &replays {
        problems.extend(r.inconsistent.iter().cloned());
    }
    let consistent = problems.is_empty();
    let mut failed = 0;
    for op in &timed.drive.ops {
        if let Some(why) = op.error.as_ref().or_else(|| wrong.get(&op.global)) {
            failed += 1;
            problems.push(format!("op {}: {why}", op.global));
        }
    }
    let attempted = timed.drive.ops.len();

    let latencies_ms = timed.latencies_ms(None);
    let p50 = percentile(&latencies_ms, 0.50);
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "ops_per_s",
        (attempted - failed) as f64 / timed.drive.wall_s.max(f64::EPSILON),
    );
    end_to_end.insert("latency_p50_ms", p50);
    end_to_end.insert("latency_p99_ms", percentile(&latencies_ms, 0.99));
    end_to_end.insert("setup_s", median(&timed.setup_s));
    end_to_end.insert("peak_rss_mib", timed.rss_kib as f64 / 1024.0);

    let mut per_layer = counter_metrics(workload, &timed)?;
    let mut context = Json::obj()
        .field("bench", "perfbench")
        .field("workload", workload.name())
        .field("seed", args.seed.to_string())
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("commit", commit())
        .field("source_fnv", source_fingerprint())
        .field("clients", CLIENTS)
        .field("server_workers", CLIENTS)
        .field("rows_per_table", sizes.rows)
        .field("ops", attempted)
        .field("failed", failed)
        .field("error_rate", failed as f64 / attempted.max(1) as f64)
        .field(
            "samples_beyond_p99",
            latencies_ms.len() - (latencies_ms.len() as f64 * 0.99).ceil() as usize,
        )
        .field(
            "client_p50_ms",
            Json::Arr(
                (0..CLIENTS)
                    .map(|c| Json::Float(percentile(&timed.latencies_ms(Some(c)), 0.5)))
                    .collect(),
            ),
        )
        .field("window_ops_per_s", window_rates(&timed.drive, 4))
        .field(
            "setup_runs_s",
            Json::Arr(timed.setup_s.iter().map(|&s| Json::Float(s)).collect()),
        )
        .field("store_flush_policy", STORE_FLUSH_POLICY)
        .field(
            "ldiv_env_removed",
            Json::Arr(removed.iter().map(|n| Json::Str(n.clone())).collect()),
        );
    if let (true, true, Some(traced)) = (args.trace, replay_ok, replays.last()) {
        per_layer.extend(span_metrics(traced, p50));
        let took = traced.profile.durations_ns();
        let handle_ns = total_ns(&took, "server.handle");
        if workload == Workload::Cold && handle_ns > 0 {
            let parts: u64 = took
                .iter()
                .filter(|((_, span), _)| handle_part(span))
                .map(|(_, &ns)| ns)
                .sum();
            context = context.field("replay_coverage_of_handle", parts as f64 / handle_ns as f64);
        }
        let path = out_dir.join(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
        traced
            .profile
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        context = context.field("spans_file", path.display().to_string());
    }
    phases.lap("report");
    Ok(Outcome {
        correct: failed == 0 && consistent && attempted > 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        context: context.field("phase_s", phases.json()),
        problems,
    })
}

/// The per-layer metrics read off `/stats` deltas and the store
/// directory, which repeat exactly for the same operations.
fn counter_metrics(
    workload: Workload,
    timed: &Timed,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    m.insert(
        "cache.hit_ratio",
        timed.share("cache.hits", "cache.misses")?,
    );
    m.insert("cache.evictions", timed.delta("cache.evictions")?);
    m.insert("coalesce.joined", timed.delta("coalesced")?);
    if workload == Workload::Store {
        m.insert(
            "store.shard_reuse_ratio",
            timed.share("store.shards_reused", "store.shards_computed")?,
        );
        let appended: usize = timed
            .drive
            .ops
            .iter()
            .filter(|op| op.responses.first().is_some_and(|r| r.is_success()))
            .map(|op| op.requests[0].body.len())
            .sum();
        m.insert(
            "store.bytes_written_per_input_byte",
            timed.store_growth as f64 / appended.max(1) as f64,
        );
    }
    Ok(m)
}

/// The per-layer metrics derived from the traced replay's spans.
fn span_metrics(traced: &replay::Replay, e2e_p50_ms: f64) -> BTreeMap<&'static str, f64> {
    let took = traced.profile.durations_ns();
    let mut m = BTreeMap::new();
    for (metric, _) in PER_LAYER {
        if let Some(span) = metric.strip_suffix("_ms") {
            m.insert(metric, median_ms(&took, span));
        }
    }
    m.insert("server.outside_ms", e2e_p50_ms - m["server.handle_ms"]);
    let ns_per_row: Vec<f64> = traced
        .profile
        .notes("rows")
        .iter()
        .filter_map(|(op, &rows)| Some(*took.get(&(*op, "csv.read"))? as f64 / rows.max(1.0)))
        .collect();
    m.insert("csv.ns_per_row", median(&ns_per_row));
    let bin: Vec<f64> = traced.profile.notes("bin_ratio").into_values().collect();
    m.insert("wire.bin_ratio", median(&bin));
    let ops = traced.ops.max(1) as f64;
    let spans_per_op = traced.profile.spans.len() as f64 / ops;
    let mean_op_ns = (traced.op_ns as f64 / ops).max(1.0);
    m.insert(
        "trace.overhead_pct",
        spans_per_op * trace::span_cost_ns() / mean_op_ns * 100.0,
    );
    m
}

/// The self-test: every workload at a tiny size, both modes, with the
/// invariants the issue states checked on the result.
fn smoke(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let run_args = Args {
                ldiv: args.ldiv.clone(),
                workload: Some(workload),
                seed: args.seed,
                seconds: 1.0,
                trace,
                smoke: false,
            };
            let o = run(&run_args, workload, Sizes::SMOKE, &[])?;
            let name = format!("{} trace={}", workload.name(), trace as u8);
            let mut check = |ok: bool, what: &str| {
                if !ok {
                    failures.push(format!("{name}: {what}"));
                }
            };
            check(o.correct && o.failed == 0 && o.attempted > 0, "not correct");
            for p in &o.problems {
                eprintln!("perfbench smoke: {name}: {p}");
            }
            println!("smoke {name}: {} ops", o.attempted);
            if !trace {
                check(
                    o.end_to_end.values().all(|&v| v > 0.0),
                    "an end-to-end metric is 0",
                );
                continue;
            }
            let layer = |m: &str| o.per_layer.get(m).copied().unwrap_or(0.0);
            check(layer("coalesce.joined") == 0.0, "coalesce.joined != 0");
            check(layer("server.handle_ms") > 0.0, "server.handle_ms is 0");
            match workload {
                Workload::Cold => {
                    check(layer("cache.hit_ratio") == 0.0, "cache.hit_ratio != 0");
                    let coverage = o.context.get("replay_coverage_of_handle");
                    check(
                        matches!(coverage, Some(Json::Float(c)) if *c >= 0.8),
                        "replay spans cover < 80% of server.handle",
                    );
                    for m in ["mech.tp_ms", "mech.tds_ms", "kl.recoded_ms", "kl.boxes_ms"] {
                        check(layer(m) > 0.0, &format!("{m} is 0"));
                    }
                }
                Workload::Repeat => {
                    check(layer("cache.hit_ratio") == 1.0, "cache.hit_ratio != 1");
                    check(layer("mech.tp_ms") == 0.0, "a hit ran a mechanism");
                }
                Workload::Store => {
                    let reuse = layer("store.shard_reuse_ratio");
                    check(
                        reuse > 0.0 && reuse < 1.0,
                        "store.shard_reuse_ratio not in (0, 1)",
                    );
                    for m in [
                        "store.publish_ms",
                        "shard.repair_merge_ms",
                        "store.load_table_ms",
                    ] {
                        check(layer(m) > 0.0, &format!("{m} is 0"));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(format!("smoke failed: {}", failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn every_metric_has_a_unit_and_a_distinct_name() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn args_need_a_workload_and_reject_unknown_flags() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--ldiv", "x", "--seed", "3"]).is_err());
        assert!(args(&["--ldiv", "x", "--workload", "nope"]).is_err());
        assert!(args(&["--ldiv", "x", "--bogus", "1"]).is_err());
        let ok = args(&["--ldiv", "x", "--workload", "store_trickle", "--trace", "1"]).unwrap();
        assert!(ok.trace && ok.workload == Some(Workload::Store));
    }
}
