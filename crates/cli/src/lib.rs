//! Implementation of the `ldiv` command-line tool.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic SAL/OCC-style CSV dataset;
//! * `stats` — describe a CSV dataset (cardinality, `d`, `m`, the largest
//!   feasible `l`, QI diversity);
//! * `anonymize` — produce an l-diverse publication with any registered
//!   mechanism (`tp`, `tp+`, `hilbert`, `tds`, `mondrian`, `anatomy`) and
//!   write its suppression rendering as CSV;
//! * `anatomize` — anatomy's native two-table output (QIT + ST CSVs);
//! * `compare` — run every registered mechanism on one dataset;
//! * `sweep` — the §5.6 preprocessing trade-off table;
//! * `serve` — the `ldiv-server` anonymization service over the standard
//!   registry (worker pool, publication cache, JSON wire format);
//! * `wire` — the LDVW binary block toolbox: `encode`, `decode`,
//!   `inspect`, `validate`, `stats`.
//!
//! `stats`, `anonymize` and `compare` accept `--format json`, emitting
//! the same wire shapes (`ldiv_server::wire`) the server responds with,
//! so scripted consumers can switch between the CLI and the service
//! without reparsing — and `--format bin`, the same value as one LDVW
//! binary block (decode it back with `ldiv wire decode`).
//!
//! Contract: `--input -` reads the dataset from stdin; success exits 0,
//! user/runtime errors exit 1, usage mistakes exit 2 (see
//! [`LdivError::exit_code`]). The library half keeps command logic
//! testable; `main.rs` is a thin argument shell.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ldiv_api::{Deadline, LdivError, Params};
use ldiv_datagen::{occ, sal, AcsConfig};
use ldiv_exec::Executor;
use ldiv_guard::guarded;
use ldiv_metrics::{kl_divergence_with, PublicationSummary};
use ldiv_microdata::{
    read_csv_with, write_generalized_csv, write_table_csv, SuppressedTable, Table,
};
use ldiv_server::{wire, Server, ServerConfig};
use ldiv_wire::Json;
use ldiversity::standard_registry;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

/// Flags that take no value — their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &["trace"];

/// A parsed option bag: `--key value` pairs plus the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The subcommand name.
    pub command: String,
    /// Key → value for every `--key value` pair.
    pub flags: HashMap<String, String>,
}

fn usage_err(msg: impl Into<String>) -> LdivError {
    LdivError::Usage(msg.into())
}

impl Options {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, LdivError> {
        let mut it = args.iter();
        let mut command = it
            .next()
            .ok_or_else(|| usage_err("missing subcommand"))?
            .clone();
        // `dataset` and `wire` are command families: their action word
        // joins the command ("dataset register", "wire inspect"),
        // keeping the rest of the grammar strictly `--flag value`.
        if command == "dataset" {
            let action = it.next().filter(|a| !a.starts_with("--")).ok_or_else(|| {
                usage_err("dataset needs an action: register | append | publish | list")
            })?;
            command.push(' ');
            command.push_str(action);
        }
        if command == "wire" {
            let action = it.next().filter(|a| !a.starts_with("--")).ok_or_else(|| {
                usage_err("wire needs an action: inspect | validate | encode | decode | stats")
            })?;
            command.push(' ');
            command.push_str(action);
        }
        let mut flags = HashMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| usage_err(format!("expected --flag, found '{key}'")))?;
            // Boolean flags: presence is the value, nothing is consumed.
            if BOOLEAN_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| usage_err(format!("--{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Options { command, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, LdivError> {
        self.get(key)
            .ok_or_else(|| usage_err(format!("missing --{key}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, LdivError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|e| usage_err(format!("--{key}: {e}"))),
        }
    }

    fn require_l(&self) -> Result<u32, LdivError> {
        self.require("l")?
            .parse()
            .map_err(|e| usage_err(format!("--l: {e}")))
    }

    /// The `--format` flag: `text` (default) or `json`. The `bin` form
    /// never reaches here — [`run_bytes`] intercepts it and re-enters
    /// with `json`, encoding the resulting line as one LDVW block.
    fn format(&self) -> Result<Format, LdivError> {
        match self.get("format") {
            None => Ok(Format::Text),
            Some("text") => Ok(Format::Text),
            Some("json") => Ok(Format::Json),
            Some(other) => Err(usage_err(format!(
                "--format must be text, json or bin, got '{other}'"
            ))),
        }
    }
}

/// Output format of the reporting subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Runs `job` under a request-scoped trace when `--trace` was given:
/// arms the tracer, collects the per-stage spans the pipeline records
/// (csv read, shard split, per-shard anonymize, repair/merge, KL) and
/// prints the breakdown table to **stderr** — stdout stays byte-for-byte
/// what the untraced command prints, so piped consumers are unaffected.
fn with_cli_trace<T>(
    enabled: bool,
    name: &'static str,
    job: impl FnOnce() -> Result<T, LdivError>,
) -> Result<T, LdivError> {
    if !enabled {
        return job();
    }
    ldiv_obs::set_armed(true);
    let Some(trace) = ldiv_obs::begin(name) else {
        return job(); // an outer trace is already active; don't nest
    };
    let result = job();
    let finished = trace.finish();
    eprint!("{}", stage_breakdown(&finished));
    result
}

/// The `--trace` breakdown: wall time, then one row per stage with its
/// span count, total time and share of the wall clock. Stages appear in
/// first-execution order; shares can exceed 100% in sum when stages ran
/// concurrently (per-shard spans overlap under `--threads`).
fn stage_breakdown(trace: &ldiv_obs::FinishedTrace) -> String {
    let wall_ms = trace.wall_ns as f64 / 1e6;
    let mut out = format!(
        "trace {} ({}): wall {wall_ms:.3} ms, {} spans\n",
        trace.id_hex(),
        trace.name,
        trace.spans.len()
    );
    out.push_str(&format!(
        "{:>18} {:>7} {:>12} {:>7}\n",
        "stage", "count", "total ms", "share"
    ));
    for stage in trace.stage_totals() {
        let ms = stage.total_ns as f64 / 1e6;
        let share = if trace.wall_ns > 0 {
            100.0 * stage.total_ns as f64 / trace.wall_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>18} {:>7} {ms:>12.3} {share:>6.1}%\n",
            stage.stage, stage.count
        ));
    }
    out
}

/// Renders a wire object as the command's output (one line of JSON).
fn json_line(value: Json) -> String {
    let mut out = value.render();
    out.push('\n');
    out
}

/// Usage text.
pub const USAGE: &str = "\
ldiv — l-diverse anonymization toolkit

USAGE:
  ldiv generate  --kind sal|occ --output FILE [--rows N] [--seed S]
  ldiv stats     --input FILE [--l L] [--format text|json|bin]
  ldiv anonymize --input FILE --l L --algo MECHANISM (--output FILE | --depth D) [--fanout F] [--threads T] [--shards K] [--deadline-ms MS] [--format text|json|bin] [--trace]
  ldiv anatomize --input FILE --l L --qit FILE --st FILE
  ldiv compare   --input FILE --l L [--threads T] [--shards K] [--format text|json|bin] [--trace]
  ldiv sweep     --input FILE --l L [--fanout F] [--depth D]
  ldiv serve     [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] [--threads T] [--shards K] [--deadline-ms MS] [--dataset-root DIR] [--store-root DIR]
  ldiv dataset register --store DIR --input FILE [--format text|json]
  ldiv dataset append   --store DIR --dataset FP --input FILE [--format text|json]
  ldiv dataset publish  --store DIR --dataset FP --algo MECHANISM --l L [--fanout F] [--threads T] [--shards K] [--deadline-ms MS] [--output FILE] [--format text|json]
  ldiv dataset list     --store DIR [--format text|json]
  ldiv wire encode   --input FILE [--output FILE]
  ldiv wire decode   --input FILE
  ldiv wire inspect  --input FILE
  ldiv wire validate --input FILE
  ldiv wire stats    --input FILE

MECHANISM is any registered publication method:
  tp | tp+ | hilbert | tds | mondrian | anatomy

`--input -` reads the dataset CSV from standard input. `--format json`
emits the server wire format (see `ldiv_server::wire`); `--format bin`
emits the same value as one LDVW binary block (`ldiv_wire`), the shape
the server serves under `Accept: application/x-ldiv-bin`.
`ldiv wire ...` works on LDVW blocks directly (`--input -` reads the
block or JSON from stdin): encode JSON → block, decode block → JSON,
inspect/validate/stats for debugging and gating.
`--threads T` caps intra-run parallelism (0 = the machine's
parallelism, 1 = sequential); output is byte-identical for every T.
`--shards K` splits the table K ways, anonymizes the shards
concurrently and stitches with eligibility repair (0 or 1 =
unsharded, the default). Unlike --threads this CHANGES the published
table — the stitched output trades a little utility for shard-level
scaling. `anonymize --depth` (preprocessing) always runs unsharded;
combining it with an explicit --shards is a usage error.
`--trace` prints a per-stage timing breakdown (csv read, shard split,
per-shard anonymize, repair/merge, KL) to stderr after the run; stdout
stays byte-identical to the untraced invocation.
`--deadline-ms MS` caps a run's wall-clock budget (0 = unlimited, the
default); an elapsed budget is a clean 'deadline exceeded' error (HTTP
504 under serve), never a partial publication. The deadline is
execution-only — it does not change the output bytes or the cache key.
`serve` binds 127.0.0.1:7411 by default; `--addr 127.0.0.1:0` picks an
ephemeral port (printed on stdout). POST /anonymize, POST /sweep,
GET /mechanisms, /healthz, /stats, /metrics, /trace (recent request
span trees when LDIV_TRACE=1 is set); with --store-root also the
/datasets routes (register, append, publish). SIGINT/SIGTERM stops
accepting, drains in-flight requests and prints a final stats summary.
`ldiv dataset ...` works the same persistent store directly (share the
DIR with `serve --store-root` to mix CLI ingestion with HTTP serving):
datasets are registered once by content fingerprint, grown by immutable
append batches, and `publish` re-anonymizes only shards whose rows
changed, reusing persisted per-shard results for the rest — the output
is byte-identical to a cold run either way.
Environment (read once at startup): LDIV_TRACE=1 arms request tracing,
LDIV_SLOW_MS=MS logs traces slower than MS to stderr as JSON lines,
LDIV_FAULT=SPEC arms fault injection (panic:<name|*>, slow:<ms>,
queue_stall; comma-separated).
Exit codes: 0 success, 1 user/runtime error, 2 usage error.
";

/// Runs a parsed command, returning the text to print.
pub fn run(opts: &Options) -> Result<String, LdivError> {
    match opts.command.as_str() {
        "generate" => cmd_generate(opts),
        "stats" => cmd_stats(opts),
        "anonymize" => cmd_anonymize(opts),
        "anatomize" => cmd_anatomize(opts),
        "compare" => cmd_compare(opts),
        "sweep" => cmd_sweep(opts),
        "serve" => cmd_serve(opts),
        "dataset register" => cmd_dataset_register(opts),
        "dataset append" => cmd_dataset_append(opts),
        "dataset publish" => cmd_dataset_publish(opts),
        "dataset list" => cmd_dataset_list(opts),
        cmd if cmd.starts_with("dataset ") => Err(usage_err(format!(
            "unknown dataset action '{}': expected register | append | publish | list",
            cmd.strip_prefix("dataset ").unwrap_or("")
        ))),
        "wire inspect" => cmd_wire_inspect(opts),
        "wire validate" => cmd_wire_validate(opts),
        "wire decode" => cmd_wire_decode(opts),
        "wire stats" => cmd_wire_stats(opts),
        // With --output the block goes to a file and the result is a
        // text confirmation; without it the block itself is the output,
        // which only the byte-returning entry point can carry.
        "wire encode" if opts.get("output").is_some() => cmd_wire_encode(opts)
            .map(|bytes| String::from_utf8(bytes).expect("confirmation message is text")),
        "wire encode" => Err(usage_err(
            "wire encode emits a raw binary block on stdout; pass --output FILE \
             to write it to a file instead",
        )),
        cmd if cmd.starts_with("wire ") => Err(usage_err(format!(
            "unknown wire action '{}': expected inspect | validate | encode | decode | stats",
            cmd.strip_prefix("wire ").unwrap_or("")
        ))),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(usage_err(format!("unknown subcommand '{other}'\n{USAGE}"))),
    }
}

/// Runs a parsed command, returning the bytes to write to stdout — the
/// binary-capable superset of [`run`].
///
/// Two commands produce non-text output and exist only here:
/// `wire encode` (without `--output`) emits a raw LDVW block, and
/// `--format bin` on any JSON-capable subcommand re-runs it with
/// `--format json` and encodes the resulting line as one block — so the
/// binary face is the same value the JSON face would have printed, by
/// construction.
pub fn run_bytes(opts: &Options) -> Result<Vec<u8>, LdivError> {
    if opts.command == "wire encode" {
        return cmd_wire_encode(opts);
    }
    if opts.get("format") == Some("bin") {
        let mut json_opts = opts.clone();
        json_opts.flags.insert("format".into(), "json".into());
        let text = run(&json_opts)?;
        let value = Json::parse(text.trim_end()).ok_or_else(|| {
            usage_err(format!(
                "--format bin is not supported by '{}' (no JSON output to encode)",
                opts.command
            ))
        })?;
        return Ok(ldiv_wire::encode(&value));
    }
    run(opts).map(String::into_bytes)
}

/// Maps a decoder error onto the CLI error surface (exit code 1, the
/// typed wire text preserved verbatim).
fn wire_err(err: ldiv_wire::WireError) -> LdivError {
    LdivError::Io(err.to_string())
}

/// `wire encode`: JSON text in (file or stdin), one LDVW block out
/// (stdout, or `--output FILE` plus a text confirmation).
fn cmd_wire_encode(opts: &Options) -> Result<Vec<u8>, LdivError> {
    let input = opts.require("input")?;
    let raw = load_bytes(input)?;
    let text = String::from_utf8(raw).map_err(|_| LdivError::Io(format!("{input}: not UTF-8")))?;
    let value = Json::parse(text.trim())
        .ok_or_else(|| LdivError::Io(format!("{input}: not valid JSON")))?;
    let block = ldiv_wire::encode(&value);
    if let Some(output) = opts.get("output") {
        std::fs::write(output, &block).map_err(io_err(output))?;
        return Ok(format!(
            "wrote {} bytes (payload {}) to {output}\n",
            block.len(),
            block.len() - ldiv_wire::HEADER_LEN
        )
        .into_bytes());
    }
    Ok(block)
}

/// `wire decode`: one LDVW block in, its canonical JSON line out.
fn cmd_wire_decode(opts: &Options) -> Result<String, LdivError> {
    let block = load_bytes(opts.require("input")?)?;
    let value = ldiv_wire::decode(&block).map_err(wire_err)?;
    Ok(json_line(value))
}

/// `wire validate`: decode fully, report ok or the typed error.
fn cmd_wire_validate(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let block = load_bytes(input)?;
    ldiv_wire::validate(&block).map_err(wire_err)?;
    Ok(format!(
        "ok: {input} is a valid LDVW block ({} bytes)\n",
        block.len()
    ))
}

/// `wire inspect`: header fields, shape tallies and a value outline.
fn cmd_wire_inspect(opts: &Options) -> Result<String, LdivError> {
    let block = load_bytes(opts.require("input")?)?;
    ldiv_wire::inspect(&block).map_err(wire_err)
}

/// `wire stats`: the shape tallies as one JSON line.
fn cmd_wire_stats(opts: &Options) -> Result<String, LdivError> {
    let block = load_bytes(opts.require("input")?)?;
    let stats = ldiv_wire::stats(&block).map_err(wire_err)?;
    Ok(json_line(stats.to_json()))
}

/// Loads a table from a path, with `-` as the stdin sentinel. The
/// executor drives the chunked CSV parse (`--threads` where the command
/// has it, the auto budget elsewhere).
fn load_table(path: &str, exec: &Executor) -> Result<Table, LdivError> {
    let _parse = ldiv_obs::span("csv:read");
    if path == "-" {
        let stdin = std::io::stdin();
        return read_table_from(stdin.lock(), "stdin", exec);
    }
    let file = std::fs::File::open(path).map_err(|e| LdivError::Io(format!("{path}: {e}")))?;
    read_table_from(std::io::BufReader::new(file), path, exec)
}

/// Reads a table CSV from any source, labelling errors with its name.
fn read_table_from(
    reader: impl std::io::BufRead,
    source: &str,
    exec: &Executor,
) -> Result<Table, LdivError> {
    read_csv_with(reader, None, exec).map_err(|e| LdivError::Io(format!("{source}: {e}")))
}

fn create_file(path: &str) -> Result<std::io::BufWriter<std::fs::File>, LdivError> {
    Ok(std::io::BufWriter::new(
        std::fs::File::create(Path::new(path))
            .map_err(|e| LdivError::Io(format!("{path}: {e}")))?,
    ))
}

fn io_err(path: &str) -> impl Fn(std::io::Error) -> LdivError + '_ {
    move |e| LdivError::Io(format!("{path}: {e}"))
}

fn cmd_generate(opts: &Options) -> Result<String, LdivError> {
    let kind = opts.require("kind")?;
    let output = opts.require("output")?;
    let rows: usize = opts.parse_num("rows", 10_000)?;
    let seed: u64 = opts.parse_num("seed", 42)?;
    let cfg = AcsConfig { rows, seed };
    let table = match kind {
        "sal" => sal(&cfg),
        "occ" => occ(&cfg),
        other => {
            return Err(usage_err(format!(
                "--kind must be sal or occ, got '{other}'"
            )))
        }
    };
    let mut f = create_file(output)?;
    write_table_csv(&mut f, &table).map_err(io_err(output))?;
    f.flush().map_err(io_err(output))?;
    Ok(format!(
        "wrote {rows} rows × {} QI attributes to {output}\n",
        table.dimensionality()
    ))
}

fn cmd_stats(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let table = load_table(input, &Executor::default())?;
    let queried_l: Option<u32> = match opts.get("l") {
        None => None,
        Some(l) => Some(l.parse().map_err(|e| usage_err(format!("--l: {e}")))?),
    };
    if opts.format()? == Format::Json {
        let mut json = wire::table_stats_json(&table);
        if let Some(l) = queried_l {
            json.set("queried_l", l);
            json.set("l_feasible", table.check_l_feasible(l).is_ok());
        }
        return Ok(json_line(json));
    }
    let mut out = String::new();
    out.push_str(&format!("rows (n):            {}\n", table.len()));
    out.push_str(&format!(
        "QI attributes (d):   {}\n",
        table.dimensionality()
    ));
    out.push_str(&format!(
        "distinct SA (m):     {}\n",
        table.distinct_sa_count()
    ));
    out.push_str(&format!(
        "distinct QI vectors: {}\n",
        table.distinct_qi_count()
    ));
    out.push_str(&format!(
        "max feasible l:      {}\n",
        table.max_feasible_l()
    ));
    if let Some(l) = queried_l {
        let feasible = table.check_l_feasible(l).is_ok();
        out.push_str(&format!("{l}-diverse feasible:  {feasible}\n"));
    }
    Ok(out)
}

/// The suppression rendering of a publication: its own payload when it is
/// suppression-based, the partition's generalization otherwise (TDS,
/// Mondrian and Anatomy publish through other payloads; the rendering
/// keeps one uniform CSV output).
fn suppression_rendering<'a>(
    table: &Table,
    publication: &'a ldiv_api::Publication,
) -> std::borrow::Cow<'a, SuppressedTable> {
    match publication.as_suppressed() {
        Some(s) => std::borrow::Cow::Borrowed(s),
        None => std::borrow::Cow::Owned(table.generalize(publication.partition())),
    }
}

fn cmd_anonymize(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let l = opts.require_l()?;
    let algo = opts.require("algo")?;
    let fanout: u32 = opts.parse_num("fanout", 2)?;
    let threads: u32 = opts.parse_num("threads", 0)?;
    let shards: u32 = opts.parse_num("shards", 1)?;
    let deadline_ms: u64 = opts.parse_num("deadline-ms", 0)?;
    let depth: Option<u32> = match opts.get("depth") {
        None => None,
        Some(s) => Some(s.parse().map_err(|e| usage_err(format!("--depth: {e}")))?),
    };
    if depth.is_some() && opts.get("output").is_some() {
        return Err(usage_err(
            "--output cannot be combined with --depth: the publication \
             describes the coarsened table, not the input schema \
             (drop --depth to write a CSV)",
        ));
    }
    // A sharded run would be silently dropped by the preprocessing
    // workflow (it always runs unsharded), so reject the combination
    // like --depth/--output above.
    if depth.is_some() && shards > 1 {
        return Err(usage_err(
            "--shards cannot be combined with --depth: the §5.6 \
             preprocessing workflow runs unsharded (drop --shards, or \
             drop --depth for a sharded run)",
        ));
    }
    // Flag validation happens before the (expensive) run and before any
    // output file is created, so a usage mistake cannot leave side
    // effects behind.
    let format = opts.format()?;
    let params = Params::new(l)
        .with_fanout(fanout)
        .with_threads(threads)
        .with_shards(shards)
        .with_deadline(Deadline::within_ms(deadline_ms));
    // The whole run — parse, anonymize, metrics, CSV write — sits inside
    // one guard so a deadline raised at any checkpoint (or a mechanism
    // panic) comes back as an `LdivError` and an exit code, never as an
    // aborting panic.
    with_cli_trace(opts.get("trace").is_some(), "cli:anonymize", || {
        guarded("anonymize", || {
            cmd_anonymize_run(opts, input, algo, depth, format, &params)
        })
    })
}

fn cmd_anonymize_run(
    opts: &Options,
    input: &str,
    algo: &str,
    depth: Option<u32>,
    format: Format,
    params: &Params,
) -> Result<String, LdivError> {
    let params = *params;
    let exec = params.executor();
    let table = load_table(input, &exec)?;

    let registry = standard_registry();

    // `--depth` folds in the §5.6 preprocessing workflow via the
    // Anonymizer builder; the publication describes the coarsened table,
    // so no CSV of the original schema can be written.
    if let Some(depth) = depth {
        let run = ldiversity::Anonymizer::with_registry(registry)
            .params(params)
            .mechanism(algo)
            .preprocess_depth(depth)
            .run(&table)?;
        if format == Format::Json {
            return Ok(json_line(
                Json::obj()
                    .field("mechanism", run.publication.mechanism())
                    .field("params", wire::params_json(&params))
                    .field("preprocess_depth", depth)
                    .field(
                        "dataset_fingerprint",
                        wire::fingerprint_hex(table.fingerprint()),
                    )
                    .field("stars", run.star_count())
                    .field("groups", run.publication.group_count())
                    .field("kl_divergence", run.kl),
            ));
        }
        return Ok(format!(
            "preprocessed at depth {depth}: stars {}, KL vs original {:.4}\n\
             (publication describes the coarsened table; re-run without --depth for CSV output)\n",
            run.star_count(),
            run.kl
        ));
    }

    let output = opts.require("output")?;
    let publication = ldiversity::shard::run_sharded(&registry, algo, &table, &params)?;
    let published = suppression_rendering(&table, &publication);
    let kl = kl_divergence_with(&table, &publication, &exec);

    let mut f = create_file(output)?;
    write_generalized_csv(&mut f, &table, &published).map_err(io_err(output))?;
    f.flush().map_err(io_err(output))?;

    // The JSON form is the server's wire shape (native payload
    // accounting) plus where the CSV went.
    if format == Format::Json {
        return Ok(json_line(
            wire::publication_json(&table, &publication, &params, kl).field("output", output),
        ));
    }

    // Summarize the table actually written, so stars/suppressed match the
    // CSV the user just received even when the mechanism's native payload
    // (boxes, anatomy, recoding) has no stars of its own.
    let summary = PublicationSummary::of(&table, &published);
    let mut msg = format!(
        "wrote {} rows to {output}\nmechanism: {}\nstars: {} ({:.2}% of QI cells)\nsuppressed tuples: {}\nQI-groups: {}\nKL-divergence: {:.4}\n",
        summary.rows,
        publication.mechanism(),
        summary.stars,
        100.0 * summary.star_ratio,
        summary.suppressed_tuples,
        summary.groups,
        kl
    );
    if publication.as_suppressed().is_none() {
        msg.push_str(&format!(
            "note: '{}' publishes no stars natively; the CSV (and the star counts above) \
             are its suppression rendering, while the KL reflects the native payload\n",
            publication.mechanism()
        ));
    }
    for note in publication.notes() {
        msg.push_str(note);
        msg.push('\n');
    }
    Ok(msg)
}

fn cmd_anatomize(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let qit_path = opts.require("qit")?;
    let st_path = opts.require("st")?;
    let l = opts.require_l()?;
    let table = load_table(input, &Executor::default())?;
    // Anatomy's native two-table output needs the low-level API (the
    // unified payload does not carry CSV writers).
    let published = ldiv_anatomy::anatomize(&table, l)?;
    let mut qit = create_file(qit_path)?;
    published
        .write_qit_csv(&mut qit, &table)
        .map_err(io_err(qit_path))?;
    qit.flush().map_err(io_err(qit_path))?;
    let mut st = create_file(st_path)?;
    published
        .write_st_csv(&mut st, &table)
        .map_err(io_err(st_path))?;
    st.flush().map_err(io_err(st_path))?;
    let kl = ldiv_anatomy::kl_divergence_anatomy(&table, &published);
    Ok(format!(
        "wrote QIT to {qit_path} and ST to {st_path}\ngroups: {}\nKL-divergence: {kl:.4}\n",
        published.group_count()
    ))
}

fn cmd_compare(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let l = opts.require_l()?;
    let threads: u32 = opts.parse_num("threads", 0)?;
    let shards: u32 = opts.parse_num("shards", 1)?;
    let params = Params::new(l).with_threads(threads).with_shards(shards);
    with_cli_trace(opts.get("trace").is_some(), "cli:compare", || {
        cmd_compare_run(opts, &params, input, l)
    })
}

fn cmd_compare_run(
    opts: &Options,
    params: &Params,
    input: &str,
    l: u32,
) -> Result<String, LdivError> {
    let params = *params;
    let exec = params.executor();
    let table = load_table(input, &exec)?;
    table.check_l_feasible(l)?;

    let registry = standard_registry();
    // Guarded per mechanism: one panicking mechanism becomes an error
    // row (like the server's /sweep), not a dead process.
    let run = |name: &str| {
        guarded(&format!("compare:{name}"), || {
            ldiversity::shard::run_sharded(&registry, name, &table, &params)
        })
    };
    if opts.format()? == Format::Json {
        // The same shape as the server's POST /sweep: one summary or
        // error entry per registered mechanism, in registry order.
        let results: Vec<Json> = registry
            .names()
            .iter()
            .map(|name| match run(name) {
                Ok(publication) => {
                    let kl = kl_divergence_with(&table, &publication, &exec);
                    wire::publication_json(&table, &publication, &params, kl)
                }
                Err(e) => wire::error_json(&e).field("mechanism", *name),
            })
            .collect();
        return Ok(json_line(wire::sweep_json(
            &params,
            table.fingerprint(),
            results,
        )));
    }
    let mut out = format!(
        "{:>9} {:>12} {:>12} {:>10} {:>10}\n",
        "algorithm", "stars", "suppressed", "groups", "KL"
    );
    for name in registry.names() {
        match run(name) {
            Ok(publication) => {
                let kl = kl_divergence_with(&table, &publication, &exec);
                out.push_str(&format!(
                    "{name:>9} {:>12} {:>12} {:>10} {kl:>10.4}\n",
                    publication.star_count(),
                    publication.suppressed_tuple_count(),
                    publication.group_count(),
                ));
            }
            Err(e) => out.push_str(&format!("{name:>9} {e}\n")),
        }
    }
    Ok(out)
}

fn cmd_sweep(opts: &Options) -> Result<String, LdivError> {
    let input = opts.require("input")?;
    let l = opts.require_l()?;
    let fanout: u32 = opts.parse_num("fanout", 2)?;
    let max_depth: u32 = opts.parse_num("depth", 8)?;
    let table = load_table(input, &Executor::default())?;
    table.check_l_feasible(l)?;
    let points = ldiv_pipeline::preprocessing_sweep(
        &table,
        &ldiv_pipeline::SweepConfig {
            l,
            fanout,
            max_depth,
        },
    )?;
    let mut out = format!(
        "{:>5} {:>10} {:>10} {:>12} {:>10}\n",
        "depth", "buckets", "stars", "suppressed", "KL"
    );
    for p in &points {
        out.push_str(&format!(
            "{:>5} {:>10} {:>10} {:>12} {:>10.4}\n",
            p.depth, p.total_buckets, p.stars, p.suppressed_tuples, p.kl
        ));
    }
    let best = points
        .iter()
        .min_by(|a, b| a.kl.total_cmp(&b.kl))
        .ok_or_else(|| LdivError::Algorithm("empty sweep".into()))?;
    out.push_str(&format!(
        "best utility: depth {} (KL = {:.4})\n",
        best.depth, best.kl
    ));
    Ok(out)
}

/// Opens the store named by `--store` (creating the directory tree on
/// first use).
fn open_store(opts: &Options) -> Result<ldiv_store::DatasetStore, LdivError> {
    Ok(ldiv_store::DatasetStore::open(opts.require("store")?)?)
}

/// Reads raw dataset bytes from a path (`-` = stdin). Ingestion keeps
/// the bytes verbatim — the store persists segments exactly as
/// uploaded, so what's on disk diffs cleanly against the source file.
fn load_bytes(path: &str) -> Result<Vec<u8>, LdivError> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut buf)
            .map_err(|e| LdivError::Io(format!("stdin: {e}")))?;
        return Ok(buf);
    }
    std::fs::read(path).map_err(|e| LdivError::Io(format!("{path}: {e}")))
}

fn require_fingerprint(opts: &Options) -> Result<u64, LdivError> {
    let text = opts.require("dataset")?;
    ldiv_store::parse_fingerprint(text).ok_or_else(|| {
        usage_err(format!(
            "--dataset '{text}' is not a fingerprint (16 hex digits)"
        ))
    })
}

fn cmd_dataset_register(opts: &Options) -> Result<String, LdivError> {
    let format = opts.format()?;
    let store = open_store(opts)?;
    let csv = load_bytes(opts.require("input")?)?;
    let outcome = guarded("dataset:register", || {
        store.register(&csv, &Executor::default())
    })?;
    if format == Format::Json {
        return Ok(json_line(wire::register_json(&outcome)));
    }
    let hex = wire::fingerprint_hex(outcome.fingerprint);
    Ok(if outcome.created {
        format!("registered dataset {hex} ({} rows)\n", outcome.rows)
    } else {
        format!(
            "dataset {hex} already registered ({} rows on disk)\n",
            outcome.rows
        )
    })
}

fn cmd_dataset_append(opts: &Options) -> Result<String, LdivError> {
    let format = opts.format()?;
    let store = open_store(opts)?;
    let fp = require_fingerprint(opts)?;
    let csv = load_bytes(opts.require("input")?)?;
    let outcome = guarded("dataset:append", || {
        store.append(fp, &csv, &Executor::default())
    })?;
    if format == Format::Json {
        return Ok(json_line(wire::append_json(&outcome)));
    }
    Ok(format!(
        "appended segment {} ({} rows) to dataset {}: {} rows total\n",
        outcome.segment.index,
        outcome.segment.rows,
        wire::fingerprint_hex(outcome.dataset),
        outcome.total_rows
    ))
}

fn cmd_dataset_publish(opts: &Options) -> Result<String, LdivError> {
    let format = opts.format()?;
    let store = open_store(opts)?;
    let fp = require_fingerprint(opts)?;
    let algo = opts.require("algo")?;
    let l = opts.require_l()?;
    let fanout: u32 = opts.parse_num("fanout", 2)?;
    let threads: u32 = opts.parse_num("threads", 0)?;
    let shards: u32 = opts.parse_num("shards", 1)?;
    let deadline_ms: u64 = opts.parse_num("deadline-ms", 0)?;
    let params = Params::new(l)
        .with_fanout(fanout)
        .with_threads(threads)
        .with_shards(shards)
        .with_deadline(Deadline::within_ms(deadline_ms));
    let registry = standard_registry();
    let mechanism = registry.get_or_unknown(algo)?;
    let outcome = guarded("dataset:publish", || store.publish(fp, mechanism, &params))?;
    let exec = params.executor();
    let kl = kl_divergence_with(&outcome.table, &outcome.publication, &exec);

    if let Some(output) = opts.get("output") {
        let published = suppression_rendering(&outcome.table, &outcome.publication);
        let mut f = create_file(output)?;
        write_generalized_csv(&mut f, &outcome.table, &published).map_err(io_err(output))?;
        f.flush().map_err(io_err(output))?;
    }

    let stats = outcome.stats;
    if format == Format::Json {
        // The server's wire shape plus the reuse accounting (the HTTP
        // publish keeps its body byte-identical to /anonymize and
        // reports reuse via /stats; the CLI has no such constraint).
        return Ok(json_line(
            wire::publication_json(&outcome.table, &outcome.publication, &params, kl).field(
                "store",
                Json::obj()
                    .field("segments", stats.segments)
                    .field("shards", stats.shards)
                    .field("reused", stats.reused)
                    .field("computed", stats.computed)
                    .field("lineage", wire::fingerprint_hex(stats.lineage)),
            ),
        ));
    }
    let mut msg = format!(
        "published dataset {} with {algo}: {} rows, {} groups, KL {kl:.4}\n\
         incremental: {} segments, {} shards ({} reused, {} computed)\n",
        wire::fingerprint_hex(fp),
        outcome.table.len(),
        outcome.publication.group_count(),
        stats.segments,
        stats.shards,
        stats.reused,
        stats.computed,
    );
    for note in outcome.publication.notes() {
        msg.push_str(note);
        msg.push('\n');
    }
    if let Some(output) = opts.get("output") {
        msg.push_str(&format!("wrote suppression rendering to {output}\n"));
    }
    Ok(msg)
}

fn cmd_dataset_list(opts: &Options) -> Result<String, LdivError> {
    let format = opts.format()?;
    let store = open_store(opts)?;
    let datasets = store.datasets()?;
    if format == Format::Json {
        return Ok(json_line(wire::datasets_json(&datasets)));
    }
    if datasets.is_empty() {
        return Ok("no datasets registered\n".to_string());
    }
    let mut out = format!("{:>16} {:>9} {:>10}\n", "dataset", "segments", "rows");
    for info in &datasets {
        out.push_str(&format!(
            "{:>16} {:>9} {:>10}\n",
            wire::fingerprint_hex(info.fingerprint),
            info.segments.len(),
            info.rows()
        ));
    }
    Ok(out)
}

/// Binds the anonymization service per the `serve` flags and returns it
/// together with the banner line. Split from [`run`] so tests (and
/// embedders) can start a server on an ephemeral port without blocking.
pub fn start_server(opts: &Options) -> Result<(Server, String), LdivError> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7411");
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: opts.parse_num("workers", defaults.workers)?,
        queue_depth: opts.parse_num("queue", defaults.queue_depth)?,
        cache_capacity: opts.parse_num("cache", defaults.cache_capacity)?,
        threads: opts.parse_num("threads", defaults.threads)?,
        shards: opts.parse_num("shards", defaults.shards)?,
        deadline_ms: opts.parse_num("deadline-ms", defaults.deadline_ms)?,
        dataset_root: opts.get("dataset-root").map(std::path::PathBuf::from),
        store_root: opts.get("store-root").map(std::path::PathBuf::from),
    };
    let server = Server::bind(addr, standard_registry(), config)
        .map_err(|e| LdivError::Io(format!("{addr}: {e}")))?;
    // Report the *normalized* configuration the service actually runs
    // with (worker/queue floors and shard clamp applied), matching
    // GET /stats.
    let running = server.state().config();
    let banner = format!(
        "listening on http://{} ({} workers, queue {}, cache {}, {} threads/run, {} shards/run)\n",
        server.addr(),
        running.workers,
        running.queue_depth,
        running.cache_capacity,
        if running.threads == 0 {
            "auto".to_string()
        } else {
            running.threads.to_string()
        },
        running.shards
    );
    Ok((server, banner))
}

/// `serve`: run the service until SIGINT/SIGTERM, then drain and stop.
///
/// The banner (with the actual bound port — important under `--addr
/// 127.0.0.1:0`) is printed and flushed *before* blocking, so callers
/// scripting the CLI can scrape the port. On the first SIGINT or
/// SIGTERM the listener stops accepting, the queued connections drain,
/// the workers join, and a final `/stats`-style summary is returned —
/// in-flight requests complete instead of being cut mid-response.
fn cmd_serve(opts: &Options) -> Result<String, LdivError> {
    let (server, banner) = start_server(opts)?;
    print!("{banner}");
    std::io::stdout()
        .flush()
        .map_err(|e| LdivError::Io(format!("stdout: {e}")))?;
    // Clear any stale flag *before* arming the handler so a signal that
    // lands during installation is never lost.
    ldiv_guard::signals::reset_shutdown();
    if !ldiv_guard::signals::install_shutdown_handler() {
        // No signal support on this platform: serve forever, as before.
        loop {
            std::thread::park();
        }
    }
    while !ldiv_guard::signals::shutdown_requested() {
        std::thread::park_timeout(std::time::Duration::from_millis(100));
    }
    let state = std::sync::Arc::clone(server.state());
    server.shutdown(); // stop accepting, drain the queue, join workers
    Ok(format!(
        "shutdown: drained in-flight requests and stopped\nfinal stats: {}\n",
        state.stats_json().render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&v).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ldiv_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// A `--format json` output is one JSON line whose value survives the
    /// binary codec and re-renders to the same line.
    fn assert_json_line(line: &str) {
        let value = Json::parse(line.trim_end()).unwrap_or_else(|| panic!("not JSON: {line}"));
        let decoded = ldiv_wire::decode(&ldiv_wire::encode(&value)).unwrap();
        assert_eq!(decoded, value, "decode(encode(x)) != x for {line}");
        assert_eq!(json_line(decoded), line);
    }

    #[test]
    fn parse_rejects_malformed_with_usage_exit_code() {
        for args in [
            vec![],
            vec!["x".to_string(), "--k".to_string()],
            vec!["x".to_string(), "naked".to_string()],
        ] {
            let err = Options::parse(&args).unwrap_err();
            assert!(matches!(err, LdivError::Usage(_)), "{err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&opts(&["help"])).unwrap();
        assert!(out.contains("anonymize"));
        assert!(out.contains("mondrian"));
        assert!(run(&opts(&["nope"])).is_err());
    }

    #[test]
    fn stdin_sentinel_reader_path() {
        // The `-` sentinel routes through `read_table_from(.., "stdin")`
        // rather than opening a file literally named "-". Exercised here
        // with an in-memory reader so the test never touches real stdin.
        let exec = Executor::sequential();
        let err = read_table_from(std::io::Cursor::new(""), "stdin", &exec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("stdin"), "{msg}");
        assert_eq!(err.exit_code(), 1);

        let table = read_table_from(
            std::io::Cursor::new("qi0,qi1,sa\n1,2,flu\n3,4,cold\n"),
            "stdin",
            &exec,
        )
        .unwrap();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn generate_stats_anonymize_pipeline() {
        let data = tmp("pipeline.csv");
        let out = run(&opts(&[
            "generate", "--kind", "sal", "--rows", "800", "--seed", "3", "--output", &data,
        ]))
        .unwrap();
        assert!(out.contains("800 rows"));

        let stats = run(&opts(&["stats", "--input", &data, "--l", "4"])).unwrap();
        assert!(stats.contains("rows (n):            800"));
        assert!(stats.contains("4-diverse feasible:  true"));

        // Every registered mechanism is dispatchable by name.
        for algo in ["tp", "tp+", "hilbert", "tds", "mondrian", "anatomy"] {
            let outfile = tmp(&format!("anon_{}.csv", algo.replace('+', "p")));
            let msg = run(&opts(&[
                "anonymize",
                "--input",
                &data,
                "--l",
                "3",
                "--algo",
                algo,
                "--output",
                &outfile,
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(msg.contains("stars:"), "{algo}: {msg}");
            assert!(msg.contains(&format!("mechanism: {algo}")), "{algo}: {msg}");
            // The published file must parse back as a CSV of equal length
            // (stars become the '*' label).
            let text = std::fs::read_to_string(&outfile).unwrap();
            assert_eq!(text.lines().count(), 801, "{algo}");
        }
    }

    #[test]
    fn anonymize_with_shards_stitches_a_full_publication() {
        let data = tmp("sharded.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "900", "--seed", "6", "--output", &data,
        ]))
        .unwrap();
        let outfile = tmp("sharded_out.csv");
        let msg = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp+",
            "--shards",
            "4",
            "--output",
            &outfile,
        ]))
        .unwrap();
        assert!(msg.contains("sharded: 4 shards"), "{msg}");

        // An explicit shard count under --depth would be silently
        // ignored; it is a usage error like --depth/--output.
        let err = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp+",
            "--depth",
            "2",
            "--shards",
            "4",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--shards"), "{err}");
        // Every row published, exactly once.
        let text = std::fs::read_to_string(&outfile).unwrap();
        assert_eq!(text.lines().count(), 901);

        // The JSON form carries the resolved shard count in the params.
        let json = run(&opts(&[
            "compare", "--input", &data, "--l", "3", "--shards", "2", "--format", "json",
        ]))
        .unwrap();
        assert!(json.contains("\"shards\":2"), "{json}");
        assert!(json.contains("shards=2"), "{json}");
    }

    #[test]
    fn anonymize_with_depth_runs_the_preprocessing_workflow() {
        let data = tmp("depth.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "700", "--seed", "5", "--output", &data,
        ]))
        .unwrap();
        let msg = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp+",
            "--depth",
            "2",
        ]))
        .unwrap();
        assert!(msg.contains("preprocessed at depth 2"), "{msg}");

        // `--output` would never be written under `--depth`; the
        // combination is a usage error rather than a silent no-op.
        let err = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp+",
            "--depth",
            "2",
            "--output",
            &tmp("unused.csv"),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--depth"), "{err}");
    }

    #[test]
    fn anonymize_rejects_infeasible_l_and_unknown_algo() {
        let data = tmp("infeasible.csv");
        run(&opts(&[
            "generate", "--kind", "occ", "--rows", "300", "--output", &data,
        ]))
        .unwrap();
        let err = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "999",
            "--algo",
            "tp",
            "--output",
            &tmp("never.csv"),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no 999-diverse"), "{err}");
        assert_eq!(err.exit_code(), 1);

        let err = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "2",
            "--algo",
            "tp#",
            "--output",
            &tmp("never.csv"),
        ]))
        .unwrap_err();
        assert!(matches!(err, LdivError::UnknownMechanism { .. }), "{err}");
        assert!(err.to_string().contains("mondrian"), "{err}");
    }

    #[test]
    fn anatomize_writes_both_tables() {
        let data = tmp("anat.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "400", "--seed", "4", "--output", &data,
        ]))
        .unwrap();
        let qit = tmp("anat_qit.csv");
        let st = tmp("anat_st.csv");
        let out = run(&opts(&[
            "anatomize",
            "--input",
            &data,
            "--l",
            "4",
            "--qit",
            &qit,
            "--st",
            &st,
        ]))
        .unwrap();
        assert!(out.contains("KL-divergence"));
        let qit_text = std::fs::read_to_string(&qit).unwrap();
        assert_eq!(qit_text.lines().count(), 401);
        assert!(std::fs::read_to_string(&st)
            .unwrap()
            .starts_with("GroupId,"));
    }

    #[test]
    fn compare_lists_every_registered_mechanism() {
        let data = tmp("compare.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "600", "--seed", "8", "--output", &data,
        ]))
        .unwrap();
        let out = run(&opts(&["compare", "--input", &data, "--l", "3"])).unwrap();
        for name in ["hilbert", "tp", "tp+", "tds", "mondrian", "anatomy"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn sweep_reports_best_depth() {
        let data = tmp("sweep.csv");
        run(&opts(&[
            "generate", "--kind", "occ", "--rows", "500", "--seed", "9", "--output", &data,
        ]))
        .unwrap();
        let out = run(&opts(&[
            "sweep", "--input", &data, "--l", "3", "--depth", "4",
        ]))
        .unwrap();
        assert!(out.contains("best utility"), "{out}");
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn json_format_emits_wire_shapes() {
        let data = tmp("json_fmt.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "500", "--seed", "11", "--output", &data,
        ]))
        .unwrap();

        let stats = run(&opts(&[
            "stats", "--input", &data, "--l", "3", "--format", "json",
        ]))
        .unwrap();
        assert!(stats.starts_with("{\"rows\":500,"), "{stats}");
        assert!(stats.contains("\"l_feasible\":true"), "{stats}");
        assert!(stats.contains("\"dataset_fingerprint\":\""), "{stats}");
        assert!(stats.ends_with("}\n"), "{stats}");

        let outfile = tmp("json_fmt_anon.csv");
        let anon = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp",
            "--output",
            &outfile,
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(anon.contains("\"mechanism\":\"tp\""), "{anon}");
        assert!(anon.contains("\"params\":{\"l\":3,"), "{anon}");
        assert!(anon.contains("\"kl_divergence\":"), "{anon}");
        assert!(
            anon.contains(&format!(
                "\"output\":{}",
                Json::from(outfile.as_str()).render()
            )),
            "{anon}"
        );

        let depth = run(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp+",
            "--depth",
            "2",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(depth.contains("\"preprocess_depth\":2"), "{depth}");
        // Preprocessing always runs unsharded, and the reported params
        // say so.
        assert!(depth.contains("\"shards\":1"), "{depth}");
        assert!(depth.contains("shards=1"), "{depth}");

        let compare = run(&opts(&[
            "compare", "--input", &data, "--l", "3", "--format", "json",
        ]))
        .unwrap();
        for name in ["anatomy", "hilbert", "mondrian", "tds", "tp", "tp+"] {
            assert!(
                compare.contains(&format!("\"mechanism\":\"{name}\"")),
                "missing {name}: {compare}"
            );
        }

        for line in [&stats, &anon, &depth, &compare] {
            assert_json_line(line);
        }

        let err = run(&opts(&["stats", "--input", &data, "--format", "yaml"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn start_server_binds_ephemeral_port_and_answers_health() {
        use std::io::{Read as _, Write as _};
        let store = std::env::temp_dir().join(format!("ldiv_cli_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let (server, banner) = start_server(&opts(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            "8",
            "--store-root",
            &store.to_string_lossy(),
        ]))
        .unwrap();
        let addr = server.addr();
        assert!(
            banner.contains(&format!("http://{addr}")),
            "banner must carry the real port: {banner}"
        );
        let get = |path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        // `--store-root` attaches the dataset store.
        let datasets = get("/datasets");
        assert!(datasets.starts_with("HTTP/1.1 200 OK"), "{datasets}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn dataset_register_append_publish_list_workflow() {
        let dir = std::env::temp_dir().join(format!("ldiv_cli_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_dir = dir.join("store").to_string_lossy().into_owned();
        std::fs::create_dir_all(&dir).unwrap();

        // Seed dataset + an append batch, generated deterministically.
        let seed = dir.join("seed.csv").to_string_lossy().into_owned();
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "600", "--seed", "21", "--output", &seed,
        ]))
        .unwrap();
        let batch = dir.join("batch.csv").to_string_lossy().into_owned();
        // A batch over the same schema: the seed file's header plus a slice
        // of its own rows, so every label is in the registered domain.
        let seed_text = std::fs::read_to_string(&seed).unwrap();
        let batch_text: Vec<&str> = seed_text.lines().take(61).collect();
        std::fs::write(&batch, format!("{}\n", batch_text.join("\n"))).unwrap();

        let reg = run(&opts(&[
            "dataset", "register", "--store", &store_dir, "--input", &seed, "--format", "json",
        ]))
        .unwrap();
        assert!(reg.contains("\"created\":true"), "{reg}");
        let fp = Json::parse(reg.trim())
            .and_then(|j| match j.get("dataset") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .expect("register emits the fingerprint");

        // Idempotent re-register.
        let again = run(&opts(&[
            "dataset", "register", "--store", &store_dir, "--input", &seed,
        ]))
        .unwrap();
        assert!(again.contains("already registered"), "{again}");

        let appended = run(&opts(&[
            "dataset",
            "append",
            "--store",
            &store_dir,
            "--dataset",
            &fp,
            "--input",
            &batch,
        ]))
        .unwrap();
        assert!(appended.contains("660 rows total"), "{appended}");

        let listed = run(&opts(&["dataset", "list", "--store", &store_dir])).unwrap();
        assert!(listed.contains(&fp), "{listed}");
        let listed_json = run(&opts(&[
            "dataset", "list", "--store", &store_dir, "--format", "json",
        ]))
        .unwrap();
        assert!(listed_json.contains(&fp), "{listed_json}");
        assert!(listed_json.contains("\"rows\":660"), "{listed_json}");

        // Publish twice at 2 shards: the repeat reuses every shard.
        let publish_args = |out: &str| {
            opts(&[
                "dataset",
                "publish",
                "--store",
                &store_dir,
                "--dataset",
                &fp,
                "--algo",
                "tp+",
                "--l",
                "3",
                "--shards",
                "2",
                "--output",
                out,
                "--format",
                "json",
            ])
        };
        let out1 = dir.join("pub1.csv").to_string_lossy().into_owned();
        let cold = run(&publish_args(&out1)).unwrap();
        assert!(cold.contains("\"reused\":0"), "{cold}");
        let out2 = dir.join("pub2.csv").to_string_lossy().into_owned();
        let warm = run(&publish_args(&out2)).unwrap();
        assert!(warm.contains("\"computed\":0"), "{warm}");
        // Reuse is invisible in the output: identical publication JSON
        // (everything before the trailing "store" accounting object) and
        // identical CSV bytes.
        let strip_store = |s: &str| s.split(",\"store\":").next().unwrap().to_string();
        assert_eq!(strip_store(&cold), strip_store(&warm));
        assert_eq!(
            std::fs::read(&out1).unwrap(),
            std::fs::read(&out2).unwrap(),
            "warm publish must write byte-identical CSV"
        );

        // The JSON face of append, after the publishes it would change.
        let appended_json = run(&opts(&[
            "dataset",
            "append",
            "--store",
            &store_dir,
            "--dataset",
            &fp,
            "--input",
            &batch,
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(
            appended_json.contains("\"total_rows\":720"),
            "{appended_json}"
        );
        for line in [&reg, &listed_json, &cold, &warm, &appended_json] {
            assert_json_line(line);
        }

        // Usage errors: missing action, bad fingerprint, unknown action.
        assert_eq!(
            Options::parse(&["dataset".to_string()])
                .unwrap_err()
                .exit_code(),
            2
        );
        assert_eq!(
            run(&opts(&[
                "dataset",
                "append",
                "--store",
                &store_dir,
                "--dataset",
                "xyz",
                "--input",
                &batch,
            ]))
            .unwrap_err()
            .exit_code(),
            2
        );
        assert!(run(&opts(&["dataset", "nope", "--store", &store_dir])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_outputs_are_the_http_bodies() {
        use std::io::{Read as _, Write as _};
        let dir = std::env::temp_dir().join(format!("ldiv_cli_wire_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (seed, batch) = (path("seed.csv"), path("batch.csv"));
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "300", "--seed", "5", "--output", &seed,
        ]))
        .unwrap();
        let seed_bytes = std::fs::read(&seed).unwrap();
        let seed_text = String::from_utf8(seed_bytes.clone()).unwrap();
        let batch_lines: Vec<&str> = seed_text.lines().take(6).collect();
        let batch_bytes = format!("{}\n", batch_lines.join("\n")).into_bytes();
        std::fs::write(&batch, &batch_bytes).unwrap();

        let server_store = path("server-store");
        let (server, _) = start_server(&opts(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store-root",
            &server_store,
        ]))
        .unwrap();
        let addr = server.addr();
        // The body of a 200 response, with the newline a JSON line ends in.
        let http = |method: &str, target: &str, body: &[u8]| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .unwrap();
            stream.write_all(body).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200"), "{target}: {response}");
            format!("{body}\n")
        };
        let store = path("cli-store");
        let cli = |args: &[&str]| {
            let mut args = args.to_vec();
            args.extend(["--format", "json"]);
            run(&opts(&args)).unwrap()
        };

        let registered = cli(&["dataset", "register", "--store", &store, "--input", &seed]);
        assert_eq!(registered, http("POST", "/datasets", &seed_bytes));
        let fp = match Json::parse(registered.trim_end()).and_then(|j| j.get("dataset").cloned()) {
            Some(Json::Str(fp)) => fp,
            _ => panic!("register names the dataset: {registered}"),
        };
        let appended = cli(&[
            "dataset",
            "append",
            "--store",
            &store,
            "--dataset",
            &fp,
            "--input",
            &batch,
        ]);
        let target = format!("/datasets/{fp}/append");
        assert_eq!(appended, http("POST", &target, &batch_bytes));
        let listed = cli(&["dataset", "list", "--store", &store]);
        assert_eq!(listed, http("GET", "/datasets", b""));
        let compared = cli(&["compare", "--input", &seed, "--l", "3"]);
        assert_eq!(compared, http("POST", "/sweep?l=3", &seed_bytes));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_on_missing_file_errors() {
        let err = run(&opts(&["stats", "--input", "/nonexistent/x.csv"])).unwrap_err();
        assert!(err.to_string().contains("x.csv"));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn wire_family_encodes_decodes_and_inspects() {
        let json_path = tmp("wire_doc.json");
        std::fs::write(
            &json_path,
            "{\"mechanism\":\"tp+\",\"rows\":10,\"kl_divergence\":0.5,\"notes\":[]}\n",
        )
        .unwrap();
        let block_path = tmp("wire_doc.bin");

        // encode --output: file written, text confirmation returned.
        let confirmation = run_bytes(&opts(&[
            "wire",
            "encode",
            "--input",
            &json_path,
            "--output",
            &block_path,
        ]))
        .unwrap();
        let confirmation = String::from_utf8(confirmation).unwrap();
        assert!(confirmation.contains("wrote"), "{confirmation}");
        let block = std::fs::read(&block_path).unwrap();
        assert_eq!(&block[..4], b"LDVW");

        // encode without --output: the raw block is the output, and the
        // text entry point refuses (it cannot carry binary).
        let raw = run_bytes(&opts(&["wire", "encode", "--input", &json_path])).unwrap();
        assert_eq!(raw, block);
        assert_eq!(
            run(&opts(&["wire", "encode", "--input", &json_path]))
                .unwrap_err()
                .exit_code(),
            2
        );

        // decode reproduces the canonical JSON line.
        let decoded = run(&opts(&["wire", "decode", "--input", &block_path])).unwrap();
        assert_eq!(
            decoded,
            "{\"mechanism\":\"tp+\",\"rows\":10,\"kl_divergence\":0.5,\"notes\":[]}\n"
        );

        // validate, inspect, stats.
        let ok = run(&opts(&["wire", "validate", "--input", &block_path])).unwrap();
        assert!(ok.starts_with("ok:"), "{ok}");
        let inspected = run(&opts(&["wire", "inspect", "--input", &block_path])).unwrap();
        assert!(inspected.contains("ldvw block: version 1"), "{inspected}");
        assert!(inspected.contains("object (4 fields)"), "{inspected}");
        let stats = run(&opts(&["wire", "stats", "--input", &block_path])).unwrap();
        assert!(stats.contains("\"objects\":1"), "{stats}");

        // A corrupt block comes back as the typed wire error, exit 1.
        let bad_path = tmp("wire_doc_bad.bin");
        let mut bad = block.clone();
        bad[4] = 9; // version mutation
        std::fs::write(&bad_path, &bad).unwrap();
        let err = run(&opts(&["wire", "validate", "--input", &bad_path])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("unsupported version 9"), "{err}");

        // Family-level usage errors.
        assert_eq!(
            Options::parse(&["wire".to_string()])
                .unwrap_err()
                .exit_code(),
            2
        );
        assert_eq!(
            run(&opts(&["wire", "nope", "--input", &block_path]))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn format_bin_is_the_encoded_json_line() {
        let data = tmp("bin_fmt.csv");
        run(&opts(&[
            "generate", "--kind", "sal", "--rows", "500", "--seed", "11", "--output", &data,
        ]))
        .unwrap();

        // stats: the binary output decodes to exactly the JSON line.
        let json = run(&opts(&["stats", "--input", &data, "--format", "json"])).unwrap();
        let bin = run_bytes(&opts(&["stats", "--input", &data, "--format", "bin"])).unwrap();
        let decoded = ldiv_wire::decode(&bin).unwrap();
        assert_eq!(decoded.render(), json.trim_end());

        // anonymize and compare go through the same wrapper.
        let outfile = tmp("bin_fmt_anon.csv");
        let bin = run_bytes(&opts(&[
            "anonymize",
            "--input",
            &data,
            "--l",
            "3",
            "--algo",
            "tp",
            "--output",
            &outfile,
            "--format",
            "bin",
        ]))
        .unwrap();
        let decoded = ldiv_wire::decode(&bin).unwrap();
        assert_eq!(decoded.get("mechanism"), Some(&Json::Str("tp".into())));
        let bin = run_bytes(&opts(&[
            "compare", "--input", &data, "--l", "2", "--format", "bin",
        ]))
        .unwrap();
        assert!(matches!(
            ldiv_wire::decode(&bin).unwrap().get("results"),
            Some(Json::Arr(_))
        ));

        // A text-only command has no JSON line to encode.
        let err = run_bytes(&opts(&[
            "generate",
            "--kind",
            "sal",
            "--rows",
            "10",
            "--output",
            &tmp("bin_fmt2.csv"),
            "--format",
            "bin",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("not supported"), "{err}");

        // run_bytes on a plain text command is just the text bytes.
        let text = run_bytes(&opts(&["stats", "--input", &data])).unwrap();
        assert_eq!(
            String::from_utf8(text).unwrap(),
            run(&opts(&["stats", "--input", &data])).unwrap()
        );
    }
}
