//! The in-process replay: every timed operation again, through the
//! layers' public functions, in the benchmark's own process.
//!
//! It does two jobs. It builds the reference each socket response is
//! checked against (`publication_json(…).render()` over the same bytes,
//! or the store's own `publish` over the same segments). And, traced,
//! it also calls every layer an operation passes through —
//! `http::parse_request`, `handle_request`, `Response::write_to`,
//! `DatasetStore::load_table`, `Mechanism::repair_merge` — each under a
//! bench-side span, which is where the per-layer numbers come from.
//!
//! Each client's operations replay in the order the client sent them.

use crate::client::{OpResult, Request};
use crate::trace::{Profile, Recorder};
use crate::workload::{Inputs, Workload, CLIENTS, HOT_L, STORE_SHARDS};
use ldiversity::api::{LdivError, Mechanism, MechanismRegistry, Params, Payload, Publication};
use ldiversity::exec::Executor;
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::{read_csv_with, Schema, Table};
use ldiversity::server::wire::publication_json;
use ldiversity::server::{handle_request, http, AppState, ServerConfig};
use ldiversity::shard::{anonymize_sharded, remap_to_global, shard_params};
use ldiversity::store::{stable_shard_plan, DatasetStore};
use ldiversity::wire::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What one replay pass found.
#[derive(Default)]
pub struct Replay {
    /// Operations whose socket response differs from the reference, by
    /// run-wide operation index.
    pub wrong: BTreeMap<usize, String>,
    /// Disagreements inside the replay itself (the in-process
    /// `handle_request` against the layer-by-layer reference).
    pub inconsistent: Vec<String>,
    pub profile: Profile,
    /// Operations replayed, and the total time inside them.
    pub ops: usize,
    pub op_ns: u64,
}

/// One replay thread's recorder and per-operation verdicts.
type LaneOutput = (Recorder, Vec<(usize, Verdict)>);

/// Per-operation result.
#[derive(Default)]
struct Verdict {
    wrong: Option<String>,
    inconsistent: Option<String>,
}

/// Parameters exactly as the server builds them: sequential runs
/// (`--threads` defaults to 1) and an explicit shard count.
fn params(l: u32, shards: u32) -> Params {
    Params::new(l).with_threads(1).with_shards(shards)
}

fn sequential() -> Executor {
    Executor::new(1)
}

fn parse(body: &[u8], schema: Option<Schema>) -> Result<Table, String> {
    read_csv_with(body, schema, &sequential()).map_err(|e| format!("parse: {e}"))
}

/// The span a mechanism's run is recorded under.
fn mech_span(mechanism: &str) -> &'static str {
    match mechanism {
        "tp" => "mech.tp",
        "tp+" => "mech.tp_plus",
        "hilbert" => "mech.hilbert",
        "anatomy" => "mech.anatomy",
        "mondrian" => "mech.mondrian",
        "tds" => "mech.tds",
        _ => "mech.other",
    }
}

/// The span a KL computation is recorded under, by payload kind.
fn kl_span(publication: &Publication) -> &'static str {
    match publication.payload() {
        Payload::Suppressed(_) => "kl.suppressed",
        Payload::Boxes(_) => "kl.boxes",
        Payload::Anatomy(_) => "kl.anatomy",
        Payload::Recoded(_) => "kl.recoded",
    }
}

/// The summary a fresh `/anonymize` run answers with.
fn summary(
    registry: &MechanismRegistry,
    table: &Table,
    mechanism: &str,
    l: u32,
) -> Result<Json, LdivError> {
    let params = params(l, 1);
    let publication = anonymize_sharded(registry.get_or_unknown(mechanism)?, table, &params)?;
    let kl = kl_divergence_with(table, &publication, &params.executor());
    Ok(publication_json(table, &publication, &params, kl))
}

/// A server state configured like the `ldiv serve` child: the flags it
/// is started with, and the defaults for the rest.
fn server_state(registry: MechanismRegistry, store_root: Option<&Path>) -> AppState {
    AppState::new(
        registry,
        ServerConfig {
            workers: CLIENTS,
            shards: if store_root.is_some() {
                STORE_SHARDS
            } else {
                0
            },
            store_root: store_root.map(Path::to_path_buf),
            ..ServerConfig::default()
        },
    )
}

/// Parses, handles and writes one request in-process, under the
/// `http.parse`, `server.handle` and `http.write` spans; returns the
/// response body.
fn serve(state: &AppState, rec: &mut Recorder, req: &Request) -> Result<Vec<u8>, String> {
    let raw = req.raw();
    let parsed = rec
        .span("http.parse", || http::parse_request(&mut &raw[..]))
        .map_err(|e| format!("in-process parse of {}: {}", req.target, e.message))?;
    let resp = rec.span("server.handle", || handle_request(state, &parsed));
    let mut wire = Vec::new();
    rec.span("http.write", || resp.write_to(&mut wire))
        .map_err(|e| format!("in-process write: {e}"))?;
    if !(200..300).contains(&resp.status) {
        return Err(format!(
            "in-process {} answered {}: {}",
            req.target, resp.status, resp.body
        ));
    }
    Ok(resp.bytes.unwrap_or_else(|| resp.body.into_bytes()))
}

fn differs(what: &str, got: &[u8], want: &[u8]) -> Option<String> {
    (got != want).then(|| {
        format!(
            "{what}: got {:?}, want {:?}",
            String::from_utf8_lossy(&got[..got.len().min(160)]),
            String::from_utf8_lossy(&want[..want.len().min(160)])
        )
    })
}

/// Whether the socket answered the `i`-th request of an operation.
fn answered(op: &OpResult, i: usize) -> bool {
    op.responses.get(i).is_some_and(|r| r.is_success())
}

/// Most operations the traced pass replays on `anonymize_cold` and
/// `anonymize_repeat`, evenly spaced; `store_trickle` replays every
/// operation, since each one changes the store.
pub const TRACED_OPS: usize = 600;

/// The traced `store_trickle` replay times `load_table` and the
/// `repair_merge` stitch on every this-many-th cycle of a client; the
/// other calls, which change the store, run on every cycle.
pub const STORE_LAYER_STRIDE: usize = 4;

/// Shared, read-only replay inputs.
struct Cx<'a> {
    inputs: &'a Inputs,
    registry: &'a MechanismRegistry,
    traced: bool,
    /// `anonymize_cold`, untraced: each dataset parsed once.
    tables: Vec<Table>,
    /// `anonymize_repeat`: each hot key's cache-hit summary, rendered and
    /// encoded.
    hot: Vec<(Json, Vec<u8>, Vec<u8>)>,
    state: Option<AppState>,
    store: Option<DatasetStore>,
    fingerprints: &'a [String],
}

/// Replays `ops`; `work` is an empty directory for the replay's stores.
///
/// Untraced, it checks every operation, one thread per client. Traced,
/// it also makes the calls only the per-layer numbers need and records
/// spans, on a single thread so that no replayed call competes with
/// another for a core.
pub fn replay(
    inputs: &Inputs,
    ops: &[OpResult],
    fingerprints: &[String],
    work: &Path,
    traced: bool,
) -> Result<Replay, String> {
    let registry = ldiversity::standard_registry();
    let mut cx = Cx {
        inputs,
        registry: &registry,
        traced,
        tables: Vec::new(),
        hot: Vec::new(),
        state: None,
        store: None,
        fingerprints,
    };
    match inputs.workload {
        Workload::Cold => {
            if !traced {
                for data in &inputs.datasets {
                    cx.tables.push(parse(&data.csv, None)?);
                }
            }
        }
        Workload::Repeat => {
            for key in &inputs.keys {
                let table = parse(&inputs.datasets[key.dataset].csv, None)?;
                let hit = summary(&registry, &table, key.mechanism, key.l)
                    .map_err(|e| format!("reference for {}: {e}", key.target(false)))?
                    .field("cached", true);
                let text = hit.render().into_bytes();
                let bin = ldiversity::wire::encode(&hit);
                cx.hot.push((hit, text, bin));
            }
        }
        Workload::Store => {
            let root = work.join("store");
            cx.store = Some(DatasetStore::open(&root).map_err(|e| format!("replay store: {e}"))?);
        }
    }
    if traced {
        let store_root = (inputs.workload == Workload::Store).then(|| work.join("served"));
        let state = server_state(ldiversity::standard_registry(), store_root.as_deref());
        if inputs.workload == Workload::Repeat {
            for key in &inputs.keys {
                for bin in [false, true] {
                    let req =
                        Request::post(key.target(bin), inputs.datasets[key.dataset].csv.clone());
                    serve(&state, &mut Recorder::new(false, Instant::now()), &req)?;
                }
            }
        }
        cx.state = Some(state);
    }

    // Each client's operations in the order it sent them.
    let mut by_client: Vec<(usize, Vec<&OpResult>)> = (0..CLIENTS)
        .map(|client| {
            let mut mine: Vec<&OpResult> = ops
                .iter()
                .filter(|op| op.client == client && answered(op, 0))
                .collect();
            mine.sort_by_key(|op| op.seq);
            (client, mine)
        })
        .collect();
    if traced && inputs.workload != Workload::Store {
        let stride = ops.len().div_ceil(TRACED_OPS).max(1);
        for (_, mine) in &mut by_client {
            *mine = mine.iter().copied().step_by(stride).collect();
        }
    }
    let lanes: Vec<Vec<(usize, Vec<&OpResult>)>> = if traced {
        vec![by_client]
    } else {
        by_client.into_iter().map(|c| vec![c]).collect()
    };

    let epoch = Instant::now();
    let cx = &cx;
    let per_lane: Vec<Result<LaneOutput, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch);
                    let mut verdicts = Vec::new();
                    for (client, mine) in lane {
                        if inputs.workload == Workload::Store {
                            verdicts.extend(store_client(cx, &mut rec, client, &mine)?);
                            continue;
                        }
                        for op in mine {
                            let v = rec.op(op.global as u32, |rec| match inputs.workload {
                                Workload::Cold => cold_op(cx, rec, op),
                                _ => repeat_op(cx, rec, op),
                            });
                            verdicts.push((op.global, v));
                        }
                    }
                    Ok((rec, verdicts))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });

    let mut out = Replay::default();
    for result in per_lane {
        let (rec, verdicts) = result?;
        out.ops += rec.ops();
        out.op_ns += rec.op_ns();
        out.profile.absorb(rec);
        for (global, v) in verdicts {
            if let Some(why) = v.wrong {
                out.wrong.insert(global, why);
            }
            out.inconsistent.extend(v.inconsistent);
        }
    }
    Ok(out)
}

fn cold_op(cx: &Cx<'_>, rec: &mut Recorder, op: &OpResult) -> Verdict {
    let key = cx.inputs.keys[op.global];
    let req = &op.requests[0];
    let run = |rec: &mut Recorder| -> Result<(Vec<u8>, Option<Vec<u8>>), String> {
        let served = match (cx.traced, &cx.state) {
            (true, Some(state)) => Some(serve(state, rec, req)?),
            _ => None,
        };
        let parsed;
        let table = if cx.traced {
            parsed = rec.span("csv.read", || parse(&req.body, None))?;
            rec.note("rows", parsed.len() as f64);
            rec.span("table.fingerprint", || black_box(parsed.fingerprint()));
            &parsed
        } else {
            &cx.tables[key.dataset]
        };
        let params = params(key.l, 1);
        let mechanism = cx
            .registry
            .get_or_unknown(key.mechanism)
            .map_err(|e| e.to_string())?;
        let publication = rec
            .span(mech_span(key.mechanism), || {
                anonymize_sharded(mechanism, table, &params)
            })
            .map_err(|e| format!("reference {}: {e}", key.target(false)))?;
        let kl = rec.span(kl_span(&publication), || {
            kl_divergence_with(table, &publication, &params.executor())
        });
        let (json, text) = rec.span("wire.summary", || {
            let json = publication_json(table, &publication, &params, kl);
            let text = json.render();
            (json, text)
        });
        if cx.traced {
            let bin = rec.span("wire.ldvw_encode", || ldiversity::wire::encode(&json));
            rec.note("bin_ratio", bin.len() as f64 / text.len() as f64);
        }
        Ok((text.into_bytes(), served))
    };
    match run(rec) {
        Ok((want, served)) => Verdict {
            wrong: differs(&req.target, &op.responses[0].body, &want),
            inconsistent: served
                .and_then(|got| differs(&format!("in-process {}", req.target), &got, &want)),
        },
        Err(e) => Verdict {
            wrong: None,
            inconsistent: Some(e),
        },
    }
}

fn repeat_op(cx: &Cx<'_>, rec: &mut Recorder, op: &OpResult) -> Verdict {
    let (k, bin) = cx.inputs.hot_pick(op.global);
    let (hit, text, encoded) = &cx.hot[k];
    let want: &[u8] = if bin { encoded } else { text };
    let req = &op.requests[0];
    let mut verdict = Verdict {
        wrong: differs(&req.target, &op.responses[0].body, want),
        inconsistent: None,
    };
    if let (true, Some(state)) = (cx.traced, &cx.state) {
        let run = |rec: &mut Recorder| -> Result<Option<String>, String> {
            let served = serve(state, rec, req)?;
            let table = rec.span("csv.read", || parse(&req.body, None))?;
            rec.note("rows", table.len() as f64);
            rec.span("table.fingerprint", || black_box(table.fingerprint()));
            let rendered = rec.span("wire.summary", || hit.render());
            let block = rec.span("wire.ldvw_encode", || ldiversity::wire::encode(hit));
            rec.note("bin_ratio", block.len() as f64 / rendered.len() as f64);
            Ok(
                differs(&format!("in-process {}", req.target), &served, want)
                    .or_else(|| differs("re-rendered hit", rendered.as_bytes(), text))
                    .or_else(|| differs("re-encoded hit", &block, encoded)),
            )
        };
        verdict.inconsistent = run(rec).unwrap_or_else(Some);
    }
    verdict
}

/// The shard results `DatasetStore::publish` stitches, recomputed.
fn shard_results(
    mechanism: &dyn Mechanism,
    table: &Table,
    params: &Params,
) -> Result<Vec<Publication>, LdivError> {
    stable_shard_plan(table, params.resolved_shards())
        .iter()
        .map(|rows| {
            let sub = table.select_rows(rows);
            let sub_params = shard_params(params, &sub, 1);
            mechanism
                .anonymize(&sub, &sub_params)
                .map(|p| remap_to_global(p, rows))
        })
        .collect()
}

/// Replays one `store_trickle` client: its registration and warm-up
/// publish, then every append/publish cycle in order. The replay store
/// sees exactly the segments the server's store saw.
fn store_client(
    cx: &Cx<'_>,
    rec: &mut Recorder,
    client: usize,
    ops: &[&OpResult],
) -> Result<Vec<(usize, Verdict)>, String> {
    let store = cx.store.as_ref().expect("store replay has a store");
    let csv = &cx.inputs.datasets[client].csv;
    let exec = sequential();
    let fp = store
        .register(csv, &exec)
        .map_err(|e| format!("replay register: {e}"))?
        .fingerprint;
    let hex = format!("{fp:016x}");
    if hex != cx.fingerprints[client] {
        return Err(format!(
            "client {client}: server registered {}, replay {hex}",
            cx.fingerprints[client]
        ));
    }
    let name = cx.inputs.store_mechanism(client);
    let mechanism = cx
        .registry
        .get_or_unknown(name)
        .map_err(|e| e.to_string())?;
    let params = params(HOT_L, STORE_SHARDS);
    let key_mechanism = mechanism.name().to_ascii_lowercase();
    store
        .publish(fp, mechanism, &params)
        .map_err(|e| format!("replay warm publish: {e}"))?;
    let mut schema = None;
    if let (true, Some(state)) = (cx.traced, &cx.state) {
        let mut untimed = Recorder::new(false, Instant::now());
        let register = Request::post("/datasets".into(), csv.clone());
        serve(state, &mut untimed, &register)?;
        let warm = Request::post(cx.inputs.publish_target(client, &hex), Default::default());
        serve(state, &mut untimed, &warm)?;
        schema = Some(parse(csv, None)?.schema().clone());
    }

    let mut verdicts = Vec::new();
    for op in ops {
        let run = |rec: &mut Recorder| -> Result<Verdict, String> {
            let (append, publish) = (&op.requests[0], &op.requests[1]);
            let state = cx.state.as_ref().filter(|_| cx.traced);
            if let (Some(state), Some(schema)) = (state, &schema) {
                serve(state, rec, append)?;
                let batch = rec.span("csv.read", || parse(&append.body, Some(schema.clone())))?;
                rec.note("rows", batch.len() as f64);
                rec.span("table.fingerprint", || black_box(batch.fingerprint()));
            }
            rec.span("store.append", || store.append(fp, &append.body, &exec))
                .map_err(|e| format!("replay append: {e}"))?;
            if !answered(op, 1) {
                return Ok(Verdict::default());
            }
            let served = match state {
                Some(state) => Some(serve(state, rec, publish)?),
                None => None,
            };
            let outcome = rec
                .span("store.publish", || store.publish(fp, mechanism, &params))
                .map_err(|e| format!("replay publish: {e}"))?;
            let kl = rec.span(kl_span(&outcome.publication), || {
                kl_divergence_with(&outcome.table, &outcome.publication, &params.executor())
            });
            let (json, text) = rec.span("wire.summary", || {
                let json = publication_json(&outcome.table, &outcome.publication, &params, kl);
                let text = json.render();
                (json, text)
            });
            rec.span("store.persist", || {
                store.persist_response(
                    outcome.stats.lineage,
                    &key_mechanism,
                    &params.canonical(),
                    &text,
                )
            });
            if state.is_some() {
                let bin = rec.span("wire.ldvw_encode", || ldiversity::wire::encode(&json));
                rec.note("bin_ratio", bin.len() as f64 / text.len() as f64);
            }
            if state.is_some() && op.seq % STORE_LAYER_STRIDE == 0 {
                let (table, _) = rec
                    .span("store.load_table", || store.load_table(fp, &exec))
                    .map_err(|e| format!("replay load: {e}"))?;
                let shards = rec
                    .span("shard.anonymize", || {
                        shard_results(mechanism, &table, &params)
                    })
                    .map_err(|e| format!("replay shards: {e}"))?;
                rec.span("shard.repair_merge", || {
                    mechanism.repair_merge(&table, &params, shards)
                })
                .map_err(|e| format!("replay repair_merge: {e}"))?;
            }
            let want = text.into_bytes();
            Ok(Verdict {
                wrong: differs(&publish.target, &op.responses[1].body, &want),
                inconsistent: served.and_then(|got| {
                    differs(&format!("in-process {}", publish.target), &got, &want)
                }),
            })
        };
        let verdict = rec.op(op.global as u32, run).unwrap_or_else(|e| Verdict {
            wrong: None,
            inconsistent: Some(e),
        });
        verdicts.push((op.global, verdict));
    }
    Ok(verdicts)
}
