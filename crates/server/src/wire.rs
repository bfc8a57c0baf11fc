//! The JSON wire shapes shared by the server and the CLI's
//! `--format json` outputs.
//!
//! The value type itself ([`Json`]) lives in `ldiv-wire`; this module
//! carries the canonical renderings of the workspace's response shapes:
//! publication summaries, the sweep envelope, dataset statistics,
//! dataset-store outcomes and listings, mechanism listings and errors.
//! The server and the CLI render every shape they share through these
//! functions; the CLI only appends fields of its own to some (`output`
//! when it wrote a file, a store publish's `store` accounting). So
//! `ldiv anonymize --format json` prints the summary `POST /anonymize`
//! answers, and the JSON lines of `ldiv compare`, `dataset register`,
//! `dataset append` and `dataset list` are, newline aside, byte for byte
//! the bodies of `POST /sweep`, `POST /datasets`,
//! `POST /datasets/{fp}/append` and `GET /datasets` over the same data.
//!
//! Rendering is deterministic: object fields keep insertion order, floats
//! use Rust's shortest round-trip form, and non-finite floats (which JSON
//! cannot represent) become `null`. The same values also have a compact
//! binary face (`ldiv_wire::encode`/`decode`), negotiated per request by
//! the listener; the JSON face here stays the default and the cache-key
//! surface.

use ldiv_api::{LdivError, MechanismRegistry, Params, Publication};
use ldiv_metrics::PublicationSummary;
use ldiv_microdata::Table;
use ldiv_store::{fingerprint_hex, AppendOutcome, DatasetInfo, RegisterOutcome, SegmentInfo};
use ldiv_wire::Json;

/// The `params` sub-object of a publication response. The shard count
/// appears in its **resolved** form (`0` spelled out as 1), matching what
/// [`Params::canonical`] bakes into the cache key. On degenerate
/// inputs the sharding driver may run fewer shards than requested
/// (a K-way split of an n < K-row table); the stitch note in `notes`
/// records the effective count.
pub fn params_json(params: &Params) -> Json {
    Json::obj()
        .field("l", params.l)
        .field("fanout", params.fanout)
        .field("shards", params.resolved_shards())
        .field("canonical", params.canonical())
}

/// The canonical JSON summary of one publication run — the body of
/// `POST /anonymize`, one element of `POST /sweep`, and the CLI's
/// `anonymize --format json` output.
///
/// Stars follow the workspace accounting: suppression payloads report
/// their real counts; boxes/anatomy/recoding report zero and are measured
/// by `kl_divergence` instead. The `cached` field is `false` here; the
/// server flips it on cache hits.
pub fn publication_json(
    table: &Table,
    publication: &Publication,
    params: &Params,
    kl: f64,
) -> Json {
    let summary = PublicationSummary::of_publication(table, publication);
    Json::obj()
        .field("mechanism", publication.mechanism())
        .field("params", params_json(params))
        .field("dataset_fingerprint", fingerprint_hex(table.fingerprint()))
        .field("rows", summary.rows)
        .field("dimensionality", summary.dimensionality)
        .field("groups", summary.groups)
        .field("stars", summary.stars)
        .field("star_ratio", summary.star_ratio)
        .field("suppressed_tuples", summary.suppressed_tuples)
        .field("avg_group_size", summary.avg_group_size)
        .field("max_group_size", summary.max_group_size)
        .field("futile_groups", summary.futile_groups)
        .field("kl_divergence", kl)
        .field(
            "notes",
            Json::Arr(
                publication
                    .notes()
                    .iter()
                    .map(|n| n.as_str().into())
                    .collect(),
            ),
        )
        .field("cached", false)
}

/// The `POST /sweep` body and the CLI's `compare --format json` output:
/// one [`publication_json`] summary or [`error_json`] entry per
/// registered mechanism, in registry order.
pub fn sweep_json(params: &Params, dataset_fingerprint: u64, results: Vec<Json>) -> Json {
    Json::obj()
        .field("params", params_json(params))
        .field("dataset_fingerprint", fingerprint_hex(dataset_fingerprint))
        .field("results", Json::Arr(results))
}

/// The `POST /datasets` body and the CLI's `dataset register --format
/// json` output.
pub fn register_json(outcome: &RegisterOutcome) -> Json {
    Json::obj()
        .field("dataset", fingerprint_hex(outcome.fingerprint))
        .field("created", outcome.created)
        .field("rows", outcome.rows)
}

/// One segment of a stored dataset: the `segment` of an append outcome
/// and each entry of `GET /datasets/{fp}`'s `segment_list`.
pub fn segment_json(segment: &SegmentInfo) -> Json {
    Json::obj()
        .field("index", segment.index)
        .field("fingerprint", fingerprint_hex(segment.fingerprint))
        .field("rows", segment.rows)
}

/// The `POST /datasets/{fp}/append` body and the CLI's `dataset append
/// --format json` output.
pub fn append_json(outcome: &AppendOutcome) -> Json {
    Json::obj()
        .field("dataset", fingerprint_hex(outcome.dataset))
        .field("segment", segment_json(&outcome.segment))
        .field("total_rows", outcome.total_rows)
}

/// One registered dataset: an entry of [`datasets_json`], and the head
/// of the `GET /datasets/{fp}` body.
pub fn dataset_json(info: &DatasetInfo) -> Json {
    Json::obj()
        .field("dataset", fingerprint_hex(info.fingerprint))
        .field("segments", info.segments.len())
        .field("rows", info.rows())
        .field("lineage", fingerprint_hex(info.lineage()))
}

/// The `GET /datasets` body and the CLI's `dataset list --format json`
/// output.
pub fn datasets_json(datasets: &[DatasetInfo]) -> Json {
    Json::obj().field(
        "datasets",
        Json::Arr(datasets.iter().map(dataset_json).collect()),
    )
}

/// Dataset statistics — the CLI's `stats --format json` output.
pub fn table_stats_json(table: &Table) -> Json {
    Json::obj()
        .field("rows", table.len())
        .field("dimensionality", table.dimensionality())
        .field("distinct_sa", table.distinct_sa_count())
        .field("distinct_qi", table.distinct_qi_count())
        .field("max_feasible_l", table.max_feasible_l())
        .field("dataset_fingerprint", fingerprint_hex(table.fingerprint()))
}

/// The `GET /mechanisms` body: every registered mechanism with its
/// description.
pub fn mechanisms_json(registry: &MechanismRegistry) -> Json {
    Json::obj().field(
        "mechanisms",
        Json::Arr(
            registry
                .iter()
                .map(|m| {
                    Json::obj()
                        .field("name", m.name())
                        .field("description", m.description())
                })
                .collect(),
        ),
    )
}

/// A machine-readable error body: `{"error": ..., "kind": ...}`.
pub fn error_json(err: &LdivError) -> Json {
    let kind = match err {
        LdivError::Infeasible(_) => "infeasible",
        LdivError::InvalidL(_) => "invalid_l",
        LdivError::UnknownMechanism { .. } => "unknown_mechanism",
        LdivError::InvalidParams(_) => "invalid_params",
        LdivError::Usage(_) => "usage",
        LdivError::Io(_) => "io",
        LdivError::Algorithm(_) => "algorithm",
        LdivError::Internal(_) => "internal",
        LdivError::DeadlineExceeded => "deadline_exceeded",
    };
    Json::obj()
        .field("error", err.to_string())
        .field("kind", kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, Partition};

    #[test]
    fn parse_round_trips_rendered_output() {
        // The property the persisted-cache reload relies on: parse ∘
        // render is the identity on anything this module renders.
        let t = samples::hospital();
        let partition =
            Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let p = Publication::suppressed("tp", &t, partition).with_note("phase \"1\"\nline");
        let params = Params::new(2).with_shards(1);
        let kl = ldiv_metrics::kl_divergence(&t, &p);
        for json in [
            publication_json(&t, &p, &params, kl),
            table_stats_json(&t),
            error_json(&LdivError::DeadlineExceeded),
            Json::obj()
                .field("neg", Json::Int(-3))
                .field("big", Json::Float(1e300))
                .field("empty_arr", Json::Arr(vec![]))
                .field("empty_obj", Json::obj())
                .field("null", Json::Null),
        ] {
            let rendered = json.render();
            let parsed = Json::parse(&rendered).expect("rendered JSON parses");
            assert_eq!(parsed, json);
            assert_eq!(parsed.render(), rendered);
            // The binary face agrees too — same value, same canonical
            // text, regardless of which encoding carried it.
            let decoded = ldiv_wire::decode(&ldiv_wire::encode(&json)).expect("block decodes");
            assert_eq!(decoded, json);
            assert_eq!(decoded.render(), rendered);
        }
    }

    #[test]
    fn publication_json_carries_the_summary_fields() {
        let t = samples::hospital();
        let partition =
            Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let p = Publication::suppressed("tp", &t, partition).with_note("phase 1");
        let params = Params::new(2).with_shards(1);
        let kl = ldiv_metrics::kl_divergence(&t, &p);
        let json = publication_json(&t, &p, &params, kl);
        assert_eq!(json.get("mechanism"), Some(&Json::Str("tp".into())));
        assert_eq!(json.get("rows"), Some(&Json::Int(10)));
        assert_eq!(json.get("stars"), Some(&Json::Int(8)));
        assert_eq!(json.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            json.get("params").unwrap().get("canonical"),
            Some(&Json::Str("l=2;fanout=2;shards=1".into()))
        );
        assert_eq!(
            json.get("params").unwrap().get("shards"),
            Some(&Json::Int(1))
        );
        let rendered = json.render();
        assert!(rendered.contains("\"notes\":[\"phase 1\"]"), "{rendered}");
        assert!(
            rendered.contains(&format!(
                "\"dataset_fingerprint\":\"{}\"",
                fingerprint_hex(t.fingerprint())
            )),
            "{rendered}"
        );
    }

    #[test]
    fn stats_and_error_shapes() {
        let t = samples::hospital();
        let s = table_stats_json(&t);
        assert_eq!(s.get("rows"), Some(&Json::Int(10)));
        assert_eq!(s.get("max_feasible_l"), Some(&Json::Int(2)));

        let e = error_json(&LdivError::UnknownMechanism {
            requested: "nope".into(),
            known: vec!["tp".into()],
        });
        assert_eq!(e.get("kind"), Some(&Json::Str("unknown_mechanism".into())));
    }
}
