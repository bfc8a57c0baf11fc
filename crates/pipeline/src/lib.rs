//! The §5.6 workflows around the core algorithm.
//!
//! The paper's §5.6 proposes two practical devices for tables whose QI
//! values are too diverse for plain TP:
//!
//! 1. **The hybrid** (TP+) — re-partition the residue with any heuristic;
//!    that lives in `ldiv-core` / `ldiv-hilbert`.
//! 2. **Preprocessing** — first coarsen the QI domains with *any*
//!    single-dimensional generalization (even a k-anonymity one), then run
//!    TP on the modified dataset. More aggressive coarsening leaves fewer
//!    stars but makes every retained value less precise; the paper
//!    suggests sweeping the preprocessing level and picking the best
//!    trade-off. This crate implements that workflow end to end:
//!
//! * [`coarsen_table`] — materializes the recoded table (bucket ids become
//!   the new domain);
//! * [`anonymize_preprocessed_with`] — coarsen → any mechanism →
//!   publication, with stars counted on the coarse table and, for
//!   suppression payloads, information loss measured on the *original*
//!   table via the mixed KL-divergence
//!   (`ldiv_metrics::kl_divergence_coarse_suppressed`);
//! * [`uniform_recoding`] — depth-`k` cuts through balanced taxonomies,
//!   the preprocessing knob;
//! * [`preprocessing_sweep`] — the trade-off table of §5.6's last
//!   paragraph.
//!
//! ```
//! use ldiv_pipeline::{preprocessing_sweep, SweepConfig};
//! use ldiv_datagen::{sal, AcsConfig};
//!
//! let table = sal(&AcsConfig { rows: 3_000, seed: 5 })
//!     .project(&[0, 5])
//!     .unwrap();
//! let points = preprocessing_sweep(&table, &SweepConfig { l: 4, fanout: 2, max_depth: 5 })
//!     .unwrap();
//! // Depth 0 (fully coarse) stars nothing; full depth behaves like plain TP.
//! assert_eq!(points.first().unwrap().stars, 0);
//! assert!(points.len() >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod lattice;

pub use lattice::{best_full_domain_recoding, minimal_full_domain_recodings, FullDomainRecoding};

use ldiv_api::{LdivError, Mechanism, Params, Publication, Recoding};
use ldiv_metrics::kl_divergence_coarse_suppressed;
use ldiv_microdata::{Attribute, Schema, Table, TableBuilder, Value};
use ldiv_tds::Taxonomy;

/// Materializes the coarsened table of a recoding: every QI value is
/// replaced by its bucket id, and each attribute's domain shrinks to its
/// bucket count. The SA column is untouched.
pub fn coarsen_table(table: &Table, recoding: &Recoding) -> Table {
    let d = table.dimensionality();
    assert_eq!(d, recoding.dimensionality());
    let schema = Schema::new(
        (0..d)
            .map(|a| {
                Attribute::new(
                    table.schema().qi_attribute(a).name(),
                    recoding.bucket_count(a) as u32,
                )
            })
            .collect(),
        table.schema().sensitive().clone(),
    )
    .expect("coarse schema is valid");
    let mut builder = TableBuilder::with_capacity(schema, table.len());
    let mut buckets = vec![0u32; d];
    let mut coarse = vec![0 as Value; d];
    for (_, qi, sa) in table.rows() {
        recoding.apply_into(qi, &mut buckets);
        for (c, &b) in coarse.iter_mut().zip(&buckets) {
            *c = b as Value;
        }
        builder.push_row_unchecked(&coarse, sa);
    }
    builder.build()
}

/// A §5.6 preprocessing run of an arbitrary unified-API mechanism:
/// the recoding used, the coarsened table it actually ran on, and its
/// publication over that table.
#[derive(Debug, Clone)]
pub struct PreprocessedPublication {
    /// The preprocessing recoding.
    pub recoding: Recoding,
    /// The coarsened microdata the mechanism ran on.
    pub coarse_table: Table,
    /// The mechanism's publication *of the coarsened table*.
    pub publication: Publication,
    /// Information loss of the final publication measured against the
    /// *original* table (mixed star/bucket semantics of Eq. 2).
    /// `None` when the mechanism's payload is not suppression-based —
    /// the mixed semantics are only defined for starred publications.
    pub kl: Option<f64>,
}

/// §5.6 preprocessing for any [`Mechanism`]: coarsen the table with
/// `recoding`, run the mechanism on the coarsened data, and (for
/// suppression payloads) measure the loss against the original table.
///
/// The one preprocessing path: [`preprocessing_sweep`] runs TP+ through
/// it, and the facade's `Anonymizer::preprocess_depth` any mechanism.
pub fn anonymize_preprocessed_with(
    table: &Table,
    recoding: &Recoding,
    mechanism: &dyn Mechanism,
    params: &Params,
) -> Result<PreprocessedPublication, LdivError> {
    let coarse_table = coarsen_table(table, recoding);
    let publication = mechanism.anonymize(&coarse_table, params)?;
    let kl = publication
        .as_suppressed()
        .map(|s| kl_divergence_coarse_suppressed(table, recoding, s));
    Ok(PreprocessedPublication {
        recoding: recoding.clone(),
        coarse_table,
        publication,
        kl,
    })
}

/// A uniform preprocessing level: every attribute's balanced taxonomy is
/// cut at depth `depth` (depth 0 = fully generalized, large depths =
/// identity).
pub fn uniform_recoding(schema: &Schema, fanout: u32, depth: u32) -> Recoding {
    let bucket_of = schema
        .qi_attributes()
        .iter()
        .map(|a| {
            let tax = Taxonomy::balanced(a.domain_size(), fanout);
            // Collect the nodes at `depth` (or the leaves above it) by DFS.
            let mut assign = vec![0u32; a.domain_size() as usize];
            let mut bucket = 0u32;
            let mut stack = vec![(0usize, 0u32)]; // (node, depth)
                                                  // DFS assigns buckets in range order because children tile
                                                  // their parent left to right and are pushed in reverse.
            while let Some((id, dep)) = stack.pop() {
                let node = tax.node(id);
                if dep == depth || node.is_leaf() {
                    for v in node.lo..node.hi {
                        assign[v as usize] = bucket;
                    }
                    bucket += 1;
                    continue;
                }
                for &c in node.children.iter().rev() {
                    stack.push((c, dep + 1));
                }
            }
            assign
        })
        .collect();
    Recoding::new(bucket_of)
}

/// Parameters of a preprocessing sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Diversity requirement.
    pub l: u32,
    /// Taxonomy fanout.
    pub fanout: u32,
    /// Deepest cut to try (0 is always included).
    pub max_depth: u32,
}

/// One point of the preprocessing trade-off.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cut depth.
    pub depth: u32,
    /// Total buckets across attributes (coarseness measure; small = coarse).
    pub total_buckets: usize,
    /// Stars of the publication at this level.
    pub stars: usize,
    /// Suppressed tuples at this level.
    pub suppressed_tuples: usize,
    /// Mixed KL-divergence against the original table.
    pub kl: f64,
}

/// Sweeps preprocessing depths 0..=`max_depth` with TP+ and reports the
/// stars/KL trade-off of §5.6. Stops early once the recoding reaches the
/// identity (deeper cuts would repeat it).
pub fn preprocessing_sweep(table: &Table, cfg: &SweepConfig) -> Result<Vec<SweepPoint>, LdivError> {
    let tp_plus = ldiv_hilbert::tp_plus_mechanism();
    let params = Params::new(cfg.l).with_fanout(cfg.fanout);
    let mut out = Vec::new();
    let mut seen_identity = false;
    for depth in 0..=cfg.max_depth {
        let recoding = uniform_recoding(table.schema(), cfg.fanout, depth);
        let total_buckets: usize = (0..table.dimensionality())
            .map(|a| recoding.bucket_count(a))
            .sum();
        let identity = (0..table.dimensionality()).all(|a| {
            recoding.bucket_count(a) as u32 == table.schema().qi_attribute(a).domain_size()
        });
        if identity && seen_identity {
            break;
        }
        seen_identity = identity;
        let run = anonymize_preprocessed_with(table, &recoding, &tp_plus, &params)?;
        out.push(SweepPoint {
            depth,
            total_buckets,
            stars: run.publication.star_count(),
            suppressed_tuples: run.publication.suppressed_tuple_count(),
            kl: run.kl.expect("TP+ publishes a suppression payload"),
        });
        if identity {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_core::{anonymize, SingleGroupResidue, TpMechanism};
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::samples;

    #[test]
    fn coarsen_table_shrinks_domains() {
        let t = samples::hospital();
        let rec = Recoding::new(vec![vec![0, 0, 1], vec![0, 1], vec![0, 0, 1]]);
        let coarse = coarsen_table(&t, &rec);
        assert_eq!(coarse.len(), 10);
        assert_eq!(coarse.schema().qi_attribute(0).domain_size(), 2);
        // Rows 0 (<30) and 3 ([30,50)) collapse onto Age bucket 0.
        assert_eq!(coarse.qi_value(0, 0), coarse.qi_value(3, 0));
        // SA untouched.
        assert_eq!(coarse.sa_column(), t.sa_column());
    }

    #[test]
    fn uniform_recoding_depth_0_and_deep() {
        let schema = samples::hospital_schema();
        let coarse = uniform_recoding(&schema, 2, 0);
        assert_eq!(coarse.bucket_count(0), 1);
        let deep = uniform_recoding(&schema, 2, 10);
        // Depth 10 exceeds the tree height: identity.
        for a in 0..3 {
            assert_eq!(
                deep.bucket_count(a) as u32,
                schema.qi_attribute(a).domain_size()
            );
        }
        // Buckets are contiguous ranges in domain order.
        let mid = uniform_recoding(&schema, 2, 1);
        assert_eq!(mid.bucket_count(0), 2);
        assert_eq!(mid.bucket(0, 0), 0);
        assert_eq!(mid.bucket(0, 2), 1);
    }

    #[test]
    fn preprocessing_reduces_stars_as_depth_drops() {
        let t = sal(&AcsConfig {
            rows: 3_000,
            seed: 9,
        })
        .project(&[0, 4])
        .unwrap(); // Age × Birth Place: very diverse
        let l = 4;
        let at_depth = |depth| {
            let recoding = uniform_recoding(t.schema(), 2, depth);
            anonymize_preprocessed_with(&t, &recoding, &TpMechanism, &Params::new(l)).unwrap()
        };
        let (shallow, deep) = (at_depth(1), at_depth(10));
        assert!(shallow.publication.star_count() < deep.publication.star_count());
        for run in [shallow, deep] {
            // Publications are l-diverse over the coarse tables.
            assert!(run.publication.is_l_diverse(&run.coarse_table, l));
            // KL is finite and non-negative in both regimes.
            let kl = run.kl.expect("TP publishes a suppression payload");
            assert!(kl >= -1e-9 && kl.is_finite());
        }
    }

    #[test]
    fn sweep_is_monotone_in_buckets_and_stops_at_identity() {
        let t = sal(&AcsConfig {
            rows: 2_000,
            seed: 10,
        })
        .project(&[0, 5])
        .unwrap();
        let points = preprocessing_sweep(
            &t,
            &SweepConfig {
                l: 4,
                fanout: 2,
                max_depth: 12,
            },
        )
        .unwrap();
        assert!(points.len() >= 3);
        // Coarseness increases with depth.
        for w in points.windows(2) {
            assert!(w[0].total_buckets <= w[1].total_buckets);
            assert!(w[0].stars <= w[1].stars);
        }
        // The deepest point is the identity (Age 79 needs 7 levels).
        let last = points.last().unwrap();
        assert_eq!(last.total_buckets, 79 + 17);
        // Depth 0: everything in one bucket per attribute ⇒ no stars.
        assert_eq!(points[0].stars, 0);
    }

    /// `(depth, total_buckets, stars, suppressed_tuples, KL bits)` of
    /// each sweep point.
    fn sweep_rows(table: &Table, l: u32) -> Vec<(u32, usize, usize, usize, u64)> {
        let cfg = SweepConfig {
            l,
            fanout: 2,
            max_depth: 12,
        };
        preprocessing_sweep(table, &cfg)
            .unwrap()
            .iter()
            .map(|p| {
                (
                    p.depth,
                    p.total_buckets,
                    p.stars,
                    p.suppressed_tuples,
                    p.kl.to_bits(),
                )
            })
            .collect()
    }

    /// The sweep's output on two seeded tables, KL to the bit.
    #[test]
    fn sweep_points_match_the_pinned_values() {
        let sal_table = sal(&AcsConfig {
            rows: 1_500,
            seed: 21,
        })
        .project(&[0, 3, 5])
        .unwrap();
        assert_eq!(
            sweep_rows(&sal_table, 3),
            [
                (0, 3, 0, 0, 4617519784749699181),
                (1, 6, 0, 0, 4616718150033263498),
                (2, 12, 45, 18, 4615287668555412232),
                (3, 22, 660, 240, 4614042987269499294),
                (4, 38, 1833, 645, 4614621749439298312),
                (5, 55, 2586, 901, 4615444508837415071),
                (6, 87, 3342, 1162, 4616419028403377023),
                (7, 102, 3498, 1227, 4616489357438367504),
            ]
        );
        let occ_table = ldiv_datagen::occ(&AcsConfig {
            rows: 1_500,
            seed: 22,
        })
        .project(&[0, 2, 4])
        .unwrap();
        assert_eq!(
            sweep_rows(&occ_table, 4),
            [
                (0, 3, 0, 0, 4619394167311142980),
                (1, 6, 0, 0, 4618400055910751025),
                (2, 12, 117, 39, 4617469717468166905),
                (3, 24, 539, 181, 4616650772801419448),
                (4, 41, 1376, 467, 4616431099019413527),
                (5, 73, 2548, 860, 4617012184329300506),
                (6, 129, 3542, 1194, 4617878117604206767),
                (7, 144, 3741, 1263, 4618153721399447179),
            ]
        );
    }

    #[test]
    fn non_suppression_payloads_report_no_mixed_kl() {
        let t = sal(&AcsConfig {
            rows: 2_000,
            seed: 12,
        })
        .project(&[0, 5])
        .unwrap();
        let recoding = uniform_recoding(t.schema(), 2, 2);
        let tds =
            anonymize_preprocessed_with(&t, &recoding, &ldiv_tds::TdsMechanism, &Params::new(3))
                .unwrap();
        assert!(tds.kl.is_none());
    }

    #[test]
    fn identity_preprocessing_equals_plain_tp() {
        let t = sal(&AcsConfig {
            rows: 2_000,
            seed: 11,
        })
        .project(&[1, 3, 6])
        .unwrap();
        let identity = Recoding::identity(t.schema());
        let pre =
            anonymize_preprocessed_with(&t, &identity, &TpMechanism, &Params::new(3)).unwrap();
        let plain = anonymize(&t, 3, &SingleGroupResidue).unwrap();
        assert_eq!(pre.publication.star_count(), plain.star_count());
        assert_eq!(
            pre.publication.suppressed_tuple_count(),
            plain.suppressed_tuples()
        );
    }
}
