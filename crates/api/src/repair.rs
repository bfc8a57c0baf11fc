//! Stitching sharded publications back together: eligibility repair and
//! payload rebuilding.
//!
//! Partition-level sharding (`ldiv-shard`) splits a table into K parts,
//! anonymizes each independently, and must then publish *one* table that
//! still honours Definition 2. Two things can break at the seam:
//!
//! 1. **Eligibility.** A shard that was not l-eligible-feasible on its
//!    own ran at the largest l′ < l it could honour, so some of its
//!    groups violate the caller's l. [`repair_eligibility`] merges those
//!    groups — together, and then with further (smallest-first) donor
//!    groups — until every group is l-eligible again. Lemma 1 makes this
//!    sound (disjoint unions preserve eligibility) and the caller's
//!    whole-table feasibility check makes it terminate: in the worst
//!    case the repaired group is the whole table.
//! 2. **Payload.** Per-shard payloads describe shard-local row ids and,
//!    for recoded publications, shard-local recodings. The stitcher
//!    rebuilds the payload over the full table from the repaired
//!    partition, reusing each payload kind's grouping invariant: fresh
//!    stars for suppression, tight covering ranges for boxes, a
//!    re-derived QIT/ST for anatomy, and the finest common coarsening
//!    ([`Recoding::join`]) of the shard recodings for recoded output.
//!
//! Recoded payloads are the special case: a recoded release disbands
//! into the groups its *recoding* induces, so merging groups in the
//! partition alone would leave the published recoding disclosing the
//! finer, ineligible grouping. Their repair therefore coarsens the
//! joined recoding itself — collapsing one attribute at a time
//! (undoing TDS specializations, largest bucket count first) — until
//! every induced group is l-eligible, and publishes exactly those
//! induced groups as the partition.
//!
//! [`stitch_publications`] is the engine behind
//! [`Mechanism::repair_merge`](crate::Mechanism::repair_merge), and no
//! mechanism overrides it: all six stitch through this module.

use crate::{AttrRange, LdivError, Params, Payload, Publication, Recoding};
use ldiv_microdata::{Partition, RowId, SaHistogram, Table};

/// Merges ineligible groups until every group is l-eligible, returning
/// the repaired group list and the number of merge steps performed.
///
/// Deterministic policy: all violating groups fuse into one pool (they
/// must grow, and each other is the cheapest material); while the pool
/// still violates, it absorbs the smallest remaining eligible group
/// (ties by position — smallest groups carry the least information, so
/// they are the cheapest donors). Surviving groups keep their order; the
/// repaired pool, rows sorted ascending, is appended last.
///
/// # Errors
/// [`LdivError::Infeasible`] when even the union of every group cannot
/// reach l — callers gate on [`Table::check_l_feasible`], so seeing this
/// means the groups do not cover an l-feasible table.
pub fn repair_eligibility(
    table: &Table,
    groups: Vec<Vec<RowId>>,
    l: u32,
) -> Result<(Vec<Vec<RowId>>, usize), LdivError> {
    let mut kept: Vec<(Vec<RowId>, SaHistogram)> = Vec::with_capacity(groups.len());
    let mut pool_rows: Vec<RowId> = Vec::new();
    let mut pool_hist = SaHistogram::new(table.schema().sa_domain_size());
    let mut merges = 0usize;
    for g in groups {
        let hist = SaHistogram::of_rows(table, &g);
        if hist.is_l_eligible(l) {
            kept.push((g, hist));
        } else {
            if !pool_rows.is_empty() {
                merges += 1;
            }
            pool_hist.merge(&hist);
            pool_rows.extend(g);
        }
    }
    if pool_rows.is_empty() {
        return Ok((kept.into_iter().map(|(g, _)| g).collect(), 0));
    }
    while !pool_hist.is_l_eligible(l) {
        let donor = kept
            .iter()
            .enumerate()
            .min_by_key(|(i, (g, _))| (g.len(), *i))
            .map(|(i, _)| i);
        let Some(donor) = donor else {
            return Err(LdivError::Infeasible(
                ldiv_microdata::MicrodataError::Infeasible {
                    l,
                    n: pool_hist.total(),
                    max_sa_count: pool_hist.max_count(),
                },
            ));
        };
        let (g, hist) = kept.remove(donor);
        pool_hist.merge(&hist);
        pool_rows.extend(g);
        merges += 1;
    }
    pool_rows.sort_unstable();
    let mut repaired: Vec<Vec<RowId>> = kept.into_iter().map(|(g, _)| g).collect();
    repaired.push(pool_rows);
    Ok((repaired, merges))
}

/// The tightest covering range of each attribute over `rows` — the
/// boxes-payload grouping invariant (each attribute published as the
/// min..max of the group's values). `rows` must not be empty. The one
/// box loop of the workspace: [`tight_boxes`] maps it over a partition,
/// and so does Mondrian's `BoxTable`.
pub fn tight_box(table: &Table, rows: &[RowId]) -> Vec<AttrRange> {
    let mut ranges: Vec<AttrRange> = table
        .qi_row(rows[0])
        .iter()
        .map(|&v| AttrRange { lo: v, hi: v })
        .collect();
    for &r in &rows[1..] {
        for (range, &v) in ranges.iter_mut().zip(table.qi_row(r)) {
            range.lo = range.lo.min(v);
            range.hi = range.hi.max(v);
        }
    }
    ranges
}

/// Per-group tightest covering ranges ([`tight_box`] of every group),
/// recomputed over the full table. Public because the incremental
/// publisher (`ldiv-store`) rebuilds boxes-kind placeholder payloads for
/// reloaded shard results before handing them to the stitch (which
/// rebuilds them again over the full table).
pub fn tight_boxes(table: &Table, partition: &Partition) -> Vec<Vec<AttrRange>> {
    partition
        .groups()
        .iter()
        .map(|g| tight_box(table, g))
        .collect()
}

/// Stitches per-shard publications (row ids already mapped back to the
/// full table) into one publication of `table`: concatenates the
/// partitions (recoded payloads instead re-induce groups under the
/// joined recoding), repairs l-eligibility, and rebuilds the payload for
/// the repaired partition. A note records the stitch
/// (`"stitched K shards: G groups, M eligibility-repair merges"`).
///
/// This is the default [`Mechanism::repair_merge`] implementation; see
/// the module docs for the per-payload rebuild rules.
///
/// [`Mechanism::repair_merge`]: crate::Mechanism::repair_merge
pub fn stitch_publications(
    name: &str,
    table: &Table,
    params: &Params,
    shards: Vec<Publication>,
) -> Result<Publication, LdivError> {
    let first = check_shards(&shards)?;
    let shard_count = shards.len();

    // Recoded payloads stitch through the recoding itself: a recoded
    // release disbands into the groups its recoding induces, so the
    // partition-merge repair below cannot help it — the repair must
    // coarsen the recoding (see the module docs).
    if let Payload::Recoded(_) = first.payload() {
        let mut joined: Option<Recoding> = None;
        for p in &shards {
            let Payload::Recoded(r) = p.payload() else {
                unreachable!("payload kinds checked above");
            };
            joined = Some(match joined {
                None => r.clone(),
                Some(j) => j.join(r),
            });
        }
        let joined = joined.expect("at least one shard");
        let (recoding, groups, coarsenings) = coarsen_until_eligible(table, joined, params.l)?;
        let group_count = groups.len();
        return Ok(Publication::new(
            name,
            Partition::new_unchecked(groups),
            Payload::Recoded(recoding),
        )
        .with_note(format!(
            "stitched {shard_count} shards: {group_count} groups, \
             {coarsenings} eligibility-repair coarsenings"
        )));
    }

    let groups: Vec<Vec<RowId>> = shards
        .iter()
        .flat_map(|p| p.partition().groups().iter().cloned())
        .collect();
    let (repaired, merges) = repair_eligibility(table, groups, params.l)?;
    let partition = Partition::new_unchecked(repaired);
    let group_count = partition.group_count();
    let publication = match first.payload() {
        Payload::Suppressed(_) => Publication::suppressed(name, table, partition),
        Payload::Anatomy(_) => Publication::anatomy(name, table, partition),
        Payload::Boxes(_) => {
            let boxes = tight_boxes(table, &partition);
            Publication::new(name, partition, Payload::Boxes(boxes))
        }
        Payload::Recoded(_) => unreachable!("recoded payloads returned above"),
    };
    Ok(publication.with_note(format!(
        "stitched {shard_count} shards: {group_count} groups, {merges} eligibility-repair merges"
    )))
}

/// The stitch guard: the shard list must be non-empty and
/// payload-uniform. Returns the first publication (the payload-kind
/// witness).
fn check_shards(shards: &[Publication]) -> Result<&Publication, LdivError> {
    let Some(first) = shards.first() else {
        return Err(LdivError::Internal("stitching zero shards".into()));
    };
    let same_kind = |p: &Publication| {
        std::mem::discriminant(p.payload()) == std::mem::discriminant(first.payload())
    };
    if !shards.iter().all(same_kind) {
        return Err(LdivError::Internal(format!(
            "'{}' published different payload kinds across shards",
            first.mechanism()
        )));
    }
    Ok(first)
}

/// Coarsens a recoding until every group it induces over `table` is
/// l-eligible, returning the recoding, its induced groups (which become
/// the published partition — a recoded release must never claim a
/// partition finer than what its recoding discloses), and the number of
/// attribute collapses performed.
///
/// Deterministic policy: while some induced group violates l, fully
/// collapse the attribute with the most remaining buckets (ties by
/// index) — the inverse of a TDS specialization step. Terminates
/// because the fully collapsed recoding induces one group, the whole
/// table, which the caller has checked is l-feasible.
fn coarsen_until_eligible(
    table: &Table,
    mut recoding: Recoding,
    l: u32,
) -> Result<(Recoding, Vec<Vec<RowId>>, usize), LdivError> {
    let mut coarsenings = 0usize;
    loop {
        let groups = recoding.induced_groups(table);
        if groups
            .iter()
            .all(|g| SaHistogram::of_rows(table, g).is_l_eligible(l))
        {
            return Ok((recoding, groups, coarsenings));
        }
        let widest = (0..recoding.dimensionality())
            .filter(|&a| recoding.bucket_count(a) > 1)
            .max_by_key(|&a| (recoding.bucket_count(a), std::cmp::Reverse(a)));
        let Some(attr) = widest else {
            // Everything already fully generalized and still ineligible:
            // the table itself cannot reach l.
            return Err(LdivError::Infeasible(
                ldiv_microdata::MicrodataError::Infeasible {
                    l,
                    n: table.len(),
                    max_sa_count: table.sa_histogram().max_count(),
                },
            ));
        };
        recoding = recoding.collapse_attribute(attr);
        coarsenings += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    fn hospital_halves() -> (Table, Vec<Vec<RowId>>, Vec<Vec<RowId>>) {
        // Two "shards" of the paper's Table 1 (already in global ids);
        // each ends in a singleton residue group that violates l = 2.
        let t = samples::hospital();
        let a = vec![vec![0, 1, 4, 5], vec![8]];
        let b = vec![vec![2, 3, 6, 7], vec![9]];
        (t, a, b)
    }

    #[test]
    fn repair_merges_violators_and_keeps_eligible_groups() {
        let (t, a, b) = hospital_halves();
        let groups: Vec<Vec<RowId>> = a.into_iter().chain(b).collect();
        let (repaired, merges) = repair_eligibility(&t, groups, 2).unwrap();
        // The two singleton violators fused into one (sorted) group; the
        // eligible groups survived in order.
        assert_eq!(
            repaired,
            vec![vec![0, 1, 4, 5], vec![2, 3, 6, 7], vec![8, 9]]
        );
        assert_eq!(merges, 1);
        for g in &repaired {
            assert!(SaHistogram::of_rows(&t, g).is_l_eligible(2));
        }
    }

    #[test]
    fn repair_absorbs_donors_when_violators_alone_stay_short() {
        let t = samples::hospital();
        // Rows 2 and 4 both carry pneumonia: fusing the two violators
        // still leaves h·l = 4 > 2, so the pool must absorb the smallest
        // eligible donor ({3, 8}, not the larger {0, 1, 5, 6}).
        let groups = vec![vec![0, 1, 5, 6], vec![2], vec![4], vec![3, 8]];
        let (repaired, merges) = repair_eligibility(&t, groups, 2).unwrap();
        assert_eq!(repaired, vec![vec![0, 1, 5, 6], vec![2, 3, 4, 8]]);
        assert_eq!(merges, 2);
        for g in &repaired {
            assert!(
                SaHistogram::of_rows(&t, g).is_l_eligible(2),
                "group {g:?} not eligible"
            );
        }
    }

    #[test]
    fn repair_is_a_no_op_on_eligible_partitions() {
        let t = samples::hospital();
        let groups = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]];
        let (repaired, merges) = repair_eligibility(&t, groups.clone(), 2).unwrap();
        assert_eq!(repaired, groups);
        assert_eq!(merges, 0);
    }

    #[test]
    fn repair_reports_infeasibility_instead_of_spinning() {
        let t = samples::hospital();
        // Only the four pneumonia rows: no 2-eligible grouping exists.
        let err = repair_eligibility(&t, vec![vec![2], vec![4], vec![7], vec![9]], 2).unwrap_err();
        assert!(matches!(err, LdivError::Infeasible(_)), "{err}");
    }

    #[test]
    fn stitch_rebuilds_each_payload_kind() {
        let (t, a, b) = hospital_halves();
        let params = Params::new(2);
        let part = |groups: &[Vec<RowId>]| Partition::new_unchecked(groups.to_vec());

        // Suppressed: fresh stars over the repaired partition.
        let stitched = stitch_publications(
            "tp",
            &t,
            &params,
            vec![
                Publication::suppressed("tp", &t, part(&a)),
                Publication::suppressed("tp", &t, part(&b)),
            ],
        )
        .unwrap();
        stitched.validate(&t, 2).unwrap();
        assert!(stitched.as_suppressed().is_some());
        assert!(stitched.notes()[0].contains("stitched 2 shards"));

        // Anatomy: QIT/ST re-derived, multiplicities consistent.
        let stitched = stitch_publications(
            "anatomy",
            &t,
            &params,
            vec![
                Publication::anatomy("anatomy", &t, part(&a)),
                Publication::anatomy("anatomy", &t, part(&b)),
            ],
        )
        .unwrap();
        stitched.validate(&t, 2).unwrap();

        // Boxes: tight covering ranges over the repaired groups.
        let boxes_of = |groups: &[Vec<RowId>]| {
            let partition = part(groups);
            let boxes = tight_boxes(&t, &partition);
            Publication::new("mondrian", partition, Payload::Boxes(boxes))
        };
        let stitched =
            stitch_publications("mondrian", &t, &params, vec![boxes_of(&a), boxes_of(&b)]).unwrap();
        stitched.validate(&t, 2).unwrap();

        // Mixed payload kinds across shards are a bug, not a merge.
        let err = stitch_publications(
            "tp",
            &t,
            &params,
            vec![
                Publication::suppressed("tp", &t, part(&a)),
                Publication::anatomy("tp", &t, part(&b)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, LdivError::Internal(_)), "{err}");
    }

    #[test]
    fn stitch_joins_recodings_and_reinduces_groups() {
        let t = samples::hospital();
        // Shard recodings disagree on Age; the join coarsens to their
        // finest common coarsening and groups are re-induced from it.
        let ra = Recoding::new(vec![vec![0, 0, 1], vec![0, 1], vec![0, 0, 0]]);
        let rb = Recoding::new(vec![vec![0, 1, 1], vec![0, 1], vec![0, 0, 0]]);
        let pub_of = |r: &Recoding, rows: Vec<RowId>| {
            Publication::new(
                "tds",
                Partition::new_unchecked(vec![rows]),
                Payload::Recoded(r.clone()),
            )
        };
        let stitched = stitch_publications(
            "tds",
            &t,
            &Params::new(2),
            vec![
                pub_of(&ra, (0..5).collect()),
                pub_of(&rb, (5..10).collect()),
            ],
        )
        .unwrap();
        stitched.validate(&t, 2).unwrap();
        let Payload::Recoded(joined) = stitched.payload() else {
            panic!("payload kind changed");
        };
        // Age fully coarsened (0~1 via ra, 1~2 via rb); the induced
        // grouping splits only on Gender.
        assert_eq!(joined.bucket_count(0), 1);
        assert_eq!(stitched.group_count(), 2);
    }

    #[test]
    fn recoded_repair_coarsens_the_recoding_not_just_the_partition() {
        // Regression: shard recodings whose join still induces
        // ineligible groups (identity recodings → §5.2's raw QI-groups,
        // with singletons and the {HIV, HIV} pair). A partition-level
        // merge would leave the published recoding disclosing those
        // groups anyway, so the stitch must coarsen the recoding until
        // the *induced* groups reach l — `validate` now checks exactly
        // that disclosure.
        let t = samples::hospital();
        let identity = Recoding::new(vec![vec![0, 1, 2], vec![0, 1], vec![0, 1, 2]]);
        let pub_of = |rows: Vec<RowId>| {
            Publication::new(
                "tds",
                Partition::new_unchecked(vec![rows]),
                Payload::Recoded(identity.clone()),
            )
        };
        let stitched = stitch_publications(
            "tds",
            &t,
            &Params::new(2),
            vec![pub_of((0..5).collect()), pub_of((5..10).collect())],
        )
        .unwrap();
        stitched.validate(&t, 2).unwrap();
        let Payload::Recoded(repaired) = stitched.payload() else {
            panic!("payload kind changed");
        };
        // Age and Education collapse (3 buckets each, largest-first);
        // Gender alone already yields 2-eligible groups {M} and {F}.
        assert_eq!(repaired.bucket_count(0), 1);
        assert_eq!(repaired.bucket_count(2), 1);
        assert_eq!(repaired.bucket_count(1), 2);
        // The published partition IS the induced grouping.
        assert_eq!(
            stitched.partition().groups(),
            &repaired.induced_groups(&t)[..]
        );
        let notes = stitched.notes().join("\n");
        assert!(
            notes.contains("2 eligibility-repair coarsenings"),
            "{notes}"
        );
    }
}
