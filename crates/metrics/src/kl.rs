//! The KL-divergence of the paper's Eq. (2).

use crate::Recoding;
use ldiv_exec::Executor;
use ldiv_microdata::{RowId, SuppressedTable, Table, Value};
use std::collections::HashMap;

/// Support points per reduction chunk. The KL sums are computed as
/// per-chunk partial sums added in chunk order
/// ([`Executor::sum_chunked`]); since the chunk boundaries depend only
/// on this constant — never on the thread budget — every budget yields
/// a bit-identical `f64`, which is what keeps wire responses and cache
/// entries byte-stable across `--threads` settings.
pub(crate) const KL_CHUNK: usize = 4_096;

/// Distinct `(QI vector, SA)` support points of the microdata pdf `f`:
/// one representative row per point, with the point's multiplicity,
/// **sorted** by `(QI vector, SA)`. Float summation is order-sensitive
/// in its last ulps, so every KL sum visits the points in this one
/// order; that is what keeps repeated evaluations of the same
/// publication, wire responses and cache-vs-recompute comparisons
/// byte-identical. Sorting row ids finds the points without hashing a
/// key per row.
pub(crate) fn support_points(table: &Table) -> Vec<(RowId, u32)> {
    let key = |r: RowId| (table.qi_row(r), table.sa_value(r));
    let mut rows: Vec<RowId> = (0..table.len() as RowId).collect();
    rows.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
    rows.chunk_by(|&a, &b| key(a) == key(b))
        .map(|run| (run[0], run.len() as u32))
        .collect()
}

/// `KL(f, f*)` for a suppression-based publication (Eq. 2): a starred
/// value spreads uniformly over its whole attribute domain, retained
/// values stay point masses, every row keeps its own SA value. Uses the
/// auto thread budget.
///
/// Runs in `O(n log n + |support| · #patterns)`: a sort of the rows
/// finds the support, and each support point probes one hash index per
/// *pattern*, a distinct star mask among the groups (≤ 2^d, typically
/// ≪).
pub fn kl_divergence_suppressed(table: &Table, published: &SuppressedTable) -> f64 {
    kl_divergence_suppressed_with(table, published, &Executor::default())
}

/// [`kl_divergence_suppressed`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_suppressed_with(
    table: &Table,
    published: &SuppressedTable,
    exec: &Executor,
) -> f64 {
    assert_eq!(table.dimensionality(), published.dimensionality());
    assert_eq!(
        table.len(),
        published.len(),
        "publication must cover the table"
    );
    let d = table.dimensionality();
    let n = table.len() as f64;
    if table.is_empty() {
        return 0.0;
    }
    let domains: Vec<f64> = (0..d)
        .map(|a| table.schema().qi_attribute(a).domain_size() as f64)
        .collect();

    // Index generalized rows by star pattern. For pattern π the map key is
    // [retained values in attr order..., sa] and the value is the summed
    // probability mass the matching rows spread on each consistent point:
    // count · Π_{i ∈ π} 1/|D_i| (the 1/n factor is applied at query time).
    struct PatternIndex {
        stars: Vec<bool>,
        mass: HashMap<Vec<Value>, f64>,
    }
    let mut patterns: Vec<PatternIndex> = Vec::new();
    let mut pattern_ids: HashMap<Vec<bool>, usize> = HashMap::new();
    for g in published.groups() {
        let stars = g.stars().to_vec();
        let pid = *pattern_ids.entry(stars.clone()).or_insert_with(|| {
            patterns.push(PatternIndex {
                stars,
                mass: HashMap::new(),
            });
            patterns.len() - 1
        });
        let spread: f64 = (0..d)
            .filter(|&a| patterns[pid].stars[a])
            .map(|a| 1.0 / domains[a])
            .product();
        // Rows of the group share retained values; bucket them by SA.
        let mut by_sa: HashMap<Value, u32> = HashMap::new();
        for &r in g.rows() {
            *by_sa.entry(table.sa_value(r)).or_insert(0) += 1;
        }
        let retained: Vec<Value> = (0..d)
            .filter(|&a| !patterns[pid].stars[a])
            .map(|a| g.value(a).expect("non-starred attr has a value"))
            .collect();
        for (sa, count) in by_sa {
            let mut key = retained.clone();
            key.push(sa);
            *patterns[pid].mass.entry(key).or_insert(0.0) += count as f64 * spread;
        }
    }

    let points = support_points(table);
    let patterns = &patterns;
    // One key buffer per chunk (not per point), per-chunk partial sums
    // added in chunk order — the same reduction shape as `sum_chunked`,
    // so the value is bit-identical for every budget.
    exec.map_chunks(&points, KL_CHUNK, |part| {
        let mut key: Vec<Value> = Vec::with_capacity(d + 1);
        part.iter()
            .map(|&(row, count)| {
                let f_p = count as f64 / n;
                let (qi, sa) = (table.qi_row(row), table.sa_value(row));
                let mut fstar = 0.0;
                for p in patterns {
                    key.clear();
                    for (&star, &pv) in p.stars.iter().zip(qi) {
                        if !star {
                            key.push(pv);
                        }
                    }
                    key.push(sa);
                    if let Some(&m) = p.mass.get(&key) {
                        fstar += m;
                    }
                }
                let fstar_p = fstar / n;
                debug_assert!(
                    fstar_p > 0.0,
                    "f* must be positive on the support of f (point {qi:?}, {sa})"
                );
                f_p * (f_p / fstar_p).ln()
            })
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

/// `KL(f, f*)` for a global recoding (single-dimensional generalization,
/// the TDS output): value `v` of attribute `A_i` spreads uniformly over
/// its sub-domain. Uses the auto thread budget.
///
/// Global recoding maps every support point to exactly one generalized
/// cell, so the computation is one hash pass over the rows, a sort of
/// the rows for the support, and one hash probe per support point —
/// `O(n log n)`.
pub fn kl_divergence_recoded(table: &Table, recoding: &Recoding) -> f64 {
    kl_divergence_recoded_with(table, recoding, &Executor::default())
}

/// [`kl_divergence_recoded`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_recoded_with(table: &Table, recoding: &Recoding, exec: &Executor) -> f64 {
    assert_eq!(table.dimensionality(), recoding.dimensionality());
    let d = table.dimensionality();
    let n = table.len() as f64;
    if table.is_empty() {
        return 0.0;
    }

    // Pass 1: multiplicity of each generalized cell (recoded QI + SA).
    let mut cell_count: HashMap<Vec<u32>, u32> = HashMap::with_capacity(table.len());
    let mut cell = vec![0u32; d + 1];
    for (_, qi, sa) in table.rows() {
        recoding.apply_into(qi, &mut cell[..d]);
        cell[d] = sa as u32;
        match cell_count.get_mut(&cell) {
            Some(c) => *c += 1,
            None => {
                cell_count.insert(cell.clone(), 1);
            }
        }
    }

    // Pass 2: sum over the exact support — one cell buffer per chunk,
    // partial sums added in chunk order (bit-identical for any budget).
    let f_support = support_points(table);
    let cell_count = &cell_count;
    exec.map_chunks(&f_support, KL_CHUNK, |part| {
        let mut cell = vec![0u32; d + 1];
        part.iter()
            .map(|&(row, count)| {
                let f_p = count as f64 / n;
                let qi = table.qi_row(row);
                recoding.apply_into(qi, &mut cell[..d]);
                cell[d] = table.sa_value(row) as u32;
                let cell_rows = cell_count[&cell] as f64;
                let width: f64 = (0..d)
                    .map(|a| recoding.bucket_width(a, qi[a]) as f64)
                    .product();
                let fstar_p = cell_rows / (n * width);
                f_p * (f_p / fstar_p).ln()
            })
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

/// `KL(f, f*)` for a *coarsened-then-suppressed* publication: the §5.6
/// preprocessing workflow first recodes every attribute globally, then a
/// suppression algorithm runs on the coarsened table. A published cell is
/// either a star (spreads over the whole original domain) or a *bucket*
/// (spreads over the bucket's sub-domain).
///
/// `published` must be a publication of the coarsened table (its retained
/// values are bucket ids); `table` is the original microdata. Uses the
/// auto thread budget.
pub fn kl_divergence_coarse_suppressed(
    table: &Table,
    recoding: &Recoding,
    published: &SuppressedTable,
) -> f64 {
    kl_divergence_coarse_suppressed_with(table, recoding, published, &Executor::default())
}

/// [`kl_divergence_coarse_suppressed`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_coarse_suppressed_with(
    table: &Table,
    recoding: &Recoding,
    published: &SuppressedTable,
    exec: &Executor,
) -> f64 {
    assert_eq!(table.dimensionality(), published.dimensionality());
    assert_eq!(table.dimensionality(), recoding.dimensionality());
    assert_eq!(table.len(), published.len());
    let d = table.dimensionality();
    let n = table.len() as f64;
    if table.is_empty() {
        return 0.0;
    }
    let domains: Vec<f64> = (0..d)
        .map(|a| table.schema().qi_attribute(a).domain_size() as f64)
        .collect();

    // Pattern index as in the suppressed case, but keys hold bucket ids on
    // retained attributes and the per-point spread over retained buckets is
    // applied at query time (bucket widths depend on the queried value).
    struct PatternIndex {
        stars: Vec<bool>,
        mass: HashMap<Vec<Value>, f64>,
    }
    let mut patterns: Vec<PatternIndex> = Vec::new();
    let mut pattern_ids: HashMap<Vec<bool>, usize> = HashMap::new();
    for g in published.groups() {
        let stars = g.stars().to_vec();
        let pid = *pattern_ids.entry(stars.clone()).or_insert_with(|| {
            patterns.push(PatternIndex {
                stars,
                mass: HashMap::new(),
            });
            patterns.len() - 1
        });
        let star_spread: f64 = (0..d)
            .filter(|&a| patterns[pid].stars[a])
            .map(|a| 1.0 / domains[a])
            .product();
        let mut by_sa: HashMap<Value, u32> = HashMap::new();
        for &r in g.rows() {
            *by_sa.entry(table.sa_value(r)).or_insert(0) += 1;
        }
        let retained: Vec<Value> = (0..d)
            .filter(|&a| !patterns[pid].stars[a])
            .map(|a| g.value(a).expect("retained attr"))
            .collect();
        for (sa, count) in by_sa {
            let mut key = retained.clone();
            key.push(sa);
            *patterns[pid].mass.entry(key).or_insert(0.0) += count as f64 * star_spread;
        }
    }

    let f_support = support_points(table);
    let patterns = &patterns;
    exec.map_chunks(&f_support, KL_CHUNK, |part| {
        let mut key: Vec<Value> = Vec::with_capacity(d + 1);
        part.iter()
            .map(|&(row, count)| {
                let f_p = count as f64 / n;
                let (qi, sa) = (table.qi_row(row), table.sa_value(row));
                let mut fstar = 0.0;
                for p in patterns {
                    key.clear();
                    let mut bucket_spread = 1.0;
                    for (a, &star) in p.stars.iter().enumerate() {
                        if !star {
                            key.push(recoding.bucket(a, qi[a]) as Value);
                            bucket_spread /= recoding.bucket_width(a, qi[a]) as f64;
                        }
                    }
                    key.push(sa);
                    if let Some(&m) = p.mass.get(&key) {
                        fstar += m * bucket_spread;
                    }
                }
                let fstar_p = fstar / n;
                debug_assert!(
                    fstar_p > 0.0,
                    "f* must cover the support (point {qi:?}, {sa})"
                );
                f_p * (f_p / fstar_p).ln()
            })
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, Attribute, Partition, RowId, Schema, TableBuilder};

    fn tiny(rows: &[([Value; 2], Value)], doms: [u32; 2], sa_dom: u32) -> Table {
        let schema = Schema::new(
            vec![Attribute::new("a", doms[0]), Attribute::new("b", doms[1])],
            Attribute::new("sa", sa_dom),
        )
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (qi, sa) in rows {
            b.push_row(qi, *sa).unwrap();
        }
        b.build()
    }

    #[test]
    fn no_suppression_means_zero_divergence() {
        let t = tiny(&[([0, 0], 0), ([1, 1], 1), ([0, 0], 0)], [2, 2], 2);
        let p = Partition::new_unchecked(vec![vec![0, 2], vec![1]]);
        let published = t.generalize(&p);
        assert_eq!(published.star_count(), 0);
        let kl = kl_divergence_suppressed(&t, &published);
        assert!(kl.abs() < 1e-12, "kl = {kl}");
    }

    #[test]
    fn identity_recoding_means_zero_divergence() {
        let t = tiny(&[([0, 1], 0), ([1, 0], 1), ([0, 1], 1)], [2, 2], 2);
        let kl = kl_divergence_recoded(&t, &Recoding::identity(t.schema()));
        assert!(kl.abs() < 1e-12);
    }

    #[test]
    fn full_suppression_matches_hand_formula() {
        // Two rows, distinct QI, same SA; one group stars both attributes.
        // f(p) = 1/2 at two points; f*(p) = (2/2)·(1/2)(1/2) = 1/4.
        // KL = 2 · (1/2)·ln( (1/2)/(1/4) ) = ln 2.
        let t = tiny(&[([0, 0], 0), ([1, 1], 0)], [2, 2], 1);
        let p = Partition::new_unchecked(vec![vec![0, 1]]);
        let published = t.generalize(&p);
        assert_eq!(published.star_count(), 4);
        let kl = kl_divergence_suppressed(&t, &published);
        assert!((kl - (2.0f64).ln()).abs() < 1e-12, "kl = {kl}");
    }

    #[test]
    fn full_recoding_matches_full_suppression() {
        // Collapsing every domain to one bucket is semantically the same
        // publication as starring everything in one group.
        let t = tiny(
            &[([0, 2], 0), ([1, 1], 1), ([2, 0], 0), ([0, 1], 1)],
            [3, 3],
            2,
        );
        let p = Partition::new_unchecked(vec![(0..4 as RowId).collect()]);
        let kl_star = kl_divergence_suppressed(&t, &t.generalize(&p));
        let kl_rec = kl_divergence_recoded(&t, &Recoding::full(t.schema()));
        assert!((kl_star - kl_rec).abs() < 1e-12, "{kl_star} vs {kl_rec}");
    }

    #[test]
    fn kl_is_nonnegative_and_monotone_under_coarsening() {
        let t = samples::hospital();
        let fine = Recoding::new(vec![vec![0, 1, 2], vec![0, 1], vec![0, 1, 2]]);
        let coarse = Recoding::new(vec![
            vec![0, 0, 1], // merge <30 and [30,50)
            vec![0, 1],
            vec![0, 0, 0], // collapse education entirely
        ]);
        let k_fine = kl_divergence_recoded(&t, &fine);
        let k_coarse = kl_divergence_recoded(&t, &coarse);
        assert!(k_fine.abs() < 1e-12); // fine = identity here
        assert!(k_coarse > 0.0);
    }

    #[test]
    fn mixed_patterns_probe_all_groups() {
        // Group 1 stars attr a only, group 2 stars attr b only; both cover
        // the same SA value so cross-pattern probing matters.
        let t = tiny(
            &[([0, 1], 0), ([1, 1], 0), ([0, 0], 0), ([0, 1], 0)],
            [2, 2],
            1,
        );
        let p = Partition::new_unchecked(vec![vec![0, 1], vec![2, 3]]);
        let published = t.generalize(&p);
        // Group {0,1}: a starred, b = 1. Group {2,3}: b starred, a = 0.
        let kl = kl_divergence_suppressed(&t, &published);
        // Hand computation:
        // support: (0,1): f = 2/4; (1,1): 1/4; (0,0): 1/4.
        // f*(0,1) = [2·(1/2) from g1 + 2·(1/2) from g2] / 4 = 2/4.
        // f*(1,1) = [2·(1/2) + 0] / 4 = 1/4.
        // f*(0,0) = [0 + 2·(1/2)] / 4 = 1/4.
        // All equal f ⇒ KL = 0 exactly (publication is lossless in pdf!).
        assert!(kl.abs() < 1e-12, "kl = {kl}");
    }

    #[test]
    fn coarse_suppressed_reduces_to_pure_cases() {
        // Identity recoding ⇒ same value as the pure suppressed KL.
        let t = samples::hospital();
        let p = Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let published = t.generalize(&p);
        let identity = Recoding::identity(t.schema());
        let a = kl_divergence_suppressed(&t, &published);
        let b = kl_divergence_coarse_suppressed(&t, &identity, &published);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn coarse_suppressed_matches_recoded_when_nothing_starred() {
        // Coarsen Age, publish singleton groups over the coarse table: the
        // mixed KL must equal the pure recoded KL.
        let t = samples::hospital();
        let rec = Recoding::new(vec![vec![0, 1, 1], vec![0, 1], vec![0, 0, 1]]);
        // Build the coarsened table by hand.
        let schema = Schema::new(
            vec![
                Attribute::new("Age", 2),
                Attribute::new("Gender", 2),
                Attribute::new("Education", 2),
            ],
            t.schema().sensitive().clone(),
        )
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let mut buf = vec![0u32; 3];
        for (_, qi, sa) in t.rows() {
            rec.apply_into(qi, &mut buf);
            let coarse: Vec<Value> = buf.iter().map(|&x| x as Value).collect();
            b.push_row(&coarse, sa).unwrap();
        }
        let coarse_t = b.build();
        let singletons = Partition::new_unchecked((0..10 as RowId).map(|r| vec![r]).collect());
        let published = coarse_t.generalize(&singletons);
        assert_eq!(published.star_count(), 0);
        let mixed = kl_divergence_coarse_suppressed(&t, &rec, &published);
        let pure = kl_divergence_recoded(&t, &rec);
        assert!((mixed - pure).abs() < 1e-12, "{mixed} vs {pure}");
    }

    #[test]
    fn suppression_kl_increases_with_more_stars() {
        let t = samples::hospital();
        let fine = Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let coarse = Partition::new_unchecked(vec![(0..10 as RowId).collect()]);
        let k_fine = kl_divergence_suppressed(&t, &t.generalize(&fine));
        let k_coarse = kl_divergence_suppressed(&t, &t.generalize(&coarse));
        assert!(k_fine > 0.0);
        assert!(k_coarse > k_fine);
    }
}
