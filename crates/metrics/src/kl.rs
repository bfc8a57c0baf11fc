//! The KL-divergence of the paper's Eq. (2).

use ldiv_api::{AttrRange, Recoding};
use ldiv_exec::Executor;
use ldiv_microdata::{RowId, Schema, SuppressedTable, Table, Value};
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
/// byte-identical.
///
/// This is the reference support: it sorts row ids under a slice
/// comparator, `O(n log n)` comparisons of up to `d + 1` codes each.
/// [`PointKeys::support`] finds the same points in the same order on
/// `u64` keys; this one serves the tables whose points don't pack.
pub(crate) fn support_points(table: &Table) -> Vec<(RowId, u32)> {
    let key = |r: RowId| (table.qi_row(r), table.sa_value(r));
    let mut rows: Vec<RowId> = (0..table.len() as RowId).collect();
    rows.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
    rows.chunk_by(|&a, &b| key(a) == key(b))
        .map(|run| (run[0], run.len() as u32))
        .collect()
}

/// A table's `(QI vector, SA)` points packed into `u64` keys whose
/// integer order is the `(QI vector, SA)` order.
///
/// QI attribute `a` owns a field of `w_a = ⌈log2 |D_a|⌉` value bits
/// with one guard bit above it, which is zero in every key. Attribute 0
/// takes the highest field and the SA value the lowest `⌈log2 |D_B|⌉`
/// bits. The layout relies on every code being below its domain size,
/// hence below `2^w`. `TableBuilder::push_row_unchecked` doesn't check
/// that, so packing checks every code: a code `≥ 2^w`, or a schema
/// whose fields need more than 64 bits, means the table doesn't pack,
/// and its KL takes the slice-keyed reference path.
pub(crate) struct PointKeys {
    /// Shift and width of each QI attribute's value bits.
    fields: Vec<(u32, u32)>,
    /// Width of the SA field, the lowest bits of a key.
    sa_bits: u32,
    /// The guard bit above every QI field.
    guard: u64,
}

/// One support point: its packed key, a representative row and its
/// multiplicity.
pub(crate) struct Point {
    pub(crate) key: u64,
    pub(crate) row: RowId,
    pub(crate) count: u32,
}

impl PointKeys {
    /// The layout for a schema, or `None` when its fields need more than
    /// 64 bits.
    pub(crate) fn new(schema: &Schema) -> Option<PointKeys> {
        let bits = |domain: u32| u32::BITS - (domain - 1).leading_zeros();
        let sa_bits = bits(schema.sa_domain_size());
        let mut fields = vec![(0, 0); schema.dimensionality()];
        let (mut shift, mut guard) = (sa_bits, 0u64);
        for (a, field) in fields.iter_mut().enumerate().rev() {
            let width = bits(schema.qi_attribute(a).domain_size());
            if shift + width >= u64::BITS {
                return None;
            }
            *field = (shift, width);
            guard |= 1 << (shift + width);
            shift += width + 1;
        }
        Some(PointKeys {
            fields,
            sa_bits,
            guard,
        })
    }

    /// The support of `f` in [`support_points`]' order, each point with
    /// its key; `None` when the table doesn't pack.
    ///
    /// Sorts one 16-byte `(key, row)` entry per row and folds each run of
    /// equal keys into its first entry, in place: `O(n log n)` `u64`
    /// compares.
    pub(crate) fn support(table: &Table) -> Option<(PointKeys, Vec<Point>)> {
        let keys = PointKeys::new(table.schema())?;
        let mut points = Vec::with_capacity(table.len());
        for (row, qi, sa) in table.rows() {
            let key = keys.key(qi, sa)?;
            points.push(Point { key, row, count: 1 });
        }
        points.sort_unstable_by_key(|p| p.key);
        points.dedup_by(|next, point| {
            let same = next.key == point.key;
            point.count += u32::from(same);
            same
        });
        Some((keys, points))
    }

    /// Number of distinct SA fields, `2^sa_bits`.
    pub(crate) fn sa_slots(&self) -> usize {
        1 << self.sa_bits
    }

    /// The SA field's bits.
    pub(crate) fn sa_mask(&self) -> u64 {
        (1 << self.sa_bits) - 1
    }

    /// Code `v` moved into field `(shift, width)`, or `None` when it
    /// doesn't fit.
    #[inline]
    fn place((shift, width): (u32, u32), v: Value) -> Option<u64> {
        let v = u64::from(v);
        if v >> width == 0 {
            Some(v << shift)
        } else {
            None
        }
    }

    /// The key of a QI vector and an SA value.
    #[inline]
    pub(crate) fn key(&self, qi: &[Value], sa: Value) -> Option<u64> {
        let mut key = PointKeys::place((0, self.sa_bits), sa)?;
        for (&field, &v) in self.fields.iter().zip(qi) {
            key |= PointKeys::place(field, v)?;
        }
        Some(key)
    }

    /// The low and high corners of a box. The low corner's SA field is
    /// zero and the high one's full, so no SA field borrows in
    /// [`in_box`](Self::in_box). `None` when a bound doesn't fit its
    /// field or the box has the wrong arity.
    pub(crate) fn corners(&self, ranges: &[AttrRange]) -> Option<(u64, u64)> {
        if ranges.len() != self.fields.len() {
            return None;
        }
        let (mut lo, mut hi) = (0, self.sa_mask());
        for (&field, r) in self.fields.iter().zip(ranges) {
            lo |= PointKeys::place(field, r.lo)?;
            hi |= PointKeys::place(field, r.hi)?;
        }
        Some((lo, hi))
    }

    /// Whether every QI code of `key` lies within the box `lo..=hi`.
    ///
    /// In field `a`, `(v + 2^w) − lo_a` and `(hi_a + 2^w) − v` lie in
    /// `1..2^(w+1)` because every code is below `2^w`: neither borrows
    /// from the next field up, and the guard bit `2^w` of each is set
    /// exactly when `lo_a ≤ v` and `v ≤ hi_a`.
    #[inline]
    pub(crate) fn in_box(&self, key: u64, lo: u64, hi: u64) -> bool {
        let g = self.guard;
        ((key | g) - lo) & ((hi | g) - key) & g == g
    }

    /// The bits a star pattern keeps: every unstarred attribute's field
    /// and the SA field.
    fn retained_mask(&self, stars: &[bool]) -> u64 {
        stars
            .iter()
            .zip(&self.fields)
            .filter(|(&star, _)| !star)
            .fold(self.sa_mask(), |mask, (_, &(shift, width))| {
                mask | ((1 << width) - 1) << shift
            })
    }
}

/// Counts a group's rows per SA value in a dense array.
pub(crate) struct SaCounts {
    rows_of: Vec<u32>,
    held: Vec<Value>,
}

impl SaCounts {
    /// Room for SA codes `0..slots`.
    pub(crate) fn new(slots: usize) -> SaCounts {
        SaCounts {
            rows_of: vec![0; slots],
            held: Vec::new(),
        }
    }

    /// Calls `f(sa, rows)` once for each SA value among `rows`, in order
    /// of first appearance.
    pub(crate) fn each(&mut self, table: &Table, rows: &[RowId], mut f: impl FnMut(Value, u32)) {
        for &r in rows {
            let s = table.sa_value(r);
            if self.rows_of[s as usize] == 0 {
                self.held.push(s);
            }
            self.rows_of[s as usize] += 1;
        }
        for s in self.held.drain(..) {
            f(s, self.rows_of[s as usize]);
            self.rows_of[s as usize] = 0;
        }
    }
}

/// `KL(f, f*)` for a suppression-based publication (Eq. 2): a starred
/// value spreads uniformly over its whole attribute domain, retained
/// values stay point masses, every row keeps its own SA value. Uses the
/// auto thread budget.
///
/// Runs in `O(n log n + |support| · P · log g)`, with `P ≤ 2^d` the
/// distinct star masks (*patterns*) among the groups that hold a
/// point's SA value and `g` the groups per pattern: each point visits
/// only its SA value's patterns, and binary-searches each one's masses
/// for its own retained values.
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
    if table.is_empty() {
        return 0.0;
    }
    suppressed_packed(table, published, exec).unwrap_or_else(|| {
        let identity = Recoding::identity(table.schema());
        kl_divergence_coarse_suppressed_with(table, &identity, published, exec)
    })
}

/// The suppressed KL on packed keys; `None` when the table or a group's
/// retained values don't pack. Bit-identical to the reference,
/// [`kl_divergence_coarse_suppressed_with`] under the identity
/// recoding: every mass is folded in group order, and every point adds
/// its matching masses in pattern order.
fn suppressed_packed(table: &Table, published: &SuppressedTable, exec: &Executor) -> Option<f64> {
    let (keys, points) = PointKeys::support(table)?;
    let d = table.dimensionality();
    let n = table.len() as f64;
    let domains: Vec<f64> = (0..d)
        .map(|a| table.schema().qi_attribute(a).domain_size() as f64)
        .collect();

    // Patterns numbered by first appearance, each with the bits it keeps
    // and its spread Π_{starred} 1/|D_a|; one `(key, pattern, group,
    // mass)` contribution per group and SA value it holds.
    let mut pattern_ids: HashMap<&[bool], u32> = HashMap::new();
    let mut patterns: Vec<(u64, f64)> = Vec::new();
    let mut contributions: Vec<(u64, u32, u32, f64)> = Vec::new();
    let mut sa_counts = SaCounts::new(keys.sa_slots());
    for (gi, g) in published.groups().iter().enumerate() {
        let stars = g.stars();
        let pid = *pattern_ids.entry(stars).or_insert_with(|| {
            let spread: f64 = (0..d)
                .filter(|&a| stars[a])
                .map(|a| 1.0 / domains[a])
                .product();
            patterns.push((keys.retained_mask(stars), spread));
            patterns.len() as u32 - 1
        });
        let mut retained = 0;
        for (a, &field) in keys.fields.iter().enumerate() {
            if let Some(v) = g.value(a) {
                retained |= PointKeys::place(field, v)?;
            }
        }
        let spread = patterns[pid as usize].1;
        sa_counts.each(table, g.rows(), |sa, rows| {
            let mass = rows as f64 * spread;
            contributions.push((retained | u64::from(sa), pid, gi as u32, mass));
        });
    }

    // File the masses by SA value, in one run per pattern, sorted by key
    // inside a run, and fold each `(pattern, key)` mass in place in group
    // order. A fold's first mass stands for the reference's
    // `or_insert(0.0) += mass`: masses are positive, so `0.0 + m == m`.
    let sa_mask = keys.sa_mask();
    let mut masses = contributions;
    masses.sort_unstable_by_key(|&(key, pid, gi, _)| (key & sa_mask, pid, key, gi));
    masses.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.3 += next.3;
        }
        same
    });
    let mut runs: Vec<(u64, u32, u32)> = Vec::new();
    let mut sa_runs = vec![0u32; keys.sa_slots() + 1];
    let mut start = 0;
    for run in masses.chunk_by(|a, b| (a.0 & sa_mask, a.1) == (b.0 & sa_mask, b.1)) {
        let (key, pid, ..) = run[0];
        let end = start + run.len() as u32;
        runs.push((patterns[pid as usize].0, start, end));
        sa_runs[(key & sa_mask) as usize + 1] += 1;
        start = end;
    }
    for s in 0..keys.sa_slots() {
        sa_runs[s + 1] += sa_runs[s];
    }

    // A point matches at most one key per pattern: the masses it adds,
    // and their order, are the reference's probe of every pattern.
    let (masses, runs, sa_runs) = (&masses, &runs, &sa_runs);
    Some(exec.sum_chunked(&points, KL_CHUNK, |p| {
        let f_p = p.count as f64 / n;
        let s = (p.key & sa_mask) as usize;
        let mut fstar = 0.0;
        for &(kept, start, end) in &runs[sa_runs[s] as usize..sa_runs[s + 1] as usize] {
            let run = &masses[start as usize..end as usize];
            if let Ok(i) = run.binary_search_by_key(&(p.key & kept), |m| m.0) {
                fstar += run[i].3;
            }
        }
        let fstar_p = fstar / n;
        debug_assert!(fstar_p > 0.0, "f* must be positive on the support of f");
        f_p * (f_p / fstar_p).ln()
    }))
}

/// `KL(f, f*)` for a global recoding (single-dimensional generalization,
/// the TDS output): value `v` of attribute `A_i` spreads uniformly over
/// its sub-domain. Uses the auto thread budget.
///
/// Global recoding maps every support point to exactly one generalized
/// cell, so the computation is one hash pass over the rows, a sort of
/// packed keys for the support, and one hash probe per support point —
/// `O(n log n)`.
pub fn kl_divergence_recoded(table: &Table, recoding: &Recoding) -> f64 {
    kl_divergence_recoded_with(table, recoding, &Executor::default())
}

/// [`kl_divergence_recoded`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_recoded_with(table: &Table, recoding: &Recoding, exec: &Executor) -> f64 {
    assert_eq!(table.dimensionality(), recoding.dimensionality());
    if table.is_empty() {
        return 0.0;
    }
    let points = match PointKeys::support(table) {
        Some((_, points)) => points.iter().map(|p| (p.row, p.count)).collect(),
        None => support_points(table),
    };
    recoded_over(table, recoding, &points, exec)
}

/// The recoded KL summed over a given support.
fn recoded_over(
    table: &Table,
    recoding: &Recoding,
    f_support: &[(RowId, u32)],
    exec: &Executor,
) -> f64 {
    let d = table.dimensionality();
    let n = table.len() as f64;

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
    let cell_count = &cell_count;
    exec.map_chunks(f_support, KL_CHUNK, |part| {
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
    use crate::publication::{anatomy_packed, anatomy_reference, boxes_packed, boxes_reference};
    use crate::{kl_divergence_anatomy_tables_with, kl_divergence_boxes_with};
    use ldiv_api::AnatomyTables;
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
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
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

    /// SplitMix64, so the differential tables are seeded without a
    /// dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        fn pick(&mut self, items: &[u32]) -> u32 {
            items[self.below(items.len() as u32) as usize]
        }
    }

    /// `n` rows over `d` attributes with domains from {1, 2, 3, 17, 300}
    /// and an SA domain from {1, 2, 50}. A quarter of the rows repeat an
    /// earlier row and a quarter its QI vector, so points repeat and QI
    /// vectors carry several SA values.
    fn random_table(rng: &mut Rng, d: usize, n: usize) -> Table {
        let qi = (0..d)
            .map(|a| Attribute::new(format!("q{a}"), rng.pick(&[1, 2, 3, 17, 300])))
            .collect();
        let schema = Schema::new(qi, Attribute::new("sa", rng.pick(&[1, 2, 50]))).unwrap();
        let code = |rng: &mut Rng, domain: u32| rng.below(domain) as Value;
        let mut rows: Vec<(Vec<Value>, Value)> = Vec::with_capacity(n);
        for _ in 0..n {
            let sa = code(rng, schema.sa_domain_size());
            let row = match (rows.len(), rng.below(4)) {
                (0, _) | (_, 2..) => {
                    let qi = schema.qi_attributes().iter();
                    (qi.map(|a| code(rng, a.domain_size())).collect(), sa)
                }
                (len, 0) => rows[rng.below(len as u32) as usize].clone(),
                (len, _) => (rows[rng.below(len as u32) as usize].0.clone(), sa),
            };
            rows.push(row);
        }
        let mut b = TableBuilder::new(schema);
        for (qi, sa) in &rows {
            b.push_row(qi, *sa).unwrap();
        }
        b.build()
    }

    /// Shuffled rows, sorted by QI vector half the time so that groups
    /// keep values, cut into groups of 1 to 8 rows.
    fn random_partition(rng: &mut Rng, t: &Table) -> Partition {
        let mut rows: Vec<RowId> = (0..t.len() as RowId).collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u32 + 1) as usize);
        }
        if rng.below(2) == 0 {
            rows.sort_by_key(|&r| t.qi_row(r));
        }
        let max = 1 + rng.below(8);
        let mut groups = Vec::new();
        let mut rest = &rows[..];
        while !rest.is_empty() {
            let size = (1 + rng.below(max) as usize).min(rest.len());
            groups.push(rest[..size].to_vec());
            rest = &rest[size..];
        }
        Partition::new_unchecked(groups)
    }

    /// Each group's tight box, each bound widened by up to `widen` codes
    /// but not past the domain.
    fn boxes_of(rng: &mut Rng, t: &Table, p: &Partition, widen: u32) -> Vec<Vec<AttrRange>> {
        p.groups()
            .iter()
            .map(|g| {
                (0..t.dimensionality())
                    .map(|a| {
                        let codes = g.iter().map(|&r| t.qi_value(r, a));
                        let (lo, hi) = (codes.clone().min().unwrap(), codes.max().unwrap());
                        let top = t.schema().qi_attribute(a).domain_size() as Value - 1;
                        AttrRange {
                            lo: lo.saturating_sub(rng.below(widen + 1) as Value),
                            hi: (hi + rng.below(widen + 1) as Value).min(top).max(hi),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A dense recoding with a random bucket per value.
    fn random_recoding(rng: &mut Rng, schema: &Schema) -> Recoding {
        let bucket_of = schema
            .qi_attributes()
            .iter()
            .map(|a| {
                let buckets = 1 + rng.below(a.domain_size());
                let raw: Vec<u32> = (0..a.domain_size()).map(|_| rng.below(buckets)).collect();
                let mut dense: Vec<Option<u32>> = vec![None; buckets as usize];
                let mut next = 0;
                raw.iter()
                    .map(|&b| {
                        *dense[b as usize].get_or_insert_with(|| {
                            next += 1;
                            next - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Recoding::new(bucket_of)
    }

    /// The packed path against the reference, to the bit, at thread
    /// budgets 1 and 4.
    fn assert_same_bits(
        what: &str,
        packed: impl Fn(&Executor) -> Option<f64>,
        reference: impl Fn(&Executor) -> f64,
    ) {
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let fast = packed(&exec).unwrap_or_else(|| panic!("{what} doesn't pack"));
            let slow = reference(&exec);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "{what}, {threads} threads: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn packed_kl_matches_the_reference_bit_for_bit() {
        let mut rng = Rng(0x5EED);
        let mut packed_tables = 0;
        for d in 1..=8 {
            for n in [1, 37, 2_000] {
                let t = random_table(&mut rng, d, n);
                let Some((_, points)) = PointKeys::support(&t) else {
                    continue;
                };
                packed_tables += 1;
                let rows: Vec<(RowId, u32)> = points.iter().map(|p| (p.row, p.count)).collect();
                let reference = support_points(&t);
                assert_eq!(rows.len(), reference.len());
                for (&(a, ca), &(b, cb)) in rows.iter().zip(&reference) {
                    assert_eq!(
                        (t.qi_row(a), t.sa_value(a), ca),
                        (t.qi_row(b), t.sa_value(b), cb)
                    );
                }
                let identity = Recoding::identity(t.schema());
                for round in 0..2 {
                    let what = |kind: &str| format!("{kind}, d = {d}, n = {n}, round {round}");
                    let p = random_partition(&mut rng, &t);
                    let published = t.generalize(&p);
                    assert_same_bits(
                        &what("suppressed"),
                        |e| suppressed_packed(&t, &published, e),
                        |e| kl_divergence_coarse_suppressed_with(&t, &identity, &published, e),
                    );
                    for widen in [0, 2] {
                        let boxes = boxes_of(&mut rng, &t, &p, widen);
                        assert_same_bits(
                            &what(&format!("boxes widened by {widen}")),
                            |e| boxes_packed(&t, &p, &boxes, e),
                            |e| boxes_reference(&t, &p, &boxes, e),
                        );
                    }
                    let tables = AnatomyTables::from_partition(&t, &p);
                    assert_same_bits(
                        &what("anatomy"),
                        |e| anatomy_packed(&t, &p, &tables, e),
                        |e| anatomy_reference(&t, &p, &tables, e),
                    );
                    let recoding = random_recoding(&mut rng, t.schema());
                    assert_same_bits(
                        &what("recoded"),
                        |e| Some(kl_divergence_recoded_with(&t, &recoding, e)),
                        |e| recoded_over(&t, &recoding, &support_points(&t), e),
                    );
                }
            }
        }
        assert!(
            packed_tables >= 20,
            "only {packed_tables} of 24 tables packed"
        );
    }

    #[test]
    fn fields_wider_than_64_bits_take_the_reference_path() {
        // `full_suppression_matches_hand_formula` with five more
        // attributes of domain 40 000, equal in both rows so the group
        // keeps them: 2 · 2 + 5 · 17 bits don't fit a `u64`.
        let mut qi = vec![Attribute::new("a", 2), Attribute::new("b", 2)];
        qi.extend((0..5).map(|i| Attribute::new(format!("wide{i}"), 40_000)));
        let schema = Schema::new(qi, Attribute::new("sa", 1)).unwrap();
        assert!(PointKeys::new(&schema).is_none());
        let mut b = TableBuilder::new(schema);
        b.push_row(&[0, 0, 7, 7, 7, 7, 39_999], 0).unwrap();
        b.push_row(&[1, 1, 7, 7, 7, 7, 39_999], 0).unwrap();
        let t = b.build();
        let published = t.generalize(&Partition::new_unchecked(vec![vec![0, 1]]));
        let kl = kl_divergence_suppressed(&t, &published);
        assert!((kl - (2.0f64).ln()).abs() < 1e-12, "kl = {kl}");
    }

    #[test]
    fn out_of_range_codes_take_the_reference_path() {
        // Code 5 doesn't fit attribute `a`'s 2-bit field.
        let schema = Schema::new(
            vec![Attribute::new("a", 3), Attribute::new("b", 2)],
            Attribute::new("sa", 2),
        )
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (qi, sa) in [([0, 0], 0), ([5, 1], 1), ([1, 0], 1), ([2, 1], 0)] {
            b.push_row_unchecked(&qi, sa);
        }
        let t = b.build();
        assert!(PointKeys::support(&t).is_none());
        // Every group mixes codes of `a`, so the suppressed reference
        // never looks code 5 up in the identity recoding.
        let p = Partition::new_unchecked(vec![vec![0, 1], vec![2, 3]]);
        let exec = Executor::new(1);
        let published = t.generalize(&p);
        let identity = Recoding::identity(t.schema());
        assert_eq!(
            kl_divergence_suppressed_with(&t, &published, &exec).to_bits(),
            kl_divergence_coarse_suppressed_with(&t, &identity, &published, &exec).to_bits()
        );
        let boxes = boxes_of(&mut Rng(1), &t, &p, 0);
        assert_eq!(
            kl_divergence_boxes_with(&t, &p, &boxes, &exec).to_bits(),
            boxes_reference(&t, &p, &boxes, &exec).to_bits()
        );
        let tables = AnatomyTables::from_partition(&t, &p);
        assert_eq!(
            kl_divergence_anatomy_tables_with(&t, &p, &tables, &exec).to_bits(),
            anatomy_reference(&t, &p, &tables, &exec).to_bits()
        );
    }

    #[test]
    fn in_box_agrees_with_attr_range_contains() {
        let ranges = |domain: u32| {
            (0..domain as Value)
                .flat_map(move |lo| (lo..domain as Value).map(move |hi| AttrRange { lo, hi }))
        };
        for width in 0..=4 {
            // The tested field sits between attribute `up` and the SA
            // field, so a borrow into or out of it would show.
            let domain = 1u32 << width;
            let schema = Schema::new(
                vec![Attribute::new("up", 5), Attribute::new("x", domain)],
                Attribute::new("sa", 3),
            )
            .unwrap();
            let keys = PointKeys::new(&schema).unwrap();
            for up in ranges(5) {
                for x in ranges(domain) {
                    let (lo, hi) = keys.corners(&[up, x]).unwrap();
                    for u in 0..5 {
                        for v in 0..domain as Value {
                            for s in 0..3 {
                                let key = keys.key(&[u, v], s).unwrap();
                                assert_eq!(
                                    keys.in_box(key, lo, hi),
                                    up.contains(u) && x.contains(v),
                                    "width {width}: ({u}, {v}, {s}) in {up:?} × {x:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
