//! Curve-ordered l-diverse grouping (the "Hilbert" baseline, §6.1).

use crate::curve::HilbertCurve;
use ldiv_core::ResiduePartitioner;
use ldiv_exec::Executor;
use ldiv_microdata::{Partition, RowId, SuppressedTable, Table, Value};
use std::cmp::Reverse;

/// Rows per parallel indexing chunk. Fixed (never derived from the
/// thread count) so the work decomposition is budget-independent.
const INDEX_CHUNK: usize = 8_192;

/// One group being assembled: its rows, an SA multiplicity sketch and its
/// span on the curve (for nearest-group queries during leftover
/// assignment).
struct OpenGroup {
    rows: Vec<RowId>,
    /// `(sa, count)` pairs — groups hold ~l distinct values, so a compact
    /// vector beats a dense histogram.
    sa_counts: Vec<(Value, u32)>,
    center: u128,
}

impl OpenGroup {
    fn count(&self, v: Value) -> u32 {
        self.sa_counts
            .iter()
            .find(|&&(s, _)| s == v)
            .map_or(0, |&(_, c)| c)
    }

    fn add(&mut self, row: RowId, v: Value) {
        self.rows.push(row);
        match self.sa_counts.iter_mut().find(|(s, _)| *s == v) {
            Some((_, c)) => *c += 1,
            None => self.sa_counts.push((v, 1)),
        }
    }

    /// Whether adding one `v` tuple keeps the group l-eligible:
    /// `l · (h(G, v) + 1) ≤ |G| + 1` — adding can only raise the pillar
    /// through `v` itself.
    fn accepts(&self, v: Value, l: u32) -> bool {
        let new_count = (self.count(v) + 1) as u64;
        let max_other = self
            .sa_counts
            .iter()
            .filter(|&&(s, _)| s != v)
            .map(|&(_, c)| c as u64)
            .max()
            .unwrap_or(0);
        l as u64 * new_count.max(max_other) <= self.rows.len() as u64 + 1
    }
}

/// Where a table's QI vectors land on one Hilbert curve.
///
/// Every axis gets `⌈log2 max domain⌉` bits, capped at `⌊128 / d⌋` so
/// the index fits in a `u128`; a capped axis drops its low coordinate
/// bits. A table with more than 128 QI attributes is indexed on its
/// first 128, at one bit each.
struct TableCurve {
    curve: HilbertCurve,
    /// Low bits dropped from every coordinate.
    shift: u32,
}

impl TableCurve {
    fn of(table: &Table) -> Self {
        let max = table
            .schema()
            .qi_attributes()
            .iter()
            .map(|a| a.domain_size())
            .max()
            .unwrap_or(2)
            .max(2);
        let need = 32 - (max - 1).leading_zeros();
        let dims = table.dimensionality().clamp(1, 128);
        let bits = need.min(128 / dims as u32);
        TableCurve {
            curve: HilbertCurve::new(dims, bits),
            shift: need - bits,
        }
    }

    /// The curve index of every row, in `rows` order. The indexing fans
    /// out over fixed-size chunks; each index is a pure function of its
    /// row.
    fn indices(&self, table: &Table, rows: &[RowId], exec: &Executor) -> Vec<u128> {
        exec.map_chunks(rows, INDEX_CHUNK, |chunk| {
            let mut axes = vec![0u32; self.curve.dims()];
            chunk
                .iter()
                .map(|&r| {
                    for (a, &v) in axes.iter_mut().zip(table.qi_row(r)) {
                        *a = u32::from(v) >> self.shift;
                    }
                    self.curve.index_into(&mut axes)
                })
                .collect::<Vec<u128>>()
        })
        .concat()
    }
}

/// Every SA value's rows in one flat array, each bucket sorted on
/// `(curve index, row)` and taken from its front.
struct Buckets {
    /// `(curve index, row)`, bucket after bucket in SA order: bucket `v`
    /// ends at `end[v]` and starts where bucket `v − 1` ends.
    slots: Vec<(u128, RowId)>,
    /// Bucket `v`'s first untaken slot: its untaken rows are
    /// `slots[head[v]..end[v]]`.
    head: Vec<usize>,
    end: Vec<usize>,
}

impl Buckets {
    fn new(table: &Table, rows: &[RowId], indices: &[u128]) -> Self {
        let m = table.schema().sa_domain_size() as usize;
        let mut end = vec![0; m];
        for &r in rows {
            end[table.sa_value(r) as usize] += 1;
        }
        let mut at = 0;
        for e in &mut end {
            at += *e;
            *e = at;
        }
        let mut head = end.clone();
        let mut slots = vec![(0, 0); rows.len()];
        for (&r, &h) in rows.iter().zip(indices).rev() {
            let v = table.sa_value(r) as usize;
            head[v] -= 1;
            slots[head[v]] = (h, r);
        }
        for (&s, &e) in head.iter().zip(&end) {
            slots[s..e].sort_unstable();
        }
        Buckets { slots, head, end }
    }

    /// Untaken rows in bucket `v`.
    fn len(&self, v: usize) -> usize {
        self.end[v] - self.head[v]
    }

    /// Bucket `v`'s earliest untaken row on the curve.
    fn first(&self, v: usize) -> (u128, RowId) {
        self.slots[self.head[v]]
    }

    fn take_first(&mut self, v: usize) -> (u128, RowId) {
        let first = self.first(v);
        self.head[v] += 1;
        first
    }
}

/// Partitions the given rows of a table into l-eligible groups that are
/// compact along the Hilbert curve over the QI space.
///
/// Returns groups covering exactly `rows`. The caller is responsible for
/// the feasibility precondition (the row multiset must be l-eligible);
/// when it is violated the final groups may fail eligibility, which the
/// `"hilbert"` mechanism and the TP+ driver both check.
pub fn hilbert_partition(table: &Table, rows: &[RowId], l: u32) -> Partition {
    hilbert_partition_with(table, rows, l, &Executor::default())
}

/// [`hilbert_partition`] under an explicit thread budget.
///
/// The expensive part — mapping every row's QI vector to its Hilbert
/// index — fans out over fixed-size chunks; the index is a pure function
/// of the row, and the sorted buckets erase arrival order, so the
/// grouping that follows is byte-identical for every budget. The
/// draining itself is inherently sequential (each group depends on what
/// earlier groups consumed).
///
/// Each SA value's rows sit in one flat array sorted on `(curve index,
/// row)`, and a group takes each chosen bucket's first untaken row:
/// `O(1)` per take. The non-empty SA values stay sorted by `(rows left
/// desc, SA asc)` across groups; a group takes one row from each of the
/// first `l`, so only those `l` entries move right. Grouping `n` rows
/// costs `O(n log n)` to index and sort, plus `O(l)` per group and the
/// moves, instead of a re-sort of all `m` buckets per group.
pub fn hilbert_partition_with(table: &Table, rows: &[RowId], l: u32, exec: &Executor) -> Partition {
    assert!(l >= 1, "l must be positive");
    if rows.is_empty() {
        return Partition::default();
    }
    let indices = TableCurve::of(table).indices(table, rows, exec);
    let mut buckets = Buckets::new(table, rows, &indices);
    let l = l as usize;

    let mut groups: Vec<OpenGroup> = Vec::with_capacity(rows.len() / l + 1);

    // Frequency-balanced draining: while at least l buckets are non-empty,
    // form one group from the l fullest (ties by SA id), which lead
    // `order`.
    let m = buckets.end.len();
    let mut order: Vec<usize> = (0..m).filter(|&v| buckets.len(v) > 0).collect();
    order.sort_unstable_by_key(|&v| (Reverse(buckets.len(v)), v));
    while order.len() >= l {
        // Seed: the earliest remaining tuple (on the curve) in the chosen
        // buckets; then take each bucket's tuple nearest the seed. Every
        // remaining tuple of a chosen bucket lies at or after the seed,
        // so the nearest is the bucket's first.
        let seed = order[..l]
            .iter()
            .map(|&v| buckets.first(v))
            .min()
            .expect("l ≥ 1 buckets chosen");
        let mut group = OpenGroup {
            rows: Vec::with_capacity(l),
            sa_counts: Vec::with_capacity(l),
            center: seed.0,
        };
        for &v in &order[..l] {
            let (h, r) = buckets.take_first(v);
            group.add(r, v as Value);
            group.center = group.center / 2 + h / 2; // running midpoint
        }
        groups.push(group);

        // Each chosen bucket lost one row. They keep their order among
        // themselves, so move each, last first, right past the buckets
        // that now outrank it; emptied buckets sink to the end.
        let key = |v: usize| (Reverse(buckets.len(v)), v);
        for i in (0..l).rev() {
            let v = order[i];
            let mut j = i;
            while let Some(&w) = order.get(j + 1) {
                if key(w) > key(v) {
                    break;
                }
                order[j] = w;
                j += 1;
            }
            order[j] = v;
        }
        while order.last().is_some_and(|&v| buckets.len(v) == 0) {
            order.pop();
        }
    }

    // Leftover assignment: fewer than l non-empty buckets remain. Attach
    // each leftover tuple to the nearest group that stays l-eligible,
    // fullest buckets first.
    let mut unplaced: Vec<(u128, RowId, Value)> = Vec::new();
    for v in order {
        while buckets.len(v) > 0 {
            let (h, r) = buckets.take_first(v);
            let best = groups
                .iter_mut()
                .filter(|g| g.accepts(v as Value, l as u32))
                .min_by_key(|g| {
                    let c = g.center;
                    c.abs_diff(h)
                });
            match best {
                Some(g) => g.add(r, v as Value),
                None => unplaced.push((h, r, v as Value)),
            }
        }
    }

    // Unplaced tuples (no group could absorb them — only possible when the
    // input multiset was not l-eligible, or in degenerate tiny inputs):
    // keep them together as their own trailing group. The callers verify
    // overall eligibility and fall back as needed.
    if !unplaced.is_empty() {
        let center = unplaced[0].0;
        let mut g = OpenGroup {
            rows: Vec::new(),
            sa_counts: Vec::new(),
            center,
        };
        for (_, r, v) in unplaced {
            g.add(r, v);
        }
        groups.push(g);
    }

    let mut out: Vec<Vec<RowId>> = groups
        .into_iter()
        .map(|g| {
            let mut rows = g.rows;
            rows.sort_unstable();
            rows
        })
        .collect();
    out.retain(|g| !g.is_empty());
    Partition::new_unchecked(out)
}

/// The given rows in the order the curve visits them: sorted on
/// `(curve index, row)`.
pub fn curve_order(table: &Table, rows: &[RowId]) -> Vec<RowId> {
    let indices = TableCurve::of(table).indices(table, rows, &Executor::sequential());
    let mut keyed: Vec<(u128, RowId)> = indices.into_iter().zip(rows.iter().copied()).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Shared implementation of the full-table baseline (also the
/// `"hilbert"` mechanism's body).
#[cfg(test)]
pub(crate) fn hilbert_publish(table: &Table, l: u32) -> (Partition, SuppressedTable) {
    hilbert_publish_with(table, l, &Executor::default())
}

/// The full-table baseline under an explicit thread budget.
pub(crate) fn hilbert_publish_with(
    table: &Table,
    l: u32,
    exec: &Executor,
) -> (Partition, SuppressedTable) {
    let rows: Vec<RowId> = (0..table.len() as RowId).collect();
    let mut partition = hilbert_partition_with(table, &rows, l, exec);
    if !partition.is_l_diverse(table, l) {
        // Defensive fallback, reachable only on non-l-eligible inputs or
        // pathological tiny leftovers: one group is l-diverse iff the whole
        // table is l-eligible.
        partition = Partition::new_unchecked(vec![rows]);
    }
    let published = table.generalize(&partition);
    (partition, published)
}

/// [`ResiduePartitioner`] adapter: running
/// [`ldiv_core::anonymize`] with this strategy is the paper's **TP+**.
#[derive(Debug, Clone, Copy, Default)]
pub struct HilbertResidue;

impl ResiduePartitioner for HilbertResidue {
    fn partition_residue(&self, table: &Table, residue: &[RowId], l: u32) -> Partition {
        hilbert_partition(table, residue, l)
    }

    fn partition_residue_with(
        &self,
        table: &Table,
        residue: &[RowId],
        l: u32,
        exec: &Executor,
    ) -> Partition {
        // Same grouping for every budget (the indexing scan is the only
        // parallel part); this is how `tp+` honours `Params::threads`.
        hilbert_partition_with(table, residue, l, exec)
    }

    fn name(&self) -> &'static str {
        "hilbert"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::samples;
    use proptest::prelude::*;

    fn validate(table: &Table, partition: &Partition, l: u32) {
        partition.validate_cover(table).unwrap();
        assert!(
            partition.is_l_diverse(table, l),
            "partition not {l}-diverse"
        );
    }

    #[test]
    fn hospital_2_diverse() {
        let t = samples::hospital();
        let (p, published) = hilbert_publish(&t, 2);
        validate(&t, &p, 2);
        assert!(published.is_l_diverse(&t, 2));
        // Each group formed by draining has exactly 2 distinct diseases,
        // so group sizes are 2 apart from leftover absorption.
        assert!(p.group_count() >= 3);
    }

    #[test]
    fn acs_sample_is_l_diverse_and_compact() {
        let t = sal(&AcsConfig {
            rows: 3_000,
            seed: 42,
        });
        for l in [2u32, 5, 10] {
            let (p, published) = hilbert_publish(&t, l);
            validate(&t, &p, l);
            // Spatial coherence pays off as fewer stars than one big group.
            let single = t.generalize(&Partition::new_unchecked(vec![
                (0..t.len() as RowId).collect()
            ]));
            assert!(published.star_count() < single.star_count());
        }
    }

    #[test]
    fn residue_partitioner_matches_partition_fn() {
        let t = sal(&AcsConfig {
            rows: 1_000,
            seed: 7,
        });
        let rows: Vec<RowId> = (0..500).collect();
        let a = HilbertResidue.partition_residue(&t, &rows, 3);
        let b = hilbert_partition(&t, &rows, 3);
        assert_eq!(a.groups(), b.groups());
        assert_eq!(HilbertResidue.name(), "hilbert");
    }

    #[test]
    fn tp_plus_improves_on_tp() {
        let t = sal(&AcsConfig {
            rows: 4_000,
            seed: 9,
        });
        let plain = ldiv_core::anonymize(&t, 4, &ldiv_core::SingleGroupResidue).unwrap();
        let hybrid = ldiv_core::anonymize(&t, 4, &HilbertResidue).unwrap();
        assert!(!hybrid.fell_back);
        assert!(hybrid.star_count() <= plain.star_count());
        validate(&t, &hybrid.partition, 4);
    }

    /// A table of `d` QI attributes of `domain` labels each, with five
    /// SA values in turn.
    fn wide_table(d: usize, domain: u32, rows: u32) -> Table {
        use ldiv_microdata::{Attribute, Schema, TableBuilder};
        let qi = (0..d)
            .map(|a| Attribute::new(format!("q{a}"), domain))
            .collect();
        let schema = Schema::new(qi, Attribute::new("s", 5)).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            let row: Vec<Value> = (0..d as u32)
                .map(|a| ((i * (a + 7) + a * 13) % domain) as Value)
                .collect();
            b.push_row(&row, (i % 5) as Value).unwrap();
        }
        b.build()
    }

    #[test]
    fn curve_bits_fit_in_128() {
        let bits = |d: usize, domain: u32| {
            let c = TableCurve::of(&wide_table(d, domain, 0));
            (c.curve.dims(), c.curve.bits(), c.shift)
        };
        // Tables that fit keep ⌈log2 max domain⌉ bits per axis.
        assert_eq!(bits(7, 79), (7, 7, 0));
        assert_eq!(bits(2, 2), (2, 1, 0));
        assert_eq!(bits(18, 100), (18, 7, 0));
        // 20 × 7 bits do not: each axis keeps its top ⌊128/20⌋ = 6.
        assert_eq!(bits(20, 100), (20, 6, 1));
        // Past 128 attributes, the first 128 at one bit each.
        assert_eq!(bits(130, 2), (128, 1, 0));
        assert_eq!(bits(200, 100), (128, 1, 6));
    }

    /// Tables whose curve would need more than 128 bits at full
    /// precision: 20 attributes of 100 labels (7 bits each) and 130
    /// binary attributes. Both the baseline and TP+ publish them.
    #[test]
    fn wide_tables_publish_l_diverse_output() {
        for t in [wide_table(20, 100, 600), wide_table(130, 2, 200)] {
            let (p, published) = hilbert_publish(&t, 2);
            validate(&t, &p, 2);
            assert!(published.is_l_diverse(&t, 2));
            let hybrid = ldiv_core::anonymize(&t, 2, &HilbertResidue).unwrap();
            assert!(!hybrid.fell_back);
            validate(&t, &hybrid.partition, 2);
        }
    }

    #[test]
    fn empty_row_set_yields_empty_partition() {
        let t = samples::hospital();
        let p = hilbert_partition(&t, &[], 2);
        assert_eq!(p.group_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random l-eligible row multisets always produce valid l-diverse
        /// partitions (exercises draining, leftover assignment, fallbacks).
        #[test]
        fn random_tables_produce_valid_partitions(
            sa in proptest::collection::vec(0u16..6, 4..60),
            qi_a in proptest::collection::vec(0u16..4, 4..60),
            qi_b in proptest::collection::vec(0u16..4, 4..60),
            l in 2u32..4,
        ) {
            use ldiv_microdata::{Attribute, Schema, TableBuilder};
            let n = sa.len().min(qi_a.len()).min(qi_b.len());
            let schema = Schema::new(
                vec![Attribute::new("a", 4), Attribute::new("b", 4)],
                Attribute::new("sa", 6),
            ).unwrap();
            let mut b = TableBuilder::new(schema);
            for i in 0..n {
                b.push_row(&[qi_a[i], qi_b[i]], sa[i]).unwrap();
            }
            let t = b.build();
            prop_assume!(t.check_l_feasible(l).is_ok());
            let (p, published) = hilbert_publish(&t, l);
            p.validate_cover(&t).unwrap();
            prop_assert!(p.is_l_diverse(&t, l));
            prop_assert!(published.is_l_diverse(&t, l));
        }

        /// The residue partitioner never drops or duplicates rows even on
        /// arbitrary (possibly ineligible) row subsets.
        #[test]
        fn partition_covers_exactly_the_rows(
            picks in proptest::collection::btree_set(0u32..10, 1..10),
        ) {
            let t = samples::hospital();
            let rows: Vec<RowId> = picks.into_iter().collect();
            let p = hilbert_partition(&t, &rows, 2);
            let mut covered: Vec<RowId> =
                p.groups().iter().flatten().copied().collect();
            covered.sort_unstable();
            prop_assert_eq!(covered, rows);
        }
    }
}
