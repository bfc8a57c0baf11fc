//! Curve-ordered l-diverse grouping (the "Hilbert" baseline, §6.1).

use crate::curve::HilbertCurve;
use ldiv_core::ResiduePartitioner;
use ldiv_exec::Executor;
use ldiv_microdata::{OpenGroup, Partition, RowId, SaBuckets, SuppressedTable, Table, Value};

/// Rows per parallel indexing chunk. Fixed (never derived from the
/// thread count) so the work decomposition is budget-independent.
const INDEX_CHUNK: usize = 8_192;

/// One group being assembled, with its span on the curve (for
/// nearest-group queries during leftover assignment).
struct CurveGroup {
    group: OpenGroup,
    center: u128,
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
    /// out over fixed-size chunks and runs [`HilbertCurve::LANES`] rows
    /// per call of the encoder. A chunk's last, short batch fills its
    /// unused lanes with its first row and keeps only its real rows'
    /// indices, so each index is a pure function of its row.
    fn indices(&self, table: &Table, rows: &[RowId], exec: &Executor) -> Vec<u128> {
        exec.map_chunks(rows, INDEX_CHUNK, |chunk| {
            let mut lanes = vec![[0u32; HilbertCurve::LANES]; self.curve.dims()];
            let mut out = Vec::with_capacity(chunk.len());
            for batch in chunk.chunks(HilbertCurve::LANES) {
                for k in 0..HilbertCurve::LANES {
                    let row = table.qi_row(*batch.get(k).unwrap_or(&batch[0]));
                    for (lane, &v) in lanes.iter_mut().zip(row) {
                        lane[k] = u32::from(v) >> self.shift;
                    }
                }
                out.extend_from_slice(&self.curve.index_lanes(&mut lanes)[..batch.len()]);
            }
            out
        })
        .concat()
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
/// Each SA value's rows sit in [`SaBuckets`] keyed on the curve index,
/// and [`SaBuckets::drain`] forms the groups: `O(n log n)` to index and
/// sort, plus `O(l)` per group and the moves of the fullest-first order.
pub fn hilbert_partition_with(table: &Table, rows: &[RowId], l: u32, exec: &Executor) -> Partition {
    assert!(l >= 1, "l must be positive");
    if rows.is_empty() {
        return Partition::default();
    }
    let indices = TableCurve::of(table).indices(table, rows, exec);
    let mut buckets = SaBuckets::new(table, rows, &indices);
    let mut groups: Vec<CurveGroup> = Vec::with_capacity(rows.len() / l as usize + 1);

    // Frequency-balanced draining: while at least l buckets are non-empty,
    // form one group from the l fullest (ties by SA id). Seed: the
    // earliest remaining tuple (on the curve) in the chosen buckets; then
    // take each bucket's tuple nearest the seed. Every remaining tuple of
    // a chosen bucket lies at or after the seed, so the nearest is the
    // bucket's first, which is what the drain takes.
    let leftover = buckets.drain(l, |taken| {
        let seed = taken
            .iter()
            .map(|&(_, h, r)| (h, r))
            .min()
            .expect("l ≥ 1 buckets chosen");
        let center = taken.iter().fold(seed.0, |c, &(_, h, _)| c / 2 + h / 2); // running midpoint
        groups.push(CurveGroup {
            group: OpenGroup::of(taken),
            center,
        });
    });

    // Leftover assignment: fewer than l non-empty buckets remain. Attach
    // each leftover tuple to the nearest group that stays l-eligible,
    // fullest buckets first.
    let mut unplaced: Vec<(u128, RowId, Value)> = Vec::new();
    for v in leftover {
        while buckets.len(v) > 0 {
            let (h, r) = buckets.take_first(v);
            let best = groups
                .iter_mut()
                .filter(|g| g.group.accepts(v, l))
                .min_by_key(|g| g.center.abs_diff(h));
            match best {
                Some(g) => g.group.add(r, v),
                None => unplaced.push((h, r, v)),
            }
        }
    }

    // Unplaced tuples (no group could absorb them — only possible when the
    // input multiset was not l-eligible, or in degenerate tiny inputs):
    // keep them together as their own trailing group. The callers verify
    // overall eligibility and fall back as needed.
    if !unplaced.is_empty() {
        let mut group = OpenGroup::default();
        for (_, r, v) in unplaced {
            group.add(r, v);
        }
        groups.push(CurveGroup { group, center: 0 });
    }

    Partition::new_unchecked(
        groups
            .into_iter()
            .map(|g| g.group.into_sorted_rows())
            .collect(),
    )
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
    fn partition_residue(
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
        let a = HilbertResidue.partition_residue(&t, &rows, 3, &Executor::sequential());
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

    /// The batched indexing is `index_of` row by row, in `rows` order:
    /// empty, short, full and overfull batches, a chunk boundary and a
    /// scattered subset, at one and two threads.
    #[test]
    fn indices_match_index_of_row_by_row() {
        let n = INDEX_CHUNK + 3;
        let tables = [
            sal(&AcsConfig { rows: n, seed: 11 }),
            wide_table(20, 100, n as u32),
        ];
        let scattered: Vec<RowId> = (0..n as RowId).rev().filter(|r| r % 3 != 1).collect();
        for table in &tables {
            let curve = TableCurve::of(table);
            let index_of = |r: RowId| {
                let axes: Vec<u32> = table.qi_row(r)[..curve.curve.dims()]
                    .iter()
                    .map(|&v| u32::from(v) >> curve.shift)
                    .collect();
                curve.curve.index_of(&axes)
            };
            let prefixes = [0, 1, 7, 8, 9, n].map(|len| (0..len as RowId).collect::<Vec<_>>());
            for rows in prefixes.iter().chain([&scattered]) {
                let want: Vec<u128> = rows.iter().map(|&r| index_of(r)).collect();
                for threads in [1, 2] {
                    let got = curve.indices(table, rows, &Executor::new(threads));
                    assert_eq!(got, want, "{} rows, threads = {threads}", rows.len());
                }
            }
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
