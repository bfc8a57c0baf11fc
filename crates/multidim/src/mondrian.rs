//! Mondrian multi-dimensional partitioning for l-diversity.
//!
//! LeFevre, DeWitt, Ramakrishnan (ICDE 2006) — the paper's reference [27]
//! and one of the three state-of-the-art generalization methods its §6.1
//! examined. Mondrian recursively splits the row set like a kd-tree:
//! choose the attribute whose *present* values span the widest normalized
//! range, split at the median value, and recurse while both halves remain
//! private. The original gate is k-anonymity (`|half| ≥ k`); following the
//! paper's adaptation methodology (footnote 3 and §6.1), ours is
//! l-eligibility of both halves.

#[cfg(test)]
use crate::boxes::BoxTable;
use ldiv_exec::Executor;
#[cfg(test)]
use ldiv_microdata::SuppressedTable;
use ldiv_microdata::{Partition, RowId, Table, Value};

/// Below this many rows a subtree is not worth forking: the split work is
/// `O(rows · d + rows log rows)`, so small subtrees cost less than a
/// thread hand-off.
const FORK_MIN_ROWS: usize = 4_096;

/// Partitions the table with l-diversity-gated Mondrian splits, using
/// the auto thread budget (see [`Executor::new`]).
///
/// Deterministic: candidate attributes are ordered by normalized spread
/// with index tie-break, and median splits put ties on the low side.
/// The thread budget never changes the result — forked subtrees merge in
/// the same low-then-high order the sequential recursion emits.
pub fn mondrian_partition(table: &Table, l: u32) -> Partition {
    mondrian_partition_with(table, l, &Executor::default())
}

/// [`mondrian_partition`] under an explicit thread budget.
///
/// The recursion forks the two halves of a successful split onto the
/// executor ([`Executor::join`]) whenever both subtrees are large enough
/// to amortize the hand-off; `join` returns results in argument order,
/// so the concatenated group list is byte-identical to the sequential
/// run for every budget.
///
/// Each node works in place on its slice of one row array:
/// - one pass over its rows finds every attribute's `(lo, hi)`;
/// - the median (ties low) and the step-down threshold come from counts
///   over `[lo, hi]` when `hi − lo` is smaller than the node, and from
///   sorting the node's values otherwise;
/// - a split attempt partitions the slice around the threshold and
///   counts the low half's SA values on the way; the high half's counts
///   are the node's minus the low half's, and the root's counts are the
///   only ones taken from scratch;
/// - a node under `2l` rows is a leaf without any attempt: both halves
///   of an accepted split are non-empty and l-eligible, so each holds at
///   least `l` rows.
///
/// A leaf publishes its rows ascending, as a stable split of `0..n`
/// would leave them.
pub fn mondrian_partition_with(table: &Table, l: u32, exec: &Executor) -> Partition {
    assert!(l >= 1, "l must be positive");
    let mut rows: Vec<RowId> = (0..table.len() as RowId).collect();
    if rows.is_empty() {
        return Partition::default();
    }
    let mut sa_counts = vec![0u32; table.schema().sa_domain_size() as usize];
    for &v in table.sa_column() {
        sa_counts[v as usize] += 1;
    }
    let mut groups = Vec::new();
    let run = Run { table, l, exec };
    run.split(
        &mut rows,
        &mut sa_counts,
        &mut Scratch::default(),
        &mut groups,
    );
    Partition::new_unchecked(groups)
}

/// What every node of one run shares.
struct Run<'a> {
    table: &'a Table,
    l: u32,
    exec: &'a Executor,
}

/// Buffers reused by every node one thread visits.
#[derive(Default)]
struct Scratch {
    /// Rows per value of one attribute over the node's `[lo, hi]`.
    value_counts: Vec<u32>,
    /// One attribute's values over the node, for the sorted median.
    values: Vec<Value>,
}

impl Run<'_> {
    /// Splits `rows`, whose SA counts are `sa_counts`, recursively and
    /// appends the leaf groups of this subtree to `out` in
    /// low-before-high, depth-first order. Reorders `rows` and
    /// overwrites `sa_counts`.
    fn split(
        &self,
        rows: &mut [RowId],
        sa_counts: &mut [u32],
        scratch: &mut Scratch,
        out: &mut Vec<Vec<RowId>>,
    ) {
        // The sequential recursion between forks bypasses the executor's
        // loops, so it hosts its own cancellation point: one check per
        // node keeps a deadline-bounded run from descending a deep tree
        // long after its budget elapsed.
        self.exec.checkpoint();
        let n = rows.len();
        if n < 2 * self.l as usize {
            return leaf(rows, out);
        }
        let table = self.table;
        let d = table.dimensionality();

        let (mut lo, mut hi) = (vec![Value::MAX; d], vec![0; d]);
        for &r in rows.iter() {
            for (a, &v) in table.qi_row(r).iter().enumerate() {
                lo[a] = lo[a].min(v);
                hi[a] = hi[a].max(v);
            }
        }
        // Attributes ordered by normalized span of present values, widest
        // first (the Mondrian "choose dimension" heuristic).
        let mut spans: Vec<(f64, usize)> = (0..d)
            .map(|a| {
                let domain = table.schema().qi_attribute(a).domain_size() as f64;
                (f64::from(hi[a] - lo[a]) / domain, a)
            })
            .collect();
        spans.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));

        let l = u64::from(self.l);
        let mut low_counts = vec![0u32; sa_counts.len()];
        for &(span, a) in &spans {
            if span == 0.0 {
                break; // no attribute with at least two present values remains
            }
            let threshold = scratch.threshold(table, rows, a, lo[a], hi[a]);
            // Low half = values ≤ threshold, moved to the front.
            let mut k = 0;
            for i in 0..n {
                let r = rows[i];
                if table.qi_value(r, a) <= threshold {
                    low_counts[table.sa_value(r) as usize] += 1;
                    rows.swap(i, k);
                    k += 1;
                }
            }
            let low_max = low_counts.iter().copied().max().unwrap_or(0);
            let high_max = sa_counts
                .iter()
                .zip(&low_counts)
                .map(|(&all, &low)| all - low)
                .max()
                .unwrap_or(0);
            if l * u64::from(low_max) <= k as u64 && l * u64::from(high_max) <= (n - k) as u64 {
                for (all, &low) in sa_counts.iter_mut().zip(&low_counts) {
                    *all -= low;
                }
                let (low, high) = rows.split_at_mut(k);
                if self.exec.is_parallel() && k.min(n - k) >= FORK_MIN_ROWS {
                    let (_, high_groups) = self.exec.join(
                        || self.split(low, &mut low_counts, scratch, out),
                        || {
                            let mut groups = Vec::new();
                            self.split(high, sa_counts, &mut Scratch::default(), &mut groups);
                            groups
                        },
                    );
                    out.extend(high_groups);
                } else {
                    self.split(low, &mut low_counts, scratch, out);
                    self.split(high, sa_counts, scratch, out);
                }
                return;
            }
            low_counts.fill(0);
        }
        leaf(rows, out);
    }
}

impl Scratch {
    /// The split threshold of attribute `a` over `rows`, whose values
    /// span `[lo, hi]` with `lo < hi`: the median of the multiset (ties
    /// low), stepped down to the largest value below it when the median
    /// is `hi`, so both halves are non-empty.
    fn threshold(
        &mut self,
        table: &Table,
        rows: &[RowId],
        a: usize,
        lo: Value,
        hi: Value,
    ) -> Value {
        let mid = rows.len() / 2;
        let width = usize::from(hi - lo);
        if width < rows.len() {
            let counts = &mut self.value_counts;
            counts.clear();
            counts.resize(width + 1, 0);
            for &r in rows {
                counts[usize::from(table.qi_value(r, a) - lo)] += 1;
            }
            let mut below = 0;
            let median = counts
                .iter()
                .position(|&c| {
                    below += c as usize;
                    below > mid
                })
                .expect("the counts sum to the node size");
            let threshold = if median == width {
                counts[..width]
                    .iter()
                    .rposition(|&c| c > 0)
                    .expect("lo < hi is present")
            } else {
                median
            };
            lo + threshold as Value
        } else {
            let values = &mut self.values;
            values.clear();
            values.extend(rows.iter().map(|&r| table.qi_value(r, a)));
            values.sort_unstable();
            let median = values[mid];
            if median == hi {
                *values
                    .iter()
                    .rev()
                    .find(|&&v| v < median)
                    .expect("lo < hi is present")
            } else {
                median
            }
        }
    }
}

/// Publishes `rows` as one group, ascending.
fn leaf(rows: &[RowId], out: &mut Vec<Vec<RowId>>) {
    let mut group = rows.to_vec();
    group.sort_unstable();
    out.push(group);
}

/// The full Mondrian run in every published form — partition, native
/// boxes, suppression rendering. Only tests compare all three at once;
/// the mechanism builds its boxes payload directly.
#[cfg(test)]
pub(crate) fn mondrian_publish(table: &Table, l: u32) -> (Partition, BoxTable, SuppressedTable) {
    let partition = mondrian_partition(table, l);
    let boxed = BoxTable::from_partition(table, &partition);
    let suppressed = table.generalize(&partition);
    (partition, boxed, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::samples;
    use proptest::prelude::*;

    #[test]
    fn hospital_partition_is_l_diverse_and_splits() {
        let t = samples::hospital();
        let (p, boxed, suppressed) = mondrian_publish(&t, 2);
        p.validate_cover(&t).unwrap();
        assert!(p.is_l_diverse(&t, 2));
        assert!(boxed.is_l_diverse(&t, 2));
        assert!(suppressed.is_l_diverse(&t, 2));
        // The hospital table splits at least once (it is not one block).
        assert!(p.group_count() >= 2, "groups = {}", p.group_count());
    }

    #[test]
    fn infeasible_split_keeps_single_group() {
        // All-same SA forces l = 1 only; with l = 1 every split is allowed
        // down to singletons, with l = 2 the table is infeasible and the
        // function is simply never gated — construct a 2-eligible table
        // that cannot split: two rows with identical SA... that is NOT
        // 2-eligible. Use 4 rows: (sa 0, sa 1) × 2 with QI forcing any
        // axis split to separate the pairs unevenly.
        let t = {
            use ldiv_microdata::{Attribute, Schema, TableBuilder};
            let schema =
                Schema::new(vec![Attribute::new("a", 4)], Attribute::new("sa", 2)).unwrap();
            let mut b = TableBuilder::new(schema);
            // Values 0,1,2,3 with SA 0,0,1,1: the median split (≤ 1) gives
            // halves {0,0} and {1,1} — homogeneous, rejected; other
            // thresholds likewise. No valid split exists.
            b.push_row(&[0], 0).unwrap();
            b.push_row(&[1], 0).unwrap();
            b.push_row(&[2], 1).unwrap();
            b.push_row(&[3], 1).unwrap();
            b.build()
        };
        let p = mondrian_partition(&t, 2);
        assert_eq!(p.group_count(), 1);
        assert!(p.is_l_diverse(&t, 2));
    }

    #[test]
    fn splits_reduce_imprecision_monotonically_vs_single_group() {
        let t = sal(&AcsConfig {
            rows: 2_000,
            seed: 31,
        })
        .project(&[0, 1, 5])
        .unwrap();
        for l in [2u32, 5] {
            let (p, boxed, _) = mondrian_publish(&t, l);
            assert!(p.is_l_diverse(&t, l));
            let single = BoxTable::from_partition(
                &t,
                &Partition::new_unchecked(vec![(0..t.len() as RowId).collect()]),
            );
            assert!(boxed.imprecision() < single.imprecision());
            assert!(boxed.kl_divergence(&t) < single.kl_divergence(&t));
        }
    }

    #[test]
    fn native_boxes_dominate_own_suppression_rendering() {
        // §6.2 dominance on Mondrian's own output.
        let t = sal(&AcsConfig {
            rows: 1_500,
            seed: 32,
        })
        .project(&[0, 3])
        .unwrap();
        let (_, boxed, suppressed) = mondrian_publish(&t, 3);
        let kl_box = boxed.kl_divergence(&t);
        let kl_star = ldiv_metrics::kl_divergence_suppressed(&t, &suppressed);
        assert!(kl_box <= kl_star + 1e-9, "{kl_box} vs {kl_star}");
    }

    #[test]
    fn deterministic() {
        let t = sal(&AcsConfig {
            rows: 1_000,
            seed: 33,
        })
        .project(&[0, 2, 5])
        .unwrap();
        let a = mondrian_partition(&t, 3);
        let b = mondrian_partition(&t, 3);
        assert_eq!(a.groups(), b.groups());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random l-eligible tables always yield valid l-diverse Mondrian
        /// partitions covering every row.
        #[test]
        fn random_tables_produce_valid_partitions(
            sa in proptest::collection::vec(0u16..5, 4..50),
            qi_a in proptest::collection::vec(0u16..6, 4..50),
            qi_b in proptest::collection::vec(0u16..6, 4..50),
            l in 2u32..4,
        ) {
            use ldiv_microdata::{Attribute, Schema, TableBuilder};
            let n = sa.len().min(qi_a.len()).min(qi_b.len());
            let schema = Schema::new(
                vec![Attribute::new("a", 6), Attribute::new("b", 6)],
                Attribute::new("sa", 5),
            ).unwrap();
            let mut b = TableBuilder::new(schema);
            for i in 0..n {
                b.push_row(&[qi_a[i], qi_b[i]], sa[i]).unwrap();
            }
            let t = b.build();
            prop_assume!(t.check_l_feasible(l).is_ok());
            let (p, boxed, _) = mondrian_publish(&t, l);
            p.validate_cover(&t).unwrap();
            prop_assert!(p.is_l_diverse(&t, l));
            // Every row lies inside its group's box.
            for g in boxed.groups() {
                for &r in &g.rows {
                    for (range, &v) in g.ranges.iter().zip(t.qi_row(r)) {
                        prop_assert!(range.contains(v));
                    }
                }
            }
        }
    }
}
