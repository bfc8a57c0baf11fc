//! The frequency-balanced drain that the Hilbert baseline (§6.1) and
//! Anatomy (§2, after Xiao & Tao, VLDB 2006) share: rows are bucketed by
//! SA value, and while at least `l` buckets hold rows, one group takes
//! one row from each of the `l` fullest. Every group so formed holds `l`
//! distinct SA values, and what is left fills fewer than `l` buckets;
//! each caller places those leftovers by its own policy.

use crate::{RowId, Table, Value};
use std::cmp::Reverse;

/// Every SA value's rows in one flat array, each bucket sorted on
/// `(key, row)` and taken from its front.
///
/// The key orders a bucket's rows: the Hilbert baseline keys them on
/// their curve index, and Anatomy on nothing (`()`), so a group takes
/// each bucket's lowest remaining row id.
#[derive(Debug, Clone)]
pub struct SaBuckets<K> {
    /// `(key, row)`, bucket after bucket in SA order: bucket `v` ends
    /// at `end[v]` and starts where bucket `v − 1` ends.
    slots: Vec<(K, RowId)>,
    /// Bucket `v`'s first untaken slot: its untaken rows are
    /// `slots[head[v]..end[v]]`.
    head: Vec<usize>,
    end: Vec<usize>,
}

impl<K: Ord + Copy + Default> SaBuckets<K> {
    /// Buckets `rows` by SA value, `keys[i]` being the key of `rows[i]`.
    pub fn new(table: &Table, rows: &[RowId], keys: &[K]) -> Self {
        assert_eq!(rows.len(), keys.len(), "one key per row");
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
        let mut slots = vec![(K::default(), 0); rows.len()];
        for (&r, &k) in rows.iter().zip(keys).rev() {
            let v = table.sa_value(r) as usize;
            head[v] -= 1;
            slots[head[v]] = (k, r);
        }
        for (&s, &e) in head.iter().zip(&end) {
            slots[s..e].sort_unstable();
        }
        SaBuckets { slots, head, end }
    }

    /// Untaken rows in bucket `v`.
    pub fn len(&self, v: Value) -> usize {
        self.left(v as usize)
    }

    fn left(&self, v: usize) -> usize {
        self.end[v] - self.head[v]
    }

    /// Takes bucket `v`'s first untaken `(key, row)`.
    pub fn take_first(&mut self, v: Value) -> (K, RowId) {
        let first = self.slots[self.head[v as usize]];
        self.head[v as usize] += 1;
        first
    }

    /// Forms groups while at least `l` buckets hold rows. Each group
    /// takes the first row of each of the `l` fullest buckets (ties by SA
    /// ascending) and is handed to `group` as `(SA, key, row)` in that
    /// order. Returns the SA values whose buckets still hold rows, fullest
    /// first (ties by SA ascending).
    ///
    /// The non-empty SA values stay sorted by `(rows left desc, SA asc)`
    /// from group to group: a group takes one row from each of the first
    /// `l`, so only those `l` entries move right. Draining `n` rows costs
    /// `O(l)` per group plus the moves, with no per-group re-sort of the
    /// `m` buckets.
    pub fn drain(&mut self, l: u32, mut group: impl FnMut(&[(Value, K, RowId)])) -> Vec<Value> {
        assert!(l >= 1, "l must be positive");
        let l = l as usize;
        // Bucket indices as `usize`: `m` may be `Value::MAX + 1`.
        let m = self.end.len();
        let mut order: Vec<usize> = (0..m).filter(|&v| self.left(v) > 0).collect();
        order.sort_unstable_by_key(|&v| (Reverse(self.left(v)), v));
        let mut taken = Vec::with_capacity(l);
        while order.len() >= l {
            taken.clear();
            for &v in &order[..l] {
                let (k, r) = self.take_first(v as Value);
                taken.push((v as Value, k, r));
            }
            group(&taken);

            // Each chosen bucket lost one row. They keep their order among
            // themselves, so move each, last first, right past the buckets
            // that now outrank it; emptied buckets sink to the end.
            let key = |v: usize| (Reverse(self.left(v)), v);
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
            while order.last().is_some_and(|&v| self.left(v) == 0) {
                order.pop();
            }
        }
        order.into_iter().map(|v| v as Value).collect()
    }
}

/// One group being assembled: its rows and its SA multiplicities as
/// `(value, count)` pairs. A drained group holds `l` distinct values and
/// the leftovers add few more, so a short vector beats a dense histogram.
#[derive(Debug, Clone, Default)]
pub struct OpenGroup {
    rows: Vec<RowId>,
    sa_counts: Vec<(Value, u32)>,
}

impl OpenGroup {
    /// The group of one drained row set, given as `(SA, key, row)`.
    pub fn of<K>(taken: &[(Value, K, RowId)]) -> Self {
        let mut g = OpenGroup {
            rows: Vec::with_capacity(taken.len()),
            sa_counts: Vec::with_capacity(taken.len()),
        };
        for &(v, _, r) in taken {
            g.add(r, v);
        }
        g
    }

    fn count(&self, v: Value) -> u32 {
        self.sa_counts
            .iter()
            .find(|&&(s, _)| s == v)
            .map_or(0, |&(_, c)| c)
    }

    /// Adds `row`, whose SA value is `v`.
    pub fn add(&mut self, row: RowId, v: Value) {
        self.rows.push(row);
        match self.sa_counts.iter_mut().find(|(s, _)| *s == v) {
            Some((_, c)) => *c += 1,
            None => self.sa_counts.push((v, 1)),
        }
    }

    /// Whether adding one `v` row keeps the group l-eligible:
    /// `l · max(h(G, v) + 1, h(G, w ≠ v)) ≤ |G| + 1`, since adding can only
    /// raise the pillar through `v` itself.
    pub fn accepts(&self, v: Value, l: u32) -> bool {
        let new_count = u64::from(self.count(v)) + 1;
        let max_other = self
            .sa_counts
            .iter()
            .filter(|&&(s, _)| s != v)
            .map(|&(_, c)| u64::from(c))
            .max()
            .unwrap_or(0);
        u64::from(l) * new_count.max(max_other) <= self.rows.len() as u64 + 1
    }

    /// The group's rows, ascending.
    pub fn into_sorted_rows(self) -> Vec<RowId> {
        let mut rows = self.rows;
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, SaHistogram, Schema, TableBuilder};
    use proptest::prelude::*;

    fn table(sa: &[Value], m: u32) -> Table {
        let schema = Schema::new(vec![Attribute::new("q", 2)], Attribute::new("sa", m)).unwrap();
        let mut b = TableBuilder::new(schema);
        for &v in sa {
            b.push_row(&[0], v).unwrap();
        }
        b.build()
    }

    /// The drain re-sorting every non-empty bucket for each group.
    fn naive_drain(t: &Table, l: usize, m: usize) -> (Vec<Vec<RowId>>, Vec<Value>) {
        let mut buckets: Vec<Vec<RowId>> = vec![Vec::new(); m];
        for r in 0..t.len() as RowId {
            buckets[t.sa_value(r) as usize].push(r);
        }
        let mut groups = Vec::new();
        loop {
            let mut order: Vec<usize> = (0..m).filter(|&v| !buckets[v].is_empty()).collect();
            order.sort_by_key(|&v| (Reverse(buckets[v].len()), v));
            if order.len() < l {
                return (groups, order.into_iter().map(|v| v as Value).collect());
            }
            groups.push(order[..l].iter().map(|&v| buckets[v].remove(0)).collect());
        }
    }

    #[test]
    fn a_group_takes_the_fullest_buckets_first_rows() {
        // Buckets: 0 → {1, 4}, 1 → {0, 2, 5, 6}, 2 → {3}.
        let t = table(&[1, 0, 1, 2, 0, 1, 1], 3);
        let rows: Vec<RowId> = (0..7).collect();
        let mut b = SaBuckets::new(&t, &rows, &[(); 7]);
        let mut groups = Vec::new();
        let left = b.drain(2, |g| {
            groups.push(g.iter().map(|&(v, _, r)| (v, r)).collect::<Vec<_>>())
        });
        assert_eq!(
            groups,
            vec![
                vec![(1, 0), (0, 1)],
                // Buckets 0 and 2 now tie at one row: SA ascending.
                vec![(1, 2), (0, 4)],
                vec![(1, 5), (2, 3)],
            ]
        );
        assert_eq!(left, vec![1]);
        assert_eq!(b.len(1), 1);
        assert_eq!(b.take_first(1), ((), 6));
        assert_eq!((0..3).map(|v| b.len(v)).sum::<usize>(), 0);
    }

    #[test]
    fn keys_order_each_bucket() {
        let t = table(&[0, 0, 0], 1);
        let mut b = SaBuckets::new(&t, &[0, 1, 2], &[7u32, 3, 7]);
        assert_eq!(b.take_first(0), (3, 1));
        assert_eq!(b.take_first(0), (7, 0));
        assert_eq!(b.take_first(0), (7, 2));
        assert_eq!(b.len(0), 0);
    }

    #[test]
    fn the_widest_sa_domain_drains() {
        let t = table(&[Value::MAX, 0, 7], 1 << 16);
        let mut b = SaBuckets::new(&t, &[0, 1, 2], &[(); 3]);
        let mut groups = Vec::new();
        let left = b.drain(2, |g| {
            groups.push(g.iter().map(|&(v, _, _)| v).collect::<Vec<_>>())
        });
        assert_eq!(groups, vec![vec![0, 7]]);
        assert_eq!(left, vec![Value::MAX]);
    }

    proptest! {
        /// The in-place order forms the groups a full re-sort per group
        /// forms, and leaves the same buckets in the same order.
        #[test]
        fn drain_matches_a_full_resort_per_group(
            sa in proptest::collection::vec(0u16..7, 0..80),
            l in 1u32..5,
        ) {
            let t = table(&sa, 7);
            let rows: Vec<RowId> = (0..t.len() as RowId).collect();
            let mut b = SaBuckets::new(&t, &rows, &vec![(); rows.len()]);
            let mut groups = Vec::new();
            let left = b.drain(l, |g| groups.push(g.iter().map(|&(_, _, r)| r).collect::<Vec<_>>()));
            let (naive_groups, naive_left) = naive_drain(&t, l as usize, 7);
            prop_assert_eq!(groups, naive_groups);
            prop_assert_eq!(left, naive_left);
        }

        /// `accepts` agrees with a histogram of the grown group.
        #[test]
        fn accepts_matches_a_histogram(
            sa in proptest::collection::vec(0u16..5, 1..12),
            v in 0u16..5,
            l in 1u32..5,
        ) {
            let t = table(&sa, 5);
            let mut g = OpenGroup::default();
            for r in 0..t.len() as RowId {
                g.add(r, t.sa_value(r));
            }
            let mut hist = SaHistogram::of_rows(&t, &g.clone().into_sorted_rows());
            hist.add(v);
            prop_assert_eq!(g.accepts(v, l), hist.is_l_eligible(l));
        }
    }
}
