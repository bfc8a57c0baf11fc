//! The full anonymization pipeline and the TP+ hybrid hook (§5.6).
//!
//! TP publishes the residue as a single, fully-suppressed QI-group. §5.6
//! observes that *any* heuristic may re-partition the residue into smaller
//! l-eligible groups to recover stars — the hybrid always dominates plain
//! TP on star count and keeps the `O(l·d)` guarantee. The hook is the
//! [`ResiduePartitioner`] trait; the Hilbert-curve implementation lives in
//! the `ldiv-hilbert` crate to keep this crate dependency-free.

use crate::tp::{tuple_minimize, TpOutcome};
use ldiv_api::LdivError;
use ldiv_exec::Executor;
use ldiv_microdata::{Partition, RowId, SuppressedTable, Table};

/// Strategy for splitting the residue set into smaller l-eligible groups.
pub trait ResiduePartitioner {
    /// Partitions `residue` (row ids into `table`) into l-eligible groups
    /// under the run's executor.
    ///
    /// Implementations must return a partition of exactly the given rows;
    /// every group must be l-eligible. Outputs violating either condition
    /// are rejected by [`anonymize`], which then falls back to the
    /// single-group residue. A strategy that fans out over `exec` must
    /// return the same partition for every thread budget; a sequential
    /// one ignores it. [`anonymize_with`] passes the run's executor here,
    /// which is how `--threads` reaches the `tp+` residue phase.
    fn partition_residue(
        &self,
        table: &Table,
        residue: &[RowId],
        l: u32,
        exec: &Executor,
    ) -> Partition;

    /// A short name for reports and benches.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The identity strategy: keep the residue as one fully-suppressed group.
/// Using it makes [`anonymize`] equal to plain TP.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleGroupResidue;

impl ResiduePartitioner for SingleGroupResidue {
    fn partition_residue(
        &self,
        _table: &Table,
        residue: &[RowId],
        _l: u32,
        _exec: &Executor,
    ) -> Partition {
        if residue.is_empty() {
            Partition::default()
        } else {
            Partition::new_unchecked(vec![residue.to_vec()])
        }
    }

    fn name(&self) -> &'static str {
        "single-group"
    }
}

/// Result of the full pipeline: an l-diverse publication of the whole table.
#[derive(Debug, Clone)]
pub struct AnonymizationResult {
    /// The final partition covering every row.
    pub partition: Partition,
    /// The published (suppressed) table.
    pub published: SuppressedTable,
    /// The TP run underneath.
    pub tp: TpOutcome,
    /// Whether the residue partitioner's output was rejected and the
    /// single-group fallback used instead.
    pub fell_back: bool,
}

impl AnonymizationResult {
    /// Stars in the publication (Problem 1 objective).
    pub fn star_count(&self) -> usize {
        self.published.star_count()
    }

    /// Suppressed tuples in the publication (Problem 2 objective).
    pub fn suppressed_tuples(&self) -> usize {
        self.published.suppressed_tuple_count()
    }
}

/// Runs TP and publishes the table, re-partitioning the residue with the
/// given strategy (TP+ when the strategy is a real heuristic, plain TP with
/// [`SingleGroupResidue`]). Uses the auto thread budget for the residue
/// strategy.
pub fn anonymize<P: ResiduePartitioner>(
    table: &Table,
    l: u32,
    partitioner: &P,
) -> Result<AnonymizationResult, LdivError> {
    anonymize_with(table, l, partitioner, &Executor::default())
}

/// [`anonymize`] under an explicit thread budget, forwarded to the
/// residue partitioner (the TP phases themselves are the paper's greedy
/// sequential passes). Output is identical for every budget.
pub fn anonymize_with<P: ResiduePartitioner>(
    table: &Table,
    l: u32,
    partitioner: &P,
    exec: &Executor,
) -> Result<AnonymizationResult, LdivError> {
    let tp = tuple_minimize(table, l)?;
    let mut partition = tp.partition.clone();
    let mut fell_back = false;

    if !tp.residue.is_empty() {
        let sub = partitioner.partition_residue(table, &tp.residue, l, exec);
        if residue_partition_ok(table, &tp.residue, &sub, l) {
            partition.extend(sub);
        } else {
            fell_back = true;
            partition.push_group(tp.residue.clone());
        }
    }

    let published = table.generalize(&partition);
    debug_assert!(published.is_l_diverse(table, l));
    Ok(AnonymizationResult {
        published,
        partition,
        tp,
        fell_back,
    })
}

/// Validates a residue partition: exact cover of the residue rows and
/// l-eligibility of every group. Row ids outside the table fail.
fn residue_partition_ok(table: &Table, residue: &[RowId], sub: &Partition, l: u32) -> bool {
    const OUTSIDE: u8 = 0;
    const UNSEEN: u8 = 1;
    const SEEN: u8 = 2;
    if sub.covered_rows() != residue.len() {
        return false;
    }
    // One byte per table row: is it in the residue, and has a group
    // claimed it yet.
    let mut state = vec![OUTSIDE; table.len()];
    for &r in residue {
        match state.get_mut(r as usize) {
            Some(s) => *s = UNSEEN,
            None => return false,
        }
    }
    let mut sa_counts = vec![0u32; table.schema().sa_domain_size() as usize];
    for g in sub.groups() {
        let mut pillar = 0;
        for &r in g {
            match state.get_mut(r as usize) {
                Some(s) if *s == UNSEEN => *s = SEEN,
                _ => return false,
            }
            let c = &mut sa_counts[table.sa_value(r) as usize];
            *c += 1;
            pillar = pillar.max(*c);
        }
        for &r in g {
            sa_counts[table.sa_value(r) as usize] = 0;
        }
        // Definition 2: l · h(G) ≤ |G|.
        if u64::from(l) * u64::from(pillar) > g.len() as u64 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    /// A partitioner that pairs residue rows greedily by distinct SA —
    /// a stand-in for the Hilbert heuristic in unit tests.
    struct PairUp;

    impl ResiduePartitioner for PairUp {
        fn partition_residue(
            &self,
            table: &Table,
            residue: &[RowId],
            l: u32,
            _: &Executor,
        ) -> Partition {
            assert_eq!(l, 2);
            let mut rows: Vec<RowId> = residue.to_vec();
            rows.sort_by_key(|&r| table.sa_value(r));
            // Pair row i with row i + half: with sorted SA values and an
            // l-eligible residue the halves differ pointwise.
            let half = rows.len() / 2;
            let mut groups = Vec::new();
            for i in 0..half {
                groups.push(vec![rows[i], rows[i + half]]);
            }
            if rows.len() % 2 == 1 {
                groups.last_mut().unwrap().push(rows[rows.len() - 1]);
            }
            Partition::new_unchecked(groups)
        }

        fn name(&self) -> &'static str {
            "pair-up"
        }
    }

    /// A broken partitioner that drops rows, to exercise the fallback.
    struct Lossy;

    impl ResiduePartitioner for Lossy {
        fn partition_residue(
            &self,
            _: &Table,
            residue: &[RowId],
            _: u32,
            _: &Executor,
        ) -> Partition {
            Partition::new_unchecked(vec![vec![residue[0]]])
        }
    }

    #[test]
    fn single_group_matches_plain_tp() {
        let t = samples::hospital();
        let res = anonymize(&t, 2, &SingleGroupResidue).unwrap();
        assert!(!res.fell_back);
        assert!(res.published.is_l_diverse(&t, 2));
        // The residue {Adam, Bob, Calvin, Danny} is exactly the paper's
        // Table 3 QI-group 1: Gender stays uniform (all M), so the group
        // suppresses Age and Education only — 4 rows × 2 attrs = 8 stars.
        assert_eq!(res.star_count(), 8);
        assert_eq!(res.suppressed_tuples(), 4);
        res.partition.validate_cover(&t).unwrap();
    }

    #[test]
    fn hybrid_recovers_stars() {
        let t = samples::hospital();
        let plain = anonymize(&t, 2, &SingleGroupResidue).unwrap();
        let hybrid = anonymize(&t, 2, &PairUp).unwrap();
        assert!(!hybrid.fell_back);
        assert!(hybrid.published.is_l_diverse(&t, 2));
        // §5.6: the hybrid can only improve the star count.
        assert!(hybrid.star_count() <= plain.star_count());
        hybrid.partition.validate_cover(&t).unwrap();
    }

    #[test]
    fn invalid_partitioner_falls_back() {
        let t = samples::hospital();
        let res = anonymize(&t, 2, &Lossy).unwrap();
        assert!(res.fell_back);
        assert!(res.published.is_l_diverse(&t, 2));
        res.partition.validate_cover(&t).unwrap();
    }

    #[test]
    fn empty_residue_never_calls_partitioner() {
        struct Panicky;
        impl ResiduePartitioner for Panicky {
            fn partition_residue(&self, _: &Table, _: &[RowId], _: u32, _: &Executor) -> Partition {
                panic!("must not be called for empty residue");
            }
        }
        // A table that is already 1-diverse needs nothing removed.
        let t = samples::hospital();
        let res = anonymize(&t, 1, &Panicky).unwrap();
        assert_eq!(res.star_count(), 0);
    }
}
