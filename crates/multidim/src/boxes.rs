//! Range-generalized publications and the §6.2 transformation.

use ldiv_api::{repair, Payload, Publication};
use ldiv_exec::Executor;
use ldiv_microdata::{Partition, RowId, SaHistogram, SuppressedTable, Table};

/// Re-export: the range type now lives in the `ldiv-api` contract crate
/// (it is the boxes publication payload); the old
/// `ldiv_multidim::AttrRange` path keeps working.
pub use ldiv_api::AttrRange;

/// One group of a multi-dimensional generalization: its rows and the
/// published range per attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxGroup {
    /// Published range per QI attribute.
    pub ranges: Vec<AttrRange>,
    /// The group's rows.
    pub rows: Vec<RowId>,
}

impl BoxGroup {
    /// Number of attributes published as non-trivial ranges (width > 1).
    pub fn generalized_attr_count(&self) -> usize {
        self.ranges.iter().filter(|r| !r.is_exact()).count()
    }
}

/// A multi-dimensional generalization of a table: per group, each QI
/// attribute is published as a covering range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxTable {
    dimensionality: usize,
    n: usize,
    groups: Vec<BoxGroup>,
}

impl BoxTable {
    /// Builds the tightest range publication of a partition: each group
    /// publishes, per attribute, the min..max of its values. Uses the
    /// auto thread budget.
    pub fn from_partition(table: &Table, partition: &Partition) -> BoxTable {
        BoxTable::from_partition_with(table, partition, &Executor::default())
    }

    /// [`from_partition`](BoxTable::from_partition) under an explicit
    /// thread budget: groups are independent, so the covering ranges fan
    /// out as an ordered parallel map (same group order for any budget).
    pub fn from_partition_with(table: &Table, partition: &Partition, exec: &Executor) -> BoxTable {
        let d = table.dimensionality();
        let groups = exec.map(partition.groups(), |g| BoxGroup {
            ranges: repair::tight_box(table, g),
            rows: g.clone(),
        });
        BoxTable {
            dimensionality: d,
            n: partition.covered_rows(),
            groups,
        }
    }

    /// The §6.2 transformation: replace every star of a suppression-based
    /// publication with the tightest sub-domain covering the group's
    /// values, keeping retained values exact.
    ///
    /// The result is the same partition published with strictly more
    /// information, so its KL-divergence never exceeds the suppressed
    /// table's (the dominance claim of §6.2, asserted in tests).
    pub fn from_suppressed(table: &Table, published: &SuppressedTable) -> BoxTable {
        let partition = Partition::new_unchecked(
            published
                .groups()
                .iter()
                .map(|g| g.rows().to_vec())
                .collect(),
        );
        // The tightest covering range of a retained value is the value
        // itself, so `from_partition` computes exactly the transformation.
        BoxTable::from_partition(table, &partition)
    }

    /// Number of QI attributes.
    pub fn dimensionality(&self) -> usize {
        self.dimensionality
    }

    /// Number of published rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the publication is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The groups.
    pub fn groups(&self) -> &[BoxGroup] {
        &self.groups
    }

    /// Definition 2 on the underlying partition.
    pub fn is_l_diverse(&self, table: &Table, l: u32) -> bool {
        self.groups
            .iter()
            .all(|g| SaHistogram::of_rows(table, &g.rows).is_l_eligible(l))
    }

    /// Total published *imprecision*: the sum over rows and attributes of
    /// `width − 1` (0 = exact publication everywhere). The range analogue
    /// of the star count.
    pub fn imprecision(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| {
                let per_row: u64 = g.ranges.iter().map(|r| (r.width() - 1) as u64).sum();
                per_row * g.rows.len() as u64
            })
            .sum()
    }

    /// Converts into the unified [`Publication`] with the boxes payload,
    /// labelled as produced by `mechanism`.
    pub fn to_publication(&self, mechanism: impl Into<String>) -> Publication {
        let partition =
            Partition::new_unchecked(self.groups.iter().map(|g| g.rows.clone()).collect());
        let boxes = self.groups.iter().map(|g| g.ranges.clone()).collect();
        Publication::new(mechanism, partition, Payload::Boxes(boxes))
    }

    /// `KL(f, f*)` of Eq. (2) for the range semantics: each published row
    /// spreads uniformly over its group's box, keeping its own SA value.
    ///
    /// Thin wrapper over the uniform metric
    /// ([`ldiv_metrics::kl_divergence_boxes`]); exact but
    /// `O(|support| · #groups)` in the worst case (boxes may overlap
    /// arbitrarily after `from_suppressed`).
    pub fn kl_divergence(&self, table: &Table) -> f64 {
        assert_eq!(self.dimensionality, table.dimensionality());
        assert_eq!(self.n, table.len(), "publication must cover the table");
        let partition =
            Partition::new_unchecked(self.groups.iter().map(|g| g.rows.clone()).collect());
        let boxes: Vec<Vec<AttrRange>> = self.groups.iter().map(|g| g.ranges.clone()).collect();
        ldiv_metrics::kl_divergence_boxes(table, &partition, &boxes)
    }

    /// Renders the publication like the paper's Table 5, using attribute
    /// labels for exact values and `label(lo)..label(hi)` for ranges.
    pub fn render(&self, table: &Table) -> String {
        use std::fmt::Write as _;
        let schema = table.schema();
        let mut rows: Vec<(RowId, String)> = Vec::with_capacity(self.n);
        for (gid, g) in self.groups.iter().enumerate() {
            for &r in &g.rows {
                let mut line = String::new();
                for (a, range) in g.ranges.iter().enumerate() {
                    let cell = if range.is_exact() {
                        schema.qi_attribute(a).label(range.lo)
                    } else {
                        format!(
                            "{}..{}",
                            schema.qi_attribute(a).label(range.lo),
                            schema.qi_attribute(a).label(range.hi)
                        )
                    };
                    let _ = write!(line, "{cell:>22}");
                }
                let _ = write!(
                    line,
                    "{:>14}  (group {gid})",
                    schema.sensitive().label(table.sa_value(r))
                );
                rows.push((r, line));
            }
        }
        rows.sort_by_key(|(r, _)| *r);
        let mut out = String::new();
        for a in 0..self.dimensionality {
            let _ = write!(out, "{:>22}", schema.qi_attribute(a).name());
        }
        let _ = writeln!(out, "{:>14}", schema.sensitive().name());
        for (_, line) in rows {
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    fn table3_partition() -> Partition {
        Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]])
    }

    #[test]
    fn paper_table_5_from_table_3() {
        // §6.2: replacing Table 3's stars with covering sub-domains yields
        // Table 5: QI-group 1 publishes Age "<50" (codes 0..1) and
        // Education "Bachelor or above" (codes 1..2), Gender exactly M.
        let t = samples::hospital();
        let suppressed = t.generalize(&table3_partition());
        let boxed = BoxTable::from_suppressed(&t, &suppressed);
        let g1 = &boxed.groups()[0];
        assert_eq!(
            g1.ranges[0],
            AttrRange {
                lo: samples::AGE_UNDER_30,
                hi: samples::AGE_30_TO_50
            }
        );
        assert_eq!(
            g1.ranges[1],
            AttrRange {
                lo: samples::GENDER_M,
                hi: samples::GENDER_M
            }
        );
        assert_eq!(
            g1.ranges[2],
            AttrRange {
                lo: samples::EDU_BACHELOR,
                hi: samples::EDU_MASTER
            }
        );
        // Groups 2 and 3 are untouched (exact everywhere).
        assert_eq!(boxed.groups()[1].generalized_attr_count(), 0);
        assert_eq!(boxed.groups()[2].generalized_attr_count(), 0);
        assert!(boxed.is_l_diverse(&t, 2));
        // Rendering mentions the range form.
        let text = boxed.render(&t);
        assert!(text.contains("< 30..[30, 50)"), "{text}");
    }

    #[test]
    fn dominance_over_suppression_on_table_3() {
        // §6.2: T*' always incurs less information loss than T*.
        let t = samples::hospital();
        let suppressed = t.generalize(&table3_partition());
        let boxed = BoxTable::from_suppressed(&t, &suppressed);
        let kl_star = ldiv_metrics::kl_divergence_suppressed(&t, &suppressed);
        let kl_box = boxed.kl_divergence(&t);
        assert!(
            kl_box <= kl_star + 1e-12,
            "kl_box = {kl_box} > kl_star = {kl_star}"
        );
        assert!(kl_box > 0.0); // still lossy: ranges are wider than points
    }

    #[test]
    fn exact_publication_has_zero_divergence_and_imprecision() {
        let t = samples::hospital();
        let singletons = Partition::new_unchecked((0..10 as RowId).map(|r| vec![r]).collect());
        let boxed = BoxTable::from_partition(&t, &singletons);
        assert_eq!(boxed.imprecision(), 0);
        assert!(boxed.kl_divergence(&t).abs() < 1e-12);
    }

    #[test]
    fn imprecision_counts_range_widths() {
        let t = samples::hospital();
        let boxed = BoxTable::from_partition(&t, &table3_partition());
        // Group 1: Age range width 2 (−1 = 1), Education width 2 (−1 = 1)
        // per row × 4 rows = 8; other groups exact.
        assert_eq!(boxed.imprecision(), 8);
    }

    #[test]
    fn range_basics() {
        let r = AttrRange { lo: 2, hi: 5 };
        assert_eq!(r.width(), 4);
        assert!(r.contains(2) && r.contains(5) && !r.contains(6));
        assert!(!r.is_exact());
        assert!(AttrRange { lo: 3, hi: 3 }.is_exact());
    }
}
