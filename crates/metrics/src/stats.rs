//! Publication summary statistics for the experiment harness.

use ldiv_microdata::{SuppressedTable, Table};
use serde::{Deserialize, Serialize};

/// Aggregate description of one published table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublicationSummary {
    /// Rows published.
    pub rows: usize,
    /// QI attributes.
    pub dimensionality: usize,
    /// QI-groups in the publication.
    pub groups: usize,
    /// Total stars (Problem 1 objective).
    pub stars: usize,
    /// Suppressed tuples (Problem 2 objective).
    pub suppressed_tuples: usize,
    /// Stars as a fraction of all QI cells (`stars / (n · d)`).
    pub star_ratio: f64,
    /// Mean group size.
    pub avg_group_size: f64,
    /// Size of the largest group.
    pub max_group_size: usize,
    /// Groups retaining no QI information at all (the paper's "futile").
    pub futile_groups: usize,
}

impl PublicationSummary {
    /// Summarizes any mechanism's [`Publication`](ldiv_api::Publication),
    /// uniformly over its payload: suppression payloads report their real
    /// star counts, other methodologies (boxes, anatomy, recoding) report
    /// zero stars — they lose information through channels the
    /// KL-divergence measures instead.
    pub fn of_publication(table: &Table, publication: &ldiv_api::Publication) -> Self {
        if let Some(suppressed) = publication.as_suppressed() {
            return PublicationSummary::of(table, suppressed);
        }
        let n = table.len();
        let groups = publication.partition().groups();
        PublicationSummary {
            rows: n,
            dimensionality: table.dimensionality(),
            groups: groups.len(),
            stars: 0,
            suppressed_tuples: 0,
            star_ratio: 0.0,
            avg_group_size: if groups.is_empty() {
                0.0
            } else {
                n as f64 / groups.len() as f64
            },
            max_group_size: groups.iter().map(|g| g.len()).max().unwrap_or(0),
            futile_groups: 0,
        }
    }

    /// Summarizes a publication: one sequential fold over its groups,
    /// which costs far less than handing the groups to other threads.
    pub fn of(table: &Table, published: &SuppressedTable) -> Self {
        let n = table.len();
        let d = table.dimensionality();
        let groups = published.groups();
        let (mut stars, mut suppressed_tuples, mut max_group_size, mut futile_groups) =
            (0, 0, 0, 0);
        for g in groups {
            stars += g.star_count();
            if g.is_suppressed() {
                suppressed_tuples += g.rows().len();
            }
            max_group_size = max_group_size.max(g.rows().len());
            futile_groups += usize::from(g.is_futile());
        }
        PublicationSummary {
            rows: n,
            dimensionality: d,
            groups: groups.len(),
            stars,
            suppressed_tuples,
            star_ratio: if n == 0 {
                0.0
            } else {
                stars as f64 / (n * d) as f64
            },
            avg_group_size: if groups.is_empty() {
                0.0
            } else {
                n as f64 / groups.len() as f64
            },
            max_group_size,
            futile_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, Partition};

    #[test]
    fn summary_matches_hand_counts() {
        let t = samples::hospital();
        let p = Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let s = PublicationSummary::of(&t, &t.generalize(&p));
        assert_eq!(s.rows, 10);
        assert_eq!(s.dimensionality, 3);
        assert_eq!(s.groups, 3);
        assert_eq!(s.stars, 8);
        assert_eq!(s.suppressed_tuples, 4);
        assert!((s.star_ratio - 8.0 / 30.0).abs() < 1e-12);
        assert_eq!(s.max_group_size, 4);
        assert_eq!(s.futile_groups, 0);
        assert!((s.avg_group_size - 10.0 / 3.0).abs() < 1e-12);
    }
}
