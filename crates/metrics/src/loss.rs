//! Classical information-loss metrics complementing stars and KL.
//!
//! The anonymization literature the paper builds on uses two further
//! standard measures, both supported here for suppression publications
//! and recodings so the baselines can be compared on neutral ground:
//!
//! * **Discernibility metric (DM)** — every tuple is charged the size of
//!   its QI-group (Bayardo & Agrawal): `DM = Σ_G |G|²`. Lower is better;
//!   the identity partition scores `n`.
//! * **Normalized certainty penalty (NCP)** — every cell is charged the
//!   fraction of its attribute domain it was blurred over (Xu et al.):
//!   a star costs 1, an exact value 0, a sub-domain `(|sub| − 1) /
//!   (|domain| − 1)`. Reported as the average over all `n · d` cells,
//!   so results are comparable across tables.

use ldiv_api::Recoding;
use ldiv_microdata::{Partition, SuppressedTable, Table};

/// Discernibility metric of a partition: `Σ_G |G|²`.
pub fn discernibility(partition: &Partition) -> u64 {
    partition
        .groups()
        .iter()
        .map(|g| (g.len() as u64) * (g.len() as u64))
        .sum()
}

/// Average normalized certainty penalty of a suppression publication:
/// starred cells cost 1, retained cells 0.
pub fn ncp_suppressed(table: &Table, published: &SuppressedTable) -> f64 {
    let d = table.dimensionality();
    let n = table.len();
    if n == 0 || d == 0 {
        return 0.0;
    }
    published.star_count() as f64 / (n * d) as f64
}

/// Average normalized certainty penalty of a global recoding: each cell
/// costs `(bucket_width − 1) / (domain − 1)` (0 for single-value domains).
pub fn ncp_recoded(table: &Table, recoding: &Recoding) -> f64 {
    let d = table.dimensionality();
    let n = table.len();
    if n == 0 || d == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (_, qi, _) in table.rows() {
        for (a, &v) in qi.iter().enumerate() {
            let domain = table.schema().qi_attribute(a).domain_size();
            if domain <= 1 {
                continue;
            }
            let width = recoding.bucket_width(a, v);
            total += (width - 1) as f64 / (domain - 1) as f64;
        }
    }
    total / (n * d) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, RowId};

    #[test]
    fn discernibility_squares_group_sizes() {
        let p = Partition::new_unchecked(vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(discernibility(&p), 9 + 4);
        let identity = Partition::new_unchecked((0..5 as RowId).map(|r| vec![r]).collect());
        assert_eq!(discernibility(&identity), 5);
    }

    #[test]
    fn ncp_suppressed_counts_star_fraction() {
        let t = samples::hospital();
        let p = Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        let published = t.generalize(&p);
        // 8 stars over 30 cells.
        let ncp = ncp_suppressed(&t, &published);
        assert!((ncp - 8.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn ncp_recoded_normalizes_by_domain() {
        let t = samples::hospital();
        // Coarsen Age (domain 3) into {0,1} | {2}: 8 of 10 rows live in the
        // width-2 bucket, each costing (2−1)/(3−1) = 0.5 on one of three
        // attributes.
        let rec = Recoding::new(vec![vec![0, 0, 1], vec![0, 1], vec![0, 1, 2]]);
        let ncp = ncp_recoded(&t, &rec);
        let expect = (8.0 * 0.5) / 30.0;
        assert!((ncp - expect).abs() < 1e-12, "ncp = {ncp}");
        // Identity recoding costs nothing.
        assert!(ncp_recoded(&t, &Recoding::identity(t.schema())).abs() < 1e-12);
        // Full recoding costs 1 per cell.
        assert!((ncp_recoded(&t, &Recoding::full(t.schema())) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ncp_orderings_match_intuition() {
        // A suppression publication with more stars has higher NCP, and a
        // coarser recoding has higher NCP.
        let t = samples::hospital();
        let fine = t.generalize(&Partition::new_unchecked(vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![8, 9],
        ]));
        let coarse = t.generalize(&Partition::new_unchecked(vec![(0..10 as RowId).collect()]));
        assert!(ncp_suppressed(&t, &fine) < ncp_suppressed(&t, &coarse));
    }
}
