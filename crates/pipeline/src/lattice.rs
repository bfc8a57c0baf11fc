//! Full-domain generalization lattice search (Incognito-style).
//!
//! §5.6 notes that the preprocessing step "does not need to ensure
//! l-diversity: even the k-anonymity algorithms [7, 15, 20, 26, 44] can be
//! applied". Reference [26] is Incognito (LeFevre et al., SIGMOD 2005),
//! the classic *full-domain* algorithm: every attribute is generalized to
//! one of a small number of discrete levels, and the search walks the
//! lattice of level vectors for minimal vectors satisfying the privacy
//! predicate, pruning with the generalization-monotonicity of the
//! predicate (for l-diversity that monotonicity is exactly Lemma 1:
//! coarsening merges groups, and merged l-eligible groups stay
//! l-eligible).
//!
//! Levels come from the same balanced taxonomies the TDS baseline uses:
//! level 0 is the identity (leaves), the top level collapses the domain.

use crate::uniform_recoding;
use ldiv_api::Recoding;
use ldiv_metrics::ncp_recoded;
use ldiv_microdata::{SaHistogram, Schema, Table};

/// One attribute's generalization ladder: recodings from identity (index
/// 0) to fully general (last index).
fn ladder(schema: &Schema, attr: usize, fanout: u32) -> Vec<Vec<u32>> {
    // Depth h = identity; walk down to depth 0 = root. Heights differ per
    // attribute; deduplicate consecutive equal cuts (small domains hit the
    // identity early).
    let domain = schema.qi_attribute(attr).domain_size();
    let max_depth = 32 - (domain.max(2) - 1).leading_zeros(); // ⌈log2⌉
    let mut levels: Vec<Vec<u32>> = Vec::new();
    for depth in (0..=max_depth).rev() {
        let rec = uniform_recoding(schema, fanout, depth);
        let assign: Vec<u32> = (0..domain).map(|v| rec.bucket(attr, v as u16)).collect();
        if levels.last() != Some(&assign) {
            levels.push(assign);
        }
    }
    levels
}

/// A full-domain generalization: the level chosen per attribute plus the
/// materialized recoding.
#[derive(Debug, Clone)]
pub struct FullDomainRecoding {
    /// The lattice vector (level per attribute; 0 = identity).
    pub levels: Vec<usize>,
    /// The recoding it denotes.
    pub recoding: Recoding,
}

/// Enumerates the *minimal* full-domain recodings satisfying l-diversity:
/// lattice vectors whose induced grouping is l-diverse while no
/// coordinate can be lowered without breaking it.
///
/// The search visits vectors in order of total level sum and prunes every
/// vector dominating an already-accepted one (sound by Lemma 1
/// monotonicity — dominated-above vectors are satisfying but not
/// minimal). Lattice sizes are capped at 200 000 vectors.
pub fn minimal_full_domain_recodings(
    table: &Table,
    l: u32,
    fanout: u32,
) -> Vec<FullDomainRecoding> {
    let schema = table.schema();
    let d = schema.dimensionality();
    let ladders: Vec<Vec<Vec<u32>>> = (0..d).map(|a| ladder(schema, a, fanout)).collect();
    let heights: Vec<usize> = ladders.iter().map(|l| l.len() - 1).collect();
    let lattice_size: usize = heights.iter().map(|&h| h + 1).product();
    assert!(
        lattice_size <= 200_000,
        "lattice too large ({lattice_size} vectors); coarsen the taxonomies"
    );

    // Enumerate vectors grouped by level sum (BFS order).
    let max_sum: usize = heights.iter().sum();
    let mut minimal: Vec<FullDomainRecoding> = Vec::new();
    let mut accepted: Vec<Vec<usize>> = Vec::new();
    for target in 0..=max_sum {
        let mut vector = vec![0usize; d];
        enumerate_with_sum(&heights, target, 0, &mut vector, &mut |v: &[usize]| {
            // Prune non-minimal vectors: dominating an accepted vector.
            if accepted
                .iter()
                .any(|a| a.iter().zip(v).all(|(x, y)| x <= y))
            {
                return;
            }
            let recoding = Recoding::new((0..d).map(|a| ladders[a][v[a]].clone()).collect());
            if recoding_is_l_diverse(table, &recoding, l) {
                accepted.push(v.to_vec());
                minimal.push(FullDomainRecoding {
                    levels: v.to_vec(),
                    recoding,
                });
            }
        });
    }
    minimal
}

/// Picks the minimal full-domain recoding with the lowest NCP — the
/// natural §5.6 preprocessing choice.
///
/// Returns `None` when even the fully generalized vector fails (i.e. the
/// table is not l-eligible).
pub fn best_full_domain_recoding(table: &Table, l: u32, fanout: u32) -> Option<FullDomainRecoding> {
    minimal_full_domain_recodings(table, l, fanout)
        .into_iter()
        .min_by(|a, b| ncp_recoded(table, &a.recoding).total_cmp(&ncp_recoded(table, &b.recoding)))
}

fn recoding_is_l_diverse(table: &Table, recoding: &Recoding, l: u32) -> bool {
    recoding
        .induced_groups(table)
        .iter()
        .all(|g| SaHistogram::of_rows(table, g).is_l_eligible(l))
}

fn enumerate_with_sum(
    heights: &[usize],
    remaining: usize,
    idx: usize,
    vector: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if idx == heights.len() {
        if remaining == 0 {
            f(vector);
        }
        return;
    }
    let tail_max: usize = heights[idx + 1..].iter().sum();
    for level in 0..=heights[idx].min(remaining) {
        if remaining - level > tail_max {
            continue;
        }
        vector[idx] = level;
        enumerate_with_sum(heights, remaining - level, idx + 1, vector, f);
    }
    vector[idx] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_api::Params;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::samples;

    #[test]
    fn ladders_run_identity_to_root() {
        let schema = samples::hospital_schema();
        let lad = ladder(&schema, 0, 2); // Age, domain 3
                                         // Level 0: identity (3 buckets); last level: 1 bucket.
        assert_eq!(lad[0], vec![0, 1, 2]);
        assert!(lad.last().unwrap().iter().all(|&b| b == 0));
        assert!(lad.len() >= 2);
    }

    #[test]
    fn hospital_minimal_vectors_are_minimal_and_diverse() {
        let t = samples::hospital();
        let minimal = minimal_full_domain_recodings(&t, 2, 2);
        assert!(!minimal.is_empty());
        for fd in &minimal {
            assert!(
                recoding_is_l_diverse(&t, &fd.recoding, 2),
                "{:?}",
                fd.levels
            );
            // No accepted vector dominates another (pairwise minimality).
            for other in &minimal {
                if other.levels != fd.levels {
                    assert!(
                        !other.levels.iter().zip(&fd.levels).all(|(a, b)| a <= b),
                        "{:?} dominated by {:?}",
                        fd.levels,
                        other.levels
                    );
                }
            }
        }
    }

    #[test]
    fn monotonicity_above_minimal_vectors() {
        // Lemma 1 in lattice form: raising any coordinate of a satisfying
        // vector keeps it satisfying.
        let t = samples::hospital();
        let schema = t.schema();
        let minimal = minimal_full_domain_recodings(&t, 2, 2);
        let ladders: Vec<Vec<Vec<u32>>> = (0..3).map(|a| ladder(schema, a, 2)).collect();
        for fd in &minimal {
            for a in 0..3 {
                if fd.levels[a] + 1 >= ladders[a].len() {
                    continue;
                }
                let mut up = fd.levels.clone();
                up[a] += 1;
                let rec = Recoding::new((0..3).map(|i| ladders[i][up[i]].clone()).collect());
                assert!(recoding_is_l_diverse(&t, &rec, 2), "{up:?}");
            }
        }
    }

    #[test]
    fn best_recoding_minimizes_ncp_among_minimal() {
        let t = samples::hospital();
        let best = best_full_domain_recoding(&t, 2, 2).unwrap();
        let best_ncp = ncp_recoded(&t, &best.recoding);
        for fd in minimal_full_domain_recodings(&t, 2, 2) {
            assert!(best_ncp <= ncp_recoded(&t, &fd.recoding) + 1e-12);
        }
    }

    #[test]
    fn works_as_a_preprocessor_for_tp() {
        // The §5.6 workflow with an Incognito-chosen recoding.
        let t = sal(&AcsConfig {
            rows: 1_500,
            seed: 51,
        })
        .project(&[0, 5])
        .unwrap();
        let l = 4;
        let fd = best_full_domain_recoding(&t, l, 2).expect("feasible");
        let tp = ldiv_core::TpMechanism;
        let run =
            crate::anonymize_preprocessed_with(&t, &fd.recoding, &tp, &Params::new(l)).unwrap();
        assert!(run.publication.is_l_diverse(&run.coarse_table, l));
        // A recoding that already guarantees l-diversity leaves TP nothing
        // to suppress (all induced groups are l-eligible).
        assert_eq!(run.publication.suppressed_tuple_count(), 0);
        let kl = run.kl.expect("TP publishes a suppression payload");
        assert!(kl.is_finite() && kl >= -1e-9);
    }

    #[test]
    fn infeasible_table_yields_no_recodings() {
        use ldiv_microdata::{Attribute, Schema, TableBuilder};
        let schema = Schema::new(vec![Attribute::new("q", 4)], Attribute::new("sa", 2)).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..4u16 {
            b.push_row(&[i], 0).unwrap(); // all same SA: not 2-eligible
        }
        let t = b.build();
        assert!(best_full_domain_recoding(&t, 2, 2).is_none());
    }
}
