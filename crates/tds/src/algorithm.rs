//! The TDS greedy specialization loop, privacy-gated by l-diversity.

use crate::taxonomy::{Cut, Taxonomy};
use ldiv_metrics::Recoding;
use ldiv_microdata::{Partition, RowId, Table, Value};
use std::collections::HashMap;
use std::fmt;

/// How candidate specializations are ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorePolicy {
    /// `InfoGain / (AnonyLoss + 1)` — the TDS paper's IGPL score.
    #[default]
    InfoGainPerLoss,
    /// Raw information gain (ablation variant).
    InfoGain,
}

/// TDS parameters.
#[derive(Debug, Clone, Copy)]
pub struct TdsConfig {
    /// Diversity requirement.
    pub l: u32,
    /// Fanout of the generated balanced taxonomies.
    pub fanout: u32,
    /// Candidate ranking.
    pub score: ScorePolicy,
}

impl Default for TdsConfig {
    fn default() -> Self {
        TdsConfig {
            l: 2,
            fanout: 2,
            score: ScorePolicy::default(),
        }
    }
}

/// TDS failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdsError {
    /// The table is not l-eligible — even the fully generalized table
    /// violates l-diversity, so no output exists.
    Infeasible(
        /// Human-readable diagnosis.
        String,
    ),
    /// `l` must be positive.
    InvalidL,
}

impl fmt::Display for TdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdsError::Infeasible(s) => write!(f, "TDS infeasible: {s}"),
            TdsError::InvalidL => write!(f, "l must be at least 1"),
        }
    }
}

impl std::error::Error for TdsError {}

impl From<TdsError> for ldiv_api::LdivError {
    fn from(e: TdsError) -> Self {
        match e {
            TdsError::InvalidL => ldiv_api::LdivError::InvalidL(0),
            infeasible => ldiv_api::LdivError::Algorithm(infeasible.to_string()),
        }
    }
}

/// Result of a TDS run.
#[derive(Debug, Clone)]
pub struct TdsOutcome {
    /// The final global recoding.
    pub recoding: Recoding,
    /// QI-groups induced by the recoding (all l-eligible).
    groups: Vec<Vec<RowId>>,
    /// Applied specializations in order, as `(attribute, taxonomy node)`.
    pub specializations: Vec<(usize, usize)>,
    /// Number of cut nodes per attribute at termination.
    pub cut_sizes: Vec<usize>,
}

impl TdsOutcome {
    /// The induced l-diverse partition.
    pub fn partition(&self) -> Partition {
        Partition::new_unchecked(self.groups.clone())
    }
}

/// Shannon entropy (nats) of a dense count vector.
fn entropy(counts: &[u32], total: u32) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Privacy margin of a group: the largest `l` it satisfies.
fn margin(counts: &[u32], total: u32) -> u32 {
    let h = counts.iter().copied().max().unwrap_or(0);
    total.checked_div(h).unwrap_or(u32::MAX)
}

/// Runs TDS on a table, generating balanced taxonomies for every QI
/// attribute.
pub fn tds_anonymize(table: &Table, config: &TdsConfig) -> Result<TdsOutcome, TdsError> {
    if config.l == 0 {
        return Err(TdsError::InvalidL);
    }
    table
        .check_l_feasible(config.l)
        .map_err(|e| TdsError::Infeasible(e.to_string()))?;

    let d = table.dimensionality();
    let m = table.schema().sa_domain_size() as usize;
    let taxonomies: Vec<Taxonomy> = (0..d)
        .map(|a| Taxonomy::balanced(table.schema().qi_attribute(a).domain_size(), config.fanout))
        .collect();
    let mut cut = Cut::full(&taxonomies);

    // Group bookkeeping: row → group, group → rows, group SA histograms.
    let mut group_of: Vec<u32> = vec![0; table.len()];
    let mut groups: Vec<Vec<RowId>> = vec![(0..table.len() as RowId).collect()];
    let mut histograms: Vec<Vec<u32>> = vec![{
        let mut h = vec![0u32; m];
        for sa in table.sa_column() {
            h[*sa as usize] += 1;
        }
        h
    }];

    let mut specializations = Vec::new();

    loop {
        // Global privacy margin before this round (for AnonyLoss).
        let margin_before = groups
            .iter()
            .enumerate()
            .map(|(g, rows)| margin(&histograms[g], rows.len() as u32))
            .min()
            .unwrap_or(u32::MAX);

        // --- Evaluate every candidate (attr, cut node) in d passes. ------
        // Rows of one group share their attr-a cut node, so a single pass
        // per attribute accumulates, for every candidate node at once, the
        // per-(group, child) SA histograms of the hypothetical split.
        let mut best: Option<(f64, usize, usize)> = None; // (score, attr, node)
        let mut best_split: Option<HashMap<(u32, u8), Vec<u32>>> = None;

        for a in 0..d {
            // Map each domain value to its child slot under the current
            // cut node (255 = the cut node is a leaf; not specializable).
            let tax = &taxonomies[a];
            let domain = tax.domain_size();
            let mut slot = vec![255u8; domain as usize];
            for &nid in cut.nodes(a) {
                for (ci, &c) in tax.node(nid).children.iter().enumerate() {
                    let n = tax.node(c);
                    for v in n.lo..n.hi {
                        slot[v as usize] = ci as u8;
                    }
                }
            }

            // Accumulate per (group, child) histograms.
            let mut stats: HashMap<(u32, u8), Vec<u32>> = HashMap::new();
            for (row, qi, sa) in table.rows() {
                let s = slot[qi[a] as usize];
                if s == 255 {
                    continue;
                }
                let key = (group_of[row as usize], s);
                stats.entry(key).or_insert_with(|| vec![0u32; m])[sa as usize] += 1;
            }
            if stats.is_empty() {
                continue; // every cut node on this attribute is a leaf
            }

            // Bucket the stats by candidate node: a group's candidate is
            // the cut node over its rows' attr-a values. `stats` iterates
            // in hash order, so sort each node's groups: the information
            // gain below is summed in ascending group id, the same in
            // every process.
            let mut groups_of_node: HashMap<usize, Vec<u32>> = HashMap::new();
            for &(g, _) in stats.keys() {
                let first_row = groups[g as usize][0];
                let node = cut.node_of(a, table.qi_value(first_row, a));
                groups_of_node.entry(node).or_default().push(g);
            }
            for gs in groups_of_node.values_mut() {
                gs.sort_unstable();
                gs.dedup();
            }

            for (&node, gs) in &groups_of_node {
                let children = taxonomies[a].node(node).children.len();
                let mut valid = true;
                let mut info_gain = 0.0;
                let mut min_child_margin = u32::MAX;
                for &g in gs {
                    let parent_hist = &histograms[g as usize];
                    let parent_total = groups[g as usize].len() as u32;
                    let mut child_entropy_sum = 0.0;
                    for ci in 0..children {
                        if let Some(h) = stats.get(&(g, ci as u8)) {
                            let total: u32 = h.iter().sum();
                            let mg = margin(h, total);
                            if mg < config.l {
                                valid = false;
                                break;
                            }
                            min_child_margin = min_child_margin.min(mg);
                            child_entropy_sum += total as f64 * entropy(h, total);
                        }
                    }
                    if !valid {
                        break;
                    }
                    info_gain += parent_total as f64 * entropy(parent_hist, parent_total)
                        - child_entropy_sum;
                }
                if !valid {
                    continue;
                }
                let anony_loss = margin_before.saturating_sub(min_child_margin) as f64;
                let score = match config.score {
                    ScorePolicy::InfoGain => info_gain,
                    ScorePolicy::InfoGainPerLoss => info_gain / (anony_loss + 1.0),
                };
                let better = match best {
                    None => true,
                    Some((bs, ba, bn)) => score > bs || (score == bs && (a, node) < (ba, bn)),
                };
                if better {
                    best = Some((score, a, node));
                    // Keep only the slices of stats relevant to this
                    // candidate's groups to apply the split later.
                    let keep: HashMap<(u32, u8), Vec<u32>> = stats
                        .iter()
                        .filter(|((g, _), _)| gs.contains(g))
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    best_split = Some(keep);
                }
            }
        }

        let Some((_, a, node)) = best else {
            break; // no valid specialization remains
        };
        let split = best_split.expect("split recorded with best");
        specializations.push((a, node));

        // --- Apply: re-map each affected group's rows by child slot. -----
        let tax = &taxonomies[a];
        let children: Vec<usize> = tax.node(node).children.clone();
        let mut child_slot_of_value = vec![255u8; tax.domain_size() as usize];
        for (ci, &c) in children.iter().enumerate() {
            let n = tax.node(c);
            for v in n.lo..n.hi {
                child_slot_of_value[v as usize] = ci as u8;
            }
        }
        let affected: Vec<u32> = {
            let mut gs: Vec<u32> = split.keys().map(|&(g, _)| g).collect();
            gs.sort_unstable();
            gs.dedup();
            gs
        };
        for g in affected {
            let rows = std::mem::take(&mut groups[g as usize]);
            let mut per_child: HashMap<u8, Vec<RowId>> = HashMap::new();
            for r in rows {
                let s = child_slot_of_value[table.qi_value(r, a) as usize];
                per_child.entry(s).or_default().push(r);
            }
            let mut slots: Vec<u8> = per_child.keys().copied().collect();
            slots.sort_unstable();
            let mut first = true;
            for s in slots {
                let rows = per_child.remove(&s).expect("slot present");
                let hist = split
                    .get(&(g, s))
                    .cloned()
                    .expect("stats cover every occupied child");
                let target = if first {
                    first = false;
                    g as usize
                } else {
                    groups.push(Vec::new());
                    histograms.push(Vec::new());
                    groups.len() - 1
                };
                for &r in &rows {
                    group_of[r as usize] = target as u32;
                }
                groups[target] = rows;
                histograms[target] = hist;
            }
        }
        cut.specialize(&taxonomies, a, node);
    }

    let recoding = cut.to_recoding(&taxonomies);
    let cut_sizes = (0..d).map(|a| cut.nodes(a).len()).collect();
    groups.retain(|g| !g.is_empty());
    Ok(TdsOutcome {
        recoding,
        groups,
        specializations,
        cut_sizes,
    })
}

// `Value` appears in the public docs of the taxonomy module; keep the
// import referenced.
#[allow(unused)]
fn _value_witness(v: Value) -> u16 {
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_metrics::kl_divergence_recoded;
    use ldiv_microdata::samples;

    #[test]
    fn hospital_output_is_l_diverse() {
        let t = samples::hospital();
        for l in [1u32, 2] {
            let out = tds_anonymize(
                &t,
                &TdsConfig {
                    l,
                    ..Default::default()
                },
            )
            .unwrap();
            let p = out.partition();
            p.validate_cover(&t).unwrap();
            assert!(p.is_l_diverse(&t, l), "l = {l}");
            // Output groups must agree with the recoding's induced groups.
            let mut induced = out.recoding.induced_groups(&t);
            let mut got = out.partition().groups().to_vec();
            induced.sort();
            got.sort();
            assert_eq!(induced, got);
        }
    }

    #[test]
    fn infeasible_l_is_rejected() {
        let t = samples::hospital();
        assert!(matches!(
            tds_anonymize(
                &t,
                &TdsConfig {
                    l: 3,
                    ..Default::default()
                }
            ),
            Err(TdsError::Infeasible(_))
        ));
        assert!(matches!(
            tds_anonymize(
                &t,
                &TdsConfig {
                    l: 0,
                    ..Default::default()
                }
            ),
            Err(TdsError::InvalidL)
        ));
    }

    #[test]
    fn l_one_specializes_to_leaves() {
        // With no privacy pressure every specialization is valid, so the
        // final cut is all leaves and KL is zero.
        let t = samples::hospital();
        let out = tds_anonymize(
            &t,
            &TdsConfig {
                l: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let kl = kl_divergence_recoded(&t, &out.recoding);
        assert!(kl.abs() < 1e-12, "kl = {kl}");
        assert_eq!(out.cut_sizes, vec![3, 2, 3]);
    }

    #[test]
    fn stricter_l_never_reduces_kl() {
        let t = sal(&AcsConfig {
            rows: 4_000,
            seed: 21,
        })
        .project(&[0, 1, 5])
        .unwrap();
        let mut last = -1.0;
        for l in [2u32, 4, 8] {
            let out = tds_anonymize(
                &t,
                &TdsConfig {
                    l,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(out.partition().is_l_diverse(&t, l));
            let kl = kl_divergence_recoded(&t, &out.recoding);
            assert!(
                kl + 1e-9 >= last,
                "KL decreased from {last} to {kl} at l = {l}"
            );
            last = kl;
        }
    }

    #[test]
    fn score_policies_both_terminate_validly() {
        let t = sal(&AcsConfig {
            rows: 2_000,
            seed: 22,
        })
        .project(&[0, 5])
        .unwrap();
        for score in [ScorePolicy::InfoGain, ScorePolicy::InfoGainPerLoss] {
            let out = tds_anonymize(
                &t,
                &TdsConfig {
                    l: 4,
                    fanout: 2,
                    score,
                },
            )
            .unwrap();
            assert!(out.partition().is_l_diverse(&t, 4));
            assert!(!out.specializations.is_empty());
        }
    }

    #[test]
    fn deterministic() {
        let t = sal(&AcsConfig {
            rows: 1_500,
            seed: 23,
        })
        .project(&[0, 2, 5])
        .unwrap();
        let a = tds_anonymize(
            &t,
            &TdsConfig {
                l: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let b = tds_anonymize(
            &t,
            &TdsConfig {
                l: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.specializations, b.specializations);
        assert_eq!(a.recoding, b.recoding);
    }
}
