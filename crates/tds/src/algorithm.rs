//! The TDS greedy specialization loop, privacy-gated by l-diversity.

use crate::taxonomy::{Cut, Taxonomy};
use ldiv_api::Recoding;
use ldiv_microdata::{Partition, RowId, Table};
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
    /// A taxonomy node needs at least two children.
    InvalidFanout(
        /// The rejected fanout.
        u32,
    ),
}

impl fmt::Display for TdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdsError::Infeasible(s) => write!(f, "TDS infeasible: {s}"),
            TdsError::InvalidL => write!(f, "l must be at least 1"),
            TdsError::InvalidFanout(fanout) => {
                write!(f, "taxonomy fanout must be at least 2, got {fanout}")
            }
        }
    }
}

impl std::error::Error for TdsError {}

impl From<TdsError> for ldiv_api::LdivError {
    fn from(e: TdsError) -> Self {
        match e {
            TdsError::InvalidL => ldiv_api::LdivError::InvalidL(0),
            fanout @ TdsError::InvalidFanout(_) => {
                ldiv_api::LdivError::InvalidParams(fanout.to_string())
            }
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
///
/// A group's split contribution on an attribute (its information-gain
/// term, its smallest child margin and its cut node) depends only on the
/// group's rows and its cut node there, and both change only when a
/// specialization splits the group. So each group is counted once per
/// attribute when it is created, and a round scores every candidate by
/// summing the cached contributions of its groups in ascending group id.
/// The first round costs O(n·d); each later round costs O(rows in the
/// groups it splits × d), plus O(groups × d) to score.
pub fn tds_anonymize(table: &Table, config: &TdsConfig) -> Result<TdsOutcome, TdsError> {
    if config.l == 0 {
        return Err(TdsError::InvalidL);
    }
    if config.fanout < 2 {
        return Err(TdsError::InvalidFanout(config.fanout));
    }
    table
        .check_l_feasible(config.l)
        .map_err(|e| TdsError::Infeasible(e.to_string()))?;

    let d = table.dimensionality();
    let taxonomies: Vec<Taxonomy> = (0..d)
        .map(|a| Taxonomy::balanced(table.schema().qi_attribute(a).domain_size(), config.fanout))
        .collect();
    let mut state = Specializer::new(table, &taxonomies);
    let mut specializations = Vec::new();
    while let Some((a, node)) = state.best(config) {
        specializations.push((a, node));
        state.specialize(a, node);
    }

    let cut = state.cut;
    let recoding = cut.to_recoding(&taxonomies);
    let cut_sizes = (0..d).map(|a| cut.nodes(a).len()).collect();
    let groups = state
        .groups
        .into_iter()
        .map(|g| g.rows)
        .filter(|rows| !rows.is_empty())
        .collect();
    Ok(TdsOutcome {
        recoding,
        groups,
        specializations,
        cut_sizes,
    })
}

/// One QI-group of the current cut.
struct Group {
    rows: Vec<RowId>,
    /// `|G|·H(G)`, the parent term of the group's information gain.
    entropy: f64,
    /// The group's privacy margin.
    margin: u32,
}

impl Group {
    fn new(rows: Vec<RowId>, hist: &[u32]) -> Self {
        let total = rows.len() as u32;
        Group {
            rows,
            entropy: total as f64 * entropy(hist, total),
            margin: margin(hist, total),
        }
    }
}

/// What specializing a group's cut node on one attribute contributes to
/// that candidate.
#[derive(Debug, Clone, Copy)]
struct Contribution {
    /// The group's cut node on the attribute; `None` when it is a leaf,
    /// which no specialization can split.
    node: Option<usize>,
    /// `|G|·H(G) − Σ_c |G_c|·H(G_c)` over the non-empty children `G_c`.
    gain: f64,
    /// The smallest privacy margin among the non-empty children.
    margin: u32,
}

impl Contribution {
    /// No split: the group's cut node is a leaf. Also the empty sum a
    /// candidate starts from.
    const NONE: Contribution = Contribution {
        node: None,
        gain: 0.0,
        margin: u32::MAX,
    };
}

/// The specialization state: the cut, its groups and every group's
/// cached contribution on every attribute.
struct Specializer<'t> {
    table: &'t Table,
    taxonomies: &'t [Taxonomy],
    /// SA domain size.
    m: usize,
    cut: Cut,
    /// `slot[a][v]`: which child of `v`'s cut node on `a` covers `v`.
    /// `u32`, so any node's children fit; unused while that cut node is
    /// a leaf.
    slot: Vec<Vec<u32>>,
    groups: Vec<Group>,
    /// `contributions[g * d + a]`.
    contributions: Vec<Contribution>,
    /// Dense `children × m` SA counters, sized for the widest node.
    counts: Vec<u32>,
}

impl<'t> Specializer<'t> {
    /// The fully generalized cut: one group holding every row.
    fn new(table: &'t Table, taxonomies: &'t [Taxonomy]) -> Self {
        let m = table.schema().sa_domain_size() as usize;
        let nodes = taxonomies.iter().flat_map(|t| t.nodes());
        let widest = nodes.map(|n| n.children.len()).max();
        let mut hist = vec![0u32; m];
        for &sa in table.sa_column() {
            hist[sa as usize] += 1;
        }
        let mut state = Specializer {
            table,
            taxonomies,
            m,
            cut: Cut::full(taxonomies),
            slot: taxonomies
                .iter()
                .map(|t| vec![0; t.domain_size() as usize])
                .collect(),
            groups: vec![Group::new((0..table.len() as RowId).collect(), &hist)],
            contributions: vec![Contribution::NONE; taxonomies.len()],
            counts: vec![0; widest.unwrap_or(0) * m],
        };
        for a in 0..taxonomies.len() {
            state.slot_children(a, 0);
        }
        state.recount(0);
        state
    }

    /// Points the values under cut node `node` of attribute `a` at the
    /// child that covers them.
    fn slot_children(&mut self, a: usize, node: usize) {
        let tax = &self.taxonomies[a];
        for (ci, &c) in tax.node(node).children.iter().enumerate() {
            let c = tax.node(c);
            self.slot[a][c.lo as usize..c.hi as usize].fill(ci as u32);
        }
    }

    /// Counts group `g` once per attribute and caches its contributions.
    fn recount(&mut self, g: usize) {
        let d = self.taxonomies.len();
        for a in 0..d {
            self.contributions[g * d + a] = self.contribution(g, a);
        }
    }

    /// Group `g`'s contribution on attribute `a`, counted into the dense
    /// buffer.
    fn contribution(&mut self, g: usize, a: usize) -> Contribution {
        let m = self.m;
        let group = &self.groups[g];
        let Some(&first) = group.rows.first() else {
            return Contribution::NONE; // the one group of an empty table
        };
        let node = self.cut.node_of(a, self.table.qi_value(first, a));
        let children = self.taxonomies[a].node(node).children.len();
        if children == 0 {
            return Contribution::NONE;
        }
        let counts = &mut self.counts[..children * m];
        counts.fill(0);
        for &row in &group.rows {
            let child = self.slot[a][self.table.qi_value(row, a) as usize] as usize;
            counts[child * m + self.table.sa_value(row) as usize] += 1;
        }
        let mut child_entropy_sum = 0.0;
        let mut min_margin = u32::MAX;
        for h in counts.chunks_exact(m) {
            let total: u32 = h.iter().sum();
            if total > 0 {
                min_margin = min_margin.min(margin(h, total));
                child_entropy_sum += total as f64 * entropy(h, total);
            }
        }
        Contribution {
            node: Some(node),
            gain: group.entropy - child_entropy_sum,
            margin: min_margin,
        }
    }

    /// The best valid specialization `(attribute, node)`, if any.
    fn best(&self, config: &TdsConfig) -> Option<(usize, usize)> {
        let d = self.taxonomies.len();
        // Global privacy margin before this round (for AnonyLoss).
        let margin_before = self.groups.iter().map(|g| g.margin).min();
        let margin_before = margin_before.unwrap_or(u32::MAX);
        let mut best: Option<(f64, usize, usize)> = None; // (score, attr, node)
        for a in 0..d {
            // Sum each candidate's contributions in ascending group id,
            // so a near-tie resolves the same way in every process.
            let mut sums = vec![Contribution::NONE; self.taxonomies[a].nodes().len()];
            for c in self.contributions.iter().skip(a).step_by(d) {
                let Some(node) = c.node else { continue };
                let sum = &mut sums[node];
                sum.node = c.node;
                sum.gain += c.gain;
                sum.margin = sum.margin.min(c.margin);
            }
            for &node in self.cut.nodes(a) {
                let sum = sums[node];
                if sum.node.is_none() || sum.margin < config.l {
                    continue; // no groups, or a child would break l-diversity
                }
                let anony_loss = margin_before.saturating_sub(sum.margin) as f64;
                let score = match config.score {
                    ScorePolicy::InfoGain => sum.gain,
                    ScorePolicy::InfoGainPerLoss => sum.gain / (anony_loss + 1.0),
                };
                let better = match best {
                    None => true,
                    Some((bs, ba, bn)) => score > bs || (score == bs && (a, node) < (ba, bn)),
                };
                if better {
                    best = Some((score, a, node));
                }
            }
        }
        best.map(|(_, a, node)| (a, node))
    }

    /// Applies a specialization: splits every group whose cut node on
    /// `a` is `node` by child, then recounts only the new groups. The
    /// first non-empty child keeps the group's id; the others are
    /// appended in child order.
    fn specialize(&mut self, a: usize, node: usize) {
        let (d, m) = (self.taxonomies.len(), self.m);
        let children = self.taxonomies[a].node(node).children.clone();
        let mut created = Vec::new();
        for g in 0..self.groups.len() {
            if self.contributions[g * d + a].node != Some(node) {
                continue;
            }
            let rows = std::mem::take(&mut self.groups[g].rows);
            let mut parts = vec![Vec::new(); children.len()];
            let counts = &mut self.counts[..children.len() * m];
            counts.fill(0);
            for row in rows {
                let child = self.slot[a][self.table.qi_value(row, a) as usize] as usize;
                counts[child * m + self.table.sa_value(row) as usize] += 1;
                parts[child].push(row);
            }
            let mut keep = Some(g);
            for (part, hist) in parts.into_iter().zip(counts.chunks_exact(m)) {
                if part.is_empty() {
                    continue;
                }
                let group = Group::new(part, hist);
                let id = match keep.take() {
                    Some(g) => {
                        self.groups[g] = group;
                        g
                    }
                    None => {
                        self.groups.push(group);
                        self.groups.len() - 1
                    }
                };
                created.push(id);
            }
        }
        self.cut.specialize(self.taxonomies, a, node);
        for &c in &children {
            self.slot_children(a, c);
        }
        self.contributions
            .resize(self.groups.len() * d, Contribution::NONE);
        for g in created {
            self.recount(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_metrics::kl_divergence_recoded;
    use ldiv_microdata::{samples, Attribute, Schema, TableBuilder};

    /// The output is an l-diverse cover whose groups are exactly the
    /// recoding's induced groups.
    fn assert_valid(t: &Table, out: &TdsOutcome, l: u32) {
        let p = out.partition();
        p.validate_cover(t).unwrap();
        assert!(p.is_l_diverse(t, l), "l = {l}");
        let mut induced = out.recoding.induced_groups(t);
        let mut got = p.groups().to_vec();
        induced.sort();
        got.sort();
        assert_eq!(induced, got);
    }

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
            assert_valid(&t, &out, l);
        }
    }

    #[test]
    fn a_node_wider_than_255_children_splits() {
        // One QI of 300 values whose four rows each carry distinct SA
        // values, so splitting the root into every value is valid.
        let schema = Schema::new(vec![Attribute::new("q", 300)], Attribute::new("s", 7)).unwrap();
        let mut builder = TableBuilder::new(schema);
        for i in 0..1_200u16 {
            let (v, k) = (i % 300, i / 300);
            builder.push_row(&[v], (v + k) % 7).unwrap();
        }
        let t = builder.build();
        for fanout in [256, 300] {
            let config = TdsConfig {
                l: 2,
                fanout,
                ..Default::default()
            };
            let out = tds_anonymize(&t, &config).unwrap();
            assert_eq!(out.specializations[0], (0, 0), "fanout {fanout}");
            assert_valid(&t, &out, 2);
        }
    }

    #[test]
    fn fanout_below_two_is_rejected() {
        let t = samples::hospital();
        for fanout in [0, 1] {
            let config = TdsConfig {
                fanout,
                ..Default::default()
            };
            let err = tds_anonymize(&t, &config).unwrap_err();
            assert_eq!(err, TdsError::InvalidFanout(fanout));
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
