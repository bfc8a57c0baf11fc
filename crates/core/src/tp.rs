//! The three-phase tuple-minimization algorithm (paper §5.1–§5.5).

use crate::candidates::{Candidate, CandidateList};
use crate::group::Group;
use crate::residue::ResidueSet;
use ldiv_api::LdivError;
use ldiv_microdata::{Partition, RowId, Table};
use serde::{Deserialize, Serialize};

/// The phase in which the algorithm terminated.
///
/// Termination phase determines the quality guarantee: phase one is optimal
/// (Corollary 1), phase two is within an additive `l − 1` (Corollary 3),
/// phase three is an `l`-approximation (Theorem 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Terminated after phase one — the residue was already l-eligible.
    One,
    /// Terminated during phase two.
    Two,
    /// Terminated during phase three.
    Three,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::One => write!(f, "one"),
            Phase::Two => write!(f, "two"),
            Phase::Three => write!(f, "three"),
        }
    }
}

/// Counters describing the work done by the internal data structures,
/// reported for the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureCounters {
    /// Candidate-list entries popped stale and discarded.
    pub stale_candidate_pops: u64,
    /// Candidate-list entries re-bucketed rightward.
    pub candidate_moves: u64,
    /// Greedy SET-COVER group scans performed in phase 3.
    pub cover_scans: u64,
}

/// Execution statistics and quality certificates of one TP run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TpStats {
    /// The diversity parameter.
    pub l: u32,
    /// Phase in which the run terminated.
    pub termination_phase: Phase,
    /// Tuples moved to the residue in each phase.
    pub phase_removed: [usize; 3],
    /// Number of phase-3 rounds executed (0 unless phase 3 ran).
    pub phase3_rounds: usize,
    /// QI-groups at the start (the paper's `s`).
    pub initial_groups: usize,
    /// Non-empty groups surviving in the final partition.
    pub surviving_groups: usize,
    /// `h(Ṙ)`: residue pillar height at the end of phase one.
    pub residue_pillar_after_p1: usize,
    /// `h(R̈)`: residue pillar height at the end of phase two (equals
    /// `h(Ṙ)` by Lemma 5 whenever phase two ran to completion or
    /// terminated the algorithm).
    pub residue_pillar_after_p2: usize,
    /// Data-structure work counters.
    pub counters: StructureCounters,
}

impl TpStats {
    /// Total tuples suppressed.
    pub fn removed_total(&self) -> usize {
        self.phase_removed.iter().sum()
    }

    /// Corollary 2 (plus the Lemma 4 argument): a certified lower bound on
    /// the optimal number of suppressed tuples,
    /// `OPT ≥ max(|Ṙ|, l · h(Ṙ))`.
    pub fn optimal_lower_bound(&self) -> usize {
        let after_p1 = self.phase_removed[0];
        after_p1.max(self.l as usize * self.residue_pillar_after_p1)
    }

    /// A certified upper bound on this run's approximation ratio for tuple
    /// minimization: `|R| / lower_bound`, or 1.0 when nothing was removed.
    pub fn certified_ratio(&self) -> f64 {
        let lb = self.optimal_lower_bound();
        if lb == 0 {
            1.0
        } else {
            self.removed_total() as f64 / lb as f64
        }
    }
}

/// Result of a TP run.
#[derive(Debug, Clone)]
pub struct TpOutcome {
    /// The surviving QI-groups. Every group is l-eligible and uniform on
    /// all QI attributes (hence publishes star-free). Does *not* include
    /// the residue.
    pub partition: Partition,
    /// The suppressed tuples `R`, l-eligible on return.
    pub residue: Vec<RowId>,
    /// Statistics and certificates.
    pub stats: TpStats,
}

impl TpOutcome {
    /// The complete l-diverse partition: surviving groups plus (when
    /// non-empty) the residue as a single fully-suppressed group — the
    /// plain "TP" publication of the paper.
    pub fn full_partition(&self) -> Partition {
        let mut p = self.partition.clone();
        if !self.residue.is_empty() {
            p.push_group(self.residue.clone());
        }
        p
    }
}

/// Runs the three-phase algorithm on a table, bucketing rows by identical
/// QI vectors first (§5.1).
///
/// Fails when no l-diverse generalization exists (the table itself is not
/// l-eligible) or `l = 0`.
pub fn tuple_minimize(table: &Table, l: u32) -> Result<TpOutcome, LdivError> {
    tuple_minimize_groups(table, table.group_by_qi(), l)
}

/// Runs the three-phase algorithm from caller-supplied initial QI-groups.
///
/// This entry point supports the §5.6 preprocessing workflow: rows may have
/// been coarsened by a single-dimensional recoding first, in which case the
/// groups are buckets of the *recoded* vectors. Groups must be disjoint and
/// cover the table.
pub fn tuple_minimize_groups(
    table: &Table,
    initial_groups: Vec<Vec<RowId>>,
    l: u32,
) -> Result<TpOutcome, LdivError> {
    if l == 0 {
        return Err(LdivError::InvalidL(l));
    }
    table.check_l_feasible(l)?;

    let sa_domain = table.schema().sa_domain_size();
    let mut residue = ResidueSet::new(sa_domain);
    let mut stats = TpStats {
        l,
        termination_phase: Phase::One,
        phase_removed: [0; 3],
        phase3_rounds: 0,
        initial_groups: initial_groups.len(),
        surviving_groups: 0,
        residue_pillar_after_p1: 0,
        residue_pillar_after_p2: 0,
        counters: StructureCounters::default(),
    };

    // ---- Phase one (§5.2) ------------------------------------------------
    let (mut groups, moved) = phase_one(table, &initial_groups, &mut residue, l);
    stats.phase_removed[0] = moved;
    stats.residue_pillar_after_p1 = residue.pillar_height() as usize;

    if residue.is_l_eligible(l) {
        stats.termination_phase = Phase::One;
        stats.residue_pillar_after_p2 = stats.residue_pillar_after_p1;
        return Ok(finish(table, groups, residue, stats));
    }

    // ---- Phase two (§5.3) ------------------------------------------------
    let done = phase_two(&mut groups, &mut residue, l, &mut stats);
    stats.residue_pillar_after_p2 = residue.pillar_height() as usize;
    debug_assert_eq!(
        stats.residue_pillar_after_p2, stats.residue_pillar_after_p1,
        "Lemma 5: h(R) must not change during phase two"
    );
    if done {
        stats.termination_phase = Phase::Two;
        return Ok(finish(table, groups, residue, stats));
    }

    // ---- Phase three (§5.4) ----------------------------------------------
    phase_three(&mut groups, &mut residue, l, &mut stats)?;
    stats.termination_phase = Phase::Three;
    Ok(finish(table, groups, residue, stats))
}

fn finish(table: &Table, groups: Vec<Group>, residue: ResidueSet, mut stats: TpStats) -> TpOutcome {
    let mut surviving = Vec::new();
    for g in &groups {
        if !g.is_empty() {
            let mut rows = g.remaining_rows();
            rows.sort_unstable();
            surviving.push(rows);
        }
    }
    stats.surviving_groups = surviving.len();
    debug_assert!(residue.is_l_eligible(stats.l));
    debug_assert!(groups
        .iter()
        .all(|g| { g.size() as u64 >= stats.l as u64 * g.pillar_height() as u64 }));
    let _ = table; // reserved for future debug validation against the table
    TpOutcome {
        partition: Partition::new_unchecked(surviving),
        residue: residue.into_rows(),
        stats,
    }
}

/// Phase one: builds each QI-group and drains its pillars until it is
/// l-eligible, one group at a time in input order. Returns the groups
/// left non-empty and the number of tuples moved to the residue.
///
/// A group smaller than `l` can only become l-eligible by emptying out
/// entirely (`h ≥ 1` forces `|Q| ≥ l`), so it drains at once; a one-row
/// group under `l ≥ 2` sends its row straight to the residue without
/// building a [`Group`]. Emptied groups are dropped: they are dead, so
/// phases two and three never act on them, and the candidate order of
/// phase two depends only on the order of insertion.
fn phase_one(
    table: &Table,
    initial_groups: &[Vec<RowId>],
    residue: &mut ResidueSet,
    l: u32,
) -> (Vec<Group>, usize) {
    let mut groups = Vec::new();
    let mut moved = 0;
    for rows in initial_groups {
        if let [row] = rows[..] {
            if l >= 2 {
                residue.push(row, table.sa_value(row));
                moved += 1;
                continue;
            }
        }
        let mut g = Group::from_rows(rows.iter().map(|&r| (r, table.sa_value(r))));
        if (g.size() as u64) < l as u64 {
            moved += g.drain_into(residue);
            continue;
        }
        while !g.is_l_eligible(l) {
            // Remove one tuple from a pillar; ties broken by lowest SA value
            // (the end state is unique regardless, per §5.2).
            let p = *g
                .pillars()
                .first()
                .expect("non-eligible group has a pillar");
            let row = g.remove_one(p);
            residue.push(row, p);
            moved += 1;
        }
        if !g.is_empty() {
            groups.push(g);
        }
    }
    (groups, moved)
}

/// Phase two: grow `|R|` without growing `h(R)`.
/// Returns true when the residue became l-eligible (algorithm done).
fn phase_two(groups: &mut [Group], residue: &mut ResidueSet, l: u32, stats: &mut TpStats) -> bool {
    // Build the candidate list: one entry per (alive group, present value).
    let mut candidates = CandidateList::new();
    for (gid, g) in groups.iter().enumerate() {
        if g.is_dead(l, residue) {
            continue;
        }
        for &v in g.present_values() {
            candidates.insert(
                residue.count(v) as usize,
                Candidate {
                    gid: gid as u32,
                    sa: v,
                },
            );
        }
    }

    while let Some((key, cand)) = candidates.pop_min() {
        let g = &mut groups[cand.gid as usize];
        // Lazy revalidation: dead groups and vanished values are discarded
        // (both conditions are permanent within phase two); entries whose
        // h(R, v) advanced move rightward.
        if g.is_dead(l, residue) || g.count(cand.sa) == 0 {
            stats.counters.stale_candidate_pops += 1;
            continue;
        }
        let true_key = residue.count(cand.sa) as usize;
        if true_key != key {
            stats.counters.stale_candidate_pops += 1;
            candidates.reinsert(true_key, cand);
            continue;
        }

        // Lemma 5's invariant: the least frequent alive value is never a
        // pillar of R, so h(R) cannot grow.
        debug_assert!(
            residue.pillar_height() == 0 || residue.count(cand.sa) < residue.pillar_height(),
            "phase two picked a pillar of R"
        );

        if g.is_fat(l) {
            let row = g.remove_one(cand.sa);
            residue.push(row, cand.sa);
            stats.phase_removed[1] += 1;
        } else {
            // Alive and thin ⇒ non-conflicting: shed one tuple per pillar.
            stats.phase_removed[1] += g.remove_one_per_pillar(residue);
        }

        // The pair may still be actionable later.
        if !g.is_dead(l, residue) && g.count(cand.sa) > 0 {
            candidates.insert(residue.count(cand.sa) as usize, cand);
        }

        if residue.is_l_eligible(l) {
            stats.counters.candidate_moves = candidates.moves;
            return true;
        }
    }
    stats.counters.candidate_moves = candidates.moves;
    false
}

/// Phase three: rounds of greedy SET-COVER plus a re-kill sweep.
fn phase_three(
    groups: &mut [Group],
    residue: &mut ResidueSet,
    l: u32,
    stats: &mut TpStats,
) -> Result<(), LdivError> {
    // Lemma 9 bounds rounds by h(R̈); counts only grow, so 2·n is a
    // generous safety net that only a logic bug could exceed.
    let safety_limit =
        2 * (residue.len() + groups.iter().map(|g| g.size() as usize).sum::<usize>()).max(4);

    while !residue.is_l_eligible(l) {
        stats.phase3_rounds += 1;
        if stats.phase3_rounds > safety_limit {
            return Err(LdivError::Internal(
                "phase three failed to converge (round limit exceeded)".into(),
            ));
        }

        // --- Step 1: greedy SET-COVER over the pillars of R. -------------
        // A pillar p is "covered" by group Q when p is NOT a conflicting
        // pillar of Q (removing Q's pillars then leaves h(R, p) behind at
        // least one other increment — the Lemma 8 accounting).
        let mut uncovered = residue.pillars();
        let mut picked: Vec<usize> = Vec::new();
        let mut is_picked = vec![false; groups.len()];
        while !uncovered.is_empty() {
            let mut best: Option<(usize, Vec<u16>)> = None; // (gid, C(Q) ∩ P)
            for (gid, g) in groups.iter().enumerate() {
                if g.is_empty() || is_picked[gid] {
                    continue;
                }
                stats.counters.cover_scans += 1;
                let cq = g.conflicting_pillars(residue);
                let overlap: Vec<u16> = uncovered
                    .iter()
                    .copied()
                    .filter(|p| cq.binary_search(p).is_ok())
                    .collect();
                let better = match &best {
                    None => true,
                    Some((_, b)) => overlap.len() < b.len(),
                };
                if better {
                    let done = overlap.is_empty();
                    best = Some((gid, overlap));
                    if done {
                        break; // cannot do better than covering everything
                    }
                }
            }
            let (gid, overlap) = best.ok_or_else(|| {
                LdivError::Internal("phase three: no group available for SET-COVER".into())
            })?;
            if overlap.len() == uncovered.len() {
                // No progress would violate Lemma 7 — possible only if the
                // input was not l-eligible, which we pre-checked.
                return Err(LdivError::Internal(
                    "phase three: greedy cover made no progress (Lemma 7 violated)".into(),
                ));
            }
            picked.push(gid);
            is_picked[gid] = true;
            uncovered = overlap;
        }

        for gid in picked {
            stats.phase_removed[2] += groups[gid].remove_one_per_pillar(residue);
            if residue.is_l_eligible(l) {
                return Ok(());
            }
        }

        // --- Step 2: re-kill every revived group. -------------------------
        for g in groups.iter_mut() {
            while !g.is_dead(l, residue) {
                if g.is_fat(l) {
                    let v = g.non_residue_pillar_value(residue).ok_or_else(|| {
                        LdivError::Internal(
                            "fat group has only R-pillar values while R is ineligible".into(),
                        )
                    })?;
                    let row = g.remove_one(v);
                    residue.push(row, v);
                    stats.phase_removed[2] += 1;
                } else if g.is_conflicting(residue) {
                    break; // thin + conflicting = dead
                } else {
                    stats.phase_removed[2] += g.remove_one_per_pillar(residue);
                }
                if residue.is_l_eligible(l) {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, Attribute, SaHistogram, Schema, TableBuilder, Value};
    use proptest::prelude::*;

    /// Builds a table where each slice of SA values is one QI-group (each
    /// group gets a distinct single QI value).
    fn table_from_groups(sa_domain: u32, groups: &[&[Value]]) -> Table {
        let schema = Schema::new(
            vec![Attribute::new("g", groups.len().max(1) as u32)],
            Attribute::new("sa", sa_domain),
        )
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (gi, sas) in groups.iter().enumerate() {
            for &sa in *sas {
                b.push_row(&[gi as Value], sa).unwrap();
            }
        }
        b.build()
    }

    /// Multiset-vector notation from the paper: (3,1,1,2,3) = SA 0 ×3, … .
    fn vecspec(counts: &[u32]) -> Vec<Value> {
        let mut out = Vec::new();
        for (v, &c) in counts.iter().enumerate() {
            out.extend(std::iter::repeat_n(v as Value, c as usize));
        }
        out
    }

    /// Exhaustive optimal tuple minimization for tiny inputs: choose a
    /// subset of rows to remove such that every group remainder and the
    /// removed set are l-eligible; minimize the subset size.
    fn brute_force_opt(table: &Table, l: u32) -> usize {
        let n = table.len();
        assert!(n <= 16, "brute force limited to small tables");
        let groups = table.group_by_qi();
        let sa_domain = table.schema().sa_domain_size();
        let mut best = usize::MAX;
        for mask in 0u32..(1 << n) {
            let removed: Vec<u32> = (0..n as u32).filter(|&r| mask >> r & 1 == 1).collect();
            let r_hist =
                SaHistogram::from_values(sa_domain, removed.iter().map(|&r| table.sa_value(r)));
            if !r_hist.is_l_eligible(l) {
                continue;
            }
            let ok = groups.iter().all(|g| {
                let kept = g.iter().copied().filter(|&r| mask >> r & 1 == 0);
                SaHistogram::from_values(sa_domain, kept.map(|r| table.sa_value(r)))
                    .is_l_eligible(l)
            });
            if ok {
                best = best.min(removed.len());
            }
        }
        best
    }

    fn assert_valid_outcome(table: &Table, out: &TpOutcome, l: u32) {
        // Partition + residue cover the table exactly and are l-diverse.
        let full = out.full_partition();
        full.validate_cover(table).unwrap();
        assert!(full.is_l_diverse(table, l));
        // Residue itself is l-eligible.
        let hist = SaHistogram::from_values(
            table.schema().sa_domain_size(),
            out.residue.iter().map(|&r| table.sa_value(r)),
        );
        assert!(hist.is_l_eligible(l));
        // Surviving groups publish star-free (uniform QI by construction).
        let published = table.generalize(&out.partition);
        assert_eq!(published.star_count(), 0);
        // Stats agree with the outcome.
        assert_eq!(out.stats.removed_total(), out.residue.len());
    }

    #[test]
    fn rejects_l_zero_and_infeasible() {
        let t = samples::hospital();
        assert!(matches!(tuple_minimize(&t, 0), Err(LdivError::InvalidL(0))));
        assert!(matches!(
            tuple_minimize(&t, 3),
            Err(LdivError::Infeasible(_))
        ));
    }

    #[test]
    fn paper_section_5_2_walkthrough() {
        // Hospital data, l = 2: first three QI-groups fully eliminated,
        // R = {HIV, HIV, pneumonia, bronchitis} already 2-eligible.
        let t = samples::hospital();
        let out = tuple_minimize(&t, 2).unwrap();
        assert_eq!(out.stats.termination_phase, Phase::One);
        assert_eq!(out.residue.len(), 4);
        let mut residue_sa: Vec<Value> = out.residue.iter().map(|&r| t.sa_value(r)).collect();
        residue_sa.sort_unstable();
        assert_eq!(
            residue_sa,
            vec![
                samples::DIS_HIV,
                samples::DIS_HIV,
                samples::DIS_PNEUMONIA,
                samples::DIS_BRONCHITIS
            ]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|v| {
                // HIV appears twice; rebuild the expected sorted multiset.
                let times = if v == samples::DIS_HIV { 2 } else { 1 };
                std::iter::repeat_n(v, times)
            })
            .collect::<Vec<_>>()
        );
        // The two surviving groups are {4,5,6,7} and {8,9}.
        assert_eq!(out.stats.surviving_groups, 2);
        assert_valid_outcome(&t, &out, 2);
        // Phase-one termination certifies optimality.
        assert_eq!(out.residue.len(), brute_force_opt(&t, 2));
    }

    #[test]
    fn paper_section_5_3_example_terminates_phase_two() {
        // m = 5, s = 3, l = 3, Q1 = (3,1,1,2,3), Q2 = (0,2,2,4,4),
        // Q3 = (4,4,0,0,0).
        let q1 = vecspec(&[3, 1, 1, 2, 3]);
        let q2 = vecspec(&[0, 2, 2, 4, 4]);
        let q3 = vecspec(&[4, 4, 0, 0, 0]);
        let t = table_from_groups(5, &[&q1, &q2, &q3]);
        let out = tuple_minimize(&t, 3).unwrap();
        assert_eq!(out.stats.termination_phase, Phase::Two);
        // Phase one drains Q3 entirely: Ṙ = (4,4,0,0,0), h(Ṙ) = 4.
        assert_eq!(out.stats.phase_removed[0], 8);
        assert_eq!(out.stats.residue_pillar_after_p1, 4);
        // Lemma 5: h unchanged; Lemma 6: |R̈| ≤ l·h(Ṙ) + l − 1 = 14.
        assert_eq!(out.stats.residue_pillar_after_p2, 4);
        assert!(out.residue.len() >= 12 && out.residue.len() <= 14);
        assert_valid_outcome(&t, &out, 3);
    }

    #[test]
    fn theorem_2_l_equals_2_never_reaches_phase_three() {
        // Exercise many adversarial l = 2 inputs; Theorem 2 guarantees
        // termination by phase two with |R| ≤ OPT + 1.
        let specs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![2, 0, 1], vec![0, 2, 1]],
            vec![vec![3, 1], vec![1, 3]],
            vec![vec![2, 2], vec![2, 0, 0, 2]],
            vec![vec![1, 1, 1], vec![3, 0, 1], vec![0, 1, 0]],
        ];
        for spec in specs {
            let groups: Vec<Vec<Value>> = spec.iter().map(|c| vecspec(c)).collect();
            let refs: Vec<&[Value]> = groups.iter().map(|g| g.as_slice()).collect();
            let t = table_from_groups(4, &refs);
            if t.check_l_feasible(2).is_err() {
                continue;
            }
            let out = tuple_minimize(&t, 2).unwrap();
            assert!(out.stats.termination_phase <= Phase::Two, "spec {spec:?}");
            if t.len() <= 14 {
                let opt = brute_force_opt(&t, 2);
                assert!(out.residue.len() <= opt + 1, "spec {spec:?}");
            }
            assert_valid_outcome(&t, &out, 2);
        }
    }

    #[test]
    fn phase_three_is_reachable_and_correct() {
        // The §5.4 shape: two thin conflicting groups. Build a raw table
        // that funnels into that state: Q1 = (3,1,2,3,3), Q2 = (1,3,2,3,3),
        // plus a third group that phase one fully drains to R = (4,4,4,0,0).
        let q1 = vecspec(&[3, 1, 2, 3, 3]);
        let q2 = vecspec(&[1, 3, 2, 3, 3]);
        let q3 = vecspec(&[4, 4, 4, 0, 0]);
        let t = table_from_groups(5, &[&q1, &q2, &q3]);
        let out = tuple_minimize(&t, 4).unwrap();
        assert_valid_outcome(&t, &out, 4);
        // Whatever phase it ended in, the l-approximation must hold
        // against the certified lower bound.
        assert!(out.residue.len() <= 4 * out.stats.optimal_lower_bound().max(1));
    }

    #[test]
    fn already_diverse_table_removes_nothing() {
        let t = table_from_groups(4, &[&[0, 1, 2, 3], &[0, 1, 2, 3]]);
        let out = tuple_minimize(&t, 4).unwrap();
        assert_eq!(out.residue.len(), 0);
        assert_eq!(out.stats.termination_phase, Phase::One);
        assert_eq!(out.stats.certified_ratio(), 1.0);
        assert_valid_outcome(&t, &out, 4);
    }

    #[test]
    fn custom_initial_groups_are_respected() {
        // Same rows, but caller merges everything into one group: nothing
        // needs removing for l = 2.
        let t = table_from_groups(4, &[&[0, 0], &[1, 1]]);
        let all: Vec<RowId> = (0..4).collect();
        let out = tuple_minimize_groups(&t, vec![all], 2).unwrap();
        assert_eq!(out.residue.len(), 0);
        assert_eq!(out.partition.group_count(), 1);
    }

    #[test]
    fn stats_lower_bound_is_sound() {
        for (spec, l) in [
            (vec![vec![2u32, 1, 0], vec![0, 2, 1]], 2u32),
            (
                vec![
                    vec![3, 1, 1, 2, 3],
                    vec![0, 2, 2, 4, 4],
                    vec![4, 4, 0, 0, 0],
                ],
                3,
            ),
        ] {
            let groups: Vec<Vec<Value>> = spec.iter().map(|c| vecspec(c)).collect();
            let refs: Vec<&[Value]> = groups.iter().map(|g| g.as_slice()).collect();
            let t = table_from_groups(5, &refs);
            if t.check_l_feasible(l).is_err() || t.len() > 16 {
                continue;
            }
            let out = tuple_minimize(&t, l).unwrap();
            let opt = brute_force_opt(&t, l);
            assert!(
                out.stats.optimal_lower_bound() <= opt,
                "lower bound {} exceeds OPT {opt}",
                out.stats.optimal_lower_bound()
            );
            assert!(out.residue.len() >= opt);
        }
    }

    /// A seeded stress sweep over a family that reliably reaches phase
    /// three (few QI values, skewed SA multiset): every outcome must be a
    /// valid l-diverse publication meeting the phase-specific bound, and
    /// the sweep must actually witness phase-three terminations.
    #[test]
    fn phase_three_stress_sweep() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        let l = 3u32;
        let mut phase_counts = [0usize; 3];
        for _ in 0..1500 {
            let n = rng.gen_range(8..16usize);
            let schema = Schema::new(vec![Attribute::new("q", 3)], Attribute::new("s", 5)).unwrap();
            let mut b = TableBuilder::new(schema);
            for _ in 0..n {
                // Skewed SA: the product trick concentrates mass on 0.
                let sa = (rng.gen_range(0..5u16) * rng.gen_range(0..5u16)) % 5;
                b.push_row(&[rng.gen_range(0..3u16)], sa).unwrap();
            }
            let t = b.build();
            if t.check_l_feasible(l).is_err() {
                continue;
            }
            let out = tuple_minimize(&t, l).unwrap();
            assert_valid_outcome(&t, &out, l);
            let opt = brute_force_opt(&t, l);
            match out.stats.termination_phase {
                Phase::One => {
                    phase_counts[0] += 1;
                    assert_eq!(out.residue.len(), opt);
                }
                Phase::Two => {
                    phase_counts[1] += 1;
                    assert!(out.residue.len() < opt + l as usize);
                }
                Phase::Three => {
                    phase_counts[2] += 1;
                    assert!(out.residue.len() <= l as usize * opt);
                    assert!(out.stats.phase3_rounds >= 1);
                }
            }
        }
        assert!(
            phase_counts[2] >= 3,
            "sweep must witness phase three (got {phase_counts:?})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// End-to-end validity + approximation guarantees on random tables
        /// small enough to brute-force.
        #[test]
        fn random_tables_meet_guarantees(
            sa in proptest::collection::vec(0u16..4, 1..13),
            qi in proptest::collection::vec(0u16..3, 1..13),
            l in 2u32..4,
        ) {
            let n = sa.len().min(qi.len());
            let schema = Schema::new(
                vec![Attribute::new("q", 3)],
                Attribute::new("sa", 4),
            ).unwrap();
            let mut b = TableBuilder::new(schema);
            for i in 0..n {
                b.push_row(&[qi[i]], sa[i]).unwrap();
            }
            let t = b.build();
            prop_assume!(t.check_l_feasible(l).is_ok());

            let out = tuple_minimize(&t, l).unwrap();
            assert_valid_outcome(&t, &out, l);

            let opt = brute_force_opt(&t, l);
            match out.stats.termination_phase {
                Phase::One => prop_assert_eq!(out.residue.len(), opt),
                Phase::Two => prop_assert!(out.residue.len() < opt + l as usize),
                Phase::Three => prop_assert!(out.residue.len() <= l as usize * opt),
            }
            // The overall Theorem 3 guarantee, phase-independent.
            if opt > 0 {
                prop_assert!(out.residue.len() <= l as usize * opt);
            } else {
                prop_assert_eq!(out.residue.len(), 0);
            }
            // Lemma 5 invariant surfaced through stats.
            prop_assert_eq!(
                out.stats.residue_pillar_after_p1,
                out.stats.residue_pillar_after_p2
            );
        }

        /// Determinism: two runs agree exactly.
        #[test]
        fn runs_are_deterministic(
            sa in proptest::collection::vec(0u16..5, 1..24),
            qi in proptest::collection::vec(0u16..4, 1..24),
        ) {
            let n = sa.len().min(qi.len());
            let schema = Schema::new(
                vec![Attribute::new("q", 4)],
                Attribute::new("sa", 5),
            ).unwrap();
            let mut b = TableBuilder::new(schema);
            for i in 0..n {
                b.push_row(&[qi[i]], sa[i]).unwrap();
            }
            let t = b.build();
            prop_assume!(t.check_l_feasible(2).is_ok());
            let a = tuple_minimize(&t, 2).unwrap();
            let b2 = tuple_minimize(&t, 2).unwrap();
            prop_assert_eq!(a.residue, b2.residue);
            prop_assert_eq!(a.partition.groups(), b2.partition.groups());
        }
    }
}
