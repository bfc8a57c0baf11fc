//! **Anatomy**: l-diverse publication by separating QI and SA tables.
//!
//! The paper's §2 surveys alternative anonymization methodologies and
//! cites the authors' own *anatomy* (Xiao & Tao, VLDB 2006): instead of
//! generalizing QI values, publish them *exactly* in a quasi-identifier
//! table (QIT) and put the sensitive values in a separate sensitive table
//! (ST), linked only through group ids. An adversary who locates an
//! individual's QIT row learns the group, but the group's SA multiset is
//! l-eligible, so no value can be pinned with confidence above `1/l`.
//!
//! This crate provides:
//!
//! * [`AnatomyMechanism`] — the unified-API face (`ldiv_api::Mechanism`),
//!   registered as `"anatomy"` in the workspace registry;
//! * [`anatomize`] — the bucketization algorithm: frequency-balanced
//!   draining into groups of `l` distinct SA values plus residue
//!   assignment. The drain is [`SaBuckets::drain`], the one the Hilbert
//!   baseline's grouping runs too; anatomy has no reason to prefer any
//!   tuple order, so its buckets are keyed on row order alone;
//! * [`AnatomizedTable`] — the QIT/ST pair with lookup accessors and CSV
//!   rendering;
//! * [`kl_divergence_anatomy`] — Eq. (2) adapted to anatomy's semantics:
//!   a published row keeps its exact QI vector but its SA spreads over
//!   the group's SA distribution.
//!
//! Anatomy trades linkage protection (it does not hide *presence*, §2's
//! δ-presence discussion) for dramatically lower information loss than
//! any generalization — a claim the tests verify against TP+ on the same
//! workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ldiv_api::{AnatomyTables, LdivError, Mechanism, Params, Payload, Publication, SensitiveEntry};
use ldiv_exec::Executor;
use ldiv_microdata::{escape_cell, MicrodataError, OpenGroup, Partition, RowId, SaBuckets, Table};
use std::io::Write;

/// An anatomized publication: the grouping plus the two published tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnatomizedTable {
    /// The underlying l-diverse grouping.
    partition: Partition,
    /// The QIT's group column and the sensitive table, derived from the
    /// grouping by [`AnatomyTables::from_partition`].
    tables: AnatomyTables,
}

impl AnatomizedTable {
    /// The grouping.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The group id of a QIT row.
    pub fn group_of(&self, row: RowId) -> u32 {
        self.tables.group_of[row as usize]
    }

    /// The sensitive table, sorted by `(group, value)`.
    pub fn sensitive_table(&self) -> &[SensitiveEntry] {
        &self.tables.entries
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.partition.group_count()
    }

    /// Definition 2 on the grouping.
    pub fn is_l_diverse(&self, table: &Table, l: u32) -> bool {
        self.partition.is_l_diverse(table, l)
    }

    /// Converts into the unified [`Publication`] (payload: the QIT group
    /// column plus the sensitive table).
    pub fn to_publication(&self) -> Publication {
        self.clone().into_publication()
    }

    fn into_publication(self) -> Publication {
        Publication::new("anatomy", self.partition, Payload::Anatomy(self.tables))
    }

    /// Writes the QIT as CSV: the exact QI values plus a `GroupId` column
    /// (no SA column — that is the whole point). Names and labels are
    /// quoted where CSV needs it.
    pub fn write_qit_csv<W: Write>(&self, mut w: W, table: &Table) -> std::io::Result<()> {
        let schema = table.schema();
        let mut header: Vec<String> = schema
            .qi_attributes()
            .iter()
            .map(|a| escape_cell(a.name()))
            .collect();
        header.push("GroupId".into());
        writeln!(w, "{}", header.join(","))?;
        for (row, qi, _) in table.rows() {
            let mut cells: Vec<String> = qi
                .iter()
                .enumerate()
                .map(|(i, &v)| escape_cell(&schema.qi_attribute(i).label(v)))
                .collect();
            cells.push(self.group_of(row).to_string());
            writeln!(w, "{}", cells.join(","))?;
        }
        Ok(())
    }

    /// Writes the ST as CSV: `GroupId, <SA name>, Count`, the name and
    /// labels quoted where CSV needs it.
    pub fn write_st_csv<W: Write>(&self, mut w: W, table: &Table) -> std::io::Result<()> {
        let sa = table.schema().sensitive();
        writeln!(w, "GroupId,{},Count", escape_cell(sa.name()))?;
        for e in self.sensitive_table() {
            let label = escape_cell(&sa.label(e.value));
            writeln!(w, "{},{label},{}", e.group, e.count)?;
        }
        Ok(())
    }
}

/// Anatomizes a table at diversity level `l`.
///
/// Bucketization: tuples are bucketed by SA value; while at least `l`
/// buckets are non-empty, one tuple from each of the `l` fullest buckets
/// forms a group (ties by SA id; each bucket gives up its lowest row id
/// first). This drain is [`SaBuckets::drain`], shared with the Hilbert
/// baseline. The leftovers, which fill fewer than `l` buckets, are placed
/// in SA order, each in the first group that stays l-eligible with it.
/// Fails when the table is not l-eligible.
pub fn anatomize(table: &Table, l: u32) -> Result<AnatomizedTable, MicrodataError> {
    anatomize_with(table, l, &Executor::default())
}

/// [`anatomize`] under an explicit executor, which carries only the
/// run's deadline: it is checked before and after the drain. Every step
/// runs on the calling thread (the drain is inherently sequential — each
/// group's "`l` fullest buckets" depends on every earlier group — and
/// the scans around it are linear), so the output is the same for every
/// thread budget.
pub fn anatomize_with(
    table: &Table,
    l: u32,
    exec: &Executor,
) -> Result<AnatomizedTable, MicrodataError> {
    if l == 0 {
        return Err(MicrodataError::InvalidPartition(
            "l must be positive".into(),
        ));
    }
    table.check_l_feasible(l)?;
    exec.checkpoint();

    let rows: Vec<RowId> = (0..table.len() as RowId).collect();
    let mut buckets = SaBuckets::new(table, &rows, &vec![(); rows.len()]);
    let mut groups: Vec<OpenGroup> = Vec::with_capacity(rows.len() / l as usize + 1);
    let mut leftover = buckets.drain(l, |taken| groups.push(OpenGroup::of(taken)));
    exec.checkpoint();

    // Residue assignment (Anatomy's "residue" step): leftover values in
    // SA order, rows in row order; each row joins the first group that
    // stays l-eligible with it. A group that turned a value down stays
    // unchanged while that value's rows are placed, so the search for
    // the next row of the same value resumes where the last one ended.
    leftover.sort_unstable();
    for v in leftover {
        let mut from = 0;
        while buckets.len(v) > 0 {
            let ((), row) = buckets.take_first(v);
            match groups[from..].iter().position(|g| g.accepts(v, l)) {
                Some(i) => {
                    from += i;
                    groups[from].add(row, v);
                }
                None => {
                    // Unreachable for l-eligible inputs (the Anatomy
                    // residue lemma); keep a defensive group so the cover
                    // invariant holds, and let the final check reject it.
                    from = groups.len();
                    groups.push(OpenGroup::of(&[(v, (), row)]));
                }
            }
        }
    }

    let partition = Partition::new_unchecked(
        groups
            .into_iter()
            .map(OpenGroup::into_sorted_rows)
            .collect(),
    );
    if !partition.is_l_diverse(table, l) {
        return Err(MicrodataError::InvalidPartition(
            "anatomy bucketization failed to reach l-diversity".into(),
        ));
    }
    let tables = AnatomyTables::from_partition(table, &partition);
    Ok(AnatomizedTable { partition, tables })
}

/// `KL(f, f*)` of Eq. (2) under anatomy's semantics: each published tuple
/// keeps its exact QI vector, and its SA value spreads over the group's
/// published SA distribution (`count / |group|`).
///
/// Thin wrapper over the uniform metric
/// ([`ldiv_metrics::kl_divergence_anatomy_tables`]); equivalent to
/// `ldiv_metrics::kl_divergence(table, &published.to_publication())`.
pub fn kl_divergence_anatomy(table: &Table, published: &AnatomizedTable) -> f64 {
    ldiv_metrics::kl_divergence_anatomy_tables(table, &published.partition, &published.tables)
}

/// Anatomy through the unified [`Mechanism`] trait (registry name
/// `"anatomy"`).
pub struct AnatomyMechanism;

impl Mechanism for AnatomyMechanism {
    fn name(&self) -> &str {
        "anatomy"
    }

    fn description(&self) -> &str {
        "QI/SA table separation: exact QIT plus an l-eligible sensitive table (§2)"
    }

    fn anonymize(&self, table: &Table, params: &Params) -> Result<Publication, LdivError> {
        params.validate_for(table)?;
        let exec = params.executor();
        ldiv_guard::fault::mechanism_entry(self.name(), &exec);
        let published = anatomize_with(table, params.l, &exec)?;
        let groups = published.group_count();
        Ok(published
            .into_publication()
            .with_note(format!("{groups} anatomy groups, exact QIT")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::samples;
    use proptest::prelude::*;

    #[test]
    fn hospital_anatomy_is_2_diverse() {
        let t = samples::hospital();
        let a = anatomize(&t, 2).unwrap();
        assert!(a.is_l_diverse(&t, 2));
        a.partition().validate_cover(&t).unwrap();
        // Every group's ST rows sum to the group size.
        for (gid, g) in a.partition().groups().iter().enumerate() {
            let total: u32 = a
                .sensitive_table()
                .iter()
                .filter(|e| e.group == gid as u32)
                .map(|e| e.count)
                .sum();
            assert_eq!(total as usize, g.len());
        }
    }

    #[test]
    fn infeasible_l_rejected() {
        let t = samples::hospital();
        assert!(anatomize(&t, 3).is_err());
        assert!(anatomize(&t, 0).is_err());
    }

    #[test]
    fn mechanism_face_matches_anatomize() {
        let t = samples::hospital();
        let direct = anatomize(&t, 2).unwrap();
        let publication = AnatomyMechanism.anonymize(&t, &Params::new(2)).unwrap();
        assert_eq!(publication.mechanism(), "anatomy");
        assert_eq!(
            publication.partition().groups(),
            direct.partition().groups()
        );
        assert_eq!(publication.star_count(), 0); // anatomy never stars
        publication.validate(&t, 2).unwrap();
        // The uniform KL equals the crate-local wrapper.
        let uniform = ldiv_metrics::kl_divergence(&t, &publication);
        let local = kl_divergence_anatomy(&t, &direct);
        assert!((uniform - local).abs() < 1e-12);
    }

    #[test]
    fn csv_outputs_are_consistent() {
        let t = samples::hospital();
        let a = anatomize(&t, 2).unwrap();
        let mut qit = Vec::new();
        a.write_qit_csv(&mut qit, &t).unwrap();
        let qit = String::from_utf8(qit).unwrap();
        assert_eq!(qit.lines().count(), 11);
        assert!(qit.starts_with("Age,Gender,Education,GroupId"));
        // QI values are published EXACTLY (no stars anywhere).
        assert!(!qit.contains('*'));

        let mut st = Vec::new();
        a.write_st_csv(&mut st, &t).unwrap();
        let st = String::from_utf8(st).unwrap();
        assert!(st.starts_with("GroupId,Disease,Count"));
        // Total ST counts = n.
        let total: u32 = st
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<u32>().unwrap())
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn csv_outputs_quote_names_and_labels_that_need_it() {
        use ldiv_microdata::{read_csv, Attribute, Schema, TableBuilder};
        let labels = |ls: &[&str]| ls.iter().map(|l| l.to_string()).collect();
        let schema = Schema::new(
            vec![
                Attribute::with_labels("home, city", labels(&["Paris, FR", "Oslo \"N\""])),
                Attribute::with_labels("age", labels(&["30", "40"])),
            ],
            Attribute::with_labels("disease, \"kind\"", labels(&["cold, mild", "flu", "x"])),
        )
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..6u16 {
            b.push_row(&[i % 2, i / 3], i % 3).unwrap();
        }
        let t = b.build();
        let a = anatomize(&t, 3).unwrap();
        let sa = t.schema().sensitive();

        let mut qit = Vec::new();
        a.write_qit_csv(&mut qit, &t).unwrap();
        let back = read_csv(&qit[..], None).unwrap();
        let names: Vec<&str> = back
            .schema()
            .qi_attributes()
            .iter()
            .map(|x| x.name())
            .collect();
        assert_eq!(names, ["home, city", "age"]);
        assert_eq!(back.schema().sensitive().name(), "GroupId");
        for (row, qi, group) in back.rows() {
            for (i, &v) in qi.iter().enumerate() {
                let label = back.schema().qi_attribute(i).label(v);
                assert_eq!(label, t.schema().qi_attribute(i).label(t.qi_value(row, i)));
            }
            let group = back.schema().sensitive().label(group);
            assert_eq!(group, a.group_of(row).to_string());
        }

        let mut st = Vec::new();
        a.write_st_csv(&mut st, &t).unwrap();
        let back = read_csv(&st[..], None).unwrap();
        let names: Vec<&str> = back
            .schema()
            .qi_attributes()
            .iter()
            .map(|x| x.name())
            .collect();
        assert_eq!(names, ["GroupId", sa.name()]);
        assert_eq!(back.len(), a.sensitive_table().len());
        for ((_, qi, _), e) in back.rows().zip(a.sensitive_table()) {
            assert_eq!(
                back.schema().qi_attribute(0).label(qi[0]),
                e.group.to_string()
            );
            assert_eq!(
                back.schema().qi_attribute(1).label(qi[1]),
                sa.label(e.value)
            );
        }
    }

    #[test]
    fn repair_merge_rederives_a_consistent_qit_st_pair() {
        // The sharding repair hook: stitch two per-"shard" anatomy
        // publications (global row ids, one with an ineligible residue
        // group) and check the rebuilt QIT/ST describes the whole table —
        // `validate` cross-checks ST multiplicities against group sizes.
        use ldiv_api::Payload;
        use ldiv_microdata::Partition;
        let t = samples::hospital();
        let params = Params::new(2);
        let anatomy_of = |groups: Vec<Vec<u32>>| {
            Publication::anatomy("anatomy", &t, Partition::new_unchecked(groups))
        };
        let stitched = AnatomyMechanism
            .repair_merge(
                &t,
                &params,
                vec![
                    anatomy_of(vec![vec![0, 2, 3, 8], vec![4]]),
                    anatomy_of(vec![vec![1, 5, 6, 9], vec![7]]),
                ],
            )
            .unwrap();
        stitched.validate(&t, 2).unwrap();
        assert!(stitched.is_l_diverse(&t, 2));
        let Payload::Anatomy(tables) = stitched.payload() else {
            panic!("payload kind changed: {:?}", stitched.payload());
        };
        assert_eq!(tables.group_of.len(), t.len());
        let total: u32 = tables.entries.iter().map(|e| e.count).sum();
        assert_eq!(total as usize, t.len());
    }

    #[test]
    fn anatomy_beats_generalization_on_information_loss() {
        // The anatomy paper's headline: publishing exact QI values loses
        // far less information than generalization at the same l.
        let t = sal(&AcsConfig {
            rows: 4_000,
            seed: 41,
        })
        .project(&[0, 1, 3, 5])
        .unwrap();
        for l in [2u32, 6] {
            let a = anatomize(&t, l).unwrap();
            let kl_anatomy = kl_divergence_anatomy(&t, &a);
            let tpp = ldiv_core::anonymize(&t, l, &ldiv_hilbert::HilbertResidue).unwrap();
            let kl_tpp = ldiv_metrics::kl_divergence_suppressed(&t, &tpp.published);
            assert!(
                kl_anatomy < kl_tpp,
                "l = {l}: anatomy {kl_anatomy:.4} vs TP+ {kl_tpp:.4}"
            );
            // But anatomy is still lossy (the SA association is blurred).
            assert!(kl_anatomy > 0.0);
        }
    }

    #[test]
    fn perfect_when_groups_are_sa_pure_per_qi() {
        // If every tuple's group contains only tuples with identical QI
        // vectors the association is fully recoverable... construct the
        // opposite sanity case instead: one homogeneous-QI table — KL is 0
        // because the QI no longer discriminates.
        use ldiv_microdata::{Attribute, Schema, TableBuilder};
        let schema = Schema::new(vec![Attribute::new("q", 2)], Attribute::new("sa", 4)).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..8u16 {
            b.push_row(&[0], i % 4).unwrap();
        }
        let t = b.build();
        let a = anatomize(&t, 4).unwrap();
        let kl = kl_divergence_anatomy(&t, &a);
        // All QI identical + balanced SA ⇒ every group reproduces the
        // global distribution ⇒ f* = f.
        assert!(kl.abs() < 1e-12, "kl = {kl}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random feasible tables anatomize into valid l-diverse coverings
        /// with consistent ST bookkeeping.
        #[test]
        fn random_tables_anatomize_validly(
            sa in proptest::collection::vec(0u16..6, 4..60),
            l in 2u32..4,
        ) {
            use ldiv_microdata::{Attribute, Schema, TableBuilder};
            let schema = Schema::new(
                vec![Attribute::new("q", 8)],
                Attribute::new("sa", 6),
            ).unwrap();
            let mut b = TableBuilder::new(schema);
            for (i, &s) in sa.iter().enumerate() {
                b.push_row(&[(i % 8) as u16], s).unwrap();
            }
            let t = b.build();
            prop_assume!(t.check_l_feasible(l).is_ok());
            let a = anatomize(&t, l).unwrap();
            a.partition().validate_cover(&t).unwrap();
            prop_assert!(a.is_l_diverse(&t, l));
            let st_total: u32 = a.sensitive_table().iter().map(|e| e.count).sum();
            prop_assert_eq!(st_total as usize, t.len());
            let kl = kl_divergence_anatomy(&t, &a);
            prop_assert!(kl.is_finite() && kl >= -1e-9);
        }
    }
}
