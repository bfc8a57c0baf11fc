//! The normalized output type shared by every mechanism.

use crate::{LdivError, Recoding};
use ldiv_microdata::{Partition, SaHistogram, SuppressedTable, Table, Value};

/// An inclusive range of domain codes `[lo, hi]` published for one
/// attribute of one QI-group (multi-dimensional generalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrRange {
    /// Smallest covered code.
    pub lo: Value,
    /// Largest covered code.
    pub hi: Value,
}

impl AttrRange {
    /// Number of covered codes.
    pub fn width(&self) -> u32 {
        (self.hi - self.lo) as u32 + 1
    }

    /// Whether a code falls inside the range.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the range is a single exact value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }
}

/// One sensitive-table row of an anatomy publication:
/// `(group id, SA value, multiplicity)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitiveEntry {
    /// Group identifier.
    pub group: u32,
    /// The sensitive value.
    pub value: Value,
    /// Number of group tuples carrying the value.
    pub count: u32,
}

/// The two published tables of an anatomy publication: the QIT's group
/// column plus the sensitive table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnatomyTables {
    /// `group_of[row]` — the QIT's `GroupId` column.
    pub group_of: Vec<u32>,
    /// The sensitive table, sorted by `(group, value)`.
    pub entries: Vec<SensitiveEntry>,
}

impl AnatomyTables {
    /// Derives the QIT/ST pair from a grouping of a table: each group's
    /// entries list its SA values ascending, counted in one dense buffer
    /// that is reset after every group.
    pub fn from_partition(table: &Table, partition: &Partition) -> Self {
        let mut group_of = vec![0u32; table.len()];
        let mut entries = Vec::new();
        let mut counts = vec![0u32; table.schema().sa_domain_size() as usize];
        let mut values: Vec<Value> = Vec::new();
        for (gid, g) in partition.groups().iter().enumerate() {
            for &r in g {
                group_of[r as usize] = gid as u32;
                let v = table.sa_value(r);
                if counts[v as usize] == 0 {
                    values.push(v);
                }
                counts[v as usize] += 1;
            }
            values.sort_unstable();
            entries.extend(values.drain(..).map(|value| SensitiveEntry {
                group: gid as u32,
                value,
                count: std::mem::take(&mut counts[value as usize]),
            }));
        }
        AnatomyTables { group_of, entries }
    }
}

/// The per-group generalization content of a [`Publication`] — what the
/// groups publish *besides* their row partition.
///
/// The variant decides the Eq. (2) semantics `ldiv-metrics` applies:
/// a suppressed cell spreads over its whole attribute domain, a box over
/// its sub-domain, an anatomy row keeps its exact QI vector but spreads
/// its SA over the group's ST distribution, and a recoded value spreads
/// over its bucket.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Suppression generalization: stars where a group is not uniform.
    Suppressed(SuppressedTable),
    /// Multi-dimensional generalization: per group, a covering range per
    /// QI attribute (aligned with the partition's group order).
    Boxes(Vec<Vec<AttrRange>>),
    /// Anatomy: exact QIT plus the sensitive table.
    Anatomy(AnatomyTables),
    /// Single-dimensional (global) recoding of every QI attribute.
    Recoded(Recoding),
}

/// The normalized result of any publication mechanism: the l-diverse
/// partition plus its generalization payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Publication {
    mechanism: String,
    partition: Partition,
    payload: Payload,
    notes: Vec<String>,
}

impl Publication {
    /// A publication with an explicit payload.
    pub fn new(mechanism: impl Into<String>, partition: Partition, payload: Payload) -> Self {
        Publication {
            mechanism: mechanism.into(),
            partition,
            payload,
            notes: Vec::new(),
        }
    }

    /// A suppression publication: the payload is the partition's
    /// generalization over `table`.
    pub fn suppressed(mechanism: impl Into<String>, table: &Table, partition: Partition) -> Self {
        let suppressed = table.generalize(&partition);
        Publication::new(mechanism, partition, Payload::Suppressed(suppressed))
    }

    /// An anatomy publication: the QIT/ST pair is derived from the
    /// partition.
    pub fn anatomy(mechanism: impl Into<String>, table: &Table, partition: Partition) -> Self {
        let tables = AnatomyTables::from_partition(table, &partition);
        Publication::new(mechanism, partition, Payload::Anatomy(tables))
    }

    /// Attaches a human-readable diagnostic line (phase counts,
    /// specialization totals, …) surfaced by the CLI and reports.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Builder-style variant of [`push_note`](Publication::push_note).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.push_note(note);
        self
    }

    /// The producing mechanism's registry name.
    pub fn mechanism(&self) -> &str {
        &self.mechanism
    }

    /// The l-diverse QI-grouping underlying the publication.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The generalization payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Mechanism-specific diagnostic lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Number of QI-groups.
    pub fn group_count(&self) -> usize {
        self.partition.group_count()
    }

    /// Stars in the publication (Problem 1 objective). Non-suppression
    /// payloads publish no stars and report 0, matching the paper's
    /// accounting (TDS/Mondrian/Anatomy lose information through other
    /// channels, measured by the KL-divergence instead).
    pub fn star_count(&self) -> usize {
        match &self.payload {
            Payload::Suppressed(s) => s.star_count(),
            _ => 0,
        }
    }

    /// Fully suppressed tuples (Problem 2 objective); 0 for
    /// non-suppression payloads.
    pub fn suppressed_tuple_count(&self) -> usize {
        match &self.payload {
            Payload::Suppressed(s) => s.suppressed_tuple_count(),
            _ => 0,
        }
    }

    /// The suppression view of the publication, if it has one natively.
    pub fn as_suppressed(&self) -> Option<&SuppressedTable> {
        match &self.payload {
            Payload::Suppressed(s) => Some(s),
            _ => None,
        }
    }

    /// Definition 2 over the partition.
    pub fn is_l_diverse(&self, table: &Table, l: u32) -> bool {
        self.partition.is_l_diverse(table, l)
    }

    /// Full structural validation: the partition covers `table` exactly,
    /// every group is l-eligible, and the payload is consistent with the
    /// partition (group counts line up; anatomy ST multiplicities sum to
    /// the group sizes).
    pub fn validate(&self, table: &Table, l: u32) -> Result<(), LdivError> {
        self.partition.validate_cover(table)?;
        for (gid, g) in self.partition.groups().iter().enumerate() {
            if !SaHistogram::of_rows(table, g).is_l_eligible(l) {
                return Err(LdivError::Internal(format!(
                    "publication by '{}' has a non-{l}-eligible group {gid}",
                    self.mechanism
                )));
            }
        }
        let groups = self.partition.group_count();
        match &self.payload {
            Payload::Suppressed(s) => {
                if s.groups().len() != groups {
                    return Err(LdivError::Internal(
                        "suppressed payload group count mismatch".into(),
                    ));
                }
            }
            Payload::Boxes(boxes) => {
                if boxes.len() != groups {
                    return Err(LdivError::Internal(
                        "boxes payload group count mismatch".into(),
                    ));
                }
                for (ranges, g) in boxes.iter().zip(self.partition.groups()) {
                    for &r in g {
                        for (range, &v) in ranges.iter().zip(table.qi_row(r)) {
                            if !range.contains(v) {
                                return Err(LdivError::Internal(
                                    "box does not cover a group row".into(),
                                ));
                            }
                        }
                    }
                }
            }
            Payload::Anatomy(a) => {
                if a.group_of.len() != table.len() {
                    return Err(LdivError::Internal(
                        "anatomy group column length mismatch".into(),
                    ));
                }
                // One pass over the ST, then one over the groups — anatomy
                // publications have O(n/l) groups, so a per-group rescan of
                // the entry list would be quadratic in n.
                let mut st_totals = vec![0u64; groups];
                for e in &a.entries {
                    let slot = st_totals.get_mut(e.group as usize).ok_or_else(|| {
                        LdivError::Internal(format!(
                            "anatomy ST references unknown group {}",
                            e.group
                        ))
                    })?;
                    *slot += u64::from(e.count);
                }
                for (gid, g) in self.partition.groups().iter().enumerate() {
                    if st_totals[gid] != g.len() as u64 {
                        return Err(LdivError::Internal(format!(
                            "anatomy ST multiplicities disagree with group {gid}"
                        )));
                    }
                }
            }
            Payload::Recoded(recoding) => {
                if recoding.dimensionality() != table.dimensionality() {
                    return Err(LdivError::Internal(
                        "recoding dimensionality mismatch".into(),
                    ));
                }
                // A recoded release disbands into the groups its
                // recoding induces — whatever the partition annotation
                // says, an adversary sees rows sharing a recoded QI
                // vector as one group. Definition 2 must hold for
                // *those* groups, or the publication over-claims.
                for g in recoding.induced_groups(table) {
                    if !SaHistogram::of_rows(table, &g).is_l_eligible(l) {
                        return Err(LdivError::Internal(format!(
                            "recoded publication by '{}' discloses a non-{l}-eligible \
                             recoding-induced group",
                            self.mechanism
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Rows covered by the publication.
    pub fn covered_rows(&self) -> usize {
        self.partition.covered_rows()
    }

    /// Decomposes the publication into its parts.
    pub fn into_parts(self) -> (String, Partition, Payload, Vec<String>) {
        (self.mechanism, self.partition, self.payload, self.notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    fn table3() -> Partition {
        Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]])
    }

    #[test]
    fn suppressed_publication_counts_stars() {
        let t = samples::hospital();
        let p = Publication::suppressed("tp", &t, table3());
        assert_eq!(p.mechanism(), "tp");
        assert_eq!(p.star_count(), 8);
        assert_eq!(p.suppressed_tuple_count(), 4);
        assert_eq!(p.group_count(), 3);
        assert!(p.is_l_diverse(&t, 2));
        p.validate(&t, 2).unwrap();
    }

    #[test]
    fn anatomy_publication_builds_consistent_st() {
        let t = samples::hospital();
        let p = Publication::anatomy("anatomy", &t, table3());
        assert_eq!(p.star_count(), 0);
        p.validate(&t, 2).unwrap();
        match p.payload() {
            Payload::Anatomy(a) => {
                assert_eq!(a.group_of.len(), 10);
                let total: u32 = a.entries.iter().map(|e| e.count).sum();
                assert_eq!(total, 10);
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_uncovered_boxes() {
        let t = samples::hospital();
        let partition = table3();
        // Age pinned to code 0 everywhere: group 2 (all Age ≥ 50) escapes.
        let bad_boxes: Vec<Vec<AttrRange>> = partition
            .groups()
            .iter()
            .map(|_| {
                (0..t.dimensionality())
                    .map(|a| {
                        if a == 0 {
                            AttrRange { lo: 0, hi: 0 }
                        } else {
                            AttrRange { lo: 0, hi: 2 }
                        }
                    })
                    .collect()
            })
            .collect();
        let p = Publication::new("mondrian", partition, Payload::Boxes(bad_boxes));
        assert!(p.validate(&t, 2).is_err());
    }

    #[test]
    fn notes_accumulate() {
        let t = samples::hospital();
        let p = Publication::suppressed("tp", &t, table3()).with_note("terminated in phase 1");
        assert_eq!(p.notes(), ["terminated in phase 1"]);
    }
}
