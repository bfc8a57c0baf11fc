use crate::eligibility::SaHistogram;
use crate::generalize::SuppressedTable;
use crate::partition::Partition;
use crate::{MicrodataError, RowId, Schema, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// An immutable microdata table: `n` rows over a [`Schema`].
///
/// Storage is flat and row-major: the QI block is a single `n × d` buffer so
/// a row's QI vector is one contiguous slice, and the SA column is separate
/// because the algorithms scan it independently.
///
/// Two tables are equal when their schemas and cells are; whether either
/// has computed its [fingerprint](Self::fingerprint) yet does not matter.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    /// Row-major `n × d` QI codes.
    qi: Vec<Value>,
    /// `n` SA codes.
    sa: Vec<Value>,
    /// [`Self::fingerprint`], filled by its first call. Boxed so that
    /// `Table` holds no `UnsafeCell` itself: a `&Table` argument then
    /// stays `noalias readonly` to the optimizer, which can keep the cell
    /// buffers' pointers and lengths in registers through every loop
    /// that reads them.
    fingerprint: Box<OnceLock<u64>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.qi == other.qi && self.sa == other.sa
    }
}

impl Eq for Table {}

impl Table {
    /// Number of rows (the paper's `n`).
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of QI attributes (the paper's `d`).
    pub fn dimensionality(&self) -> usize {
        self.schema.dimensionality()
    }

    /// The QI vector of a row as a contiguous slice of length `d`.
    #[inline]
    pub fn qi_row(&self, row: RowId) -> &[Value] {
        let d = self.dimensionality();
        let start = row as usize * d;
        &self.qi[start..start + d]
    }

    /// One QI value.
    #[inline]
    pub fn qi_value(&self, row: RowId, attr: usize) -> Value {
        self.qi[row as usize * self.dimensionality() + attr]
    }

    /// The SA value of a row.
    #[inline]
    pub fn sa_value(&self, row: RowId) -> Value {
        self.sa[row as usize]
    }

    /// The whole SA column.
    pub fn sa_column(&self) -> &[Value] {
        &self.sa
    }

    /// Iterates over `(row_id, qi_slice, sa)` triples.
    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value], Value)> + '_ {
        let d = self.dimensionality();
        self.qi
            .chunks_exact(d)
            .zip(self.sa.iter())
            .enumerate()
            .map(|(i, (qi, &sa))| (i as RowId, qi, sa))
    }

    /// A deterministic 64-bit content fingerprint over the schema and
    /// every row, in order (FNV-1a; see [`Fnv1a`](crate::Fnv1a)).
    ///
    /// Stable across processes and platforms, so it can key caches that
    /// outlive the table object. Any change to a cell, an attribute
    /// name/domain/label, or the row order changes the digest.
    ///
    /// The table is hashed once, by the first call; later calls, and
    /// clones made after it, return the stored value.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::hash_table(self))
    }

    /// Histogram of the SA column over the whole table.
    pub fn sa_histogram(&self) -> SaHistogram {
        SaHistogram::from_values(self.schema.sa_domain_size(), self.sa.iter().copied())
    }

    /// Number of *distinct* SA values present — the paper's `m`.
    pub fn distinct_sa_count(&self) -> usize {
        self.sa_histogram().distinct_count()
    }

    /// Checks the feasibility precondition of Problem 1: a solution exists
    /// iff the table itself is l-eligible (corollary of Lemma 1).
    pub fn check_l_feasible(&self, l: u32) -> Result<(), MicrodataError> {
        let hist = self.sa_histogram();
        let h = hist.max_count();
        if (h as u128) * (l as u128) > self.len() as u128 {
            return Err(MicrodataError::Infeasible {
                l,
                n: self.len(),
                max_sa_count: h,
            });
        }
        Ok(())
    }

    /// The largest `l` for which an l-diverse generalization of this table
    /// exists: `floor(n / h(T))` where `h(T)` is the tallest SA count.
    pub fn max_feasible_l(&self) -> u32 {
        let h = self.sa_histogram().max_count();
        if h == 0 {
            return 0;
        }
        (self.len() / h) as u32
    }

    /// Groups rows by identical QI vector — the starting QI-groups of the
    /// tuple-minimization algorithm (Section 5.1 of the paper).
    ///
    /// Groups are returned in first-appearance order so the result is
    /// deterministic.
    pub fn group_by_qi(&self) -> Vec<Vec<RowId>> {
        let d = self.dimensionality();
        let mut index: HashMap<&[Value], usize> = HashMap::with_capacity(self.len());
        let mut groups: Vec<Vec<RowId>> = Vec::new();
        for (i, qi) in self.qi.chunks_exact(d).enumerate() {
            let gid = *index.entry(qi).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gid].push(i as RowId);
        }
        groups
    }

    /// Number of distinct QI vectors (the paper's `s`).
    pub fn distinct_qi_count(&self) -> usize {
        let d = self.dimensionality();
        let mut set: HashMap<&[Value], ()> = HashMap::with_capacity(self.len());
        for qi in self.qi.chunks_exact(d) {
            set.insert(qi, ());
        }
        set.len()
    }

    /// Projects the table onto a subset of QI attributes (SA kept), e.g. to
    /// build the `SAL-d` tables of the evaluation.
    pub fn project(&self, qi_indices: &[usize]) -> Result<Table, MicrodataError> {
        let schema = self.schema.project(qi_indices)?;
        let d_new = qi_indices.len();
        let mut qi = Vec::with_capacity(self.len() * d_new);
        for row in 0..self.len() {
            let src = self.qi_row(row as RowId);
            for &i in qi_indices {
                qi.push(src[i]);
            }
        }
        Ok(Table {
            schema,
            qi,
            sa: self.sa.clone(),
            fingerprint: Box::default(),
        })
    }

    /// Keeps only the given rows (in the given order), renumbering them
    /// `0..k`. Used for dataset sampling and for residue-set sub-problems.
    pub fn select_rows(&self, rows: &[RowId]) -> Table {
        let d = self.dimensionality();
        let mut qi = Vec::with_capacity(rows.len() * d);
        let mut sa = Vec::with_capacity(rows.len());
        for &r in rows {
            qi.extend_from_slice(self.qi_row(r));
            sa.push(self.sa_value(r));
        }
        Table {
            schema: self.schema.clone(),
            qi,
            sa,
            fingerprint: Box::default(),
        }
    }

    /// Applies a partition per Definition 1, producing the published table.
    pub fn generalize(&self, partition: &Partition) -> SuppressedTable {
        SuppressedTable::build(self, partition)
    }
}

/// Incremental [`Table`] constructor that validates every row against the
/// schema.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    qi: Vec<Value>,
    sa: Vec<Value>,
}

impl TableBuilder {
    /// Starts a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        TableBuilder {
            schema,
            qi: Vec::new(),
            sa: Vec::new(),
        }
    }

    /// Pre-allocates for `n` rows.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let d = schema.dimensionality();
        TableBuilder {
            schema,
            qi: Vec::with_capacity(n * d),
            sa: Vec::with_capacity(n),
        }
    }

    /// Appends one row, checking arity and domains.
    pub fn push_row(&mut self, qi: &[Value], sa: Value) -> Result<(), MicrodataError> {
        let d = self.schema.dimensionality();
        if qi.len() != d {
            return Err(MicrodataError::ArityMismatch {
                expected: d,
                got: qi.len(),
            });
        }
        for (i, &v) in qi.iter().enumerate() {
            let attr = self.schema.qi_attribute(i);
            if v as u32 >= attr.domain_size() {
                return Err(MicrodataError::ValueOutOfDomain {
                    attribute: attr.name().to_string(),
                    value: v as u32,
                    domain_size: attr.domain_size(),
                });
            }
        }
        if sa as u32 >= self.schema.sa_domain_size() {
            return Err(MicrodataError::ValueOutOfDomain {
                attribute: self.schema.sensitive().name().to_string(),
                value: sa as u32,
                domain_size: self.schema.sa_domain_size(),
            });
        }
        self.qi.extend_from_slice(qi);
        self.sa.push(sa);
        Ok(())
    }

    /// Appends one row without domain checks.
    ///
    /// Intended for generators that construct codes straight from the
    /// schema's domains; debug builds still assert the invariants.
    pub fn push_row_unchecked(&mut self, qi: &[Value], sa: Value) {
        debug_assert_eq!(qi.len(), self.schema.dimensionality());
        debug_assert!((sa as u32) < self.schema.sa_domain_size());
        self.qi.extend_from_slice(qi);
        self.sa.push(sa);
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// Finishes the table.
    pub fn build(self) -> Table {
        Table {
            schema: self.schema,
            qi: self.qi,
            sa: self.sa,
            fingerprint: Box::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribute;

    fn schema() -> Schema {
        Schema::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 4)],
            Attribute::new("sa", 3),
        )
        .unwrap()
    }

    fn table(rows: &[([Value; 2], Value)]) -> Table {
        let mut b = TableBuilder::new(schema());
        for (qi, sa) in rows {
            b.push_row(qi, *sa).unwrap();
        }
        b.build()
    }

    #[test]
    fn builder_validates_arity() {
        let mut b = TableBuilder::new(schema());
        let err = b.push_row(&[1], 0).unwrap_err();
        assert!(matches!(err, MicrodataError::ArityMismatch { .. }));
    }

    #[test]
    fn builder_validates_qi_domain() {
        let mut b = TableBuilder::new(schema());
        let err = b.push_row(&[9, 0], 0).unwrap_err();
        assert!(matches!(err, MicrodataError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn builder_validates_sa_domain() {
        let mut b = TableBuilder::new(schema());
        let err = b.push_row(&[0, 0], 3).unwrap_err();
        assert!(matches!(err, MicrodataError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn row_accessors_agree() {
        let t = table(&[([1, 2], 0), ([3, 0], 2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.qi_row(0), &[1, 2]);
        assert_eq!(t.qi_value(1, 0), 3);
        assert_eq!(t.sa_value(1), 2);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[1], (1, &[3, 0][..], 2));
    }

    #[test]
    fn group_by_qi_buckets_identical_vectors() {
        let t = table(&[([1, 1], 0), ([2, 2], 1), ([1, 1], 2), ([2, 2], 0)]);
        let groups = t.group_by_qi();
        assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(t.distinct_qi_count(), 2);
    }

    #[test]
    fn feasibility_matches_lemma_1_corollary() {
        // 3 of 4 rows share SA 0: only l = 1 feasible.
        let t = table(&[([0, 0], 0), ([1, 1], 0), ([2, 2], 0), ([3, 3], 1)]);
        assert_eq!(t.max_feasible_l(), 1);
        assert!(t.check_l_feasible(1).is_ok());
        assert!(t.check_l_feasible(2).is_err());

        // Perfectly balanced SA: l up to m feasible.
        let t = table(&[([0, 0], 0), ([1, 1], 1), ([2, 2], 2)]);
        assert_eq!(t.max_feasible_l(), 3);
        assert!(t.check_l_feasible(3).is_ok());
    }

    #[test]
    fn distinct_sa_counts_m() {
        let t = table(&[([0, 0], 0), ([1, 1], 2), ([2, 2], 0)]);
        assert_eq!(t.distinct_sa_count(), 2);
    }

    #[test]
    fn projection_reorders_columns() {
        let t = table(&[([1, 2], 0), ([3, 0], 1)]);
        let p = t.project(&[1]).unwrap();
        assert_eq!(p.dimensionality(), 1);
        assert_eq!(p.qi_row(0), &[2]);
        assert_eq!(p.qi_row(1), &[0]);
        assert_eq!(p.sa_value(1), 1);
    }

    #[test]
    fn select_rows_renumbers() {
        let t = table(&[([1, 2], 0), ([3, 0], 1), ([2, 2], 2)]);
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.qi_row(0), &[2, 2]);
        assert_eq!(s.sa_value(1), 0);
    }

    #[test]
    fn empty_table_is_harmless() {
        let t = table(&[]);
        assert!(t.is_empty());
        assert_eq!(t.max_feasible_l(), 0);
        assert_eq!(t.group_by_qi().len(), 0);
    }
}
