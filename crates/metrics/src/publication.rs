//! Uniform accounting over any mechanism's [`Publication`].
//!
//! The unified output type of `ldiv-api` carries enough payload for this
//! module to evaluate the Eq. (2) KL-divergence under each methodology's
//! semantics with one entry point, [`kl_divergence`]:
//!
//! * **Suppressed** stars spread uniformly over the attribute domain
//!   ([`kl_divergence_suppressed`](crate::kl_divergence_suppressed));
//! * **Recoded** values spread uniformly over their bucket
//!   ([`kl_divergence_recoded`](crate::kl_divergence_recoded));
//! * **Boxes** spread each row uniformly over its group's covering
//!   sub-domain box (the §6.2 multi-dimensional semantics);
//! * **Anatomy** keeps every QI vector exact and spreads the SA value
//!   over the group's published sensitive-table distribution.

use crate::kl::{support_points, PointKeys, SaCounts, KL_CHUNK};
use crate::{kl_divergence_recoded_with, kl_divergence_suppressed_with};
use ldiv_api::{AnatomyTables, AttrRange, Payload, Publication, SensitiveEntry};
use ldiv_exec::Executor;
use ldiv_microdata::{Partition, Table, Value};
use std::collections::HashMap;

/// `KL(f, f*)` of Eq. (2) for any publication, dispatching on the
/// payload's semantics. Uses the auto thread budget.
pub fn kl_divergence(table: &Table, publication: &Publication) -> f64 {
    kl_divergence_with(table, publication, &Executor::default())
}

/// [`kl_divergence`] under an explicit thread budget.
///
/// Every payload's reduction is chunked with thread-independent
/// boundaries, so the value is bit-identical for any budget — a cached
/// wire response computed at `--threads 8` is byte-equal to a sequential
/// recomputation.
pub fn kl_divergence_with(table: &Table, publication: &Publication, exec: &Executor) -> f64 {
    let _kl = ldiv_obs::span("kl");
    match publication.payload() {
        Payload::Suppressed(s) => kl_divergence_suppressed_with(table, s, exec),
        Payload::Recoded(r) => kl_divergence_recoded_with(table, r, exec),
        Payload::Boxes(boxes) => {
            kl_divergence_boxes_with(table, publication.partition(), boxes, exec)
        }
        Payload::Anatomy(a) => {
            kl_divergence_anatomy_tables_with(table, publication.partition(), a, exec)
        }
    }
}

/// `KL(f, f*)` for the multi-dimensional range semantics: each published
/// row spreads uniformly over its group's box, keeping its own SA value.
/// Uses the auto thread budget.
///
/// Exact. Boxes may overlap arbitrarily after the §6.2 star-to-box
/// transformation, so each support point tests every group's box that
/// holds the point's SA value: `O(n log n + |support| · #groups per SA
/// value)`, where one box test is a few `u64` operations on packed
/// corners.
pub fn kl_divergence_boxes(table: &Table, partition: &Partition, boxes: &[Vec<AttrRange>]) -> f64 {
    kl_divergence_boxes_with(table, partition, boxes, &Executor::default())
}

/// [`kl_divergence_boxes`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_boxes_with(
    table: &Table,
    partition: &Partition,
    boxes: &[Vec<AttrRange>],
    exec: &Executor,
) -> f64 {
    assert_eq!(partition.group_count(), boxes.len());
    assert_eq!(partition.covered_rows(), table.len());
    if table.is_empty() {
        return 0.0;
    }
    boxes_packed(table, partition, boxes, exec)
        .unwrap_or_else(|| boxes_reference(table, partition, boxes, exec))
}

/// For every SA value below `slots`, the groups that hold it, in group
/// order, each with its box as `corner` renders it and its mass of that
/// value: one uniform spread over the box per row, added in turn (not
/// `rows · spread`, which can differ in the last ulp). `None` when a box
/// doesn't render.
fn box_masses<'b, B: Copy>(
    table: &Table,
    partition: &Partition,
    boxes: &'b [Vec<AttrRange>],
    slots: usize,
    corner: impl Fn(&'b [AttrRange]) -> Option<B>,
) -> Option<Vec<Vec<(B, f64)>>> {
    let mut by_sa: Vec<Vec<(B, f64)>> = vec![Vec::new(); slots];
    let mut sa_counts = SaCounts::new(slots);
    for (rows, ranges) in partition.groups().iter().zip(boxes) {
        let spread: f64 = ranges.iter().map(|r| 1.0 / r.width() as f64).product();
        let corners = corner(ranges)?;
        sa_counts.each(table, rows, |s, held| {
            let mass = (0..held).fold(0.0, |mass, _| mass + spread);
            by_sa[s as usize].push((corners, mass));
        });
    }
    Some(by_sa)
}

/// The boxes KL on packed keys and corners; `None` when the table or a
/// box doesn't pack. Bit-identical to [`boxes_reference`]: the same
/// masses, tested in the same order.
pub(crate) fn boxes_packed(
    table: &Table,
    partition: &Partition,
    boxes: &[Vec<AttrRange>],
    exec: &Executor,
) -> Option<f64> {
    let (keys, points) = PointKeys::support(table)?;
    let by_sa = box_masses(table, partition, boxes, keys.sa_slots(), |r| {
        keys.corners(r)
    })?;
    let (n, sa_mask) = (table.len() as f64, keys.sa_mask());
    Some(exec.sum_chunked(&points, KL_CHUNK, |p| {
        let f_p = p.count as f64 / n;
        let mut fstar = 0.0;
        for &((lo, hi), mass) in &by_sa[(p.key & sa_mask) as usize] {
            if keys.in_box(p.key, lo, hi) {
                fstar += mass;
            }
        }
        let fstar_p = fstar / n;
        debug_assert!(fstar_p > 0.0, "f* must cover the support");
        f_p * (f_p / fstar_p).ln()
    }))
}

/// The boxes KL on the slice-keyed support, for tables that don't pack.
pub(crate) fn boxes_reference(
    table: &Table,
    partition: &Partition,
    boxes: &[Vec<AttrRange>],
    exec: &Executor,
) -> f64 {
    let n = table.len() as f64;
    let m = table.schema().sa_domain_size() as usize;
    let by_sa = box_masses(table, partition, boxes, m, Some).expect("every box renders");
    let points = support_points(table);
    exec.sum_chunked(&points, KL_CHUNK, |&(row, count)| {
        let f_p = count as f64 / n;
        let qi = table.qi_row(row);
        let mut fstar = 0.0;
        for &(ranges, mass) in &by_sa[table.sa_value(row) as usize] {
            if ranges.iter().zip(qi).all(|(r, &v)| r.contains(v)) {
                fstar += mass;
            }
        }
        let fstar_p = fstar / n;
        debug_assert!(fstar_p > 0.0, "f* must cover the support");
        f_p * (f_p / fstar_p).ln()
    })
}

/// `KL(f, f*)` under anatomy's semantics: each published tuple keeps its
/// exact QI vector, and its SA value spreads over the group's published
/// SA distribution (`count / |group|`). Uses the auto thread budget.
pub fn kl_divergence_anatomy_tables(
    table: &Table,
    partition: &Partition,
    tables: &AnatomyTables,
) -> f64 {
    kl_divergence_anatomy_tables_with(table, partition, tables, &Executor::default())
}

/// [`kl_divergence_anatomy_tables`] under an explicit thread budget
/// (bit-identical result for every budget).
pub fn kl_divergence_anatomy_tables_with(
    table: &Table,
    partition: &Partition,
    tables: &AnatomyTables,
    exec: &Executor,
) -> f64 {
    if table.is_empty() {
        return 0.0;
    }
    assert_eq!(tables.group_of.len(), table.len());
    anatomy_packed(table, partition, tables, exec)
        .unwrap_or_else(|| anatomy_reference(table, partition, tables, exec))
}

/// Each group's published SA distribution as one run of `(value,
/// share)` pairs sorted by value, the runs in group order. Memory stays
/// linear in the sensitive table, however many groups and SA values a
/// client's table has.
struct Shares {
    shares: Vec<(Value, f64)>,
    starts: Vec<usize>,
}

impl Shares {
    fn new(partition: &Partition, tables: &AnatomyTables) -> Shares {
        let groups = partition.groups();
        let mut entries: Vec<&SensitiveEntry> = tables.entries.iter().collect();
        entries.sort_by_key(|e| (e.group, e.value));
        let mut starts = vec![0usize; groups.len() + 1];
        for e in &entries {
            starts[e.group as usize + 1] += 1;
        }
        for g in 0..groups.len() {
            starts[g + 1] += starts[g];
        }
        let shares = entries
            .iter()
            .map(|e| {
                let size = groups[e.group as usize].len() as f64;
                (e.value, e.count as f64 / size)
            })
            .collect();
        Shares { shares, starts }
    }

    /// Group `g`'s share of SA value `s`, if it publishes `s`.
    fn of(&self, g: u32, s: Value) -> Option<f64> {
        let run = &self.shares[self.starts[g as usize]..self.starts[g as usize + 1]];
        let i = run.binary_search_by_key(&s, |&(v, _)| v).ok()?;
        Some(run[i].1)
    }
}

/// The anatomy KL on packed keys; `None` when the table doesn't pack.
/// Bit-identical to [`anatomy_reference`].
///
/// `f*(q, s) = Σ_{rows r with qi = q} share(group(r), s) / n`. One sort of
/// `(QI key, group)` pairs counts the rows per QI vector and group, and
/// leaves each QI vector's groups in ascending id, the reference's
/// order.
pub(crate) fn anatomy_packed(
    table: &Table,
    partition: &Partition,
    tables: &AnatomyTables,
    exec: &Executor,
) -> Option<f64> {
    let (keys, points) = PointKeys::support(table)?;
    let shares = Shares::new(partition, tables);
    let mut qi_groups: Vec<(u64, u32, u32)> = Vec::with_capacity(table.len());
    for (row, qi, _) in table.rows() {
        qi_groups.push((keys.key(qi, 0)?, tables.group_of[row as usize], 1));
    }
    qi_groups.sort_unstable_by_key(|&(qi, g, _)| (qi, g));
    qi_groups.dedup_by(|next, run| {
        let same = (next.0, next.1) == (run.0, run.1);
        run.2 += u32::from(same);
        same
    });

    let (n, sa_mask) = (table.len() as f64, keys.sa_mask());
    Some(exec.sum_chunked(&points, KL_CHUNK, |p| {
        let f_p = p.count as f64 / n;
        let (qi, s) = (p.key & !sa_mask, (p.key & sa_mask) as Value);
        let at = qi_groups.partition_point(|e| e.0 < qi);
        let mut fstar = 0.0;
        for &(_, g, c) in qi_groups[at..].iter().take_while(|e| e.0 == qi) {
            if let Some(share) = shares.of(g, s) {
                fstar += c as f64 * share;
            }
        }
        let fstar_p = fstar / n;
        debug_assert!(fstar_p > 0.0, "f* must cover the support");
        f_p * (f_p / fstar_p).ln()
    }))
}

/// The anatomy KL on slice-keyed hash maps, for tables that don't pack.
pub(crate) fn anatomy_reference(
    table: &Table,
    partition: &Partition,
    tables: &AnatomyTables,
    exec: &Executor,
) -> f64 {
    let n = table.len() as f64;
    let shares = Shares::new(partition, tables);

    // Aggregate rows by (QI vector, group) first, keyed on the table's
    // own rows.
    let mut qi_group_count: HashMap<(&[Value], u32), u32> = HashMap::with_capacity(table.len());
    for (row, qi, _) in table.rows() {
        *qi_group_count
            .entry((qi, tables.group_of[row as usize]))
            .or_insert(0) += 1;
    }
    let mut by_qi: HashMap<&[Value], Vec<(u32, u32)>> = HashMap::new();
    for ((qi, g), c) in qi_group_count {
        by_qi.entry(qi).or_default().push((g, c));
    }
    // `qi_group_count` iterates in hash order; pin each bucket's order so
    // the fstar accumulation below is reproducible.
    for entries in by_qi.values_mut() {
        entries.sort_unstable();
    }

    let points = support_points(table);
    let by_qi = &by_qi;
    exec.sum_chunked(&points, KL_CHUNK, |&(row, count)| {
        let f_p = count as f64 / n;
        let s = table.sa_value(row);
        let mut fstar = 0.0;
        for &(g, c) in &by_qi[table.qi_row(row)] {
            if let Some(share) = shares.of(g, s) {
                fstar += c as f64 * share;
            }
        }
        let fstar_p = fstar / n;
        debug_assert!(fstar_p > 0.0, "f* must cover the support");
        f_p * (f_p / fstar_p).ln()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kl_divergence_suppressed;
    use ldiv_api::Publication;
    use ldiv_microdata::samples;

    fn table3() -> Partition {
        Partition::new_unchecked(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]])
    }

    #[test]
    fn uniform_kl_matches_suppressed_path() {
        let t = samples::hospital();
        let p = Publication::suppressed("tp", &t, table3());
        let direct = kl_divergence_suppressed(&t, p.as_suppressed().unwrap());
        assert!((kl_divergence(&t, &p) - direct).abs() < 1e-12);
    }

    #[test]
    fn exact_boxes_have_zero_divergence() {
        let t = samples::hospital();
        let singletons = Partition::new_unchecked((0..10u32).map(|r| vec![r]).collect());
        let boxes: Vec<Vec<AttrRange>> = singletons
            .groups()
            .iter()
            .map(|g| {
                t.qi_row(g[0])
                    .iter()
                    .map(|&v| AttrRange { lo: v, hi: v })
                    .collect()
            })
            .collect();
        let p = Publication::new("mondrian", singletons, Payload::Boxes(boxes));
        assert!(kl_divergence(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn anatomy_kl_is_finite_and_nonnegative() {
        let t = samples::hospital();
        let p = Publication::anatomy("anatomy", &t, table3());
        let kl = kl_divergence(&t, &p);
        assert!(kl.is_finite() && kl >= -1e-12, "kl = {kl}");
    }

    #[test]
    fn boxes_dominate_their_suppression_rendering() {
        // §6.2 dominance, checked through the uniform entry point: the
        // covering-box payload never loses more than the star payload of
        // the same partition.
        let t = samples::hospital();
        let partition = table3();
        let suppressed = Publication::suppressed("tp", &t, partition.clone());
        let boxes = ldiv_api::repair::tight_boxes(&t, &partition);
        let boxed = Publication::new("boxes", partition, Payload::Boxes(boxes));
        assert!(kl_divergence(&t, &boxed) <= kl_divergence(&t, &suppressed) + 1e-12);
    }
}
