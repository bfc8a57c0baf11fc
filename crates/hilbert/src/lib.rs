//! The Hilbert-curve baseline of the paper's evaluation (§6.1).
//!
//! Ghinita et al. (VLDB 2007) anonymize by mapping the multi-dimensional QI
//! space to one dimension with a Hilbert space-filling curve and solving the
//! resulting 1-D problem. The paper modifies that method into a
//! *suppression* algorithm and uses it both as the baseline ("Hilbert") and
//! as the residue refiner inside the hybrid ("TP+"). This crate provides:
//!
//! * [`HilbertCurve`] — a from-scratch d-dimensional Hilbert encoder
//!   (Skilling's transpose algorithm, eight points per call), the
//!   spatial substrate;
//! * [`HilbertMechanism`] and [`tp_plus_mechanism`] — the unified-API
//!   faces of this crate (`ldiv_api::Mechanism`), registered as
//!   `"hilbert"` and `"tp+"` in the workspace registry;
//! * [`HilbertResidue`] — the grouping as a
//!   [`ResiduePartitioner`](ldiv_core::ResiduePartitioner), which turns
//!   [`ldiv_core::anonymize`] into the paper's TP+ (the low-level layer).
//!
//! # Grouping strategy
//!
//! Tuples are bucketed by SA value, each bucket ordered by Hilbert index.
//! Groups of `l` tuples with `l` distinct SA values are formed by
//! repeatedly draining the `l` currently most frequent buckets
//! (frequency-balanced draining, the standard feasibility device from the
//! Anatomy/m-invariance line of work) and picking, within each bucket, the
//! tuple closest on the curve to the group's seed. The seed is the
//! earliest remaining tuple of the chosen buckets, so the closest is each
//! bucket's earliest. The ≤ `l − 1` leftover tuples are attached to the
//! nearest group that stays l-eligible.
//!
//! The buckets and the drain are `ldiv_microdata`'s [`SaBuckets`], the
//! ones Anatomy drains too: one flat array, each bucket sorted on
//! `(curve index, row)` and taken from its front, so a take is `O(1)`,
//! and the non-empty SA values kept sorted by `(rows left desc, SA asc)`
//! from group to group. Grouping `n` rows costs `O(n log n)` to index
//! and sort plus `O(l)` per group and the moves, with no per-group
//! re-sort of the `m` buckets. The leftover policy, nearest centre on
//! the curve, is this crate's own.
//!
//! [`SaBuckets`]: ldiv_microdata::SaBuckets

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod curve;
mod grouping;
mod mechanism;

pub use curve::HilbertCurve;
pub use grouping::{curve_order, hilbert_partition, hilbert_partition_with, HilbertResidue};
pub use mechanism::{tp_plus_mechanism, HilbertMechanism, TpPlusMechanism};
