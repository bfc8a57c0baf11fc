//! Microdata table model and l-diversity primitives.
//!
//! This crate implements Section 3 of *The Hardness and Approximation
//! Algorithms for L-Diversity* (Xiao, Yi, Tao; EDBT 2010): categorical
//! microdata tables with `d` quasi-identifier (QI) attributes and one
//! sensitive attribute (SA), partitions into QI-groups, suppression-based
//! generalization (Definition 1), and l-eligibility (Definition 2).
//!
//! # Model
//!
//! * A [`Schema`] names the QI attributes and the SA and fixes each
//!   categorical domain's cardinality. Values are dense integer codes
//!   `0..domain_size`, mirroring the paper's assumption that SA values come
//!   from `[m] = {1, ..., m}` (we use zero-based codes).
//! * A [`Table`] stores `n` rows in flat, row-major columnar buffers —
//!   `n × d` QI codes plus `n` SA codes — so scans touch contiguous memory.
//! * A [`Partition`] is a disjoint cover of row ids by QI-groups; applying
//!   it with [`generalize`](Table::generalize) yields a
//!   [`SuppressedTable`]: per group, every attribute on which the group is
//!   not uniform is replaced by a star.
//! * [`is_l_eligible`] and friends implement Definition 2 together with the
//!   monotonicity property (Lemma 1) used throughout the algorithms.
//! * [`SaBuckets`] and [`OpenGroup`] are the frequency-balanced drain that
//!   the Hilbert baseline and Anatomy group rows with: while at least `l`
//!   SA buckets hold rows, one group takes a row from each of the `l`
//!   fullest.
//!
//! # Quick example
//!
//! ```
//! use ldiv_microdata::{samples, Partition};
//!
//! let table = samples::hospital(); // Table 1 of the paper
//! // The paper's Table 3: a 2-diverse partition into three QI-groups.
//! let partition = Partition::new(vec![
//!     vec![0, 1, 2, 3],
//!     vec![4, 5, 6, 7],
//!     vec![8, 9],
//! ]).unwrap();
//! assert!(partition.is_l_diverse(&table, 2));
//! let published = table.generalize(&partition);
//! assert_eq!(published.star_count(), 8); // 4 Age stars + 4 Education stars
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod csvio;
mod drain;
mod eligibility;
mod error;
mod fingerprint;
mod generalize;
mod partition;
pub mod principles;
pub mod samples;
mod schema;
mod table;

pub use csvio::{
    escape_cell, read_csv, read_csv_with, split_csv_line, write_generalized_csv, write_table_csv,
};
pub use drain::{OpenGroup, SaBuckets};
pub use eligibility::{is_l_eligible, l_eligible_histogram, max_l_for, SaHistogram};
pub use error::MicrodataError;
pub use fingerprint::Fnv1a;
pub use generalize::{GroupShape, SuppressedTable, STAR_TEXT};
pub use partition::Partition;
pub use schema::{Attribute, Schema};
pub use table::{Table, TableBuilder};

/// Dense categorical code for a QI or SA value.
///
/// Domains in this library are small (the paper's largest is 79, see its
/// Table 6), but `u16` leaves generous head-room for synthetic stress tests.
pub type Value = u16;

/// Row identifier inside a [`Table`] (tables up to 2^32 rows).
pub type RowId = u32;

/// Index of a QI attribute (`0..d`).
pub type AttrId = usize;
