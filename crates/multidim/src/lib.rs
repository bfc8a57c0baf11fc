//! Multi-dimensional generalization (the paper's §2 third methodology and
//! the §6.2 comparison).
//!
//! Two pieces:
//!
//! * [`BoxTable`] — publications whose QI cells are per-group *sub-domain
//!   ranges* instead of stars, with the §6.2 transformation
//!   [`BoxTable::from_suppressed`]: "given any table T* generated by
//!   suppression, we may transform it into a multi-dimensional
//!   generalization T*′ by replacing each star on a QI attribute A with a
//!   sub-domain of A that contains all A values appearing in the
//!   QI-group. … T*′ always incurs less information loss than T*." The
//!   crate's tests reproduce the paper's Table 5 from Table 3 this way and
//!   verify the dominance claim on real algorithm outputs.
//! * [`mondrian_partition`] — the Mondrian kd-partitioning algorithm of
//!   LeFevre et al. (reference \[27\] of the paper, one of the three
//!   state-of-the-art methods §6.1 examined), adapted from k-anonymity to
//!   l-diversity: recursive median splits that keep both halves
//!   l-eligible.
//!
//! The KL-divergence of a `BoxTable` follows the same Eq. (2) semantics as
//! the rest of the workspace: a published range spreads its tuple's mass
//! uniformly over the covered values.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod boxes;
mod mechanism;
mod mondrian;

pub use boxes::{BoxGroup, BoxTable};
pub use mechanism::MondrianMechanism;
pub use mondrian::{mondrian_partition, mondrian_partition_with};
