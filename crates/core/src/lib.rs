//! The three-phase approximation algorithm ("TP") for l-diverse
//! anonymization, from Section 5 of *The Hardness and Approximation
//! Algorithms for L-Diversity* (Xiao, Yi, Tao; EDBT 2010).
//!
//! # What the algorithm does
//!
//! Tuples are first bucketed by identical QI vectors into QI-groups
//! `Q_1..Q_s`. The algorithm then moves a minimal set of tuples into the
//! *residue set* `R` so that (a) every surviving group is l-eligible and
//! (b) `R` itself is l-eligible. Publishing the surviving groups unchanged
//! (they are uniform on every attribute, hence star-free) and `R` as one
//! fully suppressed group yields an l-diverse generalization.
//!
//! * **Phase one** drains each group's *pillars* (most frequent SA values)
//!   until the group is l-eligible. If `R` ends up l-eligible the solution
//!   is *optimal* (Corollary 1).
//! * **Phase two** grows `|R|` without growing `h(R)` by pulling the least
//!   frequent *alive* SA value from alive groups. Terminating here costs at
//!   most `l − 1` extra tuples over optimal (Corollary 3).
//! * **Phase three** performs rounds of a greedy SET-COVER step plus a
//!   re-kill sweep, closing the gap `l·h(R) − |R|` by at least `l` per
//!   round; the final guarantee is an `l`-approximation for tuple
//!   minimization (Theorem 3) and hence `l·d` for star minimization
//!   (Lemma 2).
//!
//! For `l = 2` the algorithm provably never reaches phase three
//! (Theorem 2), and on the paper's datasets phase three never fired at all —
//! the `phase3` experiment binary reproduces that measurement.
//!
//! # Entry points
//!
//! * [`TpMechanism`] / [`TpHybridMechanism`] — the unified-API face
//!   (`ldiv_api::Mechanism`); construct by name through the workspace's
//!   `MechanismRegistry` (`"tp"`, `"tp+"`). This is the front door.
//! * [`tuple_minimize`] — low level: run TP, get the surviving groups, the
//!   residue and the [`TpStats`] certificate.
//! * [`anonymize`] — low level: full pipeline producing an l-diverse
//!   partition covering the whole table, with a pluggable
//!   [`ResiduePartitioner`] for the TP+ hybrid of §5.6 (the Hilbert
//!   partitioner lives in `ldiv-hilbert`).
//!
//! ```
//! use ldiv_core::{tuple_minimize, Phase};
//! use ldiv_microdata::samples;
//!
//! let table = samples::hospital();
//! let out = tuple_minimize(&table, 2).unwrap();
//! // The §5.2 walk-through: the first three QI-groups are fully drained
//! // and R = {HIV, HIV, pneumonia, bronchitis} is already 2-eligible.
//! assert_eq!(out.stats.termination_phase, Phase::One);
//! assert_eq!(out.residue.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod candidates;
mod group;
mod hybrid;
mod mechanism;
mod residue;
mod tp;

pub use hybrid::{
    anonymize, anonymize_with, AnonymizationResult, ResiduePartitioner, SingleGroupResidue,
};
pub use mechanism::{TpHybridMechanism, TpMechanism};
pub use residue::ResidueSet;
pub use tp::{tuple_minimize, tuple_minimize_groups, Phase, StructureCounters, TpOutcome, TpStats};
