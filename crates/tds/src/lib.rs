//! Top-Down Specialization (TDS) adapted to l-diversity — the
//! single-dimensional generalization baseline of the paper's §6.2.
//!
//! TDS (Fung, Wang, Yu; ICDE 2005) anonymizes by *global recoding*: each QI
//! attribute carries a taxonomy tree, the anonymization state is a *cut*
//! through every taxonomy, and the algorithm starts from the fully
//! generalized cut (every attribute collapsed to its root) and repeatedly
//! applies the best *specialization* — expanding one cut node into its
//! children — that keeps the publication private. TDS was designed for
//! k-anonymity; following the paper's footnote 3 we swap the privacy gate
//! to l-diversity: a specialization is valid when every QI-group it splits
//! leaves only l-eligible fragments.
//!
//! Specializations are ranked by the TDS score `IGPL = InfoGain /
//! (AnonyLoss + 1)`: information gain is the reduction in SA entropy over
//! the split groups, anonymity loss is the drop in the table-wide privacy
//! margin (here: the minimum over groups of `⌊|G| / h(G)⌋`, the largest
//! feasible `l`).
//!
//! The loop keeps the bookkeeping of the TDS paper's TIPS structure. A
//! group's split contribution on an attribute (its information-gain term,
//! its smallest child margin and its cut node) depends only on the group's
//! rows and its cut node there, and both change only when a specialization
//! splits that group. So each group is counted once per attribute, into
//! one dense `children × m` buffer, when it is created; a round scores
//! every candidate from the cached contributions, and applying the winner
//! recounts only the groups it split. The first round costs O(n·d); each
//! later round costs O(rows in the groups it splits × d), plus
//! O(groups × d) to score.
//!
//! The output is a [`Recoding`](ldiv_api::Recoding) (usable with
//! `ldiv_metrics::kl_divergence_recoded`) plus the induced l-diverse
//! partition.
//!
//! ```
//! use ldiv_tds::{tds_anonymize, TdsConfig};
//! use ldiv_microdata::samples;
//!
//! let table = samples::hospital();
//! let out = tds_anonymize(&table, &TdsConfig { l: 2, fanout: 2, ..Default::default() }).unwrap();
//! assert!(out.partition().is_l_diverse(&table, 2));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod algorithm;
mod mechanism;
mod taxonomy;

pub use algorithm::{tds_anonymize, ScorePolicy, TdsConfig, TdsError, TdsOutcome};
pub use mechanism::TdsMechanism;
pub use taxonomy::{Cut, Taxonomy};
