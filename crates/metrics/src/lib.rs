//! Information-loss metrics for anonymized microdata.
//!
//! Two families of measurements back the paper's evaluation:
//!
//! * **Star accounting** (§6.1) — star counts and suppression ratios are
//!   provided by `ldiv-microdata`; [`PublicationSummary`] bundles them with
//!   group-shape statistics for the experiment harness.
//! * **KL-divergence** (§6.2, Eq. 2) — the similarity between the pdf `f`
//!   induced by the microdata over `Ω = A_1 × … × A_d × B` and the pdf
//!   `f*` induced by the anonymized table, where a suppressed value
//!   spreads uniformly over its attribute domain and a coarsened value
//!   spreads uniformly over its sub-domain.
//!
//! Computing `KL(f, f*)` naively is `Σ_p`-over-support × `Σ`-over-groups.
//! Every KL kind instead packs each `(QI vector, SA)` point into one
//! `u64` key whose integer order is the point order, and finds the
//! support by sorting keys. [`kl_divergence_suppressed`] files the
//! groups' masses under their SA value, one sorted run per *star
//! pattern* (at most `2^d`, typically a handful), so each support point
//! binary-searches the runs of its own SA value. The boxes KL tests a
//! point against a packed box in a few integer operations.
//! [`kl_divergence_recoded`] exploits that single-dimensional (global)
//! recoding sends every support point to exactly one generalized cell.
//! Tables whose points don't pack into 64 bits take slice-keyed
//! reference paths with bit-identical results.
//!
//! Since the `ldiv-api` redesign, the one entry point callers need is
//! [`kl_divergence`], which accepts any mechanism's
//! [`Publication`](ldiv_api::Publication) and dispatches on its payload's
//! semantics (stars, boxes, anatomy QIT/ST, or global recoding);
//! [`PublicationSummary::of_publication`] does the same for star
//! accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod kl;
mod loss;
mod publication;
mod stats;

pub use kl::{
    kl_divergence_coarse_suppressed, kl_divergence_coarse_suppressed_with, kl_divergence_recoded,
    kl_divergence_recoded_with, kl_divergence_suppressed, kl_divergence_suppressed_with,
};
pub use loss::{discernibility, ncp_recoded, ncp_suppressed};
pub use publication::{
    kl_divergence, kl_divergence_anatomy_tables, kl_divergence_anatomy_tables_with,
    kl_divergence_boxes, kl_divergence_boxes_with, kl_divergence_with,
};
pub use stats::PublicationSummary;

/// Re-export: the recoding description now lives in the `ldiv-api`
/// contract crate (it is a publication payload); the old
/// `ldiv_metrics::Recoding` path keeps working.
pub use ldiv_api::Recoding;
