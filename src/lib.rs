//! **ldiversity** — a from-scratch Rust implementation of
//! *The Hardness and Approximation Algorithms for L-Diversity*
//! (Xiao, Yi, Tao; EDBT 2010).
//!
//! # The front door: `Anonymizer`
//!
//! Every publication method the paper evaluates — TP, TP+, the Hilbert
//! baseline, Anatomy, Mondrian and TDS — implements one trait
//! ([`Mechanism`]) and returns one output shape ([`Publication`]), so
//! they are interchangeable behind a string name:
//!
//! ```
//! use ldiversity::{Anonymizer, metrics};
//! use ldiversity::microdata::samples;
//!
//! let table = samples::hospital(); // the paper's Table 1
//!
//! // TP+ (§5.6) at l = 2: the default mechanism.
//! let run = Anonymizer::new().l(2).run(&table).unwrap();
//! assert!(run.publication.is_l_diverse(&table, 2));
//!
//! // Any mechanism is one name away; stars and the Eq. (2)
//! // KL-divergence are accounted uniformly for all of them.
//! let anatomy = Anonymizer::new().l(2).mechanism("anatomy").run(&table).unwrap();
//! assert_eq!(anatomy.publication.star_count(), 0); // anatomy never stars
//! assert!(anatomy.kl <= run.kl + 1e-12); // exact QIT loses no QI information
//!
//! // The registry itself is public: enumerate, extend, dispatch.
//! let registry = ldiversity::standard_registry();
//! assert_eq!(registry.len(), 6);
//! let publication = registry
//!     .run("mondrian", &table, &ldiversity::Params::new(2))
//!     .unwrap();
//! assert!(metrics::kl_divergence(&table, &publication).is_finite());
//! ```
//!
//! The builder also folds in the §5.6 preprocessing workflow
//! (`.preprocess_depth(k)` coarsens every QI taxonomy before the
//! mechanism runs) — see [`Anonymizer`].
//!
//! # The layers
//!
//! * **Contract** — [`api`] (`ldiv-api`): [`Mechanism`],
//!   [`Publication`], [`Params`], [`MechanismRegistry`], [`LdivError`].
//! * **Front door** — [`Anonymizer`], [`standard_registry`] (this
//!   crate).
//! * **Low level** — the per-crate entry points remain public for
//!   callers who need algorithm-specific knobs or richer outputs:
//!   [`core::anonymize`] with a custom
//!   [`core::ResiduePartitioner`], [`anatomy::anatomize`] (QIT/ST CSV
//!   writers), [`multidim::mondrian_partition`] +
//!   [`multidim::BoxTable`], [`hilbert::hilbert_partition`],
//!   [`tds::tds_anonymize`] (taxonomy/score knobs), and the §5.6
//!   workflows in [`pipeline`].
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`api`] | `ldiv-api` | the unified contract: trait, publication, registry, errors |
//! | [`microdata`] | `ldiv-microdata` | tables, partitions, suppression generalization, l-eligibility |
//! | [`core`] | `ldiv-core` | the three-phase TP algorithm, TP+ hybrid hook, certificates |
//! | [`hilbert`] | `ldiv-hilbert` | Hilbert curve + the Hilbert suppression baseline |
//! | [`tds`] | `ldiv-tds` | Top-Down Specialization (single-dimensional) baseline |
//! | [`matching`] | `ldiv-matching` | Hungarian matching; optimal `m = 2` solver |
//! | [`hardness`] | `ldiv-hardness` | 3DM reduction, exhaustive reference solvers |
//! | [`datagen`] | `ldiv-datagen` | synthetic ACS-like SAL/OCC datasets |
//! | [`exec`] | `ldiv-exec` | intra-run parallelism: scoped fork-join executor with a thread budget |
//! | [`metrics`] | `ldiv-metrics` | star accounting and Eq. (2) KL, uniform over any [`Publication`] |
//! | [`pipeline`] | `ldiv-pipeline` | §5.6 preprocessing workflows and the utility sweep |
//! | [`multidim`] | `ldiv-multidim` | Mondrian and the §6.2 star→sub-domain transformation |
//! | [`server`] | `ldiv-server` | the concurrent anonymization service: HTTP listener, worker pool, publication cache, JSON wire format |
//! | [`shard`] | `ldiv-shard` | partition-level sharding: stratified splitting, concurrent shard runs, eligibility-repair stitching |
//! | [`anatomy`] | `ldiv-anatomy` | Anatomy (QI/SA table separation), the §2 alternative methodology |

#![warn(missing_docs)]

mod anonymizer;

pub use anonymizer::{standard_registry, Anonymized, Anonymizer};

/// The unified anonymization contract (re-export of `ldiv-api`).
pub use ldiv_api as api;

pub use ldiv_api::{
    AttrRange, LdivError, Mechanism, MechanismRegistry, Params, Payload, Publication, Recoding,
};

/// Microdata model: tables, schemas, partitions, generalization.
pub use ldiv_microdata as microdata;

/// The three-phase approximation algorithm (TP) and the TP+ hybrid hook.
pub use ldiv_core as core;

/// Hilbert curve substrate and the Hilbert suppression baseline.
pub use ldiv_hilbert as hilbert;

/// Top-Down Specialization, adapted to l-diversity.
pub use ldiv_tds as tds;

/// Minimum-cost matching and the optimal `m = 2` solver.
pub use ldiv_matching as matching;

/// The §4 NP-hardness reduction and exhaustive reference solvers.
pub use ldiv_hardness as hardness;

/// Synthetic ACS-like dataset generation (SAL / OCC families).
pub use ldiv_datagen as datagen;

/// Intra-run parallel execution: the scoped fork-join executor behind
/// every mechanism's thread budget.
pub use ldiv_exec as exec;

pub use ldiv_exec::{Deadline, Executor};

/// Robustness layer: panic isolation (`guarded`), fault injection
/// and cooperative shutdown signals.
pub use ldiv_guard as guard;

/// Information-loss metrics (stars, KL-divergence of Eq. 2), uniform
/// over any mechanism's publication.
pub use ldiv_metrics as metrics;

/// Observability: request-scoped tracing, stage timing, log2 latency
/// histograms and the `/stats`+`/metrics` registry.
pub use ldiv_obs as obs;

/// §5.6 workflows: preprocessing before any mechanism and the utility
/// sweep.
pub use ldiv_pipeline as pipeline;

/// Multi-dimensional generalization: Mondrian and the §6.2 transformation.
pub use ldiv_multidim as multidim;

/// The concurrent anonymization service: HTTP listener, worker pool,
/// publication cache and the JSON wire format.
pub use ldiv_server as server;

/// Partition-level sharding: stratified table splitting, concurrent
/// per-shard anonymization, eligibility-repair stitching.
pub use ldiv_shard as shard;

/// Anatomy: l-diverse publication via QI/SA table separation (§2).
pub use ldiv_anatomy as anatomy;

/// Wire formats: the deterministic JSON value type and the LDVW compact
/// binary block codec, with differential equivalence between the two.
pub use ldiv_wire as wire;

/// Persistent dataset store: fingerprinted registration, append-only
/// segments, incremental re-publication over dirty shards.
pub use ldiv_store as store;
