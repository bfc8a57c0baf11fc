//! The trait every publication method implements.

use crate::{LdivError, Params, Publication};
use ldiv_microdata::Table;

/// A publication mechanism: anything that turns a microdata table into an
/// l-diverse [`Publication`].
///
/// Implementations live next to their algorithms — `ldiv-core` (TP),
/// `ldiv-hilbert` (TP+, Hilbert), `ldiv-anatomy`, `ldiv-multidim`
/// (Mondrian) and `ldiv-tds` — and are collected into a
/// [`MechanismRegistry`](crate::MechanismRegistry) for string-keyed
/// dispatch. The trait is object-safe and `Send + Sync` so registries can
/// be shared across request-serving threads.
pub trait Mechanism: Send + Sync {
    /// The registry key and display name (`"tp"`, `"tp+"`, `"anatomy"`,
    /// `"mondrian"`, `"hilbert"`, `"tds"`, …). Lower-case by convention.
    fn name(&self) -> &str;

    /// Produces an l-diverse publication of `table` under `params`.
    ///
    /// Implementations must validate feasibility (most call
    /// [`Params::validate_for`] first) and return a publication whose
    /// partition covers the table exactly. A mechanism is
    /// *shard-oblivious*: it always publishes the single-shard output,
    /// and the `ldiv-shard` driver owns [`Params::shards`].
    fn anonymize(&self, table: &Table, params: &Params) -> Result<Publication, LdivError>;

    /// Stitches per-shard publications of `table` (row ids already
    /// mapped back to the full table, shard order preserved) into one
    /// publication, merging boundary groups that violate
    /// `params.l`-eligibility and re-deriving the payload so the result
    /// keeps this mechanism's grouping invariants.
    ///
    /// Called by the partition-level sharding driver (`ldiv-shard`)
    /// after it anonymized each shard independently. Per-shard payloads
    /// must be treated as *shape only* — their row references are
    /// shard-local and stale — except for recoded payloads, whose
    /// recodings the stitch joins ([`Recoding::join`]) into one covering
    /// the whole table.
    ///
    /// The default rebuilds each standard payload from the repaired
    /// partition (fresh stars, tight boxes, re-derived QIT/ST, joined
    /// recoding — see [`repair`](crate::repair)). Every mechanism in the
    /// workspace stitches through it; none overrides it.
    ///
    /// [`Recoding::join`]: crate::Recoding::join
    fn repair_merge(
        &self,
        table: &Table,
        params: &Params,
        shards: Vec<Publication>,
    ) -> Result<Publication, LdivError> {
        crate::repair::stitch_publications(self.name(), table, params, shards)
    }

    /// One-line human description for help output and reports.
    fn description(&self) -> &str {
        ""
    }
}
