//! The workspace front door: the standard mechanism registry and the
//! [`Anonymizer`] builder.

use ldiv_api::{LdivError, MechanismRegistry, Params, Publication, Recoding};
use ldiv_microdata::Table;

/// The registry holding every publication method this workspace ships,
/// constructible by name:
///
/// | Name | Mechanism | Payload |
/// |---|---|---|
/// | `"tp"` | three-phase tuple minimization (§5) | suppressed |
/// | `"tp+"` | TP + Hilbert residue refinement (§5.6) | suppressed |
/// | `"hilbert"` | curve-ordered grouping baseline (§6.1) | suppressed |
/// | `"anatomy"` | QI/SA table separation (§2) | anatomy QIT/ST |
/// | `"mondrian"` | l-gated median kd-splits (§6.2) | boxes |
/// | `"tds"` | top-down specialization (§6.2) | recoded |
pub fn standard_registry() -> MechanismRegistry {
    MechanismRegistry::new()
        .with(Box::new(ldiv_core::TpMechanism))
        .with(Box::new(ldiv_hilbert::tp_plus_mechanism()))
        .with(Box::new(ldiv_hilbert::HilbertMechanism))
        .with(Box::new(ldiv_anatomy::AnatomyMechanism))
        .with(Box::new(ldiv_multidim::MondrianMechanism))
        .with(Box::new(ldiv_tds::TdsMechanism))
}

/// The result of an [`Anonymizer`] run: the publication plus everything
/// needed to interpret it against the *original* table.
#[derive(Debug, Clone)]
pub struct Anonymized {
    /// The mechanism's publication. With preprocessing it describes the
    /// coarsened table ([`coarse_table`](Anonymized::coarse_table)).
    pub publication: Publication,
    /// The §5.6 preprocessing recoding, when one was applied.
    pub recoding: Option<Recoding>,
    /// The coarsened table the mechanism actually ran on, when
    /// preprocessing was applied.
    pub coarse_table: Option<Table>,
    /// Eq. (2) KL-divergence of the publication measured against the
    /// original input table (mixed star/bucket semantics under
    /// preprocessing).
    pub kl: f64,
}

impl Anonymized {
    /// Stars in the publication (0 for non-suppression payloads).
    pub fn star_count(&self) -> usize {
        self.publication.star_count()
    }

    /// The table the publication's partition refers to — the coarse table
    /// under preprocessing, otherwise the caller's input.
    pub fn published_table<'a>(&'a self, original: &'a Table) -> &'a Table {
        self.coarse_table.as_ref().unwrap_or(original)
    }
}

/// Builder-style front door over the [`MechanismRegistry`]:
///
/// ```
/// use ldiversity::Anonymizer;
/// use ldiversity::datagen::{sal, AcsConfig};
///
/// let table = sal(&AcsConfig { rows: 2_000, seed: 5 })
///     .project(&[0, 5])
///     .unwrap();
/// let run = Anonymizer::new()
///     .l(4)
///     .mechanism("tp+")
///     .preprocess_depth(2)
///     .run(&table)
///     .unwrap();
/// assert!(run
///     .publication
///     .is_l_diverse(run.published_table(&table), 4));
/// assert!(run.kl.is_finite());
/// ```
///
/// Defaults: mechanism `"tp+"`, `l = 2`, fanout 2, no preprocessing,
/// the [`standard_registry`]. Preprocessing (§5.6) coarsens every QI
/// attribute's balanced taxonomy to the given depth before the mechanism
/// runs — only meaningful for suppression mechanisms (`tp`, `tp+`,
/// `hilbert`); other payloads make [`Anonymizer::run`] return
/// [`LdivError::InvalidParams`].
pub struct Anonymizer {
    registry: MechanismRegistry,
    mechanism: String,
    params: Params,
    preprocess_depth: Option<u32>,
    deadline_ms: u64,
}

impl Default for Anonymizer {
    fn default() -> Self {
        Anonymizer::new()
    }
}

impl Anonymizer {
    /// An anonymizer over the [`standard_registry`], defaulting to
    /// `"tp+"` at `l = 2`.
    pub fn new() -> Self {
        Anonymizer::with_registry(standard_registry())
    }

    /// An anonymizer over a custom registry (e.g. one extended with
    /// downstream mechanisms).
    pub fn with_registry(registry: MechanismRegistry) -> Self {
        Anonymizer {
            registry,
            mechanism: "tp+".to_string(),
            params: Params::default(),
            preprocess_depth: None,
            deadline_ms: 0,
        }
    }

    /// Sets the diversity requirement `l`.
    pub fn l(mut self, l: u32) -> Self {
        self.params.l = l;
        self
    }

    /// Sets the taxonomy fanout (TDS and preprocessing).
    pub fn fanout(mut self, fanout: u32) -> Self {
        self.params.fanout = fanout;
        self
    }

    /// Sets the intra-run thread budget (`0` = the machine's
    /// parallelism, `1` = strictly sequential).
    ///
    /// Execution-only: the publication is byte-identical for every
    /// budget — the differential suite `tests/parallel_equivalence.rs`
    /// enforces this for every registered mechanism.
    pub fn threads(mut self, threads: u32) -> Self {
        self.params.threads = threads;
        self
    }

    /// Sets the partition-level shard count (`0` or `1` = unsharded, the
    /// default). With K > 1 the run splits the table K ways
    /// (`ldiv-shard`), anonymizes the shards concurrently and stitches
    /// them with eligibility repair.
    ///
    /// **Output-affecting**, unlike [`threads`](Anonymizer::threads):
    /// the stitched table trades a little utility for shard-level
    /// scaling — `tests/shard_equivalence.rs` bounds the trade and pins
    /// `shards = 1` byte-identical to the unsharded path. The §5.6
    /// preprocessing workflow runs unsharded: combining
    /// [`preprocess_depth`](Anonymizer::preprocess_depth) with a shard
    /// count > 1 makes [`run`](Anonymizer::run) return
    /// [`LdivError::InvalidParams`] rather than silently dropping the
    /// request.
    pub fn shards(mut self, shards: u32) -> Self {
        self.params.shards = shards;
        self
    }

    /// Caps the run's wall-clock budget in milliseconds (`0` =
    /// unlimited, the default). An elapsed budget makes
    /// [`run`](Anonymizer::run) return
    /// [`LdivError::DeadlineExceeded`] — never a partial publication.
    ///
    /// Execution-only, like [`threads`](Anonymizer::threads): a run
    /// either finishes with the same bytes it would have produced
    /// without a deadline, or errors. The deadline never appears in
    /// [`Params::canonical`], so cache keys are unaffected.
    ///
    /// The budget anchors when [`run`](Anonymizer::run) is called, not
    /// here, so a builder can be configured ahead of time and reused.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Selects the mechanism by registry name (`"tp"`, `"tp+"`,
    /// `"anatomy"`, `"mondrian"`, `"hilbert"`, `"tds"`, …).
    pub fn mechanism(mut self, name: impl Into<String>) -> Self {
        self.mechanism = name.into();
        self
    }

    /// Replaces the whole parameter bag.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Enables §5.6 preprocessing: cut every attribute's balanced
    /// taxonomy at `depth` (0 = fully generalized) and run the mechanism
    /// on the coarsened table.
    ///
    /// The coarse table always runs unsharded: a
    /// [`shards`](Anonymizer::shards) count > 1 is rejected with
    /// [`LdivError::InvalidParams`].
    pub fn preprocess_depth(mut self, depth: u32) -> Self {
        self.preprocess_depth = Some(depth);
        self
    }

    /// The registry backing this builder.
    pub fn registry(&self) -> &MechanismRegistry {
        &self.registry
    }

    /// Runs the configured mechanism, validating its output.
    ///
    /// The whole run sits behind `ldiv-guard`: a mechanism panic comes
    /// back as [`LdivError::Internal`] and an elapsed
    /// [`deadline_ms`](Anonymizer::deadline_ms) budget as
    /// [`LdivError::DeadlineExceeded`] — callers never see an unwinding
    /// panic. The deadline anchors here, so every internal executor
    /// (shards, metrics, preprocessing) shares one absolute expiry.
    pub fn run(&self, table: &Table) -> Result<Anonymized, LdivError> {
        let params = self
            .params
            .with_deadline(ldiv_api::Deadline::within_ms(self.deadline_ms));
        ldiv_guard::guarded("anonymizer", || self.run_inner(table, &params))
    }

    fn run_inner(&self, table: &Table, params: &Params) -> Result<Anonymized, LdivError> {
        match self.preprocess_depth {
            None => {
                let publication =
                    ldiv_shard::run_sharded(&self.registry, &self.mechanism, table, params)?;
                publication.validate(table, params.l)?;
                let kl = ldiv_metrics::kl_divergence_with(table, &publication, &params.executor());
                Ok(Anonymized {
                    publication,
                    recoding: None,
                    coarse_table: None,
                    kl,
                })
            }
            Some(depth) => {
                // Preprocessing runs unsharded; a requested shard count
                // would be silently dropped, so reject it (the CLI
                // surfaces the same conflict as a usage error before it
                // ever reaches this path).
                if params.shards > 1 {
                    return Err(LdivError::InvalidParams(format!(
                        "preprocessing (preprocess_depth) runs unsharded; drop the explicit \
                         shards={} or drop the preprocessing depth for a sharded run",
                        params.shards
                    )));
                }
                let mechanism = self.registry.get_or_unknown(&self.mechanism)?;
                let recoding =
                    ldiv_pipeline::uniform_recoding(table.schema(), params.fanout, depth);
                let run = ldiv_pipeline::anonymize_preprocessed_with(
                    table, &recoding, mechanism, params,
                )?;
                run.publication.validate(&run.coarse_table, params.l)?;
                let publication = run.publication;
                let kl = run.kl.ok_or_else(|| {
                    LdivError::InvalidParams(format!(
                        "preprocessing requires a suppression mechanism, but '{}' \
                         publishes a {} payload",
                        self.mechanism,
                        match publication.payload() {
                            ldiv_api::Payload::Boxes(_) => "boxes",
                            ldiv_api::Payload::Anatomy(_) => "anatomy",
                            ldiv_api::Payload::Recoded(_) => "recoded",
                            ldiv_api::Payload::Suppressed(_) => unreachable!(),
                        }
                    ))
                })?;
                Ok(Anonymized {
                    publication,
                    recoding: Some(run.recoding),
                    coarse_table: Some(run.coarse_table),
                    kl,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    #[test]
    fn standard_registry_holds_all_six_names() {
        let reg = standard_registry();
        assert_eq!(
            reg.names(),
            vec!["anatomy", "hilbert", "mondrian", "tds", "tp", "tp+"]
        );
    }

    #[test]
    fn builder_runs_every_mechanism_on_the_hospital_table() {
        let t = samples::hospital();
        for name in standard_registry().names() {
            let run = Anonymizer::new()
                .l(2)
                .mechanism(name)
                .run(&t)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(run.publication.is_l_diverse(&t, 2), "{name}");
            assert!(run.kl.is_finite() && run.kl >= -1e-9, "{name}: {}", run.kl);
        }
    }

    #[test]
    fn sharded_builder_runs_stay_l_diverse_for_every_mechanism() {
        let t = samples::hospital();
        for name in standard_registry().names() {
            let run = Anonymizer::new()
                .l(2)
                .mechanism(name)
                .shards(2)
                .run(&t)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(run.publication.is_l_diverse(&t, 2), "{name}");
            assert!(run.kl.is_finite() && run.kl >= -1e-9, "{name}: {}", run.kl);
            // `run` validated the publication, which includes full cover.
            assert_eq!(run.publication.covered_rows(), t.len(), "{name}");
        }
    }

    #[test]
    fn unknown_mechanism_is_reported() {
        let t = samples::hospital();
        let err = Anonymizer::new().mechanism("nope").run(&t).unwrap_err();
        assert!(matches!(err, LdivError::UnknownMechanism { .. }));
    }

    #[test]
    fn preprocessing_rejects_an_explicit_shard_count() {
        // The CLI surfaces this conflict as a usage error; the library
        // must not silently drop the requested sharding either. `0`
        // stays permitted: it means unsharded, like `1`.
        let t = samples::hospital();
        let err = Anonymizer::new()
            .l(2)
            .shards(4)
            .preprocess_depth(1)
            .run(&t)
            .unwrap_err();
        assert!(matches!(err, LdivError::InvalidParams(_)), "{err}");
        assert!(err.to_string().contains("unsharded"), "{err}");
        Anonymizer::new()
            .l(2)
            .shards(0)
            .preprocess_depth(1)
            .run(&t)
            .unwrap();
    }

    #[test]
    fn preprocessing_rejects_non_suppression_mechanisms() {
        let t = samples::hospital();
        let err = Anonymizer::new()
            .l(2)
            .mechanism("tds")
            .preprocess_depth(1)
            .run(&t)
            .unwrap_err();
        assert!(matches!(err, LdivError::InvalidParams(_)), "{err}");
    }
}
