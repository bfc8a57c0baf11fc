//! The shared parameter bag every mechanism receives.

use crate::LdivError;
use ldiv_exec::{Deadline, Executor};
use ldiv_microdata::Table;

/// Hard ceiling on the partition-level shard count, mirroring
/// [`ldiv_exec::MAX_THREADS`]; it guards against typos like
/// `--shards 100000`, not against any sane configuration.
pub const MAX_SHARDS: u32 = 64;

/// Parameters common to every publication mechanism.
///
/// Mechanisms read what applies to them: all of them honour [`l`](Params::l)
/// and may fan out over [`threads`](Params::threads); taxonomy-based methods
/// (TDS, §5.6 preprocessing) also honour [`fanout`](Params::fanout).
/// Unknown-to-a-mechanism fields are ignored by design, so one `Params`
/// value can drive a whole registry sweep. [`shards`](Params::shards) is
/// honoured by the partition-level sharding driver (`ldiv-shard`), never
/// by an individual mechanism: a direct [`Mechanism::anonymize`] call
/// always publishes the single-shard output.
///
/// [`Mechanism::anonymize`]: crate::Mechanism::anonymize
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// The diversity requirement (Definition 2). Must be ≥ 1; ≥ 2 to be
    /// useful.
    pub l: u32,
    /// Fanout of generated balanced taxonomies (TDS and preprocessing).
    pub fanout: u32,
    /// Intra-run thread budget; `0` means the machine's parallelism.
    /// **Execution-only**: every mechanism must publish byte-identical
    /// output for every budget, so this field is deliberately excluded
    /// from [`canonical`](Params::canonical) — a cached publication
    /// computed at one budget serves requests at any other.
    pub threads: u32,
    /// Partition-level shard count for the `ldiv-shard` driver; `0` and
    /// `1` both mean unsharded (sharding stays opt-in).
    /// **Output-affecting**: anonymizing K shards and stitching them
    /// publishes a different (slightly less useful) table than one
    /// global run, so the resolved count participates in
    /// [`canonical`](Params::canonical) and therefore in cache keys.
    pub shards: u32,
    /// The run's time budget, anchored to an absolute instant when the
    /// request enters the system ([`Deadline::none`] by default).
    /// **Execution-only**, exactly like [`threads`](Params::threads): a
    /// deadline either lets the run finish (same bytes as an unlimited
    /// run) or aborts it with [`LdivError::DeadlineExceeded`] — it never
    /// changes a published table — so it is excluded from
    /// [`canonical`](Params::canonical) and cache keys.
    pub deadline: Deadline,
}

impl Params {
    /// Parameters at diversity `l` with default fanout 2, the machine's
    /// thread budget and no sharding.
    pub fn new(l: u32) -> Self {
        Params {
            l,
            fanout: 2,
            threads: 0,
            shards: 1,
            deadline: Deadline::none(),
        }
    }

    /// Replaces the taxonomy fanout.
    pub fn with_fanout(mut self, fanout: u32) -> Self {
        self.fanout = fanout;
        self
    }

    /// Replaces the intra-run thread budget (`0` = the machine's
    /// parallelism, `1` = strictly sequential).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the partition-level shard count (`0` or `1` =
    /// unsharded).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Attaches a time budget to the run. The deadline is an absolute
    /// instant, so every shard and nested fork of this run expires at
    /// the same moment. Execution-only — never part of the cache key.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The shard count this run publishes with: [`shards`](Params::shards)
    /// clamped to `1..=`[`MAX_SHARDS`], so `0` publishes what `1` does.
    /// Output depends on this resolution, which is why
    /// [`canonical`](Params::canonical) spells it out instead of the raw
    /// field. (On degenerate inputs the driver may effectively run fewer
    /// shards — a K-way split needs K rows; the publication's stitch
    /// note records the effective count.)
    pub fn resolved_shards(&self) -> u32 {
        self.shards.clamp(1, MAX_SHARDS)
    }

    /// The [`Executor`] for this run's thread budget, carrying the
    /// run's deadline. Mechanisms use this for their fork-join and
    /// reduction fan-out; the executor's loops double as the
    /// cooperative cancellation points.
    pub fn executor(&self) -> Executor {
        Executor::new(self.threads).with_deadline(self.deadline)
    }

    /// The canonical, order-stable text form of the *output-affecting*
    /// parameters — `l=4;fanout=2;shards=1` — used as a cache-key
    /// component and in wire responses.
    ///
    /// Every output-affecting field participates, fields appear in
    /// declaration order, and defaults are spelled out rather than
    /// omitted. [`threads`](Params::threads) is excluded on purpose: the
    /// determinism contract guarantees the thread budget never changes a
    /// publication, so including it would only split cache lines that
    /// hold identical results. [`shards`](Params::shards) *does* change
    /// the published table, so its **resolved** value is included (`0`
    /// and `1` publish the same table, so they share one key). New
    /// fields must be classified here when they are added to the struct
    /// (the exhaustive destructuring below makes forgetting a compile
    /// error).
    pub fn canonical(&self) -> String {
        let Params {
            l,
            fanout,
            threads: _,  // execution-only: must never affect output
            shards: _,   // spelled out resolved, below
            deadline: _, // execution-only: finishes or 504s, never changes bytes
        } = *self;
        format!("l={l};fanout={fanout};shards={}", self.resolved_shards())
    }

    /// Checks that the parameters are internally valid and feasible for a
    /// table: `l ≥ 1`, `fanout ≥ 2`, and the table is l-eligible.
    pub fn validate_for(&self, table: &Table) -> Result<(), LdivError> {
        if self.l == 0 {
            return Err(LdivError::InvalidL(self.l));
        }
        if self.fanout < 2 {
            return Err(LdivError::InvalidParams(format!(
                "taxonomy fanout must be at least 2, got {}",
                self.fanout
            )));
        }
        table.check_l_feasible(self.l)?;
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    #[test]
    fn canonical_form_is_total_and_injective_on_output_fields() {
        assert_eq!(
            Params::new(4).with_shards(1).canonical(),
            "l=4;fanout=2;shards=1"
        );
        assert_eq!(
            Params::new(4).with_fanout(3).with_shards(1).canonical(),
            "l=4;fanout=3;shards=1"
        );
        assert_ne!(Params::new(4).canonical(), Params::new(5).canonical());
        assert_ne!(
            Params::new(4).canonical(),
            Params::new(4).with_fanout(4).canonical()
        );
        assert_ne!(
            Params::new(4).with_shards(1).canonical(),
            Params::new(4).with_shards(2).canonical(),
            "sharding changes the published table, so it must move the key"
        );
    }

    #[test]
    fn shard_resolution_spells_out_auto_and_clamps() {
        assert_eq!(Params::new(4).with_shards(3).resolved_shards(), 3);
        assert_eq!(Params::new(4).with_shards(1_000_000).resolved_shards(), 64);
        // `0` publishes what `1` does, and the canonical string (a cache
        // key component) says so: the two share one key.
        assert_eq!(Params::new(4).resolved_shards(), 1);
        assert_eq!(Params::new(4).with_shards(0).resolved_shards(), 1);
        assert_eq!(
            Params::new(4).with_shards(0).canonical(),
            "l=4;fanout=2;shards=1"
        );
        assert_eq!(Params::new(4).canonical(), "l=4;fanout=2;shards=1");
    }

    #[test]
    fn canonical_form_ignores_the_thread_budget() {
        // Regression (cache-key stability): the thread budget is
        // execution-only — publications are byte-identical across
        // budgets — so the server cache must keep hitting when the same
        // request arrives with a different `threads`. If this test
        // breaks, every cached publication silently stops being shared
        // across thread configurations.
        let base = Params::new(4).with_fanout(3).with_shards(2);
        for threads in [0u32, 1, 2, 8, 64] {
            assert_eq!(
                base.with_threads(threads).canonical(),
                base.canonical(),
                "threads={threads} must not change the cache key"
            );
        }
    }

    #[test]
    fn canonical_form_ignores_the_deadline() {
        // Regression (cache-key stability): a deadline either lets the
        // run publish the same bytes as an unlimited run or aborts it
        // with DeadlineExceeded — it never alters output — so
        // `--deadline-ms` must not split cache lines. Every request
        // anchors a *fresh* Instant; if the deadline leaked into
        // canonical(), no two requests would ever share a cache entry.
        let base = Params::new(4).with_fanout(3).with_shards(2);
        for ms in [1u64, 50, 10_000] {
            assert_eq!(
                base.with_deadline(Deadline::within_ms(ms)).canonical(),
                base.canonical(),
                "deadline_ms={ms} must not change the cache key"
            );
        }
        assert_eq!(
            base.with_deadline(Deadline::none()).canonical(),
            base.with_deadline(Deadline::within_ms(25)).canonical()
        );
    }

    #[test]
    fn executor_carries_the_deadline() {
        let p = Params::new(2).with_deadline(Deadline::within_ms(60_000));
        assert!(p.executor().deadline().is_limited());
        assert!(!Params::new(2).executor().deadline().is_limited());
    }

    #[test]
    fn executor_honours_the_budget() {
        assert_eq!(Params::new(2).with_threads(1).executor().threads(), 1);
        assert_eq!(Params::new(2).with_threads(5).executor().threads(), 5);
        assert!(Params::new(2).executor().threads() >= 1); // all cores
    }

    #[test]
    fn validation_catches_bad_l_and_fanout() {
        let t = samples::hospital();
        assert!(matches!(
            Params::new(0).validate_for(&t),
            Err(LdivError::InvalidL(0))
        ));
        assert!(matches!(
            Params::new(2).with_fanout(1).validate_for(&t),
            Err(LdivError::InvalidParams(_))
        ));
        assert!(Params::new(2).validate_for(&t).is_ok());
        // The hospital table is not 3-eligible (HIV appears 4× in 10 rows).
        assert!(matches!(
            Params::new(4).validate_for(&t),
            Err(LdivError::Infeasible(_))
        ));
    }
}
