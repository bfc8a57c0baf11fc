//! `ldiv-shard` — partition-level sharding for the `ldiversity`
//! workspace.
//!
//! Intra-run parallelism (`ldiv-exec`) speeds a mechanism up without
//! changing its output, but every mechanism keeps a sequential residue
//! (Hilbert/Anatomy draining loops, TP's greedy phases). This crate is
//! the next scaling lever the ROADMAP names: *split the table, anonymize
//! shards, stitch with eligibility repair*. Unlike `--threads` it
//! **changes the published table** — K independent publications stitched
//! together are slightly less useful than one global run — which is why
//! [`Params::shards`] participates in [`Params::canonical`] and why the
//! differential harness (`tests/shard_equivalence.rs`) gates the
//! guarantee: row multiset preserved, every stitched group l-eligible,
//! `shards = 1` byte-identical to the unsharded path, and a bounded
//! KL-utility delta.
//!
//! # The pipeline
//!
//! 1. **Split** ([`stratified_shards`]): rows are ordered by sensitive
//!    value (a deterministic, SA-stratified shuffle) and dealt
//!    round-robin into K shards, so each shard sees the table's SA
//!    histogram scaled by ≈1/K and stays as close to
//!    l-eligible-feasible as any K-way split can be. Shard row ids keep
//!    their original relative order, preserving QI locality for the
//!    grouping mechanisms.
//! 2. **Anonymize** ([`stitch_shards`]): each shard runs the mechanism
//!    independently, fanned out on the run's existing `ldiv-exec` thread
//!    budget (the budget is *shared*, not multiplied: K shards over T
//!    threads give each inner run ⌊T/K⌋ threads — an execution detail
//!    that never changes bytes). A shard that is not feasible at the
//!    caller's l runs at the largest l′ it can honour.
//! 3. **Stitch** ([`Mechanism::repair_merge`]): per-shard publications
//!    are remapped to global row ids and handed to the mechanism's
//!    stitch, which merges any boundary groups violating l-eligibility
//!    (Lemma 1 guarantees the merge is sound and the whole-table
//!    feasibility check that it terminates) and rebuilds the payload
//!    under the mechanism's grouping invariants. No mechanism overrides
//!    the trait's default stitch.
//!
//! [`stitch_shards`] runs steps 2 and 3 for any shard plan. Two callers
//! share it: [`anonymize_sharded`], on the split above, and the
//! incremental publisher (`ldiv-store`), on its append-stable plan,
//! whose shard runs reload a persisted result where one fits.
//!
//! Determinism: the split is a pure function of the table and K, shard
//! fan-out preserves shard order, and the repair pass is
//! deterministic — so sharded output is byte-identical across thread
//! budgets, exactly like unsharded output
//! (`tests/parallel_equivalence.rs` runs the same gate through this
//! driver).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ldiv_api::{LdivError, Mechanism, MechanismRegistry, Params, Publication};
use ldiv_microdata::{Partition, RowId, Table};

pub use ldiv_api::MAX_SHARDS;

/// Splits a table's rows into `k` shards by sensitive-value-stratified
/// dealing: rows are ordered by SA value (stable, so original order
/// breaks ties) and position `p` of that order goes to shard `p mod k`.
/// Every SA value is spread across shards within ±1 of perfectly even,
/// so each shard's histogram is the table's scaled by ≈1/K — the best
/// l-eligibility a K-way split can preserve. Each shard's rows are
/// returned ascending (original relative order).
///
/// `k` is clamped to `1..=min(n, MAX_SHARDS)`, so shards are never
/// empty; the clamped list length is the effective shard count.
pub fn stratified_shards(table: &Table, k: u32) -> Vec<Vec<RowId>> {
    let n = table.len();
    let k = (k as usize).clamp(1, n.max(1)).min(MAX_SHARDS as usize);
    if k <= 1 {
        return vec![(0..n as RowId).collect()];
    }
    let mut order: Vec<RowId> = (0..n as RowId).collect();
    order.sort_by_key(|&r| table.sa_value(r)); // stable: ties keep row order
    let mut shards: Vec<Vec<RowId>> = (0..k).map(|_| Vec::with_capacity(n / k + 1)).collect();
    for (p, &r) in order.iter().enumerate() {
        shards[p % k].push(r);
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards
}

/// Remaps a publication's partition from shard-local row ids to the
/// global ids in `rows` (`local i` → `rows[i]`). The payload is carried
/// along unchanged — its row references become stale, which is exactly
/// the contract [`Mechanism::repair_merge`] documents (payloads are
/// shape + recoding only until the stitch rebuilds them). Per-shard
/// notes are dropped here: every stitch builds a fresh publication
/// whose notes describe the stitch itself, not K copies of each
/// shard's diagnostics.
///
/// [`stitch_shards`] runs every shard result through it.
pub fn remap_to_global(publication: Publication, rows: &[RowId]) -> Publication {
    let (mechanism, partition, payload, _notes) = publication.into_parts();
    let groups = partition
        .groups()
        .iter()
        .map(|g| g.iter().map(|&local| rows[local as usize]).collect())
        .collect();
    Publication::new(mechanism, Partition::new_unchecked(groups), payload)
}

/// The parameters an individual shard runs with: the caller's l clamped
/// to the largest value the shard sub-table can honour (never below 1),
/// the caller's fanout, the given inner thread budget, a single shard
/// (the sub-run must not recurse), and the caller's absolute deadline
/// (all shards share one expiry).
///
/// [`stitch_shards`] hands these to every shard run, so a result the
/// incremental publisher (`ldiv-store`) persisted under them is
/// interchangeable with a fresh one.
pub fn shard_params(params: &Params, sub: &Table, inner_threads: u32) -> Params {
    Params {
        l: params.l.min(sub.max_feasible_l()).max(1),
        fanout: params.fanout,
        threads: inner_threads,
        shards: 1,
        deadline: params.deadline,
    }
}

/// What [`stitch_shards`] returns: the stitched publication, carrying
/// only the stitch's own note, and the two shard counts its callers
/// report.
#[derive(Debug)]
pub struct Stitched {
    /// The l-diverse publication of the whole table.
    pub publication: Publication,
    /// Shards that ran below the caller's l (their sub-table could not
    /// honour it).
    pub reduced_l: usize,
    /// Shards whose run reported a reused result.
    pub reused: usize,
}

/// Runs a shard plan and stitches the results: the one shard driver
/// behind [`anonymize_sharded`] and the incremental publisher
/// (`ldiv-store`).
///
/// In order: checks `params` against the whole table (whole-table
/// feasibility at l is what guarantees the eligibility repair
/// terminates); gives each of the K shards ⌊T/K⌋ of the run's T threads
/// (at least one; execution-only, any budget publishes the same bytes);
/// calls `run(i, sub, sub_params)` for every shard on the run's
/// executor, where `sub` is the shard's sub-table and `sub_params` its
/// [`shard_params`]; maps each result back to table row ids
/// ([`remap_to_global`]); and stitches them in plan order with the
/// mechanism's [`repair_merge`](Mechanism::repair_merge) under the
/// `shard:repair_merge` span. `run` returns the shard's publication in
/// sub-table row ids and whether it was reused rather than computed.
/// The first failing shard, in plan order, fails the whole run.
pub fn stitch_shards<F>(
    mechanism: &dyn Mechanism,
    table: &Table,
    params: &Params,
    plan: &[Vec<RowId>],
    run: F,
) -> Result<Stitched, LdivError>
where
    F: Fn(usize, &Table, &Params) -> Result<(Publication, bool), LdivError> + Sync,
{
    params.validate_for(table)?;
    let exec = params.executor();
    let inner_threads = (exec.threads() / plan.len().max(1)).max(1) as u32;
    let indexed: Vec<(usize, &Vec<RowId>)> = plan.iter().enumerate().collect();
    let results = exec.map(&indexed, |&(i, rows)| {
        let sub = table.select_rows(rows);
        let sub_params = shard_params(params, &sub, inner_threads);
        run(i, &sub, &sub_params)
            .map(|(publication, reused)| (remap_to_global(publication, rows), sub_params.l, reused))
    });
    let mut publications = Vec::with_capacity(plan.len());
    let (mut reduced_l, mut reused) = (0usize, 0usize);
    for result in results {
        let (publication, l, hit) = result?;
        reduced_l += usize::from(l < params.l);
        reused += usize::from(hit);
        publications.push(publication);
    }
    let _stitch = ldiv_obs::span("shard:repair_merge");
    Ok(Stitched {
        publication: mechanism.repair_merge(table, params, publications)?,
        reduced_l,
        reused,
    })
}

/// Anonymizes `table` under `params` with partition-level sharding:
/// split K ways ([`stratified_shards`]), run `mechanism` on each shard
/// through [`stitch_shards`], and note the run
/// (`"sharded: K shards, R ran below l=L"`).
///
/// With a resolved shard count of 1 this **is** `mechanism.anonymize` —
/// same bytes, same errors — so sharding stays strictly opt-in
/// (`tests/shard_equivalence.rs` pins the byte-identity per mechanism).
/// With K > 1 the caller's parameters are validated against the whole
/// table first; a shard that is not feasible at `params.l` runs at the
/// largest l′ it can honour and the stitch repairs the difference.
pub fn anonymize_sharded(
    mechanism: &dyn Mechanism,
    table: &Table,
    params: &Params,
) -> Result<Publication, LdivError> {
    let k = params.resolved_shards();
    if k <= 1 || table.len() <= 1 {
        let _run = ldiv_obs::span_labeled("shard:anonymize", || format!("{}#0", mechanism.name()));
        return mechanism.anonymize(table, params);
    }
    let shards = {
        let _split = ldiv_obs::span("shard:split");
        stratified_shards(table, k)
    };
    let stitched = stitch_shards(mechanism, table, params, &shards, |i, sub, sub_params| {
        let _run =
            ldiv_obs::span_labeled("shard:anonymize", || format!("{}#{i}", mechanism.name()));
        Ok((mechanism.anonymize(sub, sub_params)?, false))
    })?;
    let mut publication = stitched.publication;
    publication.push_note(format!(
        "sharded: {} shards, {} ran below l={}",
        shards.len(),
        stitched.reduced_l,
        params.l
    ));
    Ok(publication)
}

/// [`anonymize_sharded`] through a [`MechanismRegistry`]: the sharding
/// analogue of [`MechanismRegistry::run`], reporting
/// [`LdivError::UnknownMechanism`] with the known names when the lookup
/// fails. This is the entry point the facade `Anonymizer`, the CLI and
/// the server dispatch through.
pub fn run_sharded(
    registry: &MechanismRegistry,
    name: &str,
    table: &Table,
    params: &Params,
) -> Result<Publication, LdivError> {
    anonymize_sharded(registry.get_or_unknown(name)?, table, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_datagen::{sal, AcsConfig};
    use ldiv_microdata::{samples, SaHistogram};

    fn mechanisms() -> Vec<Box<dyn Mechanism>> {
        vec![
            Box::new(ldiv_core::TpMechanism),
            Box::new(ldiv_anatomy::AnatomyMechanism),
            Box::new(ldiv_multidim::MondrianMechanism),
            Box::new(ldiv_tds::TdsMechanism),
        ]
    }

    #[test]
    fn stratified_split_balances_every_sa_value() {
        let table = sal(&AcsConfig {
            rows: 4_000,
            seed: 3,
        });
        for k in [2u32, 3, 7] {
            let shards = stratified_shards(&table, k);
            assert_eq!(shards.len(), k as usize);
            let mut covered: Vec<RowId> = shards.iter().flatten().copied().collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..table.len() as RowId).collect::<Vec<_>>());
            let full = table.sa_histogram();
            for shard in &shards {
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
                let hist = SaHistogram::of_rows(&table, shard);
                for (value, count) in full.present_values() {
                    let share = hist.count(value) as i64;
                    let fair = count as i64 / k as i64;
                    assert!(
                        (share - fair).abs() <= 1,
                        "k={k}: value {value} has {share} of {count} in one shard"
                    );
                }
            }
        }
    }

    #[test]
    fn split_clamps_degenerate_shard_counts() {
        let t = samples::hospital(); // 10 rows
        assert_eq!(stratified_shards(&t, 0).len(), 1);
        assert_eq!(stratified_shards(&t, 1).len(), 1);
        assert_eq!(stratified_shards(&t, 25).len(), 10); // one row each
        assert_eq!(stratified_shards(&t, 1)[0].len(), 10);
    }

    #[test]
    fn shards_one_is_the_mechanism_itself() {
        let t = samples::hospital();
        let params = Params::new(2).with_shards(1);
        for m in mechanisms() {
            let direct = m.anonymize(&t, &params).unwrap();
            let sharded = anonymize_sharded(m.as_ref(), &t, &params).unwrap();
            assert_eq!(direct, sharded, "{}", m.name());
        }
    }

    #[test]
    fn sharded_runs_are_l_eligible_and_row_preserving() {
        let table = sal(&AcsConfig {
            rows: 2_000,
            seed: 11,
        })
        .project(&[0, 5])
        .unwrap();
        for m in mechanisms() {
            for k in [2u32, 4] {
                let params = Params::new(4).with_shards(k);
                let publication = anonymize_sharded(m.as_ref(), &table, &params)
                    .unwrap_or_else(|e| panic!("{} k={k}: {e}", m.name()));
                publication
                    .validate(&table, 4)
                    .unwrap_or_else(|e| panic!("{} k={k}: {e}", m.name()));
                assert_eq!(
                    publication.partition().covered_rows(),
                    table.len(),
                    "{} k={k}",
                    m.name()
                );
                let notes = publication.notes().join("\n");
                assert!(notes.contains("sharded: "), "{}: {notes}", m.name());
            }
        }
    }

    #[test]
    fn repair_kicks_in_when_a_shard_cannot_reach_l() {
        // 10 rows at l = 2 split 5 ways: two-row shards where one value
        // doubles up force reduced-l shard runs and a repairing stitch.
        let t = samples::hospital();
        let params = Params::new(2).with_shards(5);
        for m in mechanisms() {
            let publication = anonymize_sharded(m.as_ref(), &t, &params)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            publication
                .validate(&t, 2)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert!(publication.is_l_diverse(&t, 2), "{}", m.name());
        }
    }

    #[test]
    fn sharded_output_is_thread_budget_invariant() {
        let table = sal(&AcsConfig {
            rows: 3_000,
            seed: 5,
        });
        for m in mechanisms() {
            let at = |threads: u32| {
                anonymize_sharded(
                    m.as_ref(),
                    &table,
                    &Params::new(4).with_shards(3).with_threads(threads),
                )
                .unwrap()
            };
            let sequential = at(1);
            for threads in [2u32, 8] {
                assert_eq!(sequential, at(threads), "{} threads={threads}", m.name());
            }
        }
    }

    #[test]
    fn infeasible_l_errors_before_any_shard_runs() {
        let t = samples::hospital();
        let err = anonymize_sharded(&ldiv_core::TpMechanism, &t, &Params::new(99).with_shards(2))
            .unwrap_err();
        assert!(matches!(err, LdivError::Infeasible(_)), "{err}");
    }

    #[test]
    fn registry_entry_point_reports_unknown_names() {
        let registry = MechanismRegistry::new().with(Box::new(ldiv_core::TpMechanism));
        let t = samples::hospital();
        let err = run_sharded(&registry, "nope", &t, &Params::new(2)).unwrap_err();
        assert!(matches!(err, LdivError::UnknownMechanism { .. }), "{err}");
        run_sharded(&registry, "tp", &t, &Params::new(2).with_shards(2)).unwrap();
    }
}
