//! Integration tests for the *shape* claims of the paper's evaluation
//! (Section 6), on reduced-scale versions of its workloads.

use ldiversity::core::{anonymize, Phase, SingleGroupResidue};
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::hilbert::HilbertResidue;
use ldiversity::metrics::{kl_divergence_recoded, kl_divergence_suppressed};
use ldiversity::tds::{tds_anonymize, TdsConfig};
use ldiversity::{standard_registry, Params};

const ROWS: usize = 6_000;

fn sal4() -> ldiversity::microdata::Table {
    sal(&AcsConfig {
        rows: ROWS,
        seed: 1,
    })
    .project(&[0, 1, 3, 5])
    .unwrap()
}

fn occ4() -> ldiversity::microdata::Table {
    occ(&AcsConfig {
        rows: ROWS,
        seed: 1,
    })
    .project(&[0, 1, 3, 5])
    .unwrap()
}

/// §6.1 headline: TP terminates before phase three on the ACS-like
/// workloads, for every `l` in the paper's sweep.
#[test]
fn phase_three_never_fires_on_acs_workloads() {
    for table in [sal4(), occ4()] {
        for l in 2..=10u32 {
            let out = ldiversity::core::tuple_minimize(&table, l).unwrap();
            assert!(
                out.stats.termination_phase < Phase::Three,
                "phase three fired at l = {l}"
            );
        }
    }
}

/// Figure 2's shape: stars increase with `l`, and TP+ dominates TP for
/// every `l`.
#[test]
fn stars_grow_with_l_and_tp_plus_dominates() {
    let table = sal4();
    let mut last_tp_plus = 0usize;
    for l in [2u32, 4, 6, 8, 10] {
        let tp = anonymize(&table, l, &SingleGroupResidue).unwrap();
        let tp_plus = anonymize(&table, l, &HilbertResidue).unwrap();
        assert!(tp_plus.star_count() <= tp.star_count(), "l = {l}");
        assert!(
            tp_plus.star_count() >= last_tp_plus,
            "stars should not decrease with l (l = {l})"
        );
        last_tp_plus = tp_plus.star_count();
    }
}

/// Figure 2/3's other shape: TP+ beats the Hilbert baseline on the
/// moderate-dimensional workloads the paper highlights.
#[test]
fn tp_plus_beats_hilbert_at_d_4() {
    let registry = standard_registry();
    for table in [sal4(), occ4()] {
        for l in [4u32, 6] {
            let hilbert = registry.run("hilbert", &table, &Params::new(l)).unwrap();
            let tp_plus = registry.run("tp+", &table, &Params::new(l)).unwrap();
            assert!(
                tp_plus.star_count() <= hilbert.star_count(),
                "l = {l}: TP+ = {} vs Hilbert = {}",
                tp_plus.star_count(),
                hilbert.star_count()
            );
        }
    }
}

/// Figure 3's crossover driver (§5.6): TP's information loss explodes as
/// `d` grows because the share of distinct QI vectors grows.
#[test]
fn tp_degrades_with_dimensionality() {
    let base = sal(&AcsConfig {
        rows: ROWS,
        seed: 1,
    });
    let low_d = base.project(&[1, 3]).unwrap(); // Gender × Marital: tiny QI space
    let high_d = base; // all seven QIs: mostly distinct vectors
    let l = 6;
    let lo = anonymize(&low_d, l, &SingleGroupResidue).unwrap();
    let hi = anonymize(&high_d, l, &SingleGroupResidue).unwrap();
    let lo_ratio = lo.tp.residue.len() as f64 / ROWS as f64;
    let hi_ratio = hi.tp.residue.len() as f64 / ROWS as f64;
    assert!(
        lo_ratio < 0.05,
        "small QI space should suppress almost nothing ({lo_ratio:.3})"
    );
    assert!(
        hi_ratio > 0.5,
        "diverse QI space should force heavy suppression ({hi_ratio:.3})"
    );
}

/// Figure 7's shape: TP+ yields lower KL-divergence than TDS, and both
/// degrade as `l` grows.
///
/// The comparison is density-sensitive: the paper's 600k rows over the
/// SAL-4 QI spaces give ~10–40 rows per QI cell. To reproduce that regime
/// at test scale we use the Gender × Race × Marital × Work-Class
/// projection (972 cells, ≈ 6 rows per cell at 6k rows); the full-scale
/// sweep, `fig7 --paper`, averages every SAL-4 projection at the paper's
/// density.
#[test]
fn tp_plus_beats_tds_on_kl() {
    let table = sal(&AcsConfig {
        rows: ROWS,
        seed: 1,
    })
    .project(&[1, 2, 3, 6])
    .unwrap();
    let mut last_tds = -1.0f64;
    for l in [2u32, 6, 10] {
        let tds = tds_anonymize(
            &table,
            &TdsConfig {
                l,
                ..Default::default()
            },
        )
        .unwrap();
        let kl_tds = kl_divergence_recoded(&table, &tds.recoding);
        let tp_plus = anonymize(&table, l, &HilbertResidue).unwrap();
        let kl_tp_plus = kl_divergence_suppressed(&table, &tp_plus.published);
        assert!(
            kl_tp_plus <= kl_tds,
            "l = {l}: TP+ KL = {kl_tp_plus:.4} vs TDS KL = {kl_tds:.4}"
        );
        assert!(kl_tds >= last_tds - 1e-9, "TDS KL decreased at l = {l}");
        last_tds = kl_tds;
    }
}

/// Lemma 2's inequality chain on real outputs: suppressed tuples ≤ stars ≤
/// d × suppressed tuples.
#[test]
fn lemma_2_inequality_chain() {
    let table = occ4();
    let d = table.dimensionality();
    for l in [2u32, 6] {
        for result in [
            anonymize(&table, l, &SingleGroupResidue).unwrap(),
            anonymize(&table, l, &HilbertResidue).unwrap(),
        ] {
            let stars = result.published.star_count();
            let tuples = result.published.suppressed_tuple_count();
            assert!(tuples <= stars, "l = {l}");
            assert!(stars <= d * tuples, "l = {l}: {stars} > {d}·{tuples}");
        }
    }
}

/// Determinism across the whole pipeline: identical seeds produce
/// identical publications.
#[test]
fn pipeline_is_deterministic() {
    let a = anonymize(&sal4(), 6, &HilbertResidue).unwrap();
    let b = anonymize(&sal4(), 6, &HilbertResidue).unwrap();
    assert_eq!(a.partition.groups(), b.partition.groups());
    assert_eq!(a.star_count(), b.star_count());
}
