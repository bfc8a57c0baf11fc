//! One function per table/figure of the paper's evaluation.

use crate::config::HarnessConfig;
use crate::report::Report;
use crate::runner::{run_algo, Algo};
use crate::service::{rollup_stages, stages_json};
use ldiv_core::Phase;
use ldiv_datagen::{occ, occ_schema, projection_sets, sal, sal_schema, sample_rows, AcsConfig};
use ldiv_microdata::{OpenGroup, Partition, RowId, SaBuckets, SaHistogram, Table};
use ldiv_wire::Json;
use std::cmp::Reverse;

/// The two dataset families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// Sensitive attribute Income.
    Sal,
    /// Sensitive attribute Occupation.
    Occ,
}

impl DataKind {
    /// Lower-case tag used in report names.
    pub fn tag(self) -> &'static str {
        match self {
            DataKind::Sal => "sal",
            DataKind::Occ => "occ",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DataKind::Sal => "SAL",
            DataKind::Occ => "OCC",
        }
    }
}

/// Generates the base 7-QI table of a family.
pub fn dataset(kind: DataKind, cfg: &HarnessConfig) -> Table {
    let acs = AcsConfig {
        rows: cfg.rows,
        seed: cfg.seed,
    };
    match kind {
        DataKind::Sal => sal(&acs),
        DataKind::Occ => occ(&acs),
    }
}

/// The `SAL-d` / `OCC-d` family: projections of the base table onto `d` QI
/// attributes. When `C(7, d)` exceeds the configured cap, an evenly spaced
/// subset is used (deterministic).
pub fn family(base: &Table, d: usize, cfg: &HarnessConfig) -> Vec<Table> {
    let sets = projection_sets(base.dimensionality(), d);
    let chosen: Vec<&Vec<usize>> = if sets.len() <= cfg.max_projections {
        sets.iter().collect()
    } else {
        (0..cfg.max_projections)
            .map(|i| &sets[i * sets.len() / cfg.max_projections])
            .collect()
    };
    chosen
        .into_iter()
        .map(|idx| base.project(idx).expect("indices in range"))
        .collect()
}

fn avg(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// **Table 6**: attribute domain sizes of the dataset schemas.
pub fn table6(_cfg: &HarnessConfig) -> Report {
    let mut r = Report::new(
        "table6",
        "Table 6: attribute domain sizes",
        vec!["Attribute".into(), "Size".into()],
    );
    let schema = sal_schema();
    for a in schema.qi_attributes() {
        r.push_row(vec![a.name().to_string(), a.domain_size().to_string()]);
    }
    r.push_row(vec![
        "Income".into(),
        sal_schema().sa_domain_size().to_string(),
    ]);
    r.push_row(vec![
        "Occupation".into(),
        occ_schema().sa_domain_size().to_string(),
    ]);
    r
}

/// Shared sweep: average metric over a family for each algorithm and `l`.
fn sweep_l(
    name: &str,
    title: &str,
    tables: &[Table],
    algos: &[Algo],
    cfg: &HarnessConfig,
    with_kl: bool,
    metric: impl Fn(&crate::runner::RunMeasurement) -> f64,
) -> Report {
    let mut header = vec!["l".to_string()];
    header.extend(algos.iter().map(|a| a.name().to_string()));
    let mut report = Report::new(name, title, header);
    for l in cfg.l_values() {
        let mut row = vec![l.to_string()];
        for &algo in algos {
            let vals: Vec<f64> = tables
                .iter()
                .map(|t| metric(&run_algo(algo, t, l, with_kl)))
                .collect();
            row.push(format!("{:.4}", avg(&vals)));
        }
        report.push_row(row);
    }
    report
}

/// Shared sweep: average metric over each `d`-family at a fixed `l`.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the sweep's axes
fn sweep_d(
    name: &str,
    title: &str,
    kind: DataKind,
    l: u32,
    algos: &[Algo],
    cfg: &HarnessConfig,
    with_kl: bool,
    metric: impl Fn(&crate::runner::RunMeasurement) -> f64,
) -> Report {
    let base = dataset(kind, cfg);
    let mut header = vec!["d".to_string()];
    header.extend(algos.iter().map(|a| a.name().to_string()));
    let mut report = Report::new(name, title, header);
    for d in 1..=base.dimensionality() {
        let fam = family(&base, d, cfg);
        let mut row = vec![d.to_string()];
        for &algo in algos {
            let vals: Vec<f64> = fam
                .iter()
                .map(|t| metric(&run_algo(algo, t, l, with_kl)))
                .collect();
            row.push(format!("{:.4}", avg(&vals)));
        }
        report.push_row(row);
    }
    report
}

const SUPPRESSION_ALGOS: [Algo; 3] = [Algo::Hilbert, Algo::Tp, Algo::TpPlus];
const KL_ALGOS: [Algo; 2] = [Algo::Tds, Algo::TpPlus];

/// **Figure 2**: average stars vs `l` on SAL-4 and OCC-4.
pub fn fig2(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            let base = dataset(kind, cfg);
            let fam = family(&base, 4, cfg);
            sweep_l(
                &format!("fig2_{}", kind.tag()),
                &format!("Figure 2: average stars vs l ({}-4)", kind.name()),
                &fam,
                &SUPPRESSION_ALGOS,
                cfg,
                false,
                |m| m.stars as f64,
            )
        })
        .collect()
}

/// **Figure 2, machine-readable**: the same sweep as [`fig2`] with KL
/// evaluation enabled, emitted as one JSON document that includes a
/// per-run stage decomposition (`mechanism` + `kl` span totals) captured
/// through `ldiv-obs` tracing. Backs the committed `BENCH_fig2.json`
/// baseline and the bin's `--json` flag.
pub fn fig2_json(cfg: &HarnessConfig) -> Json {
    ldiv_obs::set_armed(true);
    let mut kinds: Vec<Json> = Vec::new();
    for kind in [DataKind::Sal, DataKind::Occ] {
        let base = dataset(kind, cfg);
        let fam = family(&base, 4, cfg);
        let mut runs: Vec<Json> = Vec::new();
        for l in cfg.l_values() {
            for &algo in &SUPPRESSION_ALGOS {
                // One trace per (l, algo) cell; the registry and KL spans
                // from every projection in the family accumulate into it.
                let trace = ldiv_obs::begin("bench:fig2");
                let mut stars = Vec::new();
                let mut kls = Vec::new();
                let mut seconds = 0.0;
                for t in &fam {
                    let m = run_algo(algo, t, l, true);
                    stars.push(m.stars as f64);
                    kls.push(m.kl.expect("with_kl requested"));
                    seconds += m.seconds;
                }
                let stages = match trace.map(ldiv_obs::ActiveTrace::finish) {
                    Some(finished) => rollup_stages(std::iter::once(&finished)),
                    None => Vec::new(),
                };
                runs.push(
                    Json::obj()
                        .field("l", l)
                        .field("algo", algo.name())
                        .field("projections", fam.len())
                        .field("avg_stars", avg(&stars))
                        .field("avg_kl", avg(&kls))
                        .field("seconds", (seconds * 1e3).round() / 1e3)
                        .field("stages", stages_json(&stages)),
                );
            }
        }
        kinds.push(
            Json::obj()
                .field("dataset", format!("{}-4", kind.name()))
                .field("runs", Json::Arr(runs)),
        );
    }
    Json::obj()
        .field("schema", 1i64)
        .field("bench", "fig2")
        .field("rows", cfg.rows)
        .field("max_projections", cfg.max_projections)
        .field("seed", cfg.seed as i64)
        .field("l_min", cfg.l_range.0)
        .field("l_max", cfg.l_range.1)
        .field("datasets", Json::Arr(kinds))
}

/// **Figure 3**: average stars vs `d` at `l = 6`.
pub fn fig3(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            sweep_d(
                &format!("fig3_{}", kind.tag()),
                &format!("Figure 3: average stars vs d, l = 6 ({}-d)", kind.name()),
                kind,
                6,
                &SUPPRESSION_ALGOS,
                cfg,
                false,
                |m| m.stars as f64,
            )
        })
        .collect()
}

/// **Figure 4**: computation time vs `l` on SAL-4 and OCC-4.
pub fn fig4(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            let base = dataset(kind, cfg);
            let fam = family(&base, 4, cfg);
            sweep_l(
                &format!("fig4_{}", kind.tag()),
                &format!("Figure 4: computation time (s) vs l ({}-4)", kind.name()),
                &fam,
                &SUPPRESSION_ALGOS,
                cfg,
                false,
                |m| m.seconds,
            )
        })
        .collect()
}

/// **Figure 5**: computation time vs `d` at `l = 4`.
pub fn fig5(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            sweep_d(
                &format!("fig5_{}", kind.tag()),
                &format!(
                    "Figure 5: computation time (s) vs d, l = 4 ({}-d)",
                    kind.name()
                ),
                kind,
                4,
                &SUPPRESSION_ALGOS,
                cfg,
                false,
                |m| m.seconds,
            )
        })
        .collect()
}

/// **Figure 6**: computation time vs dataset cardinality `n` at `l = 6`
/// (samples of the `d = 4` projections, 1/6 through 6/6 of the base size).
pub fn fig6(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            let base = dataset(kind, cfg);
            let fam = family(&base, 4, cfg);
            let mut header = vec!["n".to_string()];
            header.extend(SUPPRESSION_ALGOS.iter().map(|a| a.name().to_string()));
            let mut report = Report::new(
                format!("fig6_{}", kind.tag()),
                format!(
                    "Figure 6: computation time (s) vs n, l = 6 ({}-4)",
                    kind.name()
                ),
                header,
            );
            for i in 1..=6usize {
                let k = cfg.rows * i / 6;
                let mut row = vec![k.to_string()];
                for &algo in &SUPPRESSION_ALGOS {
                    let vals: Vec<f64> = fam
                        .iter()
                        .enumerate()
                        .map(|(fi, t)| {
                            let sampled = sample_rows(t, k, cfg.seed ^ fi as u64);
                            run_algo(algo, &sampled, 6, false).seconds
                        })
                        .collect();
                    row.push(format!("{:.4}", avg(&vals)));
                }
                report.push_row(row);
            }
            report
        })
        .collect()
}

/// **Figure 7**: KL-divergence vs `l` on SAL-4 and OCC-4 (TDS vs TP+).
pub fn fig7(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            let base = dataset(kind, cfg);
            let fam = family(&base, 4, cfg);
            sweep_l(
                &format!("fig7_{}", kind.tag()),
                &format!("Figure 7: KL-divergence vs l ({}-4)", kind.name()),
                &fam,
                &KL_ALGOS,
                cfg,
                true,
                |m| m.kl.expect("kl requested"),
            )
        })
        .collect()
}

/// **Figure 8**: KL-divergence vs `d` at `l = 6` (TDS vs TP+).
pub fn fig8(cfg: &HarnessConfig) -> Vec<Report> {
    [DataKind::Sal, DataKind::Occ]
        .into_iter()
        .map(|kind| {
            sweep_d(
                &format!("fig8_{}", kind.tag()),
                &format!("Figure 8: KL-divergence vs d, l = 6 ({}-d)", kind.name()),
                kind,
                6,
                &KL_ALGOS,
                cfg,
                true,
                |m| m.kl.expect("kl requested"),
            )
        })
        .collect()
}

/// **§6.1 "frequency of phase three"**: run TP on every family member for
/// every `l` and count terminations per phase. The paper observed phase
/// three never fires on its 128 tables × 9 `l` values.
pub fn phase3_frequency(cfg: &HarnessConfig) -> Report {
    let mut report = Report::new(
        "phase3",
        "Frequency of phase-three execution (TP terminations by phase)",
        vec![
            "dataset".into(),
            "d".into(),
            "runs".into(),
            "phase-1".into(),
            "phase-2".into(),
            "phase-3".into(),
        ],
    );
    let mut totals = [0usize; 3];
    let mut total_runs = 0usize;
    for kind in [DataKind::Sal, DataKind::Occ] {
        let base = dataset(kind, cfg);
        for d in 1..=base.dimensionality() {
            let fam = family(&base, d, cfg);
            let mut counts = [0usize; 3];
            let mut runs = 0usize;
            for t in &fam {
                for l in cfg.l_values() {
                    // Phase accounting is TP-internal diagnostics, so this
                    // experiment deliberately uses the low-level API rather
                    // than the registry's uniform `Publication`.
                    let out = ldiv_core::tuple_minimize(t, l).expect("feasible workload");
                    let idx = match out.stats.termination_phase {
                        Phase::One => 0,
                        Phase::Two => 1,
                        Phase::Three => 2,
                    };
                    counts[idx] += 1;
                    runs += 1;
                }
            }
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
            total_runs += runs;
            report.push_row(vec![
                kind.name().into(),
                d.to_string(),
                runs.to_string(),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
            ]);
        }
    }
    report.push_row(vec![
        "TOTAL".into(),
        "-".into(),
        total_runs.to_string(),
        totals[0].to_string(),
        totals[1].to_string(),
        totals[2].to_string(),
    ]);
    report
}

/// A residue partitioner that ignores QI proximity entirely: frequency-
/// balanced draining in arbitrary order (each SA bucket gives up the row
/// that came last in the residue first). Ablation A3 contrasts it with
/// the Hilbert-ordered refinement inside TP+.
struct ArbitraryOrderResidue;

impl ldiv_core::ResiduePartitioner for ArbitraryOrderResidue {
    fn partition_residue(
        &self,
        table: &Table,
        residue: &[RowId],
        l: u32,
        _: &ldiversity::Executor,
    ) -> Partition {
        let last_first: Vec<Reverse<usize>> = (0..residue.len()).map(Reverse).collect();
        let mut buckets = SaBuckets::new(table, residue, &last_first);
        let mut groups: Vec<OpenGroup> = Vec::new();
        let mut leftover = buckets.drain(l, |taken| groups.push(OpenGroup::of(taken)));
        // Leftovers: append to any group where the value still fits.
        leftover.sort_unstable();
        for v in leftover {
            while buckets.len(v) > 0 {
                let (_, r) = buckets.take_first(v);
                match groups.iter_mut().find(|g| g.accepts(v, l)) {
                    Some(g) => g.add(r, v),
                    None => groups.push(OpenGroup::of(&[(v, (), r)])), // verified (and rejected) upstream
                }
            }
        }
        Partition::new_unchecked(
            groups
                .into_iter()
                .map(OpenGroup::into_sorted_rows)
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "arbitrary-order"
    }
}

/// **Ablation A3/A4**: how much does curve-aware residue refinement matter?
/// Compares TP+ stars under Hilbert-ordered vs arbitrary-order residue
/// partitioning, and reports how often naive *consecutive* grouping along
/// the curve would violate l-eligibility (why balanced draining exists).
pub fn ablation_residue(cfg: &HarnessConfig) -> Report {
    let mut report = Report::new(
        "ablation_residue",
        "Ablation: residue refinement order (TP+ stars) and naive-consecutive failure rate",
        vec![
            "dataset".into(),
            "l".into(),
            "TP".into(),
            "TP+ (hilbert)".into(),
            "TP+ (arbitrary)".into(),
            "naive-consec invalid %".into(),
        ],
    );
    for kind in [DataKind::Sal, DataKind::Occ] {
        let base = dataset(kind, cfg);
        let fam = family(&base, 4, cfg);
        let t = &fam[0];
        for l in [2u32, 6, 10] {
            if l > cfg.l_range.1 {
                continue;
            }
            let tp = ldiv_core::anonymize(t, l, &ldiv_core::SingleGroupResidue).expect("feasible");
            let hil = ldiv_core::anonymize(t, l, &ldiv_hilbert::HilbertResidue).expect("feasible");
            let arb = ldiv_core::anonymize(t, l, &ArbitraryOrderResidue).expect("feasible");
            // Naive consecutive grouping: chunk the rows, in the order
            // the curve visits them, into blocks of l; count ineligible
            // blocks.
            let rows: Vec<RowId> = (0..t.len() as RowId).collect();
            let curve_sorted = ldiv_hilbert::curve_order(t, &rows);
            let blocks = curve_sorted.chunks(l as usize);
            let mut invalid = 0usize;
            let mut total = 0usize;
            for b in blocks {
                total += 1;
                if !SaHistogram::of_rows(t, b).is_l_eligible(l) {
                    invalid += 1;
                }
            }
            report.push_row(vec![
                kind.name().into(),
                l.to_string(),
                tp.star_count().to_string(),
                hil.star_count().to_string(),
                arb.star_count().to_string(),
                format!("{:.1}", 100.0 * invalid as f64 / total.max(1) as f64),
            ]);
        }
    }
    report
}

/// **§2/§6.2 extension**: the methodology round-up. Reports, per `l`, the
/// stars of the suppression algorithms next to Mondrian's suppression
/// rendering, and the Eq. (2) KL of five publications of the same data:
/// TDS (single-dimensional recoding), TP+ (suppression), TP+ transformed
/// per §6.2 (stars → covering sub-domains), native Mondrian boxes
/// (multi-dimensional) and Anatomy (QI/SA separation).
pub fn multidim_comparison(cfg: &HarnessConfig) -> Report {
    use crate::runner::registry;
    use ldiv_api::Params;
    use ldiv_metrics::kl_divergence;
    use ldiv_multidim::BoxTable;

    let mut report = Report::new(
        "multidim",
        "Multi-dimensional generalization vs suppression (SAL-4, first projection)",
        vec![
            "l".into(),
            "TP+ stars".into(),
            "Mondrian stars".into(),
            "KL TDS".into(),
            "KL TP+".into(),
            "KL TP+→boxes".into(),
            "KL Mondrian".into(),
            "KL Anatomy".into(),
        ],
    );
    let base = dataset(DataKind::Sal, cfg);
    let fam = family(&base, 4, cfg);
    // The KL path of the boxes payload is O(support × groups); cap the
    // workload.
    let t = if fam[0].len() > 30_000 {
        ldiv_datagen::sample_rows(&fam[0], 30_000, cfg.seed)
    } else {
        fam[0].clone()
    };
    let registry = registry();
    for l in [2u32, 4, 6, 8, 10] {
        if l > cfg.l_range.1 {
            continue;
        }
        let params = Params::new(l);
        let run = |name: &str| {
            registry
                .run(name, &t, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let tpp = run("tp+");
        let tpp_boxes =
            BoxTable::from_suppressed(&t, tpp.as_suppressed().expect("tp+ publishes suppression"));
        let mondrian = run("mondrian");
        // Star comparison needs Mondrian's suppression *rendering* of the
        // same partition (its native payload is boxes).
        let mondrian_stars = t.generalize(mondrian.partition()).star_count();
        report.push_row(vec![
            l.to_string(),
            tpp.star_count().to_string(),
            mondrian_stars.to_string(),
            format!("{:.4}", kl_divergence(&t, &run("tds"))),
            format!("{:.4}", kl_divergence(&t, &tpp)),
            format!("{:.4}", tpp_boxes.kl_divergence(&t)),
            format!("{:.4}", kl_divergence(&t, &mondrian)),
            format!("{:.4}", kl_divergence(&t, &run("anatomy"))),
        ]);
    }
    report
}

/// Runs the complete suite in paper order.
pub fn all(cfg: &HarnessConfig) -> Vec<Report> {
    let mut reports = vec![table6(cfg)];
    reports.extend(fig2(cfg));
    reports.extend(fig3(cfg));
    reports.push(phase3_frequency(cfg));
    reports.extend(fig4(cfg));
    reports.extend(fig5(cfg));
    reports.extend(fig6(cfg));
    reports.extend(fig7(cfg));
    reports.extend(fig8(cfg));
    reports.push(ablation_residue(cfg));
    reports.push(multidim_comparison(cfg));
    reports
}

/// Prints reports and writes their CSVs; shared tail of every binary.
pub fn emit(reports: &[Report], cfg: &HarnessConfig) {
    for r in reports {
        println!("{}", r.render());
        if let Err(e) = r.write_csv(&cfg.out_dir) {
            eprintln!("warning: could not write {}.csv: {e}", r.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            rows: 600,
            max_projections: 2,
            l_range: (2, 3),
            ..Default::default()
        }
    }

    #[test]
    fn family_caps_and_spaces_projections() {
        let cfg = tiny_cfg();
        let base = dataset(DataKind::Sal, &cfg);
        let fam = family(&base, 4, &cfg);
        assert_eq!(fam.len(), 2); // capped from 35
        let all7 = family(&base, 7, &cfg);
        assert_eq!(all7.len(), 1); // C(7,7) = 1 < cap
        assert!(fam.iter().all(|t| t.dimensionality() == 4));
    }

    #[test]
    fn table6_lists_nine_attributes() {
        let r = table6(&tiny_cfg());
        assert_eq!(r.rows.len(), 9);
        assert!(r.rows.iter().any(|row| row[0] == "Age" && row[1] == "79"));
    }

    #[test]
    fn fig2_shape() {
        let cfg = tiny_cfg();
        let reports = fig2(&cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.header, vec!["l", "Hilbert", "TP", "TP+"]);
            assert_eq!(r.rows.len(), 2); // l ∈ {2, 3}
        }
    }

    #[test]
    fn fig2_json_carries_stage_decomposition() {
        let cfg = HarnessConfig {
            rows: 600,
            max_projections: 1,
            l_range: (2, 2),
            ..Default::default()
        };
        let json = fig2_json(&cfg);
        let text = json.render();
        // 2 datasets × 1 l-value × 3 algorithms.
        assert_eq!(text.matches("\"algo\"").count(), 6);
        assert!(text.contains("\"dataset\":\"SAL-4\""));
        assert!(text.contains("\"dataset\":\"OCC-4\""));
        // Tracing was armed, so every run decomposes into the registry's
        // mechanism span plus the KL evaluation span.
        assert_eq!(text.matches("\"stage\":\"mechanism\"").count(), 6);
        assert_eq!(text.matches("\"stage\":\"kl\"").count(), 6);
    }

    #[test]
    fn phase3_totals_add_up() {
        let cfg = HarnessConfig {
            rows: 400,
            max_projections: 1,
            l_range: (2, 3),
            ..Default::default()
        };
        let r = phase3_frequency(&cfg);
        let total_row = r.rows.last().unwrap();
        let runs: usize = total_row[2].parse().unwrap();
        let sum: usize = (3..6).map(|i| total_row[i].parse::<usize>().unwrap()).sum();
        assert_eq!(runs, sum);
        // 2 datasets × 7 d-values × 1 projection × 2 l-values
        assert_eq!(runs, 28);
    }
}
