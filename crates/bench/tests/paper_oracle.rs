//! Every number the paper's tables and figures print, against one
//! committed fixture, `paper_quick.txt`.
//!
//! The oracle runs at `--quick` every experiment whose table prints no
//! timings: Table 6, Figures 2 and 3, the §6.1 phase-three frequency,
//! Figures 7 and 8, the residue ablation and the methodology round-up.
//! Figures 4–6 print only timings and are not pinned. Every run is
//! seeded and every KL sum has a pinned order, so each header and row,
//! as printed, must equal its fixture line byte for byte. A change that
//! moves a paper number fails here.
//!
//! To regenerate after an *intentional* change to a paper number:
//!
//! ```text
//! LDIV_UPDATE_GOLDEN=1 cargo test --release -p ldiv-bench --test paper_oracle
//! git diff crates/bench/tests/paper_quick.txt   # review every changed number
//! ```

use ldiv_bench::{experiments, HarnessConfig, Report};

/// [`experiments::all`] in paper order, minus the timing-only Figures 4–6.
fn pinned_reports(cfg: &HarnessConfig) -> Vec<Report> {
    let mut reports = vec![experiments::table6(cfg)];
    reports.extend(experiments::fig2(cfg));
    reports.extend(experiments::fig3(cfg));
    reports.push(experiments::phase3_frequency(cfg));
    reports.extend(experiments::fig7(cfg));
    reports.extend(experiments::fig8(cfg));
    reports.push(experiments::ablation_residue(cfg));
    reports.push(experiments::multidim_comparison(cfg));
    reports
}

#[test]
fn quick_paper_numbers_match_the_committed_fixture() {
    let cfg = HarnessConfig::from_args(&["--quick".to_string()]).unwrap();
    let mut fresh = String::new();
    for r in pinned_reports(&cfg) {
        for row in std::iter::once(&r.header).chain(&r.rows) {
            fresh.push_str(&format!("{} {}\n", r.name, row.join(",")));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/paper_quick.txt");
    if std::env::var("LDIV_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &fresh).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); regenerate with LDIV_UPDATE_GOLDEN=1"));
    let (fresh, pinned): (Vec<&str>, Vec<&str>) =
        (fresh.lines().collect(), pinned.lines().collect());
    let drifted: Vec<String> = (0..fresh.len().max(pinned.len()))
        .filter(|&i| fresh.get(i) != pinned.get(i))
        .map(|i| format!("{}: {:?} is now {:?}", i + 1, pinned.get(i), fresh.get(i)))
        .collect();
    assert!(
        drifted.is_empty(),
        "lines of {path} drifted; if intentional, regenerate with \
         LDIV_UPDATE_GOLDEN=1 and review the diff:\n{}",
        drifted.join("\n")
    );
}
