//! Figure 3, the residue ablation and the methodology round-up against
//! pinned literals.
//!
//! These reports run TP, TP+, Hilbert and Mondrian (and, in the
//! round-up, TDS and Anatomy). Every run of the `--quick` sweep is
//! seeded and every KL sum has a pinned order, so each printed cell
//! must equal the literal below exactly. A change to a grouping loop
//! that moves a paper number fails here. Figures 4–6 print timings
//! only and are not pinned.

use ldiv_bench::{experiments, HarnessConfig, Report};

fn quick() -> HarnessConfig {
    HarnessConfig::from_args(&["--quick".to_string()]).unwrap()
}

/// One line per header and data row, prefixed by the report name.
fn lines(reports: &[Report]) -> Vec<String> {
    let mut out = Vec::new();
    for r in reports {
        for row in std::iter::once(&r.header).chain(&r.rows) {
            out.push(format!("{} {}", r.name, row.join(",")));
        }
    }
    out
}

fn check(reports: &[Report], pinned: &str) {
    let fresh = lines(reports);
    let pinned: Vec<&str> = pinned.lines().collect();
    assert_eq!(
        fresh,
        pinned,
        "report drifted; fresh rows:\n{}",
        fresh.join("\n")
    );
}

#[test]
fn quick_fig3_reproduces_the_pinned_rows() {
    check(&experiments::fig3(&quick()), FIG3);
}

#[test]
fn quick_ablation_reproduces_the_pinned_rows() {
    check(&[experiments::ablation_residue(&quick())], ABLATION);
}

#[test]
fn quick_multidim_reproduces_the_pinned_rows() {
    check(&[experiments::multidim_comparison(&quick())], MULTIDIM);
}

const FIG3: &str = "\
fig3_sal d,Hilbert,TP,TP+
fig3_sal 1,6709.5000,3.0000,3.0000
fig3_sal 2,13698.5000,12.0000,12.0000
fig3_sal 3,23282.5000,4834.5000,4771.5000
fig3_sal 4,31526.0000,24652.0000,24460.0000
fig3_sal 5,39652.0000,38777.5000,38462.5000
fig3_sal 6,47409.0000,48000.0000,47409.0000
fig3_sal 7,55274.0000,56000.0000,55274.0000
fig3_occ d,Hilbert,TP,TP+
fig3_occ 1,6629.0000,0.0000,0.0000
fig3_occ 2,13065.5000,18.0000,18.0000
fig3_occ 3,23252.5000,4663.5000,4615.5000
fig3_occ 4,31375.5000,24612.0000,24348.0000
fig3_occ 5,39553.0000,38705.0000,38318.0000
fig3_occ 6,47220.0000,48000.0000,47220.0000
fig3_occ 7,54902.0000,56000.0000,54902.0000
";

const ABLATION: &str = "\
ablation_residue dataset,l,TP,TP+ (hilbert),TP+ (arbitrary),naive-consec invalid %
ablation_residue SAL,2,6728,5244,5318,4.0
ablation_residue SAL,6,21340,21106,21166,47.7
ablation_residue OCC,2,6732,5286,5332,3.7
ablation_residue OCC,6,21228,21054,21006,44.5
";

const MULTIDIM: &str = "\
multidim l,TP+ stars,Mondrian stars,KL TDS,KL TP+,KL TP+→boxes,KL Mondrian,KL Anatomy
multidim 2,5244,3167,2.4975,1.0245,0.8322,0.4536,0.5836
multidim 4,15632,8814,2.6551,2.0949,1.9672,1.2520,1.0990
multidim 6,21106,13632,3.1510,2.5808,2.3630,1.8869,1.3611
";
