//! Figures 7 and 8 (TDS vs TP+ KL-divergence) against pinned literals.
//!
//! Every run of the `--quick` sweep is seeded and every KL sum has a
//! pinned order, so each printed cell (4 decimals) must equal the
//! literal below exactly. A change to TDS, TP+ or the recoded and
//! suppressed KL that moves a paper number fails here.

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
        "figure drifted; fresh rows:\n{}",
        fresh.join("\n")
    );
}

#[test]
fn quick_fig7_reproduces_the_pinned_rows() {
    check(&experiments::fig7(&quick()), FIG7);
}

#[test]
fn quick_fig8_reproduces_the_pinned_rows() {
    check(&experiments::fig8(&quick()), FIG8);
}

const FIG7: &str = "\
fig7_sal l,TDS,TP+
fig7_sal 2,4.0740,2.2554
fig7_sal 3,4.0698,3.1377
fig7_sal 4,4.3778,3.6697
fig7_sal 5,4.5122,3.9948
fig7_sal 6,4.7366,4.2700
fig7_occ l,TDS,TP+
fig7_occ 2,3.7915,2.2292
fig7_occ 3,4.1022,3.1385
fig7_occ 4,4.2887,3.6287
fig7_occ 5,4.4291,3.9953
fig7_occ 6,4.5172,4.2830
";

const FIG8: &str = "\
fig8_sal d,TDS,TP+
fig8_sal 1,0.0009,0.0012
fig8_sal 2,0.0135,0.0015
fig8_sal 3,1.1795,0.5261
fig8_sal 4,4.7366,4.2700
fig8_sal 5,7.8343,8.2713
fig8_sal 6,9.4809,10.3906
fig8_sal 7,11.4700,12.2787
fig8_occ d,TDS,TP+
fig8_occ 1,0.0000,0.0000
fig8_occ 2,0.0255,0.0016
fig8_occ 3,0.8884,0.5203
fig8_occ 4,4.5172,4.2830
fig8_occ 5,7.7362,8.2937
fig8_occ 6,9.4410,10.3369
fig8_occ 7,11.3979,12.1775
";
