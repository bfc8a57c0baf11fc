//! Figure 2's numbers against the committed `BENCH_fig2.json`.
//!
//! Every run of the `--quick` sweep is seeded and every KL sum has a
//! pinned order, so the stars and the KL of each `(dataset, l, algo)`
//! cell must equal the committed baseline exactly. Timings and stage
//! totals vary from run to run and are ignored.
//!
//! This test has a binary of its own because `fig2_json` arms tracing
//! for the whole process.

use ldiv_bench::{experiments, HarnessConfig};
use ldiv_wire::Json;

/// The fields a run is compared on.
const PINNED: [&str; 5] = ["l", "algo", "projections", "avg_stars", "avg_kl"];

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?} in {}", json.render()))
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match field(json, key) {
        Json::Arr(items) => items,
        other => panic!("{key:?} is not an array: {}", other.render()),
    }
}

#[test]
fn quick_fig2_reproduces_the_committed_baseline() {
    let committed =
        Json::parse(include_str!("../../../BENCH_fig2.json")).expect("BENCH_fig2.json parses");
    let cfg = HarnessConfig::from_args(&["--quick".to_string()]).unwrap();
    let fresh = experiments::fig2_json(&cfg);

    for key in ["rows", "max_projections", "seed", "l_min", "l_max"] {
        assert_eq!(field(&fresh, key), field(&committed, key), "config {key}");
    }
    let (fresh, committed) = (array(&fresh, "datasets"), array(&committed, "datasets"));
    assert_eq!(fresh.len(), committed.len(), "datasets");
    let mut cells = 0;
    for (now, then) in fresh.iter().zip(committed) {
        let dataset = field(then, "dataset");
        assert_eq!(field(now, "dataset"), dataset);
        let (now, then) = (array(now, "runs"), array(then, "runs"));
        assert_eq!(now.len(), then.len(), "runs of {}", dataset.render());
        for (run, pinned) in now.iter().zip(then) {
            for key in PINNED {
                assert_eq!(
                    field(run, key),
                    field(pinned, key),
                    "{key} of {} l = {} {}",
                    dataset.render(),
                    field(pinned, "l").render(),
                    field(pinned, "algo").render(),
                );
            }
            cells += 1;
        }
    }
    assert_eq!(cells, 30, "2 datasets × 5 l values × 3 mechanisms");
}
