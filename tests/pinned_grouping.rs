//! The suppression mechanisms' full output pinned by digest.
//!
//! TP, the Hilbert grouping, Mondrian and their publications are pure
//! functions of the table and `l`: every tie has a fixed winner and no
//! result depends on the thread budget. Each digest covers one output
//! for `l = 1..=6`:
//!
//! - `tp`: TP's residue in removal order, the surviving groups in order
//!   and every `TpStats` field;
//! - `hilbert`, `hilbert-residue`: the groups of `hilbert_partition_with`
//!   over all rows and over TP's residue, in order;
//! - `mondrian`: the groups of `mondrian_partition_with`, in order;
//! - `<mechanism>@<threads>`: the registry's publication (groups in
//!   order, stars and notes) at one and at two threads.
//!
//! A change to any grouping loop that alters one of them, however
//! slightly, changes a digest.

use ldiversity::core::{tuple_minimize, TpOutcome};
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::hilbert::hilbert_partition_with;
use ldiversity::microdata::{Fnv1a, Partition, Table};
use ldiversity::multidim::mondrian_partition_with;
use ldiversity::{standard_registry, Executor, MechanismRegistry, Params};

const ROWS: usize = 2_000;
const SEED: u64 = 17;
const PROJECTIONS: [&[usize]; 4] = [&[0], &[0, 4], &[0, 2, 4, 5], &[0, 1, 2, 3, 4, 5, 6]];
const MECHANISMS: [&str; 4] = ["tp", "tp+", "hilbert", "mondrian"];

fn write_groups(h: &mut Fnv1a, partition: &Partition) {
    h.write_u32(partition.groups().len() as u32);
    for group in partition.groups() {
        h.write_u32(group.len() as u32);
        for &row in group {
            h.write_u32(row);
        }
    }
}

fn write_outcome(h: &mut Fnv1a, out: &TpOutcome) {
    h.write_u32(out.residue.len() as u32);
    for &row in &out.residue {
        h.write_u32(row);
    }
    write_groups(h, &out.partition);
    let s = &out.stats;
    h.write_u32(s.l).write_str(&s.termination_phase.to_string());
    for n in s.phase_removed {
        h.write_u32(n as u32);
    }
    for n in [
        s.phase3_rounds,
        s.initial_groups,
        s.surviving_groups,
        s.residue_pillar_after_p1,
        s.residue_pillar_after_p2,
    ] {
        h.write_u32(n as u32);
    }
    let c = &s.counters;
    for n in [c.stale_candidate_pops, c.candidate_moves, c.cover_scans] {
        h.write_bytes(&n.to_le_bytes());
    }
}

/// The digest lines of one table, each folding `l = 1..=6`.
fn table_digests(table: &Table, registry: &MechanismRegistry) -> Vec<(String, u64)> {
    let exec = Executor::new(1);
    let all: Vec<u32> = (0..table.len() as u32).collect();
    let mut kinds: Vec<(String, Fnv1a)> = ["tp", "hilbert", "hilbert-residue", "mondrian"]
        .iter()
        .map(|k| (k.to_string(), Fnv1a::new()))
        .collect();
    for name in MECHANISMS {
        for threads in [1, 2] {
            kinds.push((format!("{name}@{threads}"), Fnv1a::new()));
        }
    }
    for l in 1..=6 {
        let mut hs = kinds.iter_mut().map(|(_, h)| h);
        let h = hs.next().unwrap();
        let residue = match tuple_minimize(table, l) {
            Ok(out) => {
                write_outcome(h, &out);
                out.residue
            }
            Err(e) => {
                h.write_str(&e.to_string());
                Vec::new()
            }
        };
        write_groups(
            hs.next().unwrap(),
            &hilbert_partition_with(table, &all, l, &exec),
        );
        write_groups(
            hs.next().unwrap(),
            &hilbert_partition_with(table, &residue, l, &exec),
        );
        write_groups(
            hs.next().unwrap(),
            &mondrian_partition_with(table, l, &exec),
        );
        for name in MECHANISMS {
            for threads in [1, 2] {
                let h = hs.next().unwrap();
                match registry.run(name, table, &Params::new(l).with_threads(threads)) {
                    Ok(publication) => {
                        write_groups(h, publication.partition());
                        h.write_u32(publication.star_count() as u32);
                        for note in publication.notes() {
                            h.write_str(note);
                        }
                    }
                    Err(e) => {
                        h.write_str(&e.to_string());
                    }
                }
            }
        }
    }
    kinds.into_iter().map(|(k, h)| (k, h.finish())).collect()
}

fn digests() -> Vec<String> {
    let acs = AcsConfig {
        rows: ROWS,
        seed: SEED,
    };
    let registry = standard_registry();
    let mut lines = Vec::new();
    for (tag, base) in [("sal", sal(&acs)), ("occ", occ(&acs))] {
        for idx in PROJECTIONS {
            let table = base.project(idx).unwrap();
            for (kind, digest) in table_digests(&table, &registry) {
                lines.push(format!("{tag} d={} {kind} {digest:016x}", idx.len()));
            }
        }
    }
    lines
}

/// Generated from the grouping loops that kept a `BTreeSet` per SA
/// value (Hilbert), sorted a value vector per split attempt (Mondrian)
/// and built a `Group` for every one-row QI-group (TP).
const PINNED: &str = "\
sal d=1 tp 463f004092cbc5b6
sal d=1 hilbert a3f863b1a4709c31
sal d=1 hilbert-residue f41d68a890528392
sal d=1 mondrian ade3f85032d130dc
sal d=1 tp@1 57baa7d72e4ebc86
sal d=1 tp@2 57baa7d72e4ebc86
sal d=1 tp+@1 74aafa09896419b3
sal d=1 tp+@2 74aafa09896419b3
sal d=1 hilbert@1 6afe8e11b5a9e171
sal d=1 hilbert@2 6afe8e11b5a9e171
sal d=1 mondrian@1 7e12a6d6611f503a
sal d=1 mondrian@2 7e12a6d6611f503a
sal d=2 tp 73110bc9dee85315
sal d=2 hilbert f50b1d3bab67cbb5
sal d=2 hilbert-residue ade5e7b06f87e6bf
sal d=2 mondrian 24d34c7a325cd6c2
sal d=2 tp@1 21363752b2a806e5
sal d=2 tp@2 21363752b2a806e5
sal d=2 tp+@1 cb2349de26a723c0
sal d=2 tp+@2 cb2349de26a723c0
sal d=2 hilbert@1 1e04756aeff66048
sal d=2 hilbert@2 1e04756aeff66048
sal d=2 mondrian@1 e04d767512be1285
sal d=2 mondrian@2 e04d767512be1285
sal d=4 tp 88c2ee572ea27b54
sal d=4 hilbert 6f8d8cbcf699d9bd
sal d=4 hilbert-residue 2a81bcd299e704ae
sal d=4 mondrian 57f9670fad32a2c4
sal d=4 tp@1 406ced1e45e34d9b
sal d=4 tp@2 406ced1e45e34d9b
sal d=4 tp+@1 036e2226b4121524
sal d=4 tp+@2 036e2226b4121524
sal d=4 hilbert@1 0a069311e75d8b08
sal d=4 hilbert@2 0a069311e75d8b08
sal d=4 mondrian@1 d8966d9736a633cc
sal d=4 mondrian@2 d8966d9736a633cc
sal d=7 tp 4d0647dc0362b820
sal d=7 hilbert 90bf96190aaf57a9
sal d=7 hilbert-residue a64e5e6dfffe7151
sal d=7 mondrian fdc268dc97c40b63
sal d=7 tp@1 80abd79840d883f3
sal d=7 tp@2 80abd79840d883f3
sal d=7 tp+@1 8ebb0c26fef2d0a3
sal d=7 tp+@2 8ebb0c26fef2d0a3
sal d=7 hilbert@1 57638f9ff0872430
sal d=7 hilbert@2 57638f9ff0872430
sal d=7 mondrian@1 e57e3e8d37a2bcf5
sal d=7 mondrian@2 e57e3e8d37a2bcf5
occ d=1 tp 7c9148f7875c5d5f
occ d=1 hilbert 009511a69f26a979
occ d=1 hilbert-residue 2cc070074dab099d
occ d=1 mondrian bfc1d5a2faef6353
occ d=1 tp@1 1b43dd4ab5407334
occ d=1 tp@2 1b43dd4ab5407334
occ d=1 tp+@1 6ca53268ca8d72ad
occ d=1 tp+@2 6ca53268ca8d72ad
occ d=1 hilbert@1 3e5a8169464940f0
occ d=1 hilbert@2 3e5a8169464940f0
occ d=1 mondrian@1 3cf5bcd5791ddb83
occ d=1 mondrian@2 3cf5bcd5791ddb83
occ d=2 tp 33099e8613f0e7d9
occ d=2 hilbert 914d7181764f6d09
occ d=2 hilbert-residue 8e4bc24f09157bf8
occ d=2 mondrian e8139e4b076946d2
occ d=2 tp@1 951e481061b9f435
occ d=2 tp@2 951e481061b9f435
occ d=2 tp+@1 0bc700d503438240
occ d=2 tp+@2 0bc700d503438240
occ d=2 hilbert@1 9deac6f92a881d84
occ d=2 hilbert@2 9deac6f92a881d84
occ d=2 mondrian@1 50527e3d058c04f5
occ d=2 mondrian@2 50527e3d058c04f5
occ d=4 tp 1f13266b5923f2e2
occ d=4 hilbert 1125e56b5d4c6021
occ d=4 hilbert-residue 28560d63b422b275
occ d=4 mondrian 2618353be073f8d6
occ d=4 tp@1 fea6c18695eed540
occ d=4 tp@2 fea6c18695eed540
occ d=4 tp+@1 15807668e542ce9c
occ d=4 tp+@2 15807668e542ce9c
occ d=4 hilbert@1 4cc1786810cbb108
occ d=4 hilbert@2 4cc1786810cbb108
occ d=4 mondrian@1 ab30741f1d7774d2
occ d=4 mondrian@2 ab30741f1d7774d2
occ d=7 tp d632032ed628e110
occ d=7 hilbert 1a044619e379a29d
occ d=7 hilbert-residue 2385e17e8b62433a
occ d=7 mondrian 15c7d7276cdea6d6
occ d=7 tp@1 b76d58ac8e5486fa
occ d=7 tp@2 b76d58ac8e5486fa
occ d=7 tp+@1 24380088c0d9c99e
occ d=7 tp+@2 24380088c0d9c99e
occ d=7 hilbert@1 82eba0de5c5de83a
occ d=7 hilbert@2 82eba0de5c5de83a
occ d=7 mondrian@1 bba7f052759477cb
occ d=7 mondrian@2 bba7f052759477cb
";

#[test]
fn grouping_output_matches_the_pinned_digests() {
    let fresh = digests();
    let pinned: Vec<&str> = PINNED.lines().collect();
    assert_eq!(
        fresh,
        pinned,
        "grouping output drifted; fresh digests:\n{}",
        fresh.join("\n")
    );
}
