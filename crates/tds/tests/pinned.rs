//! TDS's full output pinned by digest.
//!
//! Every case is seeded, the information gain of a candidate is summed
//! in ascending group id, and ties go to the smallest `(attribute,
//! node)`, so a run's output is a pure function of its inputs. Each
//! digest covers the specialization sequence, the cut sizes, every
//! recoding bucket, the groups in output order and the bits of the
//! recoded KL. A change to the specialization loop that alters any of
//! them, however slightly, changes a digest.

use ldiv_datagen::{occ, sal, AcsConfig};
use ldiv_metrics::kl_divergence_recoded;
use ldiv_microdata::{Fnv1a, Table};
use ldiv_tds::{tds_anonymize, ScorePolicy, TdsConfig};

const ROWS: usize = 2_000;
const SEED: u64 = 17;
const PROJECTIONS: [&[usize]; 4] = [&[0], &[0, 4], &[0, 2, 4, 5], &[0, 1, 2, 3, 4, 5, 6]];
const FANOUTS: [u32; 3] = [2, 3, 5];
const POLICIES: [ScorePolicy; 2] = [ScorePolicy::InfoGainPerLoss, ScorePolicy::InfoGain];

/// FNV-1a over everything a run outputs.
fn digest(table: &Table, config: &TdsConfig) -> u64 {
    let mut h = Fnv1a::new();
    let out = match tds_anonymize(table, config) {
        Ok(out) => out,
        Err(e) => return h.write_str(&e.to_string()).finish(),
    };
    h.write_u32(out.specializations.len() as u32);
    for &(a, node) in &out.specializations {
        h.write_u32(a as u32).write_u32(node as u32);
    }
    for &size in &out.cut_sizes {
        h.write_u32(size as u32);
    }
    for a in 0..table.dimensionality() {
        for v in 0..table.schema().qi_attribute(a).domain_size() {
            h.write_u32(out.recoding.bucket(a, v as u16));
        }
    }
    let partition = out.partition();
    h.write_u32(partition.groups().len() as u32);
    for group in partition.groups() {
        h.write_u32(group.len() as u32);
        for &row in group {
            h.write_u32(row);
        }
    }
    let kl = kl_divergence_recoded(table, &out.recoding).to_bits();
    h.write_bytes(&kl.to_le_bytes()).finish()
}

/// One digest per `(dataset, d, fanout, policy)`, folding `l = 1..=6`.
fn digests() -> Vec<String> {
    let acs = AcsConfig {
        rows: ROWS,
        seed: SEED,
    };
    let mut lines = Vec::new();
    for (tag, base) in [("sal", sal(&acs)), ("occ", occ(&acs))] {
        for idx in PROJECTIONS {
            let table = base.project(idx).unwrap();
            for fanout in FANOUTS {
                for score in POLICIES {
                    let mut h = Fnv1a::new();
                    for l in 1..=6 {
                        let d = digest(&table, &TdsConfig { l, fanout, score });
                        h.write_bytes(&d.to_le_bytes());
                    }
                    lines.push(format!(
                        "{tag} d={} fanout={fanout} {score:?} {:016x}",
                        idx.len(),
                        h.finish()
                    ));
                }
            }
        }
    }
    lines
}

/// Generated from the specialization loop that rescanned every row once
/// per attribute each round.
const PINNED: &str = "\
sal d=1 fanout=2 InfoGainPerLoss 83a1e3b41deaac32
sal d=1 fanout=2 InfoGain b5216d0c77d63a5b
sal d=1 fanout=3 InfoGainPerLoss 7ecee525bddaa6ac
sal d=1 fanout=3 InfoGain cdb0556301d55eee
sal d=1 fanout=5 InfoGainPerLoss 54f9121ffe1c7e9f
sal d=1 fanout=5 InfoGain fda81972f88d29f3
sal d=2 fanout=2 InfoGainPerLoss 91eedb9fc3cc00ac
sal d=2 fanout=2 InfoGain 431126aaeef8f5c2
sal d=2 fanout=3 InfoGainPerLoss fa4a944f3baf46b2
sal d=2 fanout=3 InfoGain c70031a218dd6c51
sal d=2 fanout=5 InfoGainPerLoss f042bb524abc35c7
sal d=2 fanout=5 InfoGain ca613cbe2b454f4a
sal d=4 fanout=2 InfoGainPerLoss 88e2f468648b4a81
sal d=4 fanout=2 InfoGain be2981e7c34258d5
sal d=4 fanout=3 InfoGainPerLoss 2bc9726634cdb866
sal d=4 fanout=3 InfoGain d50d85d23893a812
sal d=4 fanout=5 InfoGainPerLoss b2e5885c7ebdc587
sal d=4 fanout=5 InfoGain 70a2bceb59c70def
sal d=7 fanout=2 InfoGainPerLoss 69d52f357ef735ec
sal d=7 fanout=2 InfoGain fb83ac03cbd19d9d
sal d=7 fanout=3 InfoGainPerLoss 83fb798892e86fbf
sal d=7 fanout=3 InfoGain 30c9a3af9c212463
sal d=7 fanout=5 InfoGainPerLoss 91ec66d53b7f2166
sal d=7 fanout=5 InfoGain 76e3b70bb75a2353
occ d=1 fanout=2 InfoGainPerLoss 19d1a7c1ed52453c
occ d=1 fanout=2 InfoGain d47971779af1c0fc
occ d=1 fanout=3 InfoGainPerLoss 0e736c0b98513922
occ d=1 fanout=3 InfoGain 4669d967414d00bd
occ d=1 fanout=5 InfoGainPerLoss bdf259695235540f
occ d=1 fanout=5 InfoGain ba06c7e92fe3c1dd
occ d=2 fanout=2 InfoGainPerLoss a8d64ec4da21389b
occ d=2 fanout=2 InfoGain 6281691c60bd3eba
occ d=2 fanout=3 InfoGainPerLoss 218745e7e3172d2e
occ d=2 fanout=3 InfoGain 12723cab2e68768f
occ d=2 fanout=5 InfoGainPerLoss 3ec01d52cb24ed3f
occ d=2 fanout=5 InfoGain 6d053500d195e1d4
occ d=4 fanout=2 InfoGainPerLoss 336cd774768e3f0f
occ d=4 fanout=2 InfoGain f1ddc2ed5703a11f
occ d=4 fanout=3 InfoGainPerLoss 700cdcc9db82e94a
occ d=4 fanout=3 InfoGain 2771c3b50765296e
occ d=4 fanout=5 InfoGainPerLoss e71800105b3e9612
occ d=4 fanout=5 InfoGain 591a35085bd8df45
occ d=7 fanout=2 InfoGainPerLoss b616a67af647dad4
occ d=7 fanout=2 InfoGain 1da5788261b46c60
occ d=7 fanout=3 InfoGainPerLoss f8878cc0a30cb5f0
occ d=7 fanout=3 InfoGain 61d130578e15da45
occ d=7 fanout=5 InfoGainPerLoss 5cbc7757ccfaa3a8
occ d=7 fanout=5 InfoGain 3af01bf0f706b5ff
";

#[test]
fn tds_output_matches_the_pinned_digests() {
    let fresh = digests();
    let pinned: Vec<&str> = PINNED.lines().collect();
    assert_eq!(
        fresh,
        pinned,
        "TDS output drifted; fresh digests:\n{}",
        fresh.join("\n")
    );
}
