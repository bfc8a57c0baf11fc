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
//!   order, stars and notes) at one and at two threads;
//! - `anatomy`: the groups of `anatomize_with` in order, the QIT group
//!   of every row and every sensitive-table entry; `anatomy@<threads>`
//!   folds the same two tables from the publication's payload.
//!
//! The tables are SAL/OCC projections, seeded tables with a skewed SA
//! column, on which the drain leaves rows for the leftover step, and
//! seeded tables whose Hilbert curve has axes of 9–16 bits or is cut to
//! `⌊128/d⌋` bits per axis. A change to any grouping loop that alters
//! one of them, however slightly, changes a digest.

use ldiversity::anatomy::anatomize_with;
use ldiversity::api::{AnatomyTables, Payload};
use ldiversity::core::{tuple_minimize, TpOutcome};
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::hilbert::hilbert_partition_with;
use ldiversity::microdata::{Attribute, Fnv1a, Partition, Schema, Table, TableBuilder, Value};
use ldiversity::multidim::mondrian_partition_with;
use ldiversity::{standard_registry, Executor, MechanismRegistry, Params};

const ROWS: usize = 2_000;
const SEED: u64 = 17;
const PROJECTIONS: [&[usize]; 4] = [&[0], &[0, 4], &[0, 2, 4, 5], &[0, 1, 2, 3, 4, 5, 6]];
const MECHANISMS: [&str; 5] = ["tp", "tp+", "hilbert", "mondrian", "anatomy"];

fn write_groups(h: &mut Fnv1a, partition: &Partition) {
    h.write_u32(partition.groups().len() as u32);
    for group in partition.groups() {
        h.write_u32(group.len() as u32);
        for &row in group {
            h.write_u32(row);
        }
    }
}

fn write_anatomy_tables(h: &mut Fnv1a, tables: &AnatomyTables) {
    h.write_u32(tables.group_of.len() as u32);
    for &g in &tables.group_of {
        h.write_u32(g);
    }
    h.write_u32(tables.entries.len() as u32);
    for e in &tables.entries {
        h.write_u32(e.group).write_value(e.value).write_u32(e.count);
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
    kinds.push(("anatomy".to_string(), Fnv1a::new()));
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
                        if let Payload::Anatomy(tables) = publication.payload() {
                            write_anatomy_tables(h, tables);
                        }
                    }
                    Err(e) => {
                        h.write_str(&e.to_string());
                    }
                }
            }
        }
        let h = hs.next().unwrap();
        match anatomize_with(table, l, &exec) {
            Ok(a) => {
                write_groups(h, a.partition());
                let tables = AnatomyTables {
                    group_of: (0..table.len() as u32).map(|r| a.group_of(r)).collect(),
                    entries: a.sensitive_table().to_vec(),
                };
                write_anatomy_tables(h, &tables);
            }
            Err(e) => {
                h.write_str(&e.to_string());
            }
        }
    }
    kinds.into_iter().map(|(k, h)| (k, h.finish())).collect()
}

/// A seeded table of `rows` rows: uniform QI columns over
/// `qi_domains`, and an SA column drawn with the given `weights`.
fn skewed(seed: u64, rows: usize, qi_domains: &[u32], weights: &[u32]) -> Table {
    let qi = qi_domains
        .iter()
        .enumerate()
        .map(|(a, &n)| Attribute::new(format!("q{a}"), n))
        .collect();
    let schema = Schema::new(qi, Attribute::new("sa", weights.len() as u32)).unwrap();
    let total: u32 = weights.iter().sum();
    let mut state = seed;
    let mut next = |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(bound)) as u32
    };
    let mut b = TableBuilder::new(schema);
    let mut qi = vec![0 as Value; qi_domains.len()];
    for _ in 0..rows {
        for (v, &n) in qi.iter_mut().zip(qi_domains) {
            *v = next(n) as Value;
        }
        let mut pick = next(total);
        let sa = weights
            .iter()
            .position(|&w| {
                let hit = pick < w;
                pick = pick.wrapping_sub(w);
                hit
            })
            .unwrap();
        b.push_row(&qi, sa as Value).unwrap();
    }
    b.build()
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
    let skewed_tables = [
        skewed(1, 1_999, &[9, 4], &[6, 5, 3, 2, 1, 1, 1]),
        skewed(2, 1_001, &[6], &[3, 3, 3, 1, 1]),
        skewed(3, 1_500, &[5, 7, 3], &[10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
        skewed(4, 61, &[4, 4], &[4, 3, 2, 2, 1, 1]),
    ];
    for (i, table) in skewed_tables.iter().enumerate() {
        for (kind, digest) in table_digests(table, &registry) {
            let d = table.dimensionality();
            lines.push(format!("skew{} d={d} {kind} {digest:016x}", i + 1));
        }
    }
    // Curves the SAL/OCC projections never reach. `wide1`: a domain of
    // 4 000 labels, so each axis has 12 bits and a coordinate spans two
    // bytes. `wide2`: 9 axes that need 16 bits, cut to ⌊128/9⌋ = 14.
    // `wide3`: 20 axes that need 7 bits, cut to 6. `wide4`: 8 axes of
    // 16 bits, an index that fills all 128 bits.
    let wide_tables = [
        skewed(5, 1_200, &[300, 40, 4_000], &[3, 2, 2, 1, 1]),
        skewed(
            6,
            900,
            &[60_000, 9, 700, 60_000, 5, 3, 40_000, 2, 60_000],
            &[2, 2, 1, 1],
        ),
        skewed(7, 800, &[100; 20], &[4, 3, 2, 1, 1, 1]),
        skewed(
            8,
            700,
            &[50_000, 65_536, 3, 50_000, 1_000, 65_536, 7, 50_000],
            &[3, 3, 2, 2, 1],
        ),
    ];
    for (i, table) in wide_tables.iter().enumerate() {
        for (kind, digest) in table_digests(table, &registry) {
            let d = table.dimensionality();
            lines.push(format!("wide{} d={d} {kind} {digest:016x}", i + 1));
        }
    }
    lines
}

/// Generated from the grouping loops that kept a `BTreeSet` per SA
/// value (Hilbert), sorted a value vector per split attempt (Mondrian)
/// and built a `Group` for every one-row QI-group (TP). The `anatomy`
/// lines and the `skew` tables were added later, generated by the
/// Anatomy loop that re-sorted every SA bucket for each group and built
/// its sensitive table from a `HashMap` per group. The `wide` tables were
/// added later again, generated by the encoder that indexed one row at a
/// time, one coordinate bit per step.
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
sal d=1 anatomy@1 d808aa2e9879d99e
sal d=1 anatomy@2 d808aa2e9879d99e
sal d=1 anatomy 58e7019239d0a461
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
sal d=2 anatomy@1 d808aa2e9879d99e
sal d=2 anatomy@2 d808aa2e9879d99e
sal d=2 anatomy 58e7019239d0a461
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
sal d=4 anatomy@1 d808aa2e9879d99e
sal d=4 anatomy@2 d808aa2e9879d99e
sal d=4 anatomy 58e7019239d0a461
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
sal d=7 anatomy@1 d808aa2e9879d99e
sal d=7 anatomy@2 d808aa2e9879d99e
sal d=7 anatomy 58e7019239d0a461
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
occ d=1 anatomy@1 61e21cbceb5c8c8e
occ d=1 anatomy@2 61e21cbceb5c8c8e
occ d=1 anatomy 17f8e2c3af0d25f9
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
occ d=2 anatomy@1 61e21cbceb5c8c8e
occ d=2 anatomy@2 61e21cbceb5c8c8e
occ d=2 anatomy 17f8e2c3af0d25f9
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
occ d=4 anatomy@1 61e21cbceb5c8c8e
occ d=4 anatomy@2 61e21cbceb5c8c8e
occ d=4 anatomy 17f8e2c3af0d25f9
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
occ d=7 anatomy@1 61e21cbceb5c8c8e
occ d=7 anatomy@2 61e21cbceb5c8c8e
occ d=7 anatomy 17f8e2c3af0d25f9
skew1 d=2 tp 5a689bfdc6c0303e
skew1 d=2 hilbert 74d7741019686b73
skew1 d=2 hilbert-residue 81d23fd7003c2305
skew1 d=2 mondrian 19db44164ed67391
skew1 d=2 tp@1 5114c52117491f43
skew1 d=2 tp@2 5114c52117491f43
skew1 d=2 tp+@1 5114c52117491f43
skew1 d=2 tp+@2 5114c52117491f43
skew1 d=2 hilbert@1 076d3b7fd7dfdcbf
skew1 d=2 hilbert@2 076d3b7fd7dfdcbf
skew1 d=2 mondrian@1 908a8f10552f97a7
skew1 d=2 mondrian@2 908a8f10552f97a7
skew1 d=2 anatomy@1 c6c89456e0a7007d
skew1 d=2 anatomy@2 c6c89456e0a7007d
skew1 d=2 anatomy 36bdbd6e9eb0a017
skew2 d=1 tp 724bf9e2af225d83
skew2 d=1 hilbert cdf18cefd43f4660
skew2 d=1 hilbert-residue 81d23fd7003c2305
skew2 d=1 mondrian 9d3e43ea274ff3c7
skew2 d=1 tp@1 4a1511b81569499e
skew2 d=1 tp@2 4a1511b81569499e
skew2 d=1 tp+@1 4a1511b81569499e
skew2 d=1 tp+@2 4a1511b81569499e
skew2 d=1 hilbert@1 f9e6dde617c3b13c
skew2 d=1 hilbert@2 f9e6dde617c3b13c
skew2 d=1 mondrian@1 e00302afef2be392
skew2 d=1 mondrian@2 e00302afef2be392
skew2 d=1 anatomy@1 5e439529c18105df
skew2 d=1 anatomy@2 5e439529c18105df
skew2 d=1 anatomy 690a962857801ddf
skew3 d=3 tp b71292566fb8e2fb
skew3 d=3 hilbert f9f5e3de543bedaa
skew3 d=3 hilbert-residue 85532721dfdcf1d0
skew3 d=3 mondrian aba8cde357d0f914
skew3 d=3 tp@1 5286722b29a1520a
skew3 d=3 tp@2 5286722b29a1520a
skew3 d=3 tp+@1 3b771b8173b56ae6
skew3 d=3 tp+@2 3b771b8173b56ae6
skew3 d=3 hilbert@1 fe485c86091210c7
skew3 d=3 hilbert@2 fe485c86091210c7
skew3 d=3 mondrian@1 c42e46dae30f4b6a
skew3 d=3 mondrian@2 c42e46dae30f4b6a
skew3 d=3 anatomy@1 46eeeb5ebacbfef5
skew3 d=3 anatomy@2 46eeeb5ebacbfef5
skew3 d=3 anatomy aa0b8bdb04cdb56e
skew4 d=2 tp 105a4d582f7fecbb
skew4 d=2 hilbert 3215a3ed10b8c699
skew4 d=2 hilbert-residue 0e44842e491458be
skew4 d=2 mondrian a41ec2bcb194092c
skew4 d=2 tp@1 da746a8d44918181
skew4 d=2 tp@2 da746a8d44918181
skew4 d=2 tp+@1 0e5e94bbd5e49ff9
skew4 d=2 tp+@2 0e5e94bbd5e49ff9
skew4 d=2 hilbert@1 2d528a5929f3bdce
skew4 d=2 hilbert@2 2d528a5929f3bdce
skew4 d=2 mondrian@1 9d0faf66c2b6bf87
skew4 d=2 mondrian@2 9d0faf66c2b6bf87
skew4 d=2 anatomy@1 89f3d6879bf63b9b
skew4 d=2 anatomy@2 89f3d6879bf63b9b
skew4 d=2 anatomy 1b28ebf52ec11b93
wide1 d=3 tp 4d5ab95e1f22f15b
wide1 d=3 hilbert 7f1dd020e40bab0b
wide1 d=3 hilbert-residue ebb6110ba1fa3840
wide1 d=3 mondrian a43afa3238f4e871
wide1 d=3 tp@1 b18d9e8bc389c5c8
wide1 d=3 tp@2 b18d9e8bc389c5c8
wide1 d=3 tp+@1 10151db92883215f
wide1 d=3 tp+@2 10151db92883215f
wide1 d=3 hilbert@1 8442bff8f217cb31
wide1 d=3 hilbert@2 8442bff8f217cb31
wide1 d=3 mondrian@1 77cc01ecd6974b1d
wide1 d=3 mondrian@2 77cc01ecd6974b1d
wide1 d=3 anatomy@1 267e0bfe0ac48797
wide1 d=3 anatomy@2 267e0bfe0ac48797
wide1 d=3 anatomy 6ed206149c7a4af6
wide2 d=9 tp 73019828d051e75d
wide2 d=9 hilbert b1204dddc37e4cbd
wide2 d=9 hilbert-residue 63b49de41c60b990
wide2 d=9 mondrian 02660f4e10331401
wide2 d=9 tp@1 4fc423b612642584
wide2 d=9 tp@2 4fc423b612642584
wide2 d=9 tp+@1 7cef6b6f318a2fa6
wide2 d=9 tp+@2 7cef6b6f318a2fa6
wide2 d=9 hilbert@1 3e5266afb89d1b33
wide2 d=9 hilbert@2 3e5266afb89d1b33
wide2 d=9 mondrian@1 e262cfe5e5fade7d
wide2 d=9 mondrian@2 e262cfe5e5fade7d
wide2 d=9 anatomy@1 4b62c3573ca0f6aa
wide2 d=9 anatomy@2 4b62c3573ca0f6aa
wide2 d=9 anatomy 57ad8d93c9a518da
wide3 d=20 tp 7f685e96eb629cbc
wide3 d=20 hilbert 8ff95fcf7a0f8f84
wide3 d=20 hilbert-residue b3518fc076b39b62
wide3 d=20 mondrian 8924a4ff26a39651
wide3 d=20 tp@1 54633c00e392c798
wide3 d=20 tp@2 54633c00e392c798
wide3 d=20 tp+@1 2b9addfe4eac009e
wide3 d=20 tp+@2 2b9addfe4eac009e
wide3 d=20 hilbert@1 dfc2c4341300b226
wide3 d=20 hilbert@2 dfc2c4341300b226
wide3 d=20 mondrian@1 bae46d8835338f39
wide3 d=20 mondrian@2 bae46d8835338f39
wide3 d=20 anatomy@1 e4c0861c3c3838d1
wide3 d=20 anatomy@2 e4c0861c3c3838d1
wide3 d=20 anatomy 0f5f1194dc29211d
wide4 d=8 tp 9aa0fec0363171c6
wide4 d=8 hilbert a8f744aebbfb6be0
wide4 d=8 hilbert-residue 8edec31fbe369829
wide4 d=8 mondrian 0d0961fb2f704149
wide4 d=8 tp@1 d7a10d3b7ba681e1
wide4 d=8 tp@2 d7a10d3b7ba681e1
wide4 d=8 tp+@1 94c4bf34304a22cb
wide4 d=8 tp+@2 94c4bf34304a22cb
wide4 d=8 hilbert@1 c03687fde6357937
wide4 d=8 hilbert@2 c03687fde6357937
wide4 d=8 mondrian@1 659281eb54f2a2eb
wide4 d=8 mondrian@2 659281eb54f2a2eb
wide4 d=8 anatomy@1 02fd678618799c8c
wide4 d=8 anatomy@2 02fd678618799c8c
wide4 d=8 anatomy 615b97c8028ee78e
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
