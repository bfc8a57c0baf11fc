//! The sharded publications pinned by digest.
//!
//! A sharded run splits the table, anonymizes every shard at the largest
//! l′ ≤ l it can honour, maps the shard results back to table row ids
//! and stitches them with `Mechanism::repair_merge` (Lemma 1 keeps the
//! repaired groups l-eligible). Both entry points are pure functions of
//! their inputs: `anonymize_sharded` of the table and the parameters,
//! `DatasetStore::publish` of the segment history, whatever the thread
//! budget and whichever shards it reloads instead of recomputing. Each
//! digest folds, per run, the rendered `publication_json` (stars, KL,
//! notes), the partition's groups in order and the payload's `Debug`
//! form, or the error text of a run that fails:
//!
//! - `<table> <mechanism> k=<K> @<threads>`: `anonymize_sharded` at
//!   `l = 2` and `l = 4`, on SAL/OCC projections and on the paper's
//!   Table 1 (where `l = 4` is infeasible and `k = 5` leaves two-row
//!   shards that run below l);
//! - `store-<table> <mechanism> k=<K> @<threads>`: a fresh store
//!   registers 1 500 rows and publishes, then five times appends 7 rows
//!   and publishes, at `l = 4`; each publish also folds how many shards
//!   it reused and computed.
//!
//! A change to the shard driver, the stitch or the payload rebuild that
//! alters one published byte or one reuse count changes a digest.

mod common;

use common::{csv_of, TempRoot};
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::metrics::kl_divergence;
use ldiversity::microdata::{samples, Fnv1a, Table};
use ldiversity::server::wire::publication_json;
use ldiversity::shard::anonymize_sharded;
use ldiversity::store::DatasetStore;
use ldiversity::{standard_registry, Executor, LdivError, Params, Publication};

const ROWS: usize = 2_000;
const SEED: u64 = 26;
const PROJECTIONS: [&[usize]; 2] = [&[0, 4], &[0, 2, 4, 5]];
const SHARDS: [u32; 3] = [2, 3, 5];
const STORE_ROWS: usize = 1_500;
const STORE_SHARDS: [u32; 2] = [1, 4];
const APPENDS: usize = 5;
const BATCH_ROWS: usize = 7;

fn write_run(h: &mut Fnv1a, table: &Table, params: &Params, run: &Result<Publication, LdivError>) {
    match run {
        Ok(publication) => {
            let kl = kl_divergence(table, publication);
            h.write_str(&publication_json(table, publication, params, kl).render());
            let groups = publication.partition().groups();
            h.write_u32(groups.len() as u32);
            for group in groups {
                h.write_u32(group.len() as u32);
                for &row in group {
                    h.write_u32(row);
                }
            }
            h.write_str(&format!("{:?}", publication.payload()));
        }
        Err(e) => {
            h.write_str(&e.to_string());
        }
    }
}

fn sharded_digests(tag: &str, table: &Table, lines: &mut Vec<String>) {
    let registry = standard_registry();
    for name in registry.names() {
        let mechanism = registry.get_or_unknown(name).unwrap();
        for k in SHARDS {
            for threads in [1, 2] {
                let mut h = Fnv1a::new();
                for l in [2, 4] {
                    let params = Params::new(l).with_shards(k).with_threads(threads);
                    let run = anonymize_sharded(mechanism, table, &params);
                    write_run(&mut h, table, &params, &run);
                }
                lines.push(format!("{tag} {name} k={k} @{threads} {:016x}", h.finish()));
            }
        }
    }
}

/// Registers the first `STORE_ROWS` rows of `table` and publishes, then
/// appends `APPENDS` batches of `BATCH_ROWS` rows, each followed by a
/// publish. Batches repeat rows of the registered segment, spread over
/// it, so every label is already in the dataset's schema.
fn store_digest(table: &Table, name: &str, k: u32, threads: u32) -> u64 {
    let root = TempRoot::new("pinned-shards");
    let store = DatasetStore::open(&root.0).unwrap();
    let exec = Executor::sequential();
    let seed_rows: Vec<u32> = (0..STORE_ROWS as u32).collect();
    let fp = store
        .register(&csv_of(&table.select_rows(&seed_rows)), &exec)
        .unwrap()
        .fingerprint;
    let registry = standard_registry();
    let mechanism = registry.get_or_unknown(name).unwrap();
    let params = Params::new(4).with_shards(k).with_threads(threads);
    let mut h = Fnv1a::new();
    for append in 0..=APPENDS {
        if append > 0 {
            let rows: Vec<u32> = (0..BATCH_ROWS)
                .map(|i| ((append * 211 + i * 197) % STORE_ROWS) as u32)
                .collect();
            store
                .append(fp, &csv_of(&table.select_rows(&rows)), &exec)
                .unwrap();
        }
        match store.publish(fp, mechanism, &params) {
            Ok(outcome) => {
                write_run(&mut h, &outcome.table, &params, &Ok(outcome.publication));
                h.write_u32(outcome.stats.reused as u32);
                h.write_u32(outcome.stats.computed as u32);
            }
            Err(e) => {
                h.write_str(&e.to_string());
            }
        }
    }
    h.finish()
}

fn digests() -> Vec<String> {
    let acs = AcsConfig {
        rows: ROWS,
        seed: SEED,
    };
    let mut lines = Vec::new();
    for (tag, base) in [("sal", sal(&acs)), ("occ", occ(&acs))] {
        for idx in PROJECTIONS {
            let table = base.project(idx).unwrap();
            sharded_digests(&format!("{tag} d={}", idx.len()), &table, &mut lines);
        }
    }
    sharded_digests("hospital", &samples::hospital(), &mut lines);

    let acs = AcsConfig {
        rows: STORE_ROWS,
        seed: SEED,
    };
    let registry = standard_registry();
    for (tag, table) in [("sal", sal(&acs)), ("occ", occ(&acs))] {
        for name in registry.names() {
            for k in STORE_SHARDS {
                for threads in [1, 2] {
                    let digest = store_digest(&table, name, k, threads);
                    lines.push(format!("store-{tag} {name} k={k} @{threads} {digest:016x}"));
                }
            }
        }
    }
    lines
}

/// Generated from the shard driver in which `anonymize_sharded` and
/// `DatasetStore::publish` each fanned their shards out on their own,
/// and Mondrian stitched through its own `repair_merge`.
const PINNED: &str = "\
sal d=2 anatomy k=2 @1 eccf0322b0ee23c7
sal d=2 anatomy k=2 @2 eccf0322b0ee23c7
sal d=2 anatomy k=3 @1 32b0a6fe5362a2a2
sal d=2 anatomy k=3 @2 32b0a6fe5362a2a2
sal d=2 anatomy k=5 @1 d60804d7dc6c75db
sal d=2 anatomy k=5 @2 d60804d7dc6c75db
sal d=2 hilbert k=2 @1 c4e9e82d5b823147
sal d=2 hilbert k=2 @2 c4e9e82d5b823147
sal d=2 hilbert k=3 @1 737f627de226713a
sal d=2 hilbert k=3 @2 737f627de226713a
sal d=2 hilbert k=5 @1 b068280589e56451
sal d=2 hilbert k=5 @2 b068280589e56451
sal d=2 mondrian k=2 @1 d250984febeede04
sal d=2 mondrian k=2 @2 d250984febeede04
sal d=2 mondrian k=3 @1 09e9cf1f1ea0f1ae
sal d=2 mondrian k=3 @2 09e9cf1f1ea0f1ae
sal d=2 mondrian k=5 @1 2f266eb0e2e3d480
sal d=2 mondrian k=5 @2 2f266eb0e2e3d480
sal d=2 tds k=2 @1 268e487d841466b4
sal d=2 tds k=2 @2 268e487d841466b4
sal d=2 tds k=3 @1 9da079ecafe489bc
sal d=2 tds k=3 @2 9da079ecafe489bc
sal d=2 tds k=5 @1 0597639f65fbc634
sal d=2 tds k=5 @2 0597639f65fbc634
sal d=2 tp k=2 @1 e19ee2a653743981
sal d=2 tp k=2 @2 e19ee2a653743981
sal d=2 tp k=3 @1 42eadc2721b59254
sal d=2 tp k=3 @2 42eadc2721b59254
sal d=2 tp k=5 @1 fa7f947f5337df28
sal d=2 tp k=5 @2 fa7f947f5337df28
sal d=2 tp+ k=2 @1 8592064005b7a1e0
sal d=2 tp+ k=2 @2 8592064005b7a1e0
sal d=2 tp+ k=3 @1 f9569d2306b9eae0
sal d=2 tp+ k=3 @2 f9569d2306b9eae0
sal d=2 tp+ k=5 @1 8d8260bbabb10b28
sal d=2 tp+ k=5 @2 8d8260bbabb10b28
sal d=4 anatomy k=2 @1 ef5c41eaf6bdd3e9
sal d=4 anatomy k=2 @2 ef5c41eaf6bdd3e9
sal d=4 anatomy k=3 @1 20668502249f418c
sal d=4 anatomy k=3 @2 20668502249f418c
sal d=4 anatomy k=5 @1 1f2d357fea814ecf
sal d=4 anatomy k=5 @2 1f2d357fea814ecf
sal d=4 hilbert k=2 @1 5aac2d341a7dec28
sal d=4 hilbert k=2 @2 5aac2d341a7dec28
sal d=4 hilbert k=3 @1 7c88e13f00e18963
sal d=4 hilbert k=3 @2 7c88e13f00e18963
sal d=4 hilbert k=5 @1 e82dd5afeba2972e
sal d=4 hilbert k=5 @2 e82dd5afeba2972e
sal d=4 mondrian k=2 @1 67c9e40bf0673f1d
sal d=4 mondrian k=2 @2 67c9e40bf0673f1d
sal d=4 mondrian k=3 @1 280b034a810e6f21
sal d=4 mondrian k=3 @2 280b034a810e6f21
sal d=4 mondrian k=5 @1 232c0df39f10e412
sal d=4 mondrian k=5 @2 232c0df39f10e412
sal d=4 tds k=2 @1 2caeaff71cac85b3
sal d=4 tds k=2 @2 2caeaff71cac85b3
sal d=4 tds k=3 @1 e6f0b678deb0508b
sal d=4 tds k=3 @2 e6f0b678deb0508b
sal d=4 tds k=5 @1 37012f1de43b06e2
sal d=4 tds k=5 @2 37012f1de43b06e2
sal d=4 tp k=2 @1 d23aa9787cfdd209
sal d=4 tp k=2 @2 d23aa9787cfdd209
sal d=4 tp k=3 @1 7227502a449c259c
sal d=4 tp k=3 @2 7227502a449c259c
sal d=4 tp k=5 @1 8ab85008e8f7d533
sal d=4 tp k=5 @2 8ab85008e8f7d533
sal d=4 tp+ k=2 @1 027ff26c05f46d52
sal d=4 tp+ k=2 @2 027ff26c05f46d52
sal d=4 tp+ k=3 @1 583a3801a45156d0
sal d=4 tp+ k=3 @2 583a3801a45156d0
sal d=4 tp+ k=5 @1 5ae461167c2ba40b
sal d=4 tp+ k=5 @2 5ae461167c2ba40b
occ d=2 anatomy k=2 @1 ec5427abb3f6ed6a
occ d=2 anatomy k=2 @2 ec5427abb3f6ed6a
occ d=2 anatomy k=3 @1 f69873d9713aad53
occ d=2 anatomy k=3 @2 f69873d9713aad53
occ d=2 anatomy k=5 @1 b71dbf1d8478a2c0
occ d=2 anatomy k=5 @2 b71dbf1d8478a2c0
occ d=2 hilbert k=2 @1 83df4035c18dfe45
occ d=2 hilbert k=2 @2 83df4035c18dfe45
occ d=2 hilbert k=3 @1 c66fe277550d1359
occ d=2 hilbert k=3 @2 c66fe277550d1359
occ d=2 hilbert k=5 @1 d905054ad25ebf74
occ d=2 hilbert k=5 @2 d905054ad25ebf74
occ d=2 mondrian k=2 @1 7e8449f63fa043a4
occ d=2 mondrian k=2 @2 7e8449f63fa043a4
occ d=2 mondrian k=3 @1 46c72c8dbbc5f16f
occ d=2 mondrian k=3 @2 46c72c8dbbc5f16f
occ d=2 mondrian k=5 @1 7a2c70d19b65db0a
occ d=2 mondrian k=5 @2 7a2c70d19b65db0a
occ d=2 tds k=2 @1 e035f68abd064aa8
occ d=2 tds k=2 @2 e035f68abd064aa8
occ d=2 tds k=3 @1 b6b51ad3e239ba64
occ d=2 tds k=3 @2 b6b51ad3e239ba64
occ d=2 tds k=5 @1 8714187f4737bb10
occ d=2 tds k=5 @2 8714187f4737bb10
occ d=2 tp k=2 @1 07085e3069cd394e
occ d=2 tp k=2 @2 07085e3069cd394e
occ d=2 tp k=3 @1 d8a4019f254c69b2
occ d=2 tp k=3 @2 d8a4019f254c69b2
occ d=2 tp k=5 @1 4fb58a65456a4fe5
occ d=2 tp k=5 @2 4fb58a65456a4fe5
occ d=2 tp+ k=2 @1 9947a1836fc2caf3
occ d=2 tp+ k=2 @2 9947a1836fc2caf3
occ d=2 tp+ k=3 @1 7825c14993d0916e
occ d=2 tp+ k=3 @2 7825c14993d0916e
occ d=2 tp+ k=5 @1 5fdfef1469b971be
occ d=2 tp+ k=5 @2 5fdfef1469b971be
occ d=4 anatomy k=2 @1 9ba2411ee15655c9
occ d=4 anatomy k=2 @2 9ba2411ee15655c9
occ d=4 anatomy k=3 @1 dfb361e6e326ccf0
occ d=4 anatomy k=3 @2 dfb361e6e326ccf0
occ d=4 anatomy k=5 @1 e2413b64e0517a31
occ d=4 anatomy k=5 @2 e2413b64e0517a31
occ d=4 hilbert k=2 @1 19924e5664c7698e
occ d=4 hilbert k=2 @2 19924e5664c7698e
occ d=4 hilbert k=3 @1 6a144df6fcbf7dbc
occ d=4 hilbert k=3 @2 6a144df6fcbf7dbc
occ d=4 hilbert k=5 @1 b0a361afaf791c58
occ d=4 hilbert k=5 @2 b0a361afaf791c58
occ d=4 mondrian k=2 @1 7ac2697bbcce043a
occ d=4 mondrian k=2 @2 7ac2697bbcce043a
occ d=4 mondrian k=3 @1 13b3223badee36aa
occ d=4 mondrian k=3 @2 13b3223badee36aa
occ d=4 mondrian k=5 @1 fcffbe8cef64ef75
occ d=4 mondrian k=5 @2 fcffbe8cef64ef75
occ d=4 tds k=2 @1 8e1243a9348cafcb
occ d=4 tds k=2 @2 8e1243a9348cafcb
occ d=4 tds k=3 @1 0d5c502884eb4a5b
occ d=4 tds k=3 @2 0d5c502884eb4a5b
occ d=4 tds k=5 @1 5123c774140703ea
occ d=4 tds k=5 @2 5123c774140703ea
occ d=4 tp k=2 @1 d6d238d55a7fe3c0
occ d=4 tp k=2 @2 d6d238d55a7fe3c0
occ d=4 tp k=3 @1 59063abac741c357
occ d=4 tp k=3 @2 59063abac741c357
occ d=4 tp k=5 @1 d5334387a0b5fdbe
occ d=4 tp k=5 @2 d5334387a0b5fdbe
occ d=4 tp+ k=2 @1 b1fbb1176e9dee94
occ d=4 tp+ k=2 @2 b1fbb1176e9dee94
occ d=4 tp+ k=3 @1 ee915ee57bf39984
occ d=4 tp+ k=3 @2 ee915ee57bf39984
occ d=4 tp+ k=5 @1 6275617cc451c0c4
occ d=4 tp+ k=5 @2 6275617cc451c0c4
hospital anatomy k=2 @1 52d85e99d597bd4b
hospital anatomy k=2 @2 52d85e99d597bd4b
hospital anatomy k=3 @1 23d48b3f7e77ee58
hospital anatomy k=3 @2 23d48b3f7e77ee58
hospital anatomy k=5 @1 09429d12b3cacbb4
hospital anatomy k=5 @2 09429d12b3cacbb4
hospital hilbert k=2 @1 2eee4df7b56c1aff
hospital hilbert k=2 @2 2eee4df7b56c1aff
hospital hilbert k=3 @1 7a5299efd361116c
hospital hilbert k=3 @2 7a5299efd361116c
hospital hilbert k=5 @1 9f0bcae546b94eab
hospital hilbert k=5 @2 9f0bcae546b94eab
hospital mondrian k=2 @1 eb8b6fcc74277849
hospital mondrian k=2 @2 eb8b6fcc74277849
hospital mondrian k=3 @1 3929dea7f7df8aeb
hospital mondrian k=3 @2 3929dea7f7df8aeb
hospital mondrian k=5 @1 7dfb8444c262114a
hospital mondrian k=5 @2 7dfb8444c262114a
hospital tds k=2 @1 ca0d8f4a38a0df00
hospital tds k=2 @2 ca0d8f4a38a0df00
hospital tds k=3 @1 465d29d2d1593a55
hospital tds k=3 @2 465d29d2d1593a55
hospital tds k=5 @1 9fb98e1766b35fd8
hospital tds k=5 @2 9fb98e1766b35fd8
hospital tp k=2 @1 02a0a202d2e799a7
hospital tp k=2 @2 02a0a202d2e799a7
hospital tp k=3 @1 8d96e83c9d53daf9
hospital tp k=3 @2 8d96e83c9d53daf9
hospital tp k=5 @1 fe2df3e1019f8df4
hospital tp k=5 @2 fe2df3e1019f8df4
hospital tp+ k=2 @1 53f498842980320f
hospital tp+ k=2 @2 53f498842980320f
hospital tp+ k=3 @1 b3d3906909fda91b
hospital tp+ k=3 @2 b3d3906909fda91b
hospital tp+ k=5 @1 ec1e067936696136
hospital tp+ k=5 @2 ec1e067936696136
store-sal anatomy k=1 @1 eb0720005e7fc8d1
store-sal anatomy k=1 @2 eb0720005e7fc8d1
store-sal anatomy k=4 @1 5751befa73d5ee32
store-sal anatomy k=4 @2 5751befa73d5ee32
store-sal hilbert k=1 @1 85b714ec6867dff8
store-sal hilbert k=1 @2 85b714ec6867dff8
store-sal hilbert k=4 @1 e925887e78fb7871
store-sal hilbert k=4 @2 e925887e78fb7871
store-sal mondrian k=1 @1 53a148f88a2e1a2a
store-sal mondrian k=1 @2 53a148f88a2e1a2a
store-sal mondrian k=4 @1 38e8e271406b9354
store-sal mondrian k=4 @2 38e8e271406b9354
store-sal tds k=1 @1 c1ffabb22e02683a
store-sal tds k=1 @2 c1ffabb22e02683a
store-sal tds k=4 @1 dca2db0ab1dc860d
store-sal tds k=4 @2 dca2db0ab1dc860d
store-sal tp k=1 @1 67b3aff02a86557d
store-sal tp k=1 @2 67b3aff02a86557d
store-sal tp k=4 @1 bebfb0b2a554ddab
store-sal tp k=4 @2 bebfb0b2a554ddab
store-sal tp+ k=1 @1 5cff81a7f381b899
store-sal tp+ k=1 @2 5cff81a7f381b899
store-sal tp+ k=4 @1 72c561ed3cf0c6b1
store-sal tp+ k=4 @2 72c561ed3cf0c6b1
store-occ anatomy k=1 @1 5d45e78fb7284885
store-occ anatomy k=1 @2 5d45e78fb7284885
store-occ anatomy k=4 @1 eccc3b1dde05afda
store-occ anatomy k=4 @2 eccc3b1dde05afda
store-occ hilbert k=1 @1 ac586bcd852f8d78
store-occ hilbert k=1 @2 ac586bcd852f8d78
store-occ hilbert k=4 @1 3e15c3824fd4e0a6
store-occ hilbert k=4 @2 3e15c3824fd4e0a6
store-occ mondrian k=1 @1 71a2edfd8b2878b2
store-occ mondrian k=1 @2 71a2edfd8b2878b2
store-occ mondrian k=4 @1 c2182c8acb67cfcd
store-occ mondrian k=4 @2 c2182c8acb67cfcd
store-occ tds k=1 @1 76f84e8e05e80ce0
store-occ tds k=1 @2 76f84e8e05e80ce0
store-occ tds k=4 @1 69bbef1884d0e98a
store-occ tds k=4 @2 69bbef1884d0e98a
store-occ tp k=1 @1 a94963ce759e1070
store-occ tp k=1 @2 a94963ce759e1070
store-occ tp k=4 @1 67f61d1dadbbb8b9
store-occ tp k=4 @2 67f61d1dadbbb8b9
store-occ tp+ k=1 @1 b49ce03ff3fc060f
store-occ tp+ k=1 @2 b49ce03ff3fc060f
store-occ tp+ k=4 @1 392aeb208691f7b8
store-occ tp+ k=4 @2 392aeb208691f7b8
";

#[test]
fn sharded_output_matches_the_pinned_digests() {
    let fresh = digests();
    let pinned: Vec<&str> = PINNED.lines().collect();
    assert_eq!(
        fresh,
        pinned,
        "sharded output drifted; fresh digests:\n{}",
        fresh.join("\n")
    );
}
