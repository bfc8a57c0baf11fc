//! The three workloads: their seeded inputs, their set-up against a
//! fresh `ldiv serve` child, and the requests of each timed operation.

use crate::client::{self, Request, ServerProc};
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::microdata::write_table_csv;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The six mechanisms of the paper, by registry name.
pub const MECHANISMS: [&str; 6] = ["tp", "tp+", "hilbert", "anatomy", "mondrian", "tds"];

/// The diversity parameters `anonymize_cold` sweeps.
pub const COLD_LS: [u32; 5] = [2, 3, 4, 5, 6];

/// The diversity parameter of `anonymize_repeat` and `store_trickle`.
pub const HOT_L: u32 = 4;

/// Shards the `store_trickle` server splits each publication into.
pub const STORE_SHARDS: u32 = 4;

/// The mechanism each `store_trickle` client publishes with.
pub const STORE_MECHANISMS: [&str; 2] = ["tp+", "mondrian"];

/// Hot keys of `anonymize_repeat`.
pub const HOT_KEYS: usize = 8;

/// Rows per `store_trickle` append.
pub const APPEND_ROWS: usize = 2;

/// Closed-loop client threads, and the server's worker threads.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Repeat,
    Store,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Repeat, Workload::Store];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "anonymize_cold",
            Workload::Repeat => "anonymize_repeat",
            Workload::Store => "store_trickle",
        }
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::SMOKE`] keeps the self-test quick.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows per generated table.
    pub rows: usize,
    /// Distinct tables behind `anonymize_cold`'s keys (30 keys each).
    pub cold_tables: usize,
    /// Set-ups per run (the middle one is timed; `setup_s` is their median).
    pub setups: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rows: 5_000,
        cold_tables: 80,
        setups: 15,
    };

    pub const SMOKE: Sizes = Sizes {
        rows: 400,
        cold_tables: 4,
        setups: 2,
    };
}

/// splitmix64: the benchmark's only source of randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

/// A generated table as the CSV bytes the server receives.
pub struct Dataset {
    pub csv: Arc<Vec<u8>>,
}

fn dataset(kind: usize, rows: usize, seed: u64) -> Dataset {
    let config = AcsConfig { rows, seed };
    let table = if kind.is_multiple_of(2) {
        sal(&config)
    } else {
        occ(&config)
    };
    let mut csv = Vec::new();
    write_table_csv(&mut csv, &table).expect("render CSV into memory");
    Dataset { csv: Arc::new(csv) }
}

/// One `/anonymize` cache key: a dataset, a mechanism and `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub dataset: usize,
    pub mechanism: &'static str,
    pub l: u32,
}

/// A query-string value: the query decoder reads `+` as a space.
pub fn query_escape(value: &str) -> String {
    value.replace('+', "%2B")
}

impl Key {
    pub fn target(&self, bin: bool) -> String {
        format!(
            "/anonymize?algo={}&l={}{}",
            query_escape(self.mechanism),
            self.l,
            if bin { "&format=bin" } else { "" }
        )
    }
}

/// Everything a run sends, derived from the seed alone.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub datasets: Vec<Dataset>,
    /// `anonymize_cold`: one key per operation, shuffled.
    /// `anonymize_repeat`: the hot keys.
    pub keys: Vec<Key>,
    /// Set-up requests that warm the server without touching a timed key.
    pub warm: Vec<Key>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Inputs {
        let table = |i: usize| dataset(i, sizes.rows, derive(seed, 1, i as u64));
        let (datasets, keys, warm) = match workload {
            Workload::Cold => {
                // The last dataset only warms the server up.
                let datasets: Vec<Dataset> = (0..=sizes.cold_tables).map(table).collect();
                let mut keys: Vec<Key> = (0..sizes.cold_tables)
                    .flat_map(|dataset| {
                        MECHANISMS.into_iter().flat_map(move |mechanism| {
                            COLD_LS.into_iter().map(move |l| Key {
                                dataset,
                                mechanism,
                                l,
                            })
                        })
                    })
                    .collect();
                for i in (1..keys.len()).rev() {
                    let j = (derive(seed, 2, i as u64) % (i as u64 + 1)) as usize;
                    keys.swap(i, j);
                }
                let warm = MECHANISMS
                    .into_iter()
                    .map(|mechanism| Key {
                        dataset: sizes.cold_tables,
                        mechanism,
                        l: HOT_L,
                    })
                    .collect();
                (datasets, keys, warm)
            }
            Workload::Repeat => {
                let datasets: Vec<Dataset> = (0..HOT_KEYS).map(table).collect();
                let keys = (0..HOT_KEYS)
                    .map(|dataset| Key {
                        dataset,
                        mechanism: MECHANISMS[dataset % MECHANISMS.len()],
                        l: HOT_L,
                    })
                    .collect();
                (datasets, keys, Vec::new())
            }
            Workload::Store => {
                let datasets = (0..CLIENTS).map(table).collect();
                (datasets, Vec::new(), Vec::new())
            }
        };
        Inputs {
            workload,
            seed,
            sizes,
            datasets,
            keys,
            warm,
        }
    }

    /// `anonymize_repeat`: the hot key and wire format of the run's
    /// `global`-th operation. Half the operations ask for binary.
    pub fn hot_pick(&self, global: usize) -> (usize, bool) {
        let h = derive(self.seed, 3, global as u64);
        ((h % self.keys.len() as u64) as usize, (h >> 32) & 1 == 1)
    }

    /// `store_trickle`: the mechanism client `client` publishes with.
    pub fn store_mechanism(&self, client: usize) -> &'static str {
        STORE_MECHANISMS[client % STORE_MECHANISMS.len()]
    }

    /// `store_trickle`: the CSV batch of client `client`'s `seq`-th
    /// append. Rows are resampled from the client's registered table, so
    /// every label is already in the dataset's schema.
    pub fn append_batch(&self, client: usize, seq: usize) -> Vec<u8> {
        let csv = &self.datasets[client].csv;
        let mut lines = csv.split(|&b| b == b'\n').filter(|l| !l.is_empty());
        let header = lines.next().expect("CSV header");
        let rows: Vec<&[u8]> = lines.collect();
        let mut batch = header.to_vec();
        batch.push(b'\n');
        for i in 0..APPEND_ROWS {
            let h = derive(self.seed, 4 + client as u64, (seq * 64 + i) as u64);
            batch.extend_from_slice(rows[(h % rows.len() as u64) as usize]);
            batch.push(b'\n');
        }
        batch
    }

    pub fn publish_target(&self, client: usize, fingerprint: &str) -> String {
        format!(
            "/datasets/{fingerprint}/publish?algo={}&l={HOT_L}",
            query_escape(self.store_mechanism(client))
        )
    }

    /// The requests of one timed operation, or `None` once the inputs are
    /// used up.
    pub fn requests(
        &self,
        setup: &Setup,
        client: usize,
        seq: usize,
        global: usize,
    ) -> Option<Vec<Request>> {
        match self.workload {
            Workload::Cold => {
                let key = self.keys.get(global)?;
                Some(vec![Request::post(
                    key.target(false),
                    Arc::clone(&self.datasets[key.dataset].csv),
                )])
            }
            Workload::Repeat => {
                let (k, bin) = self.hot_pick(global);
                let key = &self.keys[k];
                Some(vec![Request::post(
                    key.target(bin),
                    Arc::clone(&self.datasets[key.dataset].csv),
                )])
            }
            Workload::Store => {
                let fp = &setup.fingerprints[client];
                Some(vec![
                    Request::post(
                        format!("/datasets/{fp}/append"),
                        Arc::new(self.append_batch(client, seq)),
                    ),
                    Request::post(self.publish_target(client, fp), Arc::new(Vec::new())),
                ])
            }
        }
    }
}

/// A server ready to be timed.
pub struct Setup {
    pub server: ServerProc,
    /// `store_trickle`: each client's registered dataset, in hex.
    pub fingerprints: Vec<String>,
    /// `store_trickle`: the server's store root.
    pub store_root: Option<PathBuf>,
    pub seconds: f64,
}

/// Starts a fresh server and brings it to the state the workload is
/// timed in: warm-up requests for `anonymize_cold`, every hot key in
/// both formats for `anonymize_repeat`, and for `store_trickle` one
/// registered and published dataset per client in a fresh store root.
pub fn set_up(inputs: &Inputs, ldiv: &Path, store_root: Option<&Path>) -> Result<Setup, String> {
    let mut flags: Vec<String> = vec!["--workers".into(), CLIENTS.to_string()];
    if let Some(root) = store_root {
        flags.extend([
            "--shards".into(),
            STORE_SHARDS.to_string(),
            "--store-root".into(),
            root.display().to_string(),
        ]);
    }
    let started = Instant::now();
    let server = ServerProc::spawn(ldiv, &flags)?;
    let post = |target: String, body: &Arc<Vec<u8>>| {
        client::expect_ok(server.addr, &Request::post(target, Arc::clone(body)))
    };
    let mut fingerprints = Vec::new();
    match inputs.workload {
        Workload::Cold => {
            for key in &inputs.warm {
                post(key.target(false), &inputs.datasets[key.dataset].csv)?;
            }
        }
        Workload::Repeat => {
            for key in &inputs.keys {
                for bin in [false, true] {
                    post(key.target(bin), &inputs.datasets[key.dataset].csv)?;
                }
            }
        }
        Workload::Store => {
            for (client, data) in inputs.datasets.iter().enumerate() {
                let registered = post("/datasets".into(), &data.csv)?;
                let fp = ldiversity::wire::Json::parse(&registered.text())
                    .and_then(|j| match j.get("dataset") {
                        Some(ldiversity::wire::Json::Str(fp)) => Some(fp.clone()),
                        _ => None,
                    })
                    .ok_or_else(|| format!("register answered {}", registered.text()))?;
                post(inputs.publish_target(client, &fp), &Arc::new(Vec::new()))?;
                fingerprints.push(fp);
            }
        }
    }
    Ok(Setup {
        server,
        fingerprints,
        store_root: store_root.map(Path::to_path_buf),
        seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Inputs::generate(Workload::Cold, 7, Sizes::SMOKE);
        let b = Inputs::generate(Workload::Cold, 7, Sizes::SMOKE);
        let c = Inputs::generate(Workload::Cold, 8, Sizes::SMOKE);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.datasets[0].csv, b.datasets[0].csv);
        assert_ne!(a.keys, c.keys);
        assert_eq!(a.keys.len(), Sizes::SMOKE.cold_tables * 30);
        assert!(a.warm.iter().all(|k| k.dataset == Sizes::SMOKE.cold_tables));
    }

    #[test]
    fn targets_escape_plus_and_batches_keep_the_header() {
        let key = Key {
            dataset: 0,
            mechanism: "tp+",
            l: 3,
        };
        assert_eq!(key.target(true), "/anonymize?algo=tp%2B&l=3&format=bin");
        let inputs = Inputs::generate(Workload::Store, 1, Sizes::SMOKE);
        let batch = String::from_utf8(inputs.append_batch(1, 5)).unwrap();
        let header = String::from_utf8_lossy(&inputs.datasets[1].csv)
            .lines()
            .next()
            .unwrap()
            .to_string();
        assert_eq!(batch.lines().next(), Some(header.as_str()));
        assert_eq!(batch.lines().count(), 1 + APPEND_ROWS);
        assert_eq!(inputs.append_batch(1, 5), inputs.append_batch(1, 5));
    }

    #[test]
    fn repeat_picks_both_formats() {
        let inputs = Inputs::generate(Workload::Repeat, 3, Sizes::SMOKE);
        let bins = (0..1000).filter(|&g| inputs.hot_pick(g).1).count();
        assert!((400..600).contains(&bins), "{bins}");
    }
}
