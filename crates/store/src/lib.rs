//! `ldiv-store` — the persistent, content-fingerprinted dataset store
//! with append ingestion and incremental re-publication.
//!
//! Everything upstream of this crate is one-shot: a table arrives (CSV
//! body or file), gets anonymized, and is forgotten. The store is the
//! step toward serving a live, growing population the ROADMAP names:
//!
//! * **Register once, reference forever.** A dataset is registered by
//!   the FNV-1a fingerprint of its parsed table and lives under
//!   `datasets/<fingerprint>/` as immutable CSV segments plus a
//!   manifest. Clients stop re-shipping the CSV body per request.
//! * **Append-only growth.** New row batches arrive as whole segments
//!   (the `append`/`process` shape of csv-managed's pipeline): written
//!   to a temp file, renamed into place, and only then committed by an
//!   atomic manifest rewrite — a process crash (`kill -9`) mid-append
//!   leaves the previous manifest and at worst an orphan segment file,
//!   never a partial segment in the dataset. Nothing is fsynced, so this
//!   holds for a crash of the process, not for power loss: after a power
//!   loss or kernel crash a rename can reach the disk before the renamed
//!   file's contents.
//! * **Each segment parsed once per process.** The store memoizes each
//!   dataset's verified table (see [`DatasetStore::load_table`]), so a
//!   publish after an append parses only the appended segment.
//! * **Incremental re-publication.** `publish` splits the current table
//!   with the *append-stable* SA-stratified plan ([`stable_shard_plan`])
//!   and keys every shard's result by `(mechanism, sub-table
//!   fingerprint, l′, fanout)`. It runs the plan through the same shard
//!   driver as `--shards` ([`ldiv_shard::stitch_shards`]). Shards
//!   untouched by recent appends have byte-identical sub-tables, so
//!   their persisted records are reloaded instead of recomputed; only
//!   dirty shards run the mechanism, and the seams are repaired by the
//!   same [`Mechanism::repair_merge`] stitch.
//!
//! Reuse is **invisible in the output**: a warm publish returns the
//! same bytes as a cold publish of the same segment history (persisted
//! records store exactly the partition/kind/recoding the stitch
//! consumes — see [`record`]), and a single-shard publish short-circuits
//! to `mechanism.anonymize`, byte-identical to the one-shot path. The
//! incremental-equivalence suite (`tests/incremental_equivalence.rs`)
//! holds both properties as differential gates.
//!
//! Fault injection: ingestion and publication host the same
//! [`ldiv_guard::fault`] entry points as mechanisms, under the names
//! `store:register`, `store:append` and `store:publish`, so `LDIV_FAULT`
//! plans (and the chaos suite) cover the new paths.
//!
//! [`Mechanism::repair_merge`]: ldiv_api::Mechanism::repair_merge

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod memo;
mod plan;
mod record;

pub use plan::stable_shard_plan;

use ldiv_api::{LdivError, Mechanism, Params, Publication};
use ldiv_exec::Executor;
use ldiv_microdata::{read_csv_with, split_csv_line, Fnv1a, Schema, Table, TableBuilder};
use ldiv_shard::Stitched;
use memo::TableMemo;
use record::ShardRecord;
use std::fmt;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Errors a store operation can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No dataset registered under the fingerprint (the server maps
    /// this to HTTP 404).
    NotFound(
        /// The unresolved fingerprint.
        u64,
    ),
    /// An on-disk store file failed its integrity check — a bug or
    /// external tampering, never expected in normal operation.
    Corrupt(
        /// What failed, including the path.
        String,
    ),
    /// Any failure from the anonymization stack (parse errors,
    /// infeasibility, deadline, I/O).
    Ldiv(
        /// The underlying error.
        LdivError,
    ),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(fp) => {
                write!(f, "dataset {}: not registered", fingerprint_hex(*fp))
            }
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Ldiv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LdivError> for StoreError {
    fn from(e: LdivError) -> Self {
        StoreError::Ldiv(e)
    }
}

impl From<ldiv_microdata::MicrodataError> for StoreError {
    fn from(e: ldiv_microdata::MicrodataError) -> Self {
        StoreError::Ldiv(e.into())
    }
}

impl From<StoreError> for LdivError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::NotFound(fp) => {
                LdivError::Io(format!("dataset {}: not registered", fingerprint_hex(fp)))
            }
            StoreError::Corrupt(msg) => LdivError::Internal(format!("store corrupt: {msg}")),
            StoreError::Ldiv(inner) => inner,
        }
    }
}

/// The 16-hex-digit form of a fingerprint — directory names on disk and
/// the wire form shared with the server.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses the 16-hex-digit fingerprint form (case-insensitive).
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// One immutable append batch of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Position in append order (`0` is the registration segment).
    pub index: usize,
    /// Fingerprint of the segment's parsed table (under the dataset
    /// schema).
    pub fingerprint: u64,
    /// Row count.
    pub rows: usize,
}

/// A registered dataset: its identity and segment history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// The registration fingerprint (segment 0's table fingerprint) —
    /// the dataset's permanent identity.
    pub fingerprint: u64,
    /// Segments in append order; never empty.
    pub segments: Vec<SegmentInfo>,
}

impl DatasetInfo {
    /// Total rows across all segments.
    pub fn rows(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Fingerprint of the dataset's *segment history* — the registration
    /// fingerprint chained with every segment fingerprint in order.
    /// This is the cache identity of a publish: two datasets with the
    /// same rows but different append histories publish through
    /// different shard plans only if their histories differ, and the
    /// lineage distinguishes exactly that.
    pub fn lineage(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("ldiv-store lineage v1");
        h.write_bytes(&self.fingerprint.to_le_bytes());
        for s in &self.segments {
            h.write_bytes(&s.fingerprint.to_le_bytes());
        }
        h.finish()
    }
}

/// Outcome of [`DatasetStore::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The dataset's fingerprint.
    pub fingerprint: u64,
    /// Whether this call created the dataset (`false`: it was already
    /// registered — registration is idempotent by content).
    pub created: bool,
    /// Rows in the registration segment.
    pub rows: usize,
}

/// Outcome of [`DatasetStore::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The dataset appended to.
    pub dataset: u64,
    /// The new segment.
    pub segment: SegmentInfo,
    /// Dataset rows after the append.
    pub total_rows: usize,
}

/// Per-publish reuse accounting (also accumulated into [`StoreStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// Segments in the dataset at publish time.
    pub segments: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Shards whose persisted result was reloaded.
    pub reused: usize,
    /// Shards that ran the mechanism.
    pub computed: usize,
    /// The dataset's lineage fingerprint (see [`DatasetInfo::lineage`]).
    pub lineage: u64,
}

/// Outcome of [`DatasetStore::publish`]: the table that was published
/// (callers need it to render or score the publication), the
/// publication, and the reuse accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishOutcome {
    /// The dataset's current full table.
    pub table: Table,
    /// The l-diverse publication.
    pub publication: Publication,
    /// Reuse accounting.
    pub stats: PublishStats,
}

/// A publication-cache entry persisted by the server (see
/// [`DatasetStore::persist_response`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedResponse {
    /// The cache key's dataset component.
    pub dataset: u64,
    /// The cache key's mechanism component.
    pub mechanism: String,
    /// The cache key's canonical-params component.
    pub params: String,
    /// The rendered response body.
    pub body: String,
}

/// Monotonic operation counters, mirrored into `/stats` and `/metrics`.
#[derive(Debug, Default)]
struct StoreCounters {
    registers: AtomicU64,
    appends: AtomicU64,
    appended_rows: AtomicU64,
    publishes: AtomicU64,
    shards_computed: AtomicU64,
    shards_reused: AtomicU64,
    responses_persisted: AtomicU64,
    segments_read: AtomicU64,
}

/// A point-in-time view of the store: on-disk inventory plus operation
/// counters since this process opened the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Registered datasets on disk.
    pub datasets: usize,
    /// Segments on disk across all datasets.
    pub segments: usize,
    /// Rows on disk across all datasets.
    pub rows: usize,
    /// Persisted per-shard results on disk.
    pub shard_records: usize,
    /// Persisted publication-cache entries on disk.
    pub persisted_responses: usize,
    /// `register` calls that created a dataset (this process).
    pub registers: u64,
    /// Successful `append` calls (this process).
    pub appends: u64,
    /// Rows ingested by `append` (this process).
    pub appended_rows: u64,
    /// Successful `publish` calls (this process).
    pub publishes: u64,
    /// Shards that ran the mechanism (this process).
    pub shards_computed: u64,
    /// Shards reloaded from persisted results (this process).
    pub shards_reused: u64,
    /// Publication-cache entries persisted (this process).
    pub responses_persisted: u64,
    /// Segment files parsed (this process).
    pub segments_read: u64,
}

const MANIFEST_MAGIC: &str = "ldiv-store manifest v1";
const RESPONSE_MAGIC: &str = "ldiv-store response v1";

/// The persistent dataset store rooted at a directory.
///
/// ```text
/// <root>/
///   datasets/<fingerprint>/
///     manifest.txt            # the commit record: segment list
///     segments/seg-0000.csv   # immutable raw CSV batches
///     shards/<mech>-<subfp>-l<l>-f<fanout>.rec  # persisted shard results
///   responses/<key>.resp      # persisted publication-cache entries
/// ```
///
/// All mutating writes are temp-file-plus-rename, and a dataset's
/// manifest is rewritten last — the manifest is the commit point, so
/// readers never observe a partially ingested segment.
///
/// A store also holds, per dataset, the last table it loaded, as of the
/// segment list it was read from (see [`DatasetStore::load_table`]).
/// Several stores may be open on one root, such as the CLI appending
/// while a server runs: a manifest only ever grows, so the next load
/// through any of them parses just the segments added since its own
/// last load.
#[derive(Debug)]
pub struct DatasetStore {
    root: PathBuf,
    counters: StoreCounters,
    /// Serializes this handle's register/append. Publish takes no ingest
    /// lock: it reads the committed manifest, then the memo (under its
    /// own lock) and only the segments the memo lacks.
    ingest: Mutex<()>,
    /// Verified tables by dataset; locked only to look up or store an
    /// entry, never across I/O or a parse.
    memo: Mutex<TableMemo>,
}

impl DatasetStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<DatasetStore, StoreError> {
        let root = root.into();
        for dir in [root.join("datasets"), root.join("responses")] {
            fs::create_dir_all(&dir).map_err(|e| io_error(&dir, &e))?;
        }
        Ok(DatasetStore {
            root,
            counters: StoreCounters::default(),
            ingest: Mutex::new(()),
            memo: Mutex::new(TableMemo::default()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Registers a dataset from raw CSV bytes: parses (inferring the
    /// schema), fingerprints, and commits the bytes as segment 0.
    /// Content-addressed and idempotent: re-registering the same content
    /// returns the existing dataset with `created: false`.
    pub fn register(&self, csv: &[u8], exec: &Executor) -> Result<RegisterOutcome, StoreError> {
        ldiv_guard::fault::mechanism_entry("store:register", exec);
        let table = read_csv_with(BufReader::new(csv), None, exec)?;
        if table.is_empty() {
            return Err(LdivError::InvalidParams(
                "a dataset must register with at least one row".into(),
            )
            .into());
        }
        let fingerprint = table.fingerprint();
        let _guard = self.ingest.lock().unwrap_or_else(|p| p.into_inner());
        if self.manifest_path(fingerprint).exists() {
            let info = self.read_manifest(fingerprint)?;
            return Ok(RegisterOutcome {
                fingerprint,
                created: false,
                rows: info.rows(),
            });
        }
        let segments = self.segments_dir(fingerprint);
        fs::create_dir_all(&segments).map_err(|e| io_error(&segments, &e))?;
        let shards = self.shards_dir(fingerprint);
        fs::create_dir_all(&shards).map_err(|e| io_error(&shards, &e))?;
        atomic_write(&segments.join(segment_file(0)), csv)?;
        let info = DatasetInfo {
            fingerprint,
            segments: vec![SegmentInfo {
                index: 0,
                fingerprint,
                rows: table.len(),
            }],
        };
        self.write_manifest(&info)?;
        self.counters.registers.fetch_add(1, Ordering::Relaxed);
        Ok(RegisterOutcome {
            fingerprint,
            created: true,
            rows: table.len(),
        })
    }

    /// Appends a batch of rows (raw CSV with the dataset's header) as a
    /// new immutable segment. The batch is parsed under the dataset's
    /// registered schema: its header must repeat the dataset's column
    /// names and every cell must be one of its column's registered labels
    /// (registration infers a label for every code, so a raw integer code
    /// is not accepted) — the append contract is "more rows of the same
    /// population", not a schema migration. The schema is that of the
    /// dataset's loaded table, so an append parses only its batch once
    /// this process has loaded the dataset (see [`load_table`]).
    ///
    /// [`load_table`]: DatasetStore::load_table
    pub fn append(
        &self,
        fingerprint: u64,
        csv: &[u8],
        exec: &Executor,
    ) -> Result<AppendOutcome, StoreError> {
        ldiv_guard::fault::mechanism_entry("store:append", exec);
        let _guard = self.ingest.lock().unwrap_or_else(|p| p.into_inner());
        let (table, info) = self.load(fingerprint, exec)?;
        let schema = table.schema().clone();
        check_header(csv, &schema)?;
        let batch = read_csv_with(BufReader::new(csv), Some(schema), exec)?;
        if batch.is_empty() {
            return Err(LdivError::InvalidParams("append batch has no rows".into()).into());
        }
        let index = info.segments.len();
        let path = self.segments_dir(fingerprint).join(segment_file(index));
        atomic_write(&path, csv)?;
        let segment = SegmentInfo {
            index,
            fingerprint: batch.fingerprint(),
            rows: batch.len(),
        };
        let mut info = info;
        info.segments.push(segment);
        self.write_manifest(&info)?;
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .appended_rows
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(AppendOutcome {
            dataset: fingerprint,
            segment,
            total_rows: info.rows(),
        })
    }

    /// The segment history of a registered dataset.
    pub fn dataset(&self, fingerprint: u64) -> Result<DatasetInfo, StoreError> {
        self.read_manifest(fingerprint)
    }

    /// Every registered dataset, ordered by fingerprint.
    pub fn datasets(&self) -> Result<Vec<DatasetInfo>, StoreError> {
        let dir = self.root.join("datasets");
        let entries = fs::read_dir(&dir).map_err(|e| io_error(&dir, &e))?;
        let mut fingerprints: Vec<u64> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&dir, &e))?;
            let name = entry.file_name();
            if let Some(fp) = name.to_str().and_then(parse_fingerprint) {
                if self.manifest_path(fp).exists() {
                    fingerprints.push(fp);
                }
            }
        }
        fingerprints.sort_unstable();
        fingerprints
            .into_iter()
            .map(|fp| self.read_manifest(fp))
            .collect()
    }

    /// Loads a dataset's current full table (all segments concatenated
    /// in append order) plus its segment history.
    ///
    /// Memoized: the store keeps, per dataset, the last table this
    /// process loaded and the segment list it was read from, and parses
    /// only the segments the manifest lists after that list — every
    /// segment when the list is not a prefix of the manifest's (a first
    /// load, or a dataset rebuilt on disk). The memo holds at most 2^24
    /// table values (rows × columns, 32 MiB) and evicts the least
    /// recently used dataset first; a failed load leaves it unchanged.
    /// Each segment is checked against its manifest line (row count and
    /// fingerprint) when this process first reads it. A segment file
    /// changed on disk after that is caught by the next process that
    /// opens the store, not by this one.
    ///
    /// Bounded memory: the new segments' rows are folded into one table,
    /// grown from the memoized one, before the next segment is opened.
    /// Peak residency is the memoized table, the grown table and one
    /// segment's bytes and their parse, never every segment at once; the
    /// caller then gets a copy, and the memo keeps its own. Row ids
    /// renumber sequentially: segment row `i` of segment `s` becomes
    /// global row `offset_s + i`.
    pub fn load_table(
        &self,
        fingerprint: u64,
        exec: &Executor,
    ) -> Result<(Table, DatasetInfo), StoreError> {
        let (table, info) = self.load(fingerprint, exec)?;
        Ok((Table::clone(&table), info))
    }

    /// [`DatasetStore::load_table`], sharing the memoized table.
    fn load(
        &self,
        fingerprint: u64,
        exec: &Executor,
    ) -> Result<(Arc<Table>, DatasetInfo), StoreError> {
        let info = self.read_manifest(fingerprint)?;
        let hit = self.memo().prefix_of(fingerprint, &info.segments);
        let n = info.segments.len();
        let read = n - hit.as_ref().map_or(0, |(done, _)| *done);
        let _load = ldiv_obs::span_labeled("store:load", || format!("{read} of {n} segments read"));
        // A miss starts from segment 0, whose parse infers the schema
        // every later segment is read under (a manifest is never empty).
        let (done, base) = match hit {
            Some(hit) => hit,
            None => {
                let first = self.read_segment(fingerprint, &info.segments[0], None, exec)?;
                (1, Arc::new(first))
            }
        };
        let table = if done == n {
            base
        } else {
            let mut builder = TableBuilder::with_capacity(base.schema().clone(), info.rows());
            for (_, qi, sa) in base.rows() {
                builder.push_row_unchecked(qi, sa);
            }
            for seg in &info.segments[done..] {
                let schema = Some(base.schema().clone());
                let part = self.read_segment(fingerprint, seg, schema, exec)?;
                for (_, qi, sa) in part.rows() {
                    builder.push_row_unchecked(qi, sa);
                }
            }
            Arc::new(builder.build())
        };
        self.memo()
            .insert(fingerprint, info.segments.clone(), Arc::clone(&table));
        Ok((table, info))
    }

    /// Publishes the dataset's current table under `params`, reusing
    /// persisted per-shard results where the shard's rows are unchanged
    /// (see the crate docs). The output is byte-for-byte the same
    /// whether every shard is reused, recomputed, or mixed.
    pub fn publish(
        &self,
        fingerprint: u64,
        mechanism: &dyn Mechanism,
        params: &Params,
    ) -> Result<PublishOutcome, StoreError> {
        let exec = params.executor();
        ldiv_guard::fault::mechanism_entry("store:publish", &exec);
        let (table, info) = self.load_table(fingerprint, &exec)?;
        let plan = stable_shard_plan(&table, params.resolved_shards());
        let lineage = info.lineage();
        if plan.len() <= 1 {
            // Single shard: the incremental path IS the one-shot path —
            // same bytes as a direct `mechanism.anonymize`. No record
            // reuse here: a reloaded whole-table result would need a
            // verbatim payload copy to stay byte-identical, and the
            // server's persisted response cache already covers repeats.
            let publication = mechanism.anonymize(&table, params)?;
            self.counters.publishes.fetch_add(1, Ordering::Relaxed);
            self.counters
                .shards_computed
                .fetch_add(1, Ordering::Relaxed);
            return Ok(PublishOutcome {
                table,
                publication,
                stats: PublishStats {
                    segments: info.segments.len(),
                    shards: 1,
                    reused: 0,
                    computed: 1,
                    lineage,
                },
            });
        }
        let name = mechanism.name();
        let Stitched {
            mut publication,
            reduced_l,
            reused,
        } = ldiv_shard::stitch_shards(mechanism, &table, params, &plan, |i, sub, sub_params| {
            let path = self.record_path(fingerprint, name, sub, sub_params);
            if let Some(publication) = self.load_record(&path, name, sub) {
                let _reuse = ldiv_obs::span_labeled("store:shard", || format!("{name}#{i} reuse"));
                return Ok((publication, true));
            }
            let _compute = ldiv_obs::span_labeled("store:shard", || format!("{name}#{i} compute"));
            let publication = mechanism.anonymize(sub, sub_params)?;
            self.save_record(&path, &publication, sub);
            Ok((publication, false))
        })?;
        let computed = plan.len() - reused;
        // Deterministic by design: segment/shard/reduced-l counts are
        // pure functions of the dataset content, never of cache state —
        // a warm publish must stay byte-identical to a cold one.
        publication.push_note(format!(
            "incremental: {} segments, {} shards, {reduced_l} ran below l={}",
            info.segments.len(),
            plan.len(),
            params.l
        ));
        self.counters.publishes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .shards_reused
            .fetch_add(reused as u64, Ordering::Relaxed);
        self.counters
            .shards_computed
            .fetch_add(computed as u64, Ordering::Relaxed);
        Ok(PublishOutcome {
            table,
            publication,
            stats: PublishStats {
                segments: info.segments.len(),
                shards: plan.len(),
                reused,
                computed,
                lineage,
            },
        })
    }

    /// Persists a rendered publication-cache entry so the server's cache
    /// survives a restart. Best-effort durability: an I/O failure is
    /// swallowed (the entry just will not survive), never surfaced into
    /// the request path.
    pub fn persist_response(&self, dataset: u64, mechanism: &str, params: &str, body: &str) {
        let _persist = ldiv_obs::span("store:persist");
        let mut h = Fnv1a::new();
        h.write_bytes(&dataset.to_le_bytes());
        h.write_str(mechanism);
        h.write_str(params);
        let path = self
            .root
            .join("responses")
            .join(format!("{}.resp", fingerprint_hex(h.finish())));
        let text = format!(
            "{RESPONSE_MAGIC}\ndataset {}\nmechanism {mechanism}\nparams {params}\n{body}",
            fingerprint_hex(dataset)
        );
        if atomic_write(&path, text.as_bytes()).is_ok() {
            self.counters
                .responses_persisted
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Loads every persisted publication-cache entry, in stable
    /// (file-name) order. Corrupt entries are skipped.
    pub fn load_responses(&self) -> Vec<PersistedResponse> {
        let dir = self.root.join("responses");
        let Ok(entries) = fs::read_dir(&dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "resp"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .filter_map(|p| parse_response(&fs::read_to_string(p).ok()?))
            .collect()
    }

    /// A point-in-time inventory + counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            registers: self.counters.registers.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            appended_rows: self.counters.appended_rows.load(Ordering::Relaxed),
            publishes: self.counters.publishes.load(Ordering::Relaxed),
            shards_computed: self.counters.shards_computed.load(Ordering::Relaxed),
            shards_reused: self.counters.shards_reused.load(Ordering::Relaxed),
            responses_persisted: self.counters.responses_persisted.load(Ordering::Relaxed),
            segments_read: self.counters.segments_read.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        if let Ok(datasets) = self.datasets() {
            for info in &datasets {
                stats.segments += info.segments.len();
                stats.rows += info.rows();
                if let Ok(entries) = fs::read_dir(self.shards_dir(info.fingerprint)) {
                    stats.shard_records += entries
                        .flatten()
                        .filter(|e| e.path().extension().is_some_and(|x| x == "rec"))
                        .count();
                }
            }
            stats.datasets = datasets.len();
        }
        if let Ok(entries) = fs::read_dir(self.root.join("responses")) {
            stats.persisted_responses = entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "resp"))
                .count();
        }
        stats
    }

    fn dataset_dir(&self, fp: u64) -> PathBuf {
        self.root.join("datasets").join(fingerprint_hex(fp))
    }

    fn segments_dir(&self, fp: u64) -> PathBuf {
        self.dataset_dir(fp).join("segments")
    }

    fn shards_dir(&self, fp: u64) -> PathBuf {
        self.dataset_dir(fp).join("shards")
    }

    fn manifest_path(&self, fp: u64) -> PathBuf {
        self.dataset_dir(fp).join("manifest.txt")
    }

    fn record_path(&self, fp: u64, mechanism: &str, sub: &Table, sub_params: &Params) -> PathBuf {
        // Content-addressed: the sub-table fingerprint covers schema and
        // rows, so an append that touches the shard moves the key.
        self.shards_dir(fp).join(format!(
            "{mechanism}-{}-l{}-f{}.rec",
            fingerprint_hex(sub.fingerprint()),
            sub_params.l,
            sub_params.fanout
        ))
    }

    fn load_record(&self, path: &Path, mechanism: &str, sub: &Table) -> Option<Publication> {
        let text = fs::read_to_string(path).ok()?;
        let record = ShardRecord::parse(&text)?;
        if record.mechanism != mechanism {
            return None;
        }
        record.to_publication(sub)
    }

    fn save_record(&self, path: &Path, publication: &Publication, sub: &Table) {
        // Best-effort, like response persistence: a failed write only
        // costs a future recompute.
        let record = ShardRecord::from_publication(publication, sub);
        let _ = atomic_write(path, record.serialize().as_bytes());
    }

    fn memo(&self) -> MutexGuard<'_, TableMemo> {
        // Every memo update leaves each entry a verified (segment list,
        // table) pair, so a guard poisoned by a panic is still sound.
        self.memo.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Parses one segment file (under `schema`, or inferring it for
    /// segment 0) and checks it against its manifest line.
    fn read_segment(
        &self,
        dataset: u64,
        seg: &SegmentInfo,
        schema: Option<Schema>,
        exec: &Executor,
    ) -> Result<Table, StoreError> {
        let path = self.segments_dir(dataset).join(segment_file(seg.index));
        let file = fs::File::open(&path).map_err(|e| io_error(&path, &e))?;
        self.counters.segments_read.fetch_add(1, Ordering::Relaxed);
        let table = read_csv_with(BufReader::new(file), schema, exec)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
        if table.len() != seg.rows || table.fingerprint() != seg.fingerprint {
            return Err(StoreError::Corrupt(format!(
                "{}: segment content disagrees with the manifest",
                path.display()
            )));
        }
        Ok(table)
    }

    fn read_manifest(&self, fp: u64) -> Result<DatasetInfo, StoreError> {
        let path = self.manifest_path(fp);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(fp))
            }
            Err(e) => return Err(io_error(&path, &e)),
        };
        parse_manifest(&text, fp)
            .ok_or_else(|| StoreError::Corrupt(format!("{}: malformed manifest", path.display())))
    }

    fn write_manifest(&self, info: &DatasetInfo) -> Result<(), StoreError> {
        let mut text = String::from(MANIFEST_MAGIC);
        text.push('\n');
        for s in &info.segments {
            text.push_str(&format!(
                "segment {} {} {}\n",
                s.index,
                fingerprint_hex(s.fingerprint),
                s.rows
            ));
        }
        atomic_write(&self.manifest_path(info.fingerprint), text.as_bytes())
    }
}

fn segment_file(index: usize) -> String {
    format!("seg-{index:04}.csv")
}

fn io_error(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Ldiv(LdivError::Io(format!("{}: {e}", path.display())))
}

fn parse_manifest(text: &str, fp: u64) -> Option<DatasetInfo> {
    let mut lines = text.lines();
    if lines.next()? != MANIFEST_MAGIC {
        return None;
    }
    let mut segments = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next()? != "segment" {
            return None;
        }
        let index: usize = parts.next()?.parse().ok()?;
        let fingerprint = parse_fingerprint(parts.next()?)?;
        let rows: usize = parts.next()?.parse().ok()?;
        if parts.next().is_some() || index != segments.len() || rows == 0 {
            return None;
        }
        segments.push(SegmentInfo {
            index,
            fingerprint,
            rows,
        });
    }
    if segments.is_empty() || segments[0].fingerprint != fp {
        return None;
    }
    Some(DatasetInfo {
        fingerprint: fp,
        segments,
    })
}

fn parse_response(text: &str) -> Option<PersistedResponse> {
    let rest = text.strip_prefix(RESPONSE_MAGIC)?.strip_prefix('\n')?;
    let (dataset_line, rest) = rest.split_once('\n')?;
    let (mechanism_line, rest) = rest.split_once('\n')?;
    let (params_line, body) = rest.split_once('\n')?;
    Some(PersistedResponse {
        dataset: parse_fingerprint(dataset_line.strip_prefix("dataset ")?)?,
        mechanism: mechanism_line.strip_prefix("mechanism ")?.to_string(),
        params: params_line.strip_prefix("params ")?.to_string(),
        body: body.to_string(),
    })
}

/// Validates that an append batch's header repeats the dataset's column
/// names — appends grow the population, they never remap columns.
fn check_header(csv: &[u8], schema: &Schema) -> Result<(), StoreError> {
    let text = std::str::from_utf8(csv)
        .map_err(|_| StoreError::Ldiv(LdivError::Io("append batch is not UTF-8".into())))?;
    let header = text.lines().next().unwrap_or("");
    let cells = split_csv_line(header);
    let mut expected: Vec<String> = schema
        .qi_attributes()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    expected.push(schema.sensitive().name().to_string());
    if cells != expected {
        return Err(LdivError::InvalidParams(format!(
            "append header [{}] does not match the dataset's columns [{}]",
            cells.join(", "),
            expected.join(", ")
        ))
        .into());
    }
    Ok(())
}

/// Writes bytes to a unique temp file in the target's directory, then
/// renames into place — concurrent writers race benignly (last rename
/// wins, both contents complete) and a process crash (`kill -9`) leaves
/// at worst an orphan temp file, never a torn target. Nothing is
/// fsynced, so that holds for a crash of the process, not for power
/// loss: after a power loss or kernel crash the rename can reach the
/// disk before the contents, leaving the target empty or torn.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path
        .parent()
        .ok_or_else(|| StoreError::Corrupt(format!("{}: no parent directory", path.display())))?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes).map_err(|e| io_error(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_error(path, &e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::{samples, write_table_csv};
    use std::sync::atomic::AtomicU32;

    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str) -> TempRoot {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "ldiv-store-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            TempRoot(dir)
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn hospital_csv() -> Vec<u8> {
        let mut buf = Vec::new();
        write_table_csv(&mut buf, &samples::hospital()).unwrap();
        buf
    }

    /// A 3-row batch of hospital-schema rows, all in-domain.
    fn batch_csv(seed: u32) -> Vec<u8> {
        let t = samples::hospital();
        let rows: Vec<u32> = (0..3).map(|i| (seed + i) % t.len() as u32).collect();
        let mut buf = Vec::new();
        write_table_csv(&mut buf, &t.select_rows(&rows)).unwrap();
        buf
    }

    #[test]
    fn register_is_content_addressed_and_idempotent() {
        let root = TempRoot::new("register");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let first = store.register(&hospital_csv(), &exec).unwrap();
        assert!(first.created);
        assert_eq!(first.rows, 10);
        // Content-addressed: the fingerprint is that of the parsed
        // table (CSV round-trip re-infers the schema, so it need not
        // match the hand-built sample schema's fingerprint).
        let parsed = read_csv_with(BufReader::new(&hospital_csv()[..]), None, &exec).unwrap();
        assert_eq!(first.fingerprint, parsed.fingerprint());
        let second = store.register(&hospital_csv(), &exec).unwrap();
        assert!(!second.created);
        assert_eq!(second.fingerprint, first.fingerprint);
        assert_eq!(store.stats().datasets, 1);
        assert_eq!(store.stats().registers, 1);
    }

    #[test]
    fn append_extends_the_table_in_order() {
        let root = TempRoot::new("append");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        let out = store.append(fp, &batch_csv(0), &exec).unwrap();
        assert_eq!(out.segment.index, 1);
        assert_eq!(out.segment.rows, 3);
        assert_eq!(out.total_rows, 13);
        let (table, info) = store.load_table(fp, &exec).unwrap();
        assert_eq!(table.len(), 13);
        assert_eq!(info.segments.len(), 2);
        // Appended rows land after the registration rows, in batch
        // order (compare against the store's own parse of segment 0 —
        // batch rows 0..3 repeat registration rows 0..3).
        for (i, r) in [0u32, 1, 2].iter().enumerate() {
            assert_eq!(table.qi_row(10 + i as u32), table.qi_row(*r));
            assert_eq!(table.sa_value(10 + i as u32), table.sa_value(*r));
        }
    }

    #[test]
    fn append_rejects_unknown_dataset_schema_drift_and_empty_batches() {
        let root = TempRoot::new("append-reject");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        assert!(matches!(
            store.append(42, &batch_csv(0), &exec),
            Err(StoreError::NotFound(42))
        ));
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        // Wrong header.
        let bad = b"Age,Gender,Schooling,Disease\n< 30,M,Master,flu\n";
        assert!(store.append(fp, bad, &exec).is_err());
        // Out-of-domain label.
        let bad = b"Age,Gender,Education,Disease\n< 30,M,Master,plague\n";
        assert!(store.append(fp, bad, &exec).is_err());
        // Header-only batch.
        let bad = b"Age,Gender,Education,Disease\n";
        assert!(store.append(fp, bad, &exec).is_err());
        // Failed appends never commit a segment.
        assert_eq!(store.dataset(fp).unwrap().segments.len(), 1);
        assert_eq!(store.stats().appends, 0);
    }

    #[test]
    fn append_rejects_a_raw_code_for_a_labelled_column() {
        let root = TempRoot::new("append-raw-code");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let seed = b"age,zip,disease\n10,1,flu\n20,2,cold\n30,1,hiv\n";
        let fp = store.register(seed, &exec).unwrap().fingerprint;
        // "1" is a label of zip, but age's labels are 10, 20 and 30: the
        // cell must not be read as age's code 1, which is "20".
        let err = store
            .append(fp, b"age,zip,disease\n1,1,flu\n", &exec)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "csv error: cell '1' is not a label of attribute 'age'"
        );
        assert_eq!(store.dataset(fp).unwrap().segments.len(), 1);
        assert_eq!(store.stats().appends, 0);
        // The label itself appends, and reads back as itself.
        store
            .append(fp, b"age,zip,disease\n20,1,flu\n", &exec)
            .unwrap();
        let (table, _) = store.load_table(fp, &exec).unwrap();
        assert_eq!(
            table.schema().qi_attribute(0).label(table.qi_value(3, 0)),
            "20"
        );
    }

    #[test]
    fn append_header_check_splits_like_the_reader() {
        let root = TempRoot::new("append-quoted");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let seed = b"\"Age, band\",Gender,Disease\n< 30,M,flu\n30-40,F,cold\n< 30,F,cold\n";
        let fp = store.register(seed, &exec).unwrap().fingerprint;
        // The quoted cell is one column name, comma and all.
        let batch = b"\"Age, band\",Gender,Disease\n30-40,M,flu\n";
        assert_eq!(store.append(fp, batch, &exec).unwrap().total_rows, 4);
        // Unquoted, the same text is four columns: not the dataset's.
        let unquoted = b"Age, band,Gender,Disease\n30-40,M,flu\n";
        assert!(store.append(fp, unquoted, &exec).is_err());
        assert_eq!(store.dataset(fp).unwrap().segments.len(), 2);
    }

    #[test]
    fn lineage_moves_with_every_append() {
        let root = TempRoot::new("lineage");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        let l0 = store.dataset(fp).unwrap().lineage();
        store.append(fp, &batch_csv(0), &exec).unwrap();
        let l1 = store.dataset(fp).unwrap().lineage();
        assert_ne!(l0, l1);
        assert_ne!(l1, fp);
    }

    #[test]
    fn publish_single_shard_matches_direct_anonymize() {
        let root = TempRoot::new("publish-1");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        store.append(fp, &batch_csv(0), &exec).unwrap();
        let params = Params::new(2).with_shards(1);
        let out = store.publish(fp, &ldiv_core::TpMechanism, &params).unwrap();
        let direct =
            ldiv_api::Mechanism::anonymize(&ldiv_core::TpMechanism, &out.table, &params).unwrap();
        assert_eq!(out.publication, direct);
        assert_eq!(out.stats.shards, 1);
        assert_eq!(out.stats.computed, 1);
    }

    #[test]
    fn incremental_publish_reuses_clean_shards_and_stays_byte_identical() {
        let root = TempRoot::new("publish-incr");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        let params = Params::new(2).with_shards(2);
        let mech = ldiv_core::TpMechanism;

        let cold = store.publish(fp, &mech, &params).unwrap();
        assert_eq!(cold.stats.reused, 0);
        assert!(cold.stats.computed >= 1);
        // Warm repeat: every shard reloads, bytes unchanged.
        let warm = store.publish(fp, &mech, &params).unwrap();
        assert_eq!(warm.stats.computed, 0);
        assert_eq!(warm.stats.reused, warm.stats.shards);
        assert_eq!(warm.publication, cold.publication);

        // Grow the dataset, publish again, then compare against a cold
        // store replaying the same history — reuse must be invisible.
        store.append(fp, &batch_csv(0), &exec).unwrap();
        store.append(fp, &batch_csv(3), &exec).unwrap();
        let grown = store.publish(fp, &mech, &params).unwrap();

        let cold_root = TempRoot::new("publish-incr-cold");
        let cold_store = DatasetStore::open(&cold_root.0).unwrap();
        cold_store.register(&hospital_csv(), &exec).unwrap();
        cold_store.append(fp, &batch_csv(0), &exec).unwrap();
        cold_store.append(fp, &batch_csv(3), &exec).unwrap();
        let replay = cold_store.publish(fp, &mech, &params).unwrap();
        assert_eq!(replay.publication, grown.publication);
        assert_eq!(replay.table, grown.table);
        assert_eq!(replay.stats.reused, 0, "cold store has nothing to reuse");
    }

    #[test]
    fn publish_survives_reopening_the_store() {
        let root = TempRoot::new("reopen");
        let exec = Executor::sequential();
        let params = Params::new(2).with_shards(2);
        let fp;
        let before;
        {
            let store = DatasetStore::open(&root.0).unwrap();
            fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
            store.append(fp, &batch_csv(0), &exec).unwrap();
            before = store
                .publish(fp, &ldiv_anatomy::AnatomyMechanism, &params)
                .unwrap();
        }
        let store = DatasetStore::open(&root.0).unwrap();
        assert_eq!(store.dataset(fp).unwrap().segments.len(), 2);
        let after = store
            .publish(fp, &ldiv_anatomy::AnatomyMechanism, &params)
            .unwrap();
        assert_eq!(after.publication, before.publication);
        assert_eq!(
            after.stats.computed, 0,
            "persisted shard results must survive a restart"
        );
    }

    #[test]
    fn each_segment_is_read_once_across_appends_and_publishes() {
        let root = TempRoot::new("read-once");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        let params = Params::new(2).with_shards(2);
        for i in 0..30 {
            store.append(fp, &batch_csv(i), &exec).unwrap();
            store.publish(fp, &ldiv_core::TpMechanism, &params).unwrap();
        }
        // The first append reads segment 0; each publish then reads only
        // the segment its append added.
        assert_eq!(store.stats().segments_read, 31);
    }

    /// Registers the hospital table and appends `batches` to a fresh
    /// store, then publishes it with TP at l = 2 on 2 shards.
    fn fresh_publish(batches: &[u32]) -> PublishOutcome {
        let root = TempRoot::new("fresh");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        for &seed in batches {
            store.append(fp, &batch_csv(seed), &exec).unwrap();
        }
        let params = Params::new(2).with_shards(2);
        store.publish(fp, &ldiv_core::TpMechanism, &params).unwrap()
    }

    #[test]
    fn a_second_handles_append_is_read_by_the_next_publish() {
        let root = TempRoot::new("two-handles");
        let (a, b) = (
            DatasetStore::open(&root.0).unwrap(),
            DatasetStore::open(&root.0).unwrap(),
        );
        let exec = Executor::sequential();
        let params = Params::new(2).with_shards(2);
        let mech = ldiv_core::TpMechanism;
        let fp = a.register(&hospital_csv(), &exec).unwrap().fingerprint;
        a.publish(fp, &mech, &params).unwrap();
        let read = a.stats().segments_read;
        b.append(fp, &batch_csv(4), &exec).unwrap();
        let grown = a.publish(fp, &mech, &params).unwrap();
        assert_eq!(a.stats().segments_read, read + 1);
        let fresh = fresh_publish(&[4]);
        assert_eq!(grown.table, fresh.table);
        assert_eq!(grown.publication, fresh.publication);
    }

    #[test]
    fn a_dataset_rebuilt_on_disk_is_read_again_in_full() {
        let root = TempRoot::new("rebuilt");
        let (a, b) = (
            DatasetStore::open(&root.0).unwrap(),
            DatasetStore::open(&root.0).unwrap(),
        );
        let exec = Executor::sequential();
        let fp = a.register(&hospital_csv(), &exec).unwrap().fingerprint;
        a.append(fp, &batch_csv(0), &exec).unwrap();
        a.load_table(fp, &exec).unwrap();
        fs::remove_dir_all(a.dataset_dir(fp)).unwrap();
        b.register(&hospital_csv(), &exec).unwrap();
        b.append(fp, &batch_csv(6), &exec).unwrap();
        let read = a.stats().segments_read;
        let (table, info) = a.load_table(fp, &exec).unwrap();
        assert_eq!(a.stats().segments_read, read + 2);
        assert_eq!(info.segments.len(), 2);
        assert_eq!(table, fresh_publish(&[6]).table);
    }

    #[test]
    fn a_segment_that_disagrees_with_its_manifest_fails_every_load() {
        let root = TempRoot::new("tampered");
        let (a, b) = (
            DatasetStore::open(&root.0).unwrap(),
            DatasetStore::open(&root.0).unwrap(),
        );
        let exec = Executor::sequential();
        let params = Params::new(2).with_shards(2);
        let mech = ldiv_core::TpMechanism;
        let fp = a.register(&hospital_csv(), &exec).unwrap().fingerprint;
        a.publish(fp, &mech, &params).unwrap();
        b.append(fp, &batch_csv(0), &exec).unwrap();
        // Same row count, other rows: only the fingerprint disagrees.
        fs::write(a.segments_dir(fp).join(segment_file(1)), batch_csv(5)).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                a.publish(fp, &mech, &params),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn responses_round_trip() {
        let root = TempRoot::new("responses");
        let store = DatasetStore::open(&root.0).unwrap();
        assert!(store.load_responses().is_empty());
        store.persist_response(7, "tp", "l=2;fanout=2;shards=1", "{\"ok\":true}");
        store.persist_response(7, "tp", "l=2;fanout=2;shards=1", "{\"ok\":true}");
        store.persist_response(9, "tds", "l=3;fanout=2;shards=2", "{\"n\":1}\nmore");
        let loaded = store.load_responses();
        assert_eq!(loaded.len(), 2, "same key overwrites, not duplicates");
        let entry = loaded.iter().find(|r| r.dataset == 9).unwrap();
        assert_eq!(entry.mechanism, "tds");
        assert_eq!(entry.params, "l=3;fanout=2;shards=2");
        assert_eq!(entry.body, "{\"n\":1}\nmore");
        assert_eq!(store.stats().persisted_responses, 2);
    }

    #[test]
    fn corrupt_manifest_is_reported_not_misread() {
        let root = TempRoot::new("corrupt");
        let store = DatasetStore::open(&root.0).unwrap();
        let exec = Executor::sequential();
        let fp = store.register(&hospital_csv(), &exec).unwrap().fingerprint;
        fs::write(store.manifest_path(fp), "not a manifest").unwrap();
        assert!(matches!(store.dataset(fp), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        for fp in [0u64, 1, u64::MAX, 0x00ff_a0b1_c2d3_e4f5] {
            assert_eq!(parse_fingerprint(&fingerprint_hex(fp)), Some(fp));
        }
        assert_eq!(parse_fingerprint("xyz"), None);
        assert_eq!(parse_fingerprint("0123"), None);
    }
}
