//! The engine registry: one lazily built [`UtkEngine`] per served
//! dataset, under a **shared** filter-cache byte budget.
//!
//! Datasets are CSV files in one directory; `name` maps to
//! `<dir>/<name>.csv`. An engine is built on the first request that
//! touches its dataset (or an explicit `load` op) and stays resident
//! until evicted. The registry's byte budget is dealt across resident
//! engines **proportionally to their dataset size** (a million-row
//! engine gets a bigger slice of r-skyband memoization than a toy
//! one) and **re-dealt** on every load/evict — and on every `update`,
//! since an update changes a dataset's byte size — through
//! [`UtkEngine::set_filter_cache_budget`]: shrinking a slice evicts
//! LRU entries, growing frees headroom, and either way surviving
//! entries stay warm (the engine-level resize is in-place).
//!
//! `update` mutates the *resident* engine and its parsed CSV payload
//! (labels move with their rows); the source CSV file is never
//! touched. Without a WAL directory an evict-then-reload therefore
//! reverts to disk state — which is why evicting a mutated dataset is
//! refused with `would_lose_updates` in that configuration. With a
//! WAL directory ([`DatasetRegistry::with_wal_dir`]) every mutation
//! is appended + fsynced to `<wal-dir>/<name>.wal` **before** the
//! engine commits its epoch bump, loads replay the log (from the
//! compaction snapshot `<name>.snapshot.csv` when one exists), and
//! the durability invariant holds: if epoch `N` was ever visible to
//! a client, a reload replays to exactly epoch `N`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use crate::proto::{code, ProtoError};
use utk_core::engine::{UpdateReport, UtkEngine};
use utk_core::obs::{Clock, MonotonicClock};
use utk_data::csv::{parse_csv, write_csv, CsvData};
use utk_data::wal::{WalFile, WalRecord};

/// One resident dataset: the parsed CSV (for record names) and its
/// engine.
#[derive(Debug)]
pub struct LoadedDataset {
    /// Registry name (file stem).
    pub name: String,
    /// The parsed CSV payload, as an immutable snapshot behind a
    /// momentary lock: readers clone the `Arc` and serve from it
    /// (never holding the lock across query execution), `update`
    /// swaps in a rebuilt payload. A query racing an update may
    /// therefore resolve names from the adjacent version — bounded
    /// skew for one response; ids inside a response are always
    /// internally consistent (the engine snapshots its own version),
    /// and `CsvData::name` falls back to `#id` past the label column.
    pub data: RwLock<Arc<CsvData>>,
    /// Serializes `update`s on this dataset (stage → WAL append →
    /// engine mutate → swap must not interleave); queries never take
    /// it.
    update_lock: Mutex<()>,
    /// The engine serving it.
    pub engine: UtkEngine,
    /// The dataset's write-ahead log, when the registry serves with a
    /// WAL directory. Appended under `update_lock`; `stats` readers
    /// take the lock only momentarily for counters.
    pub wal: Option<Mutex<WalFile>>,
}

impl LoadedDataset {
    /// The current CSV payload snapshot (momentary read lock).
    pub fn data_snapshot(&self) -> Arc<CsvData> {
        Arc::clone(&self.data.read().expect("dataset data lock"))
    }
}

/// The dataset → engine registry. Thread-safe: one instance serves
/// every connection. The inner mutex guards only the name → engine
/// map; dataset *builds* (CSV parse + R-tree bulk-load, potentially
/// seconds) run outside it, so queries to already-resident datasets
/// and the `stats` op never stall behind another dataset's load. Two
/// racing first-loads of the same dataset may both build; the loser's
/// copy is discarded at insert (first one in wins).
#[derive(Debug)]
pub struct DatasetRegistry {
    dir: PathBuf,
    /// Per-dataset write-ahead logs live here when set; `None` serves
    /// memory-only (the pre-WAL behavior, minus the silent revert).
    wal_dir: Option<PathBuf>,
    /// Record-count compaction trigger: when set, an update that
    /// leaves a dataset's log holding more than this many records
    /// folds it into a snapshot immediately (in addition to the
    /// index-rebuild trigger), bounding replay time between rebuilds.
    wal_compact_every: Option<u64>,
    /// Total filter-cache bytes shared across resident engines.
    cache_budget: usize,
    /// Worker-pool size handed to each engine (0 = one per core).
    pool_threads: usize,
    /// The clock injected into every engine this registry builds, so
    /// one server-wide clock governs all query tracing (tests freeze
    /// it; production uses [`MonotonicClock`]).
    clock: Arc<dyn Clock>,
    loaded: Mutex<BTreeMap<String, Arc<LoadedDataset>>>,
}

/// Whether a name is safe to join onto the datasets directory: a
/// plain file stem, no path separators or traversal.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl DatasetRegistry {
    /// A registry serving `<dir>/<name>.csv` files, sharing
    /// `cache_budget` filter-cache bytes across however many engines
    /// end up resident.
    pub fn new(dir: PathBuf, cache_budget: usize, pool_threads: usize) -> Self {
        Self {
            dir,
            wal_dir: None,
            wal_compact_every: None,
            cache_budget,
            pool_threads,
            clock: Arc::new(MonotonicClock::new()),
            loaded: Mutex::new(BTreeMap::new()),
        }
    }

    /// Injects the clock every engine built by this registry traces
    /// with (deterministic [`utk_core::obs::TestClock`] in tests).
    /// Builder-style: call before the registry serves requests.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Turns on crash-safe updates: every mutation is logged to
    /// `<wal_dir>/<name>.wal` before it commits, and loads replay the
    /// log. Builder-style: call before the registry serves requests.
    pub fn with_wal_dir(mut self, wal_dir: PathBuf) -> Self {
        self.wal_dir = Some(wal_dir);
        self
    }

    /// Caps how long a write-ahead log may grow between compactions:
    /// an update that leaves a log with more than `n` records folds it
    /// into a snapshot right away, so a reload never replays more than
    /// ~`n` mutations even when the engine's index-rebuild heuristic
    /// (the other compaction trigger) stays quiet. Builder-style: call
    /// before the registry serves requests. No effect without a WAL
    /// directory.
    pub fn with_wal_compact_every(mut self, n: u64) -> Self {
        self.wal_compact_every = Some(n);
        self
    }

    /// The served directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The WAL directory, when crash-safe updates are on.
    pub fn wal_dir(&self) -> Option<&PathBuf> {
        self.wal_dir.as_ref()
    }

    /// Aggregate WAL state across resident datasets:
    /// `(datasets_with_wal, total_records, total_bytes)`.
    pub fn wal_totals(&self) -> (u64, u64, u64) {
        let loaded = self.loaded.lock().expect("registry lock");
        let mut totals = (0, 0, 0);
        for ds in loaded.values() {
            if let Some(wal) = &ds.wal {
                let wal = wal.lock().expect("dataset wal lock");
                totals.0 += 1;
                totals.1 += wal.records();
                totals.2 += wal.bytes();
            }
        }
        totals
    }

    /// Per-dataset WAL state for the `stats` op, in dataset-name
    /// order: `(name, records, bytes, last_epoch)` for every resident
    /// dataset carrying a log. `last_epoch` is the epoch of the newest
    /// durable record (0 for a fresh log).
    pub fn wal_datasets(&self) -> Vec<(String, u64, u64, u64)> {
        let loaded = self.loaded.lock().expect("registry lock");
        let mut out = Vec::new();
        for (name, ds) in loaded.iter() {
            if let Some(wal) = &ds.wal {
                let wal = wal.lock().expect("dataset wal lock");
                out.push((name.clone(), wal.records(), wal.bytes(), wal.epoch()));
            }
        }
        out
    }

    /// Dataset names available on disk (sorted), whether loaded or
    /// not.
    pub fn available(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let stem = path.file_stem()?.to_str()?;
                (path.extension()?.to_str()? == "csv" && valid_name(stem)).then(|| stem.to_string())
            })
            .collect();
        names.sort();
        names
    }

    /// The resident dataset names, sorted.
    pub fn loaded_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .loaded
            .lock()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of resident engines.
    pub fn loaded_count(&self) -> usize {
        self.loaded.lock().expect("registry lock").len()
    }

    /// Filter-cache bytes currently held across resident engines.
    pub fn cache_bytes(&self) -> usize {
        self.loaded
            .lock()
            .expect("registry lock")
            .values()
            .map(|ds| ds.engine.filter_cache_bytes())
            .sum()
    }

    /// The resident engine for `name`, loading it on first use.
    /// Returns the dataset and whether it was already resident.
    pub fn get_or_load(&self, name: &str) -> Result<(Arc<LoadedDataset>, bool), ProtoError> {
        if !valid_name(name) {
            return Err(ProtoError::bad_request(format!(
                "invalid dataset name {name:?} (use letters, digits, '-', '_')"
            )));
        }
        if let Some(ds) = self.loaded.lock().expect("registry lock").get(name) {
            return Ok((Arc::clone(ds), true));
        }
        // Build outside the lock: resident datasets stay queryable
        // while this one parses and indexes.
        let path = self.dir.join(format!("{name}.csv"));
        let text = std::fs::read_to_string(&path).map_err(|e| ProtoError {
            code: code::UNKNOWN_DATASET,
            message: format!("dataset {name:?}: {}: {e}", path.display()),
        })?;
        let dataset_error = |detail: String| ProtoError {
            code: code::DATASET_ERROR,
            message: format!("dataset {name:?}: {detail}"),
        };
        let mut data =
            parse_csv(&text, &path.to_string_lossy()).map_err(|e| dataset_error(e.to_string()))?;

        // With a WAL directory, recover the log before the engine
        // exists: a torn tail is truncated, a compaction marker
        // switches the replay base to the side-by-side snapshot, and
        // every surviving record is re-applied below so the engine
        // comes up at exactly the epoch the log replays to.
        let mut base_epoch = 0u64;
        let mut to_replay: Vec<WalRecord> = Vec::new();
        let wal = match &self.wal_dir {
            None => None,
            Some(wal_dir) => {
                std::fs::create_dir_all(wal_dir)
                    .map_err(|e| dataset_error(format!("wal dir {}: {e}", wal_dir.display())))?;
                let wal_path = wal_dir.join(format!("{name}.wal"));
                let opened = WalFile::open(&wal_path)
                    .map_err(|e| dataset_error(format!("wal {}: {e}", wal_path.display())))?;
                if let Some(WalRecord::Compact { base_epoch: b }) = opened.records.first() {
                    base_epoch = *b;
                    let snap_path = snapshot_path(&wal_path);
                    let snap_text = std::fs::read_to_string(&snap_path).map_err(|e| {
                        dataset_error(format!("wal snapshot {}: {e}", snap_path.display()))
                    })?;
                    data = parse_csv(&snap_text, &snap_path.to_string_lossy())
                        .map_err(|e| dataset_error(format!("wal snapshot: {e}")))?;
                }
                to_replay = opened.records;
                Some(opened.wal)
            }
        };

        let mut engine = UtkEngine::new(data.dataset.points.clone())
            .map_err(|e| dataset_error(e.to_string()))?
            .with_base_epoch(base_epoch)
            .with_clock(Arc::clone(&self.clock));
        if self.pool_threads != 0 {
            engine = engine.with_pool_threads(self.pool_threads);
        }
        for record in &to_replay {
            if matches!(record, WalRecord::Compact { .. }) {
                continue;
            }
            let (deletes, inserts, labels) = record.mutation();
            let at = record.epoch();
            data.apply_update(deletes, inserts, labels)
                .map_err(|e| dataset_error(format!("wal replay to epoch {at}: {e}")))?;
            engine
                .apply_update(deletes, inserts.to_vec())
                .map_err(|e| dataset_error(format!("wal replay to epoch {at}: {e}")))?;
        }
        let ds = Arc::new(LoadedDataset {
            name: name.to_string(),
            data: RwLock::new(Arc::new(data)),
            update_lock: Mutex::new(()),
            engine,
            wal: wal.map(Mutex::new),
        });
        let mut loaded = self.loaded.lock().expect("registry lock");
        if let Some(winner) = loaded.get(name) {
            // A racing load finished first; serve its copy.
            return Ok((Arc::clone(winner), true));
        }
        loaded.insert(name.to_string(), Arc::clone(&ds));
        Self::rebalance(&loaded, self.cache_budget);
        Ok((ds, false))
    }

    /// Unloads `name`'s engine, freeing its caches and re-dealing the
    /// shared budget to the survivors. Returns whether an engine was
    /// actually resident. In-flight queries on the evicted engine
    /// finish safely — they hold their own `Arc` handle.
    ///
    /// Refused with [`code::WOULD_LOSE_UPDATES`] when the dataset has
    /// in-memory mutations (a non-zero epoch) and no write-ahead log:
    /// evicting would silently revert it to the on-disk CSV at the
    /// next load. With a WAL every mutation is already durable, so
    /// eviction is always safe.
    pub fn evict(&self, name: &str) -> Result<bool, ProtoError> {
        let mut loaded = self.loaded.lock().expect("registry lock");
        if let Some(ds) = loaded.get(name) {
            if ds.wal.is_none() && ds.engine.dataset_epoch() > 0 {
                return Err(ProtoError {
                    code: code::WOULD_LOSE_UPDATES,
                    message: format!(
                        "dataset {name:?} holds {} in-memory mutation epoch(s) and no \
                         write-ahead log; evicting would revert it to the on-disk CSV \
                         (serve with --wal-dir to make updates durable)",
                        ds.engine.dataset_epoch()
                    ),
                });
            }
        }
        let removed = loaded.remove(name).is_some();
        if removed {
            Self::rebalance(&loaded, self.cache_budget);
        }
        Ok(removed)
    }

    /// Mutates a resident dataset (loading it first if needed):
    /// deletes by id, then appends rows, as one engine epoch. The
    /// parsed CSV payload is updated in lock-step so record names and
    /// the wire format's `n` keep tracking the live data, and the
    /// shared cache budget is re-dealt afterwards — the dataset's
    /// byte size just changed, so every resident engine's
    /// proportional slice moves.
    pub fn update(
        &self,
        name: &str,
        deletes: &[u32],
        inserts: Vec<Vec<f64>>,
        labels: Option<Vec<String>>,
    ) -> Result<(Arc<LoadedDataset>, UpdateReport), ProtoError> {
        let (ds, _) = self.get_or_load(name)?;
        let report = {
            // Serialize updates on this dataset; queries keep running
            // on their snapshots throughout (the data lock is taken
            // only momentarily to read and to swap).
            let _updating = ds.update_lock.lock().expect("dataset update lock");
            // Validate the CSV-side effects (label policy, bounds) on
            // a staged copy first: `CsvData::apply_update` mirrors
            // `UtkEngine::apply_update` validation (see the note on
            // the former), so the two succeed or fail as one — the
            // engine runs second and a failure discards the staging.
            let mut staged = (**ds.data.read().expect("dataset data lock")).clone();
            staged
                .apply_update(deletes, &inserts, labels.as_deref())
                .map_err(|e| ProtoError::bad_request(format!("dataset {name:?}: {e}")))?;
            // Durability before visibility: the record reaches disk
            // (append + fsync) before the engine commits its epoch
            // bump. Staging already validated the mutation, so the
            // engine cannot refuse what the log now promises.
            if let Some(wal) = &ds.wal {
                if !(deletes.is_empty() && inserts.is_empty()) {
                    let mut wal = wal.lock().expect("dataset wal lock");
                    let record = WalRecord::for_update(
                        wal.epoch() + 1,
                        deletes,
                        &inserts,
                        labels.as_deref(),
                    );
                    wal.append(&record).map_err(|e| ProtoError {
                        code: code::DATASET_ERROR,
                        message: format!("dataset {name:?}: wal append: {e}"),
                    })?;
                }
            }
            let report = ds
                .engine
                .apply_update(deletes, inserts)
                .map_err(|e| ProtoError::bad_request(format!("dataset {name:?}: {e}")))?;
            if let Some(wal) = &ds.wal {
                let mut wal = wal.lock().expect("dataset wal lock");
                // Two compaction triggers: the engine just paid for a
                // full index rebuild (fold the log into a snapshot so
                // future loads replay from here), or the log outgrew
                // the configured record budget (bound replay time even
                // when the rebuild heuristic stays quiet). Snapshot
                // first, then compact — a crash in between leaves the
                // full log, which still replays from the original CSV.
                let over_budget = self.wal_compact_every.is_some_and(|n| wal.records() > n);
                if report.index_rebuilt || over_budget {
                    compact_into_snapshot(&mut wal, &staged, report.epoch).map_err(|e| {
                        ProtoError {
                            code: code::DATASET_ERROR,
                            message: format!("dataset {name:?}: wal compact: {e}"),
                        }
                    })?;
                }
            }
            *ds.data.write().expect("dataset data lock") = Arc::new(staged);
            report
        };
        let loaded = self.loaded.lock().expect("registry lock");
        Self::rebalance(&loaded, self.cache_budget);
        Ok((ds, report))
    }

    /// Deals `budget` across the resident engines proportionally to
    /// their dataset bytes (records × dimensionality), so the engines
    /// with the most r-skyband state to memoize hold the most cache.
    fn rebalance(loaded: &BTreeMap<String, Arc<LoadedDataset>>, budget: usize) {
        if loaded.is_empty() {
            return;
        }
        let weights: Vec<(&Arc<LoadedDataset>, usize)> = loaded
            .values()
            .map(|ds| (ds, ds.engine.len() * ds.engine.dim()))
            .collect();
        let total: usize = weights.iter().map(|(_, w)| w).sum();
        if total == 0 {
            let share = budget / loaded.len();
            for ds in loaded.values() {
                ds.engine.set_filter_cache_budget(share);
            }
            return;
        }
        for (ds, weight) in weights {
            let share = (budget as u128 * weight as u128 / total as u128) as usize;
            ds.engine.set_filter_cache_budget(share);
        }
    }
}

/// The compaction snapshot path beside a `<name>.wal` log.
fn snapshot_path(wal_path: &Path) -> PathBuf {
    let stem = wal_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset");
    wal_path.with_file_name(format!("{stem}.snapshot.csv"))
}

/// Writes `data` as the compaction snapshot beside the log (through a
/// fsynced temp file + rename, so a crash never leaves a half-written
/// snapshot under the final name) and truncates the log to a single
/// `Compact` marker at `epoch`.
fn compact_into_snapshot(wal: &mut WalFile, data: &CsvData, epoch: u64) -> Result<(), String> {
    let text = write_csv(&data.dataset, data.labels.as_deref());
    let snap = snapshot_path(wal.path());
    let tmp = snap.with_extension("tmp");
    (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
        std::fs::rename(&tmp, &snap)
    })()
    .map_err(|e| format!("snapshot {}: {e}", snap.display()))?;
    wal.compact(epoch).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use utk_testdir::TestDir;

    /// A private datasets directory for one test, removed on drop.
    fn fixture_dir(tag: &str) -> TestDir {
        let dir = TestDir::new(tag);
        std::fs::write(
            dir.join("hotels.csv"),
            "p1,8.3,9.1,7.2\np2,2.4,9.6,8.6\np3,5.4,1.6,4.1\n",
        )
        .unwrap();
        std::fs::write(dir.join("tiny.csv"), "1,2\n3,4\n").unwrap();
        std::fs::write(dir.join("broken.csv"), "a,b,c\n1,2\n1,2,3\n").unwrap();
        dir
    }

    #[test]
    fn lazy_load_evict_and_shared_budget() {
        let fixture = fixture_dir("registry_lazy_load_evict_and_shared_budget");
        let dir = fixture.path().to_path_buf();
        const BUDGET: usize = 1 << 20;
        let registry = DatasetRegistry::new(dir, BUDGET, 1);
        assert_eq!(registry.loaded_count(), 0);

        let (hotels, already) = registry.get_or_load("hotels").unwrap();
        assert!(!already);
        assert_eq!(hotels.engine.len(), 3);
        assert_eq!(hotels.engine.filter_cache_budget(), BUDGET);
        let (_, again) = registry.get_or_load("hotels").unwrap();
        assert!(again);

        // A second dataset re-deals the budget proportionally to
        // dataset size: hotels is 3×3 cells, tiny is 2×2.
        let (tiny, _) = registry.get_or_load("tiny").unwrap();
        assert_eq!(registry.loaded_count(), 2);
        assert_eq!(hotels.engine.filter_cache_budget(), BUDGET * 9 / 13);
        assert_eq!(tiny.engine.filter_cache_budget(), BUDGET * 4 / 13);

        // Evicting re-deals the whole budget to the survivor.
        assert!(registry.evict("tiny").unwrap());
        assert!(!registry.evict("tiny").unwrap());
        assert_eq!(hotels.engine.filter_cache_budget(), BUDGET);
        assert_eq!(registry.loaded_names(), vec!["hotels".to_string()]);
    }

    #[test]
    fn update_mutates_engine_and_names_and_redeals_the_budget() {
        let fixture =
            fixture_dir("registry_update_mutates_engine_and_names_and_redeals_the_budget");
        let dir = fixture.path().to_path_buf();
        const BUDGET: usize = 1 << 20;
        let registry = DatasetRegistry::new(dir, BUDGET, 1);
        let (hotels, _) = registry.get_or_load("hotels").unwrap();
        let (tiny, _) = registry.get_or_load("tiny").unwrap();
        assert_eq!(hotels.engine.filter_cache_budget(), BUDGET * 9 / 13);

        // Grow hotels from 3 to 5 records: the proportional deal
        // shifts toward it (15×3 vs 2×2 cells → 15/19 and 4/19).
        let (_, report) = registry
            .update(
                "hotels",
                &[],
                vec![vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]],
                Some(vec!["p4".into(), "p5".into()]),
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.n, 5);
        assert_eq!(hotels.engine.len(), 5);
        assert_eq!(hotels.data.read().unwrap().name(4), "p5");
        assert_eq!(hotels.engine.filter_cache_budget(), BUDGET * 15 / 19);
        assert_eq!(tiny.engine.filter_cache_budget(), BUDGET * 4 / 19);

        // Deletes shift the surviving labels with their rows.
        let (_, report) = registry.update("hotels", &[0], vec![], None).unwrap();
        assert_eq!(report.deleted, 1);
        assert_eq!(hotels.data.read().unwrap().name(0), "p2");

        // A rejected update changes nothing on either side: labels
        // are identities, so a duplicate is refused.
        let err = registry
            .update(
                "hotels",
                &[],
                vec![vec![3.0, 3.0, 3.0]],
                Some(vec!["p2".into()]),
            )
            .unwrap_err();
        assert_eq!(err.code, code::BAD_REQUEST);
        assert_eq!(hotels.engine.len(), 4);
        assert_eq!(hotels.engine.dataset_epoch(), 2);
        // Label-policy mismatches are typed errors too.
        assert_eq!(
            registry
                .update("hotels", &[], vec![vec![3.0, 3.0, 3.0]], None)
                .unwrap_err()
                .code,
            code::BAD_REQUEST
        );
        assert_eq!(
            registry
                .update("tiny", &[], vec![vec![1.0, 1.0]], Some(vec!["x".into()]))
                .unwrap_err()
                .code,
            code::BAD_REQUEST
        );

        // Without a WAL, evicting a mutated dataset would silently
        // revert it to disk state at the next load — refused with a
        // typed error, and the engine stays resident.
        let err = registry.evict("hotels").unwrap_err();
        assert_eq!(err.code, code::WOULD_LOSE_UPDATES);
        assert_eq!(registry.loaded_count(), 2);
        assert_eq!(hotels.engine.len(), 4);

        // An unmutated dataset still evicts and reloads from disk.
        assert!(registry.evict("tiny").unwrap());
        let (reloaded, _) = registry.get_or_load("tiny").unwrap();
        assert_eq!(reloaded.engine.dataset_epoch(), 0);
    }

    #[test]
    fn wal_replays_updates_across_evict_and_reload() {
        let fixture = fixture_dir("registry_wal_replays_updates_across_evict_and_reload");
        let dir = fixture.path().to_path_buf();
        let wal_dir = dir.join("wal_replay");
        let registry = DatasetRegistry::new(dir.clone(), 1 << 20, 1).with_wal_dir(wal_dir.clone());
        assert_eq!(registry.wal_totals(), (0, 0, 0));

        let (_, report) = registry
            .update(
                "hotels",
                &[0],
                vec![vec![7.0, 7.0, 7.0]],
                Some(vec!["p4".into()]),
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        let (datasets, records, bytes) = registry.wal_totals();
        assert_eq!((datasets, records), (1, 1));
        assert!(bytes > 0);

        // With a WAL the mutation is durable, so evicting a mutated
        // dataset is allowed — and the reload replays to the exact
        // epoch that was visible before.
        assert!(registry.evict("hotels").unwrap());
        let (reloaded, _) = registry.get_or_load("hotels").unwrap();
        assert_eq!(reloaded.engine.dataset_epoch(), 1);
        assert_eq!(reloaded.engine.len(), 3);
        assert_eq!(reloaded.data.read().unwrap().name(2), "p4");

        // A fresh registry over the same directories (a restarted
        // server) sees the same state.
        drop(registry);
        let restarted = DatasetRegistry::new(dir, 1 << 20, 1).with_wal_dir(wal_dir);
        let (back, _) = restarted.get_or_load("hotels").unwrap();
        assert_eq!(back.engine.dataset_epoch(), 1);
        assert_eq!(back.data.read().unwrap().name(0), "p2");
        assert_eq!(back.data.read().unwrap().name(2), "p4");
    }

    #[test]
    fn index_rebuild_compacts_the_wal_into_a_snapshot() {
        let fixture = fixture_dir("registry_index_rebuild_compacts_the_wal_into_a_snapshot");
        let dir = fixture.path().to_path_buf();
        let wal_dir = dir.join("wal_compact");
        let registry = DatasetRegistry::new(dir.clone(), 1 << 20, 1).with_wal_dir(wal_dir.clone());

        // Enough churn to trip the engine's rebuild heuristic: grow
        // the 3-row dataset well past its original size.
        let mut epoch = 0;
        let mut rebuilt = false;
        for i in 0..12 {
            let row = vec![1.0 + f64::from(i), 2.0, 3.0];
            let (_, report) = registry
                .update("hotels", &[], vec![row], Some(vec![format!("x{i}")]))
                .unwrap();
            epoch = report.epoch;
            rebuilt |= report.index_rebuilt;
        }
        assert!(rebuilt, "12 single-row inserts never rebuilt the tree");
        let (_, records, _) = registry.wal_totals();
        assert!(
            records < 12,
            "compaction should have folded the log ({records} records left)"
        );
        assert!(wal_dir.join("hotels.snapshot.csv").exists());

        // Restart: the snapshot plus the log tail replays to the same
        // epoch and data as the uninterrupted registry.
        let n_before = {
            let (ds, _) = registry.get_or_load("hotels").unwrap();
            ds.engine.len()
        };
        drop(registry);
        let restarted = DatasetRegistry::new(dir, 1 << 20, 1).with_wal_dir(wal_dir);
        let (back, _) = restarted.get_or_load("hotels").unwrap();
        assert_eq!(back.engine.dataset_epoch(), epoch);
        assert_eq!(back.engine.len(), n_before);
        assert_eq!(back.data.read().unwrap().name(n_before as u32 - 1), "x11");
    }

    #[test]
    fn record_budget_compacts_the_wal_without_a_rebuild() {
        let fixture = fixture_dir("registry_record_budget_compacts_the_wal_without_a_rebuild");
        let dir = fixture.path().to_path_buf();
        let wal_dir = dir.join("wal_every");
        let registry = DatasetRegistry::new(dir.clone(), 1 << 20, 1)
            .with_wal_dir(wal_dir.clone())
            .with_wal_compact_every(2);

        // Three single-row inserts stay under the overlay-rebuild
        // threshold (overhead 3 vs n 6), so only the record budget can
        // compact here: the third update leaves 3 > 2 records and the
        // log folds into a snapshot with no rebuild involved.
        for i in 0..3 {
            let row = vec![1.0 + f64::from(i), 2.0, 3.0];
            let (_, report) = registry
                .update("hotels", &[], vec![row], Some(vec![format!("y{i}")]))
                .unwrap();
            assert!(!report.index_rebuilt, "insert {i} tripped a rebuild");
        }
        let (_, records, _) = registry.wal_totals();
        assert!(
            records <= 1,
            "record budget should have folded the log ({records} records left)"
        );
        assert!(wal_dir.join("hotels.snapshot.csv").exists());
        let per_dataset = registry.wal_datasets();
        assert_eq!(per_dataset.len(), 1);
        let (name, recs, bytes, last_epoch) = &per_dataset[0];
        assert_eq!(name, "hotels");
        assert_eq!(*recs, records);
        assert!(*bytes > 0);
        assert_eq!(*last_epoch, 3);

        // Restart: snapshot + tail replays to the exact same state.
        drop(registry);
        let restarted = DatasetRegistry::new(dir, 1 << 20, 1).with_wal_dir(wal_dir);
        let (back, _) = restarted.get_or_load("hotels").unwrap();
        assert_eq!(back.engine.dataset_epoch(), 3);
        assert_eq!(back.engine.len(), 6);
        assert_eq!(back.data.read().unwrap().name(5), "y2");
    }

    #[test]
    fn bad_names_and_files_are_typed() {
        let fixture = fixture_dir("registry_bad_names_and_files_are_typed");
        let dir = fixture.path().to_path_buf();
        let registry = DatasetRegistry::new(dir, 1 << 20, 1);
        for bad in ["../etc/passwd", "a/b", "", "a b", "x.csv"] {
            let err = registry.get_or_load(bad).unwrap_err();
            assert_eq!(err.code, code::BAD_REQUEST, "{bad:?}");
        }
        assert_eq!(
            registry.get_or_load("missing").unwrap_err().code,
            code::UNKNOWN_DATASET
        );
        assert_eq!(
            registry.get_or_load("broken").unwrap_err().code,
            code::DATASET_ERROR
        );
        assert_eq!(registry.loaded_count(), 0);
    }

    #[test]
    fn available_lists_csv_stems() {
        let fixture = fixture_dir("registry_available_lists_csv_stems");
        let dir = fixture.path().to_path_buf();
        let registry = DatasetRegistry::new(dir, 1 << 20, 1);
        let names = registry.available();
        assert!(names.contains(&"hotels".to_string()), "{names:?}");
        assert!(names.contains(&"tiny".to_string()), "{names:?}");
    }
}
