//! The coordinator's result caches: an in-memory LRU of rendered documents
//! in front of a durable per-cell store.
//!
//! The LRU is keyed by the canonical `(config_hash, seed)` pair
//! ([`crate::proto::config_key`]): two requests with the same key *plan the
//! same cells under the same random universe*, so their merged documents are
//! byte-identical by the determinism invariant — serving the stored bytes
//! is indistinguishable from re-executing, except ~10⁶× cheaper. The hash
//! half canonicalizes spelling (field order, explicit defaults, duplicate
//! axis values), so a client cannot dodge the cache by reordering fields.
//!
//! Capacity is bounded (default [`DEFAULT_CAPACITY`]) with
//! least-recently-*used* eviction — a hit refreshes recency, so a hot
//! config pinned by steady traffic survives a scan of one-off configs.
//! Recency is a logical clock, not wall time: deterministic, test-friendly,
//! and immune to clock steps.
//!
//! The cache stores the rendered document (the exact bytes a client
//! receives), not the [`crate::sweep::SweepOutput`] — the service's unit of
//! work is "bytes for a config", and storing post-render means a hit skips
//! rendering too.
//!
//! ## The durable cell store
//!
//! [`CellStore`] (enabled with `serve --checkpoint-dir`) keeps every merged
//! cell on disk, so a crashed job resumes where it stopped and a coordinator
//! restart keeps its history. A cell's result is a pure function of
//! `(config_hash, seed, list, index)`, so each `(key, list)` pair gets one
//! append-only jsonl file, `ckpt-{hash:016x}-{seed}-{list}.jsonl`, with one
//! `{"index","sum","result"}` line per cell; the sum is an FNV-1a checksum
//! over `index:result`. The file name is the index, so nothing per cell is
//! kept in memory, and a file is bounded by its job's size.
//!
//! The durability contract is *detect, don't trust*: a torn tail (crash mid
//! append) or a garbled record (bit rot, truncation, a chaos test) fails the
//! checksum or the parse and is **skipped and counted**, never served and
//! never fatal. The startup scan counts damage at rest, and every restore
//! verifies each record again. After a torn tail the next record starts on a
//! fresh line, so it cannot fuse with the fragment. The in-memory
//! [`ResultCache`] LRU fronts the store: a key whose cells are all on disk
//! is rendered once and then answered from memory.

use crate::engine::RunResult;
use crate::faults::FaultPlan;
use crate::proto::{fnv1a64, parse, result_from_value, result_to_json, ShardList, Value};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default number of cached sweep documents. A default-config document is
/// ~60 KiB, so the default bound keeps the cache comfortably in tens of
/// MiB even with large custom grids.
pub const DEFAULT_CAPACITY: usize = 128;

/// The cache key: `(config_hash, seed)`.
pub type Key = (u64, u64);

struct Entry {
    document: String,
    /// Logical timestamp of the last hit or insert.
    used: u64,
}

/// A bounded LRU map from [`Key`] to rendered sweep documents, with hit
/// accounting (the coordinator surfaces `cache_hits` in every response
/// envelope — the observable served-from-cache counter).
pub struct ResultCache {
    entries: HashMap<Key, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up a document, refreshing its recency and counting the
    /// hit/miss.
    pub fn get(&mut self, key: Key) -> Option<String> {
        let stamp = self.tick();
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.used = stamp;
                self.hits += 1;
                Some(entry.document.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a document, evicting the least-recently-used
    /// entry if the cache is at capacity.
    pub fn put(&mut self, key: Key, document: String) {
        let stamp = self.tick();
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                document,
                used: stamp,
            },
        );
    }

    /// Lifetime count of [`ResultCache::get`] calls that returned a
    /// document.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Count a served-from-cache response that bypassed [`ResultCache::get`]
    /// (a disk hit answered from the [`CellStore`]): keeps the envelope's
    /// `cache_hits` counter meaning "responses served without execution"
    /// regardless of which tier answered.
    pub fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Lifetime count of [`ResultCache::get`] calls that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime count of entries pushed out by capacity pressure (surfaced
    /// in every response envelope, so an undersized `--cache-capacity` is
    /// observable instead of just slow).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Durable per-cell store
// ---------------------------------------------------------------------------

/// The file holding one job list's cells. The name is the index: the store
/// keeps nothing per cell in memory.
pub fn cell_file(dir: &Path, (hash, seed): Key, list: ShardList) -> PathBuf {
    dir.join(format!("ckpt-{hash:016x}-{seed}-{}.jsonl", list.name()))
}

/// Checksum binding a record's index to its result payload, so a flipped
/// byte anywhere in the record is detected rather than merged.
fn record_sum(index: usize, result_json: &str) -> u64 {
    fnv1a64(format!("{index}:{result_json}").as_bytes())
}

/// Decode and verify one record line. `None` means torn or garbled.
fn decode_record(line: &[u8]) -> Option<(usize, RunResult)> {
    let v = parse(std::str::from_utf8(line).ok()?).ok()?;
    let index = v.get("index").and_then(Value::as_usize)?;
    let sum = v.get("sum").and_then(Value::as_u64)?;
    let result = result_from_value(v.get("result")?).ok()?;
    // Re-render for the sum check: the writer produced `result_to_json`
    // output, so a flipped byte inside a number or string changes it.
    (record_sum(index, &result_to_json(&result)) == sum).then_some((index, result))
}

/// Decode one store file: its verified `(index, result)` records in file
/// order, and how many records were torn or garbled.
fn decode_file(bytes: &[u8]) -> (Vec<(usize, RunResult)>, u64) {
    let mut skipped = 0;
    let cells = bytes
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .filter_map(|line| {
            let cell = decode_record(line);
            skipped += u64::from(cell.is_none());
            cell
        })
        .collect();
    (cells, skipped)
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cell store {}: cannot read: {e}", path.display()))
}

/// Crash-safe per-cell result store: append-only checksummed jsonl files
/// under one directory. See the module docs for the durability contract.
pub struct CellStore {
    dir: PathBuf,
    /// Files whose tail is a torn fragment: their next record starts on a
    /// fresh line instead of fusing with the fragment.
    torn: HashSet<PathBuf>,
    /// Records the startup scan found torn or garbled.
    corrupt_skipped: u64,
}

impl CellStore {
    /// Open (creating if needed) the store under `dir`. The fault plan's
    /// `corrupt-cache-record=N` directives are applied first, so injected
    /// corruption is indistinguishable from damage at rest; then every
    /// record is verified and the damaged ones are counted.
    pub fn open(dir: &Path, plan: &FaultPlan) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read checkpoint dir {}: {e}", dir.display()))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                (name.starts_with("ckpt-") && name.ends_with(".jsonl")).then(|| dir.join(name))
            })
            .collect();
        files.sort_unstable();
        if !plan.corrupt_cache_records().is_empty() {
            let clobbered = corrupt_records(&files, plan)?;
            eprintln!("rh-serve: fault plan clobbered {clobbered} cell-store record(s)");
        }
        let mut store = Self {
            dir: dir.to_path_buf(),
            torn: HashSet::new(),
            corrupt_skipped: 0,
        };
        for path in files {
            let bytes = read(&path)?;
            store.corrupt_skipped += store.load(path, &bytes).1;
        }
        Ok(store)
    }

    /// Decode one file, logging its damage and noting a torn tail (a crash
    /// mid-append) so the file's next record starts on a fresh line.
    fn load(&mut self, path: PathBuf, bytes: &[u8]) -> (Vec<(usize, RunResult)>, u64) {
        let (cells, skipped) = decode_file(bytes);
        if skipped > 0 {
            eprintln!(
                "rh-cache: skipping {skipped} torn or garbled record(s) in {}",
                path.display()
            );
        }
        if bytes.last().is_some_and(|&b| b != b'\n') {
            self.torn.insert(path);
        }
        (cells, skipped)
    }

    /// Read back one job list's cells, verifying every record again (the
    /// file may have been damaged since the scan). Returns the intact
    /// `(index, result)` records in file order and how many were skipped.
    pub fn restore(&mut self, key: Key, list: ShardList) -> (Vec<(usize, RunResult)>, u64) {
        let path = cell_file(&self.dir, key, list);
        match std::fs::read(&path) {
            Ok(bytes) => self.load(path, &bytes),
            Err(_) => (Vec::new(), 0),
        }
    }

    /// Append one merged cell. A write failure degrades durability, not the
    /// response: it is logged, and the file is treated as torn.
    pub fn append(&mut self, key: Key, list: ShardList, index: usize, result: &RunResult) {
        let path = cell_file(&self.dir, key, list);
        let result_json = result_to_json(result);
        let fresh_line = if self.torn.remove(&path) { "\n" } else { "" };
        let line = format!(
            "{fresh_line}{{\"index\":{index},\"sum\":{},\"result\":{result_json}}}\n",
            record_sum(index, &result_json)
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = written {
            eprintln!(
                "rh-serve: checkpoint append to {} failed: {e}",
                path.display()
            );
            self.torn.insert(path);
        }
    }

    /// Records the startup scan found torn or garbled.
    pub fn corrupt_skipped(&self) -> u64 {
        self.corrupt_skipped
    }
}

/// Flip one seeded byte inside each record line a fault plan's
/// `corrupt-cache-record=N` directives name (1-based, counted across the
/// files in name order). Returns how many records were clobbered.
fn corrupt_records(files: &[PathBuf], plan: &FaultPlan) -> Result<u64, String> {
    let targets = plan.corrupt_cache_records();
    let (mut ordinal, mut clobbered) = (0u64, 0u64);
    for path in files {
        let mut bytes = read(path)?;
        let before = clobbered;
        let mut start = 0;
        for end in 0..bytes.len() {
            if bytes[end] != b'\n' {
                continue;
            }
            ordinal += 1;
            if targets.contains(&ordinal) {
                if let Some((offset, byte)) = plan.corrupt_byte_for(ordinal, &bytes[start..end]) {
                    bytes[start + offset] = byte;
                    clobbered += 1;
                }
            }
            start = end + 1;
        }
        if clobbered > before {
            std::fs::write(path, &bytes)
                .map_err(|e| format!("cell store {}: write failed: {e}", path.display()))?;
        }
    }
    Ok(clobbered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_bytes_and_counts() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get((1, 1)), None);
        c.put((1, 1), "doc-a".into());
        assert_eq!(c.get((1, 1)).as_deref(), Some("doc-a"));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let mut c = ResultCache::new(4);
        c.put((7, 1), "seed-1".into());
        assert_eq!(c.get((7, 2)), None, "same config hash, different seed");
        c.put((7, 2), "seed-2".into());
        assert_eq!(c.get((7, 1)).as_deref(), Some("seed-1"));
        assert_eq!(c.get((7, 2)).as_deref(), Some("seed-2"));
    }

    #[test]
    fn evicts_least_recently_used_not_least_recently_inserted() {
        let mut c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((2, 0), "b".into());
        // Touch the older entry so the newer one becomes the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.put((3, 0), "c".into());
        assert_eq!(c.len(), 2);
        assert!(c.get((1, 0)).is_some(), "recently used must survive");
        assert_eq!(c.get((2, 0)), None, "LRU entry must be evicted");
        assert!(c.get((3, 0)).is_some());
        assert_eq!(c.evictions(), 1, "the push-out must be counted");
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((2, 0), "b".into());
        c.put((1, 0), "a2".into());
        assert_eq!(c.len(), 2, "refresh must not evict");
        assert_eq!(c.get((1, 0)).as_deref(), Some("a2"));
        assert_eq!(c.get((2, 0)).as_deref(), Some("b"));
        assert_eq!(c.evictions(), 0, "a refresh is not an eviction");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = ResultCache::new(0);
        c.put((1, 0), "a".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get((1, 0)).as_deref(), Some("a"));
    }

    // -- Durable cell store --

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rh-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(flips: u64) -> RunResult {
        RunResult {
            workload: "double_sided \"q\"\n".into(),
            mitigation: "none".into(),
            hc_first: 2000,
            data_pattern: "legacy".into(),
            activations: 1000,
            total_flips: flips,
            flipped_rows: 1,
            flips_per_mact: 0.1 + flips as f64,
            refreshes_issued: 0,
            flips_1to0: flips,
            flips_0to1: 0,
            post_ecc_flips: None,
        }
    }

    fn open(dir: &Path) -> CellStore {
        CellStore::open(dir, &FaultPlan::default()).unwrap()
    }

    /// A restore as `(index, wire rendering)` pairs, comparable bit for bit.
    fn restored(s: &mut CellStore, key: Key, list: ShardList) -> (Vec<(usize, String)>, u64) {
        let (cells, skipped) = s.restore(key, list);
        let cells = cells.iter().map(|(i, r)| (*i, result_to_json(r))).collect();
        (cells, skipped)
    }

    /// The expected `(index, wire rendering)` pairs for `(index, flips)`.
    fn want(cells: &[(usize, u64)]) -> Vec<(usize, String)> {
        cells
            .iter()
            .map(|&(i, f)| (i, result_to_json(&cell(f))))
            .collect()
    }

    #[test]
    fn persistent_round_trip_survives_reopen() {
        let dir = scratch("roundtrip");
        {
            let mut s = open(&dir);
            s.append((1, 2), ShardList::Grid, 0, &cell(3));
            s.append((1, 2), ShardList::Grid, 4, &cell(5));
            s.append((1, 2), ShardList::Para, 0, &cell(7));
        }
        let mut s = open(&dir);
        assert_eq!(s.corrupt_skipped(), 0);
        let grid = restored(&mut s, (1, 2), ShardList::Grid);
        assert_eq!(grid, (want(&[(0, 3), (4, 5)]), 0));
        let para = restored(&mut s, (1, 2), ShardList::Para);
        assert_eq!(para, (want(&[(0, 7)]), 0));
        let other_seed = restored(&mut s, (1, 3), ShardList::Grid);
        assert_eq!(other_seed, (vec![], 0), "the seed is part of the key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_counted_and_quarantined() {
        let dir = scratch("torn");
        open(&dir).append((1, 1), ShardList::Grid, 0, &cell(1));
        // Simulate a crash mid-append: an unterminated record fragment.
        let file = cell_file(&dir, (1, 1), ShardList::Grid);
        let mut bytes = std::fs::read(&file).unwrap();
        bytes.extend_from_slice(br#"{"index":1,"sum":3,"resu"#);
        std::fs::write(&file, &bytes).unwrap();

        let mut s = open(&dir);
        assert_eq!(s.corrupt_skipped(), 1, "the torn tail must be counted");
        let grid = restored(&mut s, (1, 1), ShardList::Grid);
        assert_eq!(grid, (want(&[(0, 1)]), 1));
        // The next record must start a fresh line, not fuse with the fragment.
        s.append((1, 1), ShardList::Grid, 1, &cell(2));
        s.append((1, 1), ShardList::Grid, 2, &cell(3));
        let mut s = open(&dir);
        assert_eq!(s.corrupt_skipped(), 1, "only the fragment is damaged");
        let grid = restored(&mut s, (1, 1), ShardList::Grid);
        assert_eq!(grid, (want(&[(0, 1), (1, 2), (2, 3)]), 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_record_fails_checksum_and_is_skipped() {
        let dir = scratch("garble");
        {
            let mut s = open(&dir);
            for i in 0..3 {
                s.append((1, 1), ShardList::Grid, i, &cell(i as u64));
            }
        }
        let plan = FaultPlan::parse("seed=5,corrupt-cache-record=2").unwrap();
        let mut s = CellStore::open(&dir, &plan).unwrap();
        assert_eq!(
            s.corrupt_skipped(),
            1,
            "the scan counts the clobbered record"
        );
        assert_eq!(
            restored(&mut s, (1, 1), ShardList::Grid),
            (want(&[(0, 0), (2, 2)]), 1),
            "the clobbered record must not serve"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_is_survived_and_the_next_record_starts_fresh() {
        let dir = scratch("write-fail");
        let mut s = open(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        // The directory is gone: the append fails, is logged, and returns.
        s.append((1, 1), ShardList::Grid, 0, &cell(1));
        std::fs::create_dir_all(&dir).unwrap();
        s.append((1, 1), ShardList::Grid, 1, &cell(2));
        let grid = restored(&mut open(&dir), (1, 1), ShardList::Grid);
        assert_eq!(grid, (want(&[(1, 2)]), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_reverifies_damage_after_open() {
        let dir = scratch("reverify");
        let mut s = open(&dir);
        s.append((1, 1), ShardList::Para, 0, &cell(9));
        // Damage the file *after* the open-time scan.
        let file = cell_file(&dir, (1, 1), ShardList::Para);
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'#' { b'~' } else { b'#' };
        std::fs::write(&file, &bytes).unwrap();
        assert_eq!(
            restored(&mut s, (1, 1), ShardList::Para),
            (vec![], 1),
            "a read must re-verify the checksum"
        );
        assert_eq!(s.corrupt_skipped(), 0, "the scan saw an intact file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
