//! The persistent kernel-cycle memo cache.
//!
//! ISS measurements are deterministic in `(configuration fingerprint,
//! kernel variant, op, operand size, stimulus seed)`, and the bench
//! binaries re-measure the same points both within a run (Table 1 rows
//! reuse Fig. 8's 3DES sweep) and across runs. A [`KCache`] memoizes
//! each such *measurement unit* as a `Vec<f64>` of cycle counts under a
//! content-addressed key (see [`key`]) and persists the entries to
//! `target/kcache.json` (override with the `WSP_KCACHE` environment
//! variable) through `xobs::json`.
//!
//! Concurrency: the store is split into [`SHARDS`] independent
//! `RwLock`-guarded maps routed by an FNV-1a hash of the key, so the
//! cache is read-mostly-friendly under service traffic — concurrent
//! readers of one shard never block each other, a writer blocks only
//! its own shard, and persistence ([`KCache::to_json`]) snapshots one
//! shard at a time under a *read* lock instead of freezing the whole
//! cache for the duration of the serialization. The on-disk format is
//! unchanged (entries globally key-sorted), so files round-trip across
//! the sharded and pre-sharded implementations.
//!
//! Integrity: every persisted entry stores
//! [`xpar::memo::checksum`]`(key, values)`. An entry whose checksum does
//! not match on load — a poisoned cache — is dropped and recomputed,
//! never served. A changed core configuration changes the fingerprint
//! inside the key, so stale entries simply miss.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use xobs::Json;
use xpar::memo::checksum;

/// Version of the on-disk cache file format.
const KCACHE_SCHEMA_VERSION: u64 = 1;

/// Number of independent lock shards. A power of two so the router is
/// a mask; 16 comfortably exceeds the worker counts the xpar pool
/// spawns on this class of machine.
pub const SHARDS: usize = 16;

/// Builds the content key for one measurement unit: the core
/// configuration fingerprint, the kernel-library variant tag (see
/// [`crate::issops::KernelVariant::tag`]), the measured op (or a
/// composite unit name such as `"table1:rsa"`), the operand size in
/// limbs, and the stimulus seed (or a digest of the stimulus plan).
pub fn key(config_fp: u64, variant: &str, op: &str, n: u64, seed: u64) -> String {
    format!("{config_fp:016x}/{variant}/{op}/n{n}/s{seed:016x}")
}

/// The shard index `key` routes to: the FNV-1a hash of its bytes.
fn shard_of(key: &str) -> usize {
    (checksum(key, &[]) as usize) & (SHARDS - 1)
}

/// A persisted entry's key and cycles, when the entry is well formed
/// (a string key, an array of numbers, a hex checksum) and its stored
/// checksum matches them.
fn verified(entry: &Json) -> Option<(&str, Vec<f64>)> {
    let key = entry.get("key")?.as_str()?;
    let values = entry.get("values")?.as_arr()?;
    let values = values
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    let check = u64::from_str_radix(entry.get("check")?.as_str()?, 16).ok()?;
    (checksum(key, &values) == check).then_some((key, values))
}

/// A thread-safe kernel-cycle cache with optional file persistence,
/// shard-locked for read-mostly service traffic.
#[derive(Debug)]
pub struct KCache {
    shards: [RwLock<HashMap<String, Vec<f64>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    path: Option<PathBuf>,
    poisoned_dropped: AtomicU64,
}

impl Default for KCache {
    fn default() -> Self {
        KCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            path: None,
            poisoned_dropped: AtomicU64::new(0),
        }
    }
}

impl KCache {
    /// An empty in-memory cache (no persistence).
    pub fn new() -> Self {
        KCache::default()
    }

    /// The default cache location: `$WSP_KCACHE` when set, else
    /// `target/kcache.json`.
    fn default_path() -> PathBuf {
        match std::env::var_os("WSP_KCACHE") {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from("target/kcache.json"),
        }
    }

    /// Opens the default cache file (missing or unreadable files start
    /// an empty cache at that path).
    pub fn open_default() -> Self {
        Self::open(Self::default_path())
    }

    /// Opens a cache bound to `path`, loading any valid persisted
    /// entries. A malformed file loads nothing. A malformed entry, or
    /// one whose integrity checksum does not match, is dropped and
    /// counted in [`KCache::poisoned_dropped`].
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut cache = KCache {
            path: Some(path.clone()),
            ..KCache::default()
        };
        if let Ok(text) = std::fs::read_to_string(&path) {
            cache.load_entries(&text);
        }
        cache
    }

    fn load_entries(&mut self, text: &str) {
        let Ok(json) = xobs::json::parse(text) else {
            return;
        };
        let Some(entries) = json.get("entries").and_then(Json::as_arr) else {
            return;
        };
        for entry in entries {
            match verified(entry) {
                Some((key, values)) => self.insert(key, values),
                // Poisoned: drop it so it is recomputed.
                None => {
                    self.poisoned_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Vec<f64>>> {
        &self.shards[shard_of(key)]
    }

    /// Entries dropped at load time because they were malformed or
    /// their integrity checksum did not match (a poisoned cache file).
    pub fn poisoned_dropped(&self) -> u64 {
        self.poisoned_dropped.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("kcache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to measure.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The cached cycle vector for `key`, if any, counting a hit or
    /// miss. To measure on a miss, use [`KCache::get_or_compute`] or,
    /// for a fallible measurement, [`KCache::try_get_or_compute`].
    /// Takes only the owning shard's read lock, so concurrent lookups
    /// on other shards (and on the same shard) proceed unblocked.
    pub fn get(&self, key: &str) -> Option<Vec<f64>> {
        let found = self
            .shard(key)
            .read()
            .expect("kcache shard poisoned")
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts an entry without touching the hit/miss counters. Takes
    /// only the owning shard's write lock.
    pub fn insert(&self, key: &str, values: Vec<f64>) {
        self.shard(key)
            .write()
            .expect("kcache shard poisoned")
            .insert(key.to_owned(), values);
    }

    /// Returns the cached cycle vector for `key`, measuring via
    /// `compute` on a miss. Entries of the wrong arity are recomputed;
    /// pass `expected_len == 0` to accept any arity.
    ///
    /// The computation must be deterministic in `key`: concurrent
    /// misses on the same key may compute twice, and either (equal)
    /// result is kept. No lock is held while `compute` runs.
    pub fn get_or_compute(
        &self,
        key: &str,
        expected_len: usize,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Vec<f64> {
        let Ok(v) = self
            .try_get_or_compute::<std::convert::Infallible>(key, expected_len, || Ok(compute()));
        v
    }

    /// As [`KCache::get_or_compute`] for a fallible measurement: only an
    /// `Ok` value is cached, and an `Err` is returned as-is (counted as
    /// a miss).
    pub fn try_get_or_compute<E>(
        &self,
        key: &str,
        expected_len: usize,
        compute: impl FnOnce() -> Result<Vec<f64>, E>,
    ) -> Result<Vec<f64>, E> {
        {
            let shard = self.shard(key).read().expect("kcache shard poisoned");
            if let Some(v) = shard.get(key) {
                if expected_len == 0 || v.len() == expected_len {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(v.clone());
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute()?;
        self.insert(key, v.clone());
        Ok(v)
    }

    /// Scalar convenience over [`KCache::get_or_compute`].
    pub fn scalar(&self, key: &str, compute: impl FnOnce() -> f64) -> f64 {
        self.get_or_compute(key, 1, || vec![compute()])[0]
    }

    /// Every `(key, values)` pair, globally sorted by key. Snapshots
    /// one shard at a time under read locks.
    pub fn entries(&self) -> Vec<(String, Vec<f64>)> {
        let mut out: Vec<(String, Vec<f64>)> = Vec::new();
        for shard in &self.shards {
            let map = shard.read().expect("kcache shard poisoned");
            out.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Serializes every entry (with integrity checksums) as the cache
    /// file document. Shard-aware: each shard is snapshotted under its
    /// own read lock in turn, so a persist in progress never blocks
    /// readers (and blocks writers only of the shard currently being
    /// copied, for the duration of a clone — not the serialization).
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries()
            .into_iter()
            .map(|(key, values)| {
                let check = format!("{:016x}", checksum(&key, &values));
                let values: Vec<Json> = values.into_iter().map(Json::from).collect();
                Json::obj()
                    .set("key", key.as_str())
                    .set("values", values)
                    .set("check", check)
            })
            .collect();
        Json::obj()
            .set("schema_version", KCACHE_SCHEMA_VERSION)
            .set("entries", entries)
    }

    /// Writes the cache to `path` crash-safely: the document goes to a
    /// temporary file in the same directory, which is then renamed over
    /// `path`. A crash mid-write or a concurrent save (CLI and daemon)
    /// never leaves a truncated file: readers see the old document or
    /// a new one.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from the write or the rename; the
    /// temporary file is removed and `path` is left as it was.
    fn save_to(&self, path: &Path) -> io::Result<()> {
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_owned();
        let save = SAVES.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}.{save}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let doc = self.to_json().to_string_compact() + "\n";
        let saved = File::create(&tmp)
            .and_then(|mut f| f.write_all(doc.as_bytes()).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, path));
        match saved {
            // Make the rename itself durable; a platform that cannot
            // open a directory for syncing still has an intact file.
            Ok(()) => {
                if let Some(dir) = path.parent() {
                    let _ = File::open(dir).and_then(|d| d.sync_all());
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
        saved
    }

    /// Writes the cache back to the path it was opened from, if any.
    /// In-memory caches ([`KCache::new`]) are a no-op.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from the write.
    pub fn save(&self) -> io::Result<()> {
        match &self.path {
            Some(path) => self.save_to(path),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kcache_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn key_embeds_every_determinant() {
        let base = key(0xA, "base", kreg::opname::ADD_N, 8, 1);
        assert_ne!(
            base,
            key(0xB, "base", kreg::opname::ADD_N, 8, 1),
            "config fp"
        );
        assert_ne!(
            base,
            key(0xA, "accel-a16m4", kreg::opname::ADD_N, 8, 1),
            "variant"
        );
        assert_ne!(base, key(0xA, "base", kreg::opname::SUB_N, 8, 1), "op");
        assert_ne!(base, key(0xA, "base", kreg::opname::ADD_N, 9, 1), "size");
        assert_ne!(base, key(0xA, "base", kreg::opname::ADD_N, 8, 2), "seed");
    }

    #[test]
    fn fallible_lookup_caches_only_ok_and_recomputes_wrong_arity() {
        let cache = KCache::new();
        let k = key(0x5, "base", kreg::opname::ADD_N, 4, 1);
        assert_eq!(
            cache.try_get_or_compute(&k, 1, || Err("diverged")),
            Err("diverged")
        );
        assert!(cache.is_empty(), "an error is not cached");

        cache.insert(&k, vec![1.0, 2.0]);
        let v = cache.try_get_or_compute(&k, 1, || Ok::<_, ()>(vec![3.0]));
        assert_eq!(v, Ok(vec![3.0]), "a wrong-arity entry is recomputed");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));

        let v = cache.try_get_or_compute(&k, 1, || Err(()));
        assert_eq!(v, Ok(vec![3.0]), "the recomputed entry is served");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn save_replaces_the_file_without_leaving_a_temporary() {
        let dir = tmpfile("atomic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kcache.json");
        std::fs::write(&path, "stale, not even json").unwrap();

        let cache = KCache::new();
        let k = key(0x77, "base", kreg::opname::MUL_1, 4, 9);
        cache.insert(&k, vec![31.0, 33.5]);
        cache.save_to(&path).unwrap();
        cache.save_to(&path).unwrap();

        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["kcache.json"], "only the cache file remains");
        let reopened = KCache::open(&path);
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(&k), Some(vec![31.0, 33.5]));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_start_warm_hit_round_trip() {
        let path = tmpfile("roundtrip");
        let _ = std::fs::remove_file(&path);

        // Cold: miss, compute, persist.
        let cache = KCache::open(&path);
        let k = key(0x1234, "base", kreg::opname::ADD_N, 8, 42);
        let mut computed = 0;
        let v = cache.get_or_compute(&k, 2, || {
            computed += 1;
            vec![202.0, 205.5]
        });
        assert_eq!(v, vec![202.0, 205.5]);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.save().unwrap();

        // Warm: a fresh open serves the persisted entry.
        let warm = KCache::open(&path);
        assert_eq!(warm.len(), 1);
        let v2 = warm.get_or_compute(&k, 2, || panic!("must not recompute"));
        assert_eq!(v2, v);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(warm.hit_rate(), 1.0);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_fingerprint_misses() {
        let cache = KCache::new();
        let old = key(0xAAAA, "base", kreg::opname::ADD_N, 8, 42);
        cache.get_or_compute(&old, 1, || vec![100.0]);
        // Same measurement on a reconfigured core: different key, so the
        // stale entry cannot be served.
        let new = key(0xBBBB, "base", kreg::opname::ADD_N, 8, 42);
        let v = cache.get_or_compute(&new, 1, || vec![140.0]);
        assert_eq!(v, vec![140.0]);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn core_model_is_part_of_the_key_identity() {
        // Regression for the KCache identity hole: two configurations
        // identical in every respect except the pipeline model must
        // produce different keys for the same measurement, because the
        // full CpuConfig (core kind + widths included) is hashed into
        // the fingerprint the key embeds.
        use xr32::config::CpuConfig;
        let io = CpuConfig::default();
        let ooo = CpuConfig::ooo();
        let k_io = key(io.fingerprint(), "base", kreg::opname::ADD_N, 8, 42);
        let k_ooo = key(ooo.fingerprint(), "base", kreg::opname::ADD_N, 8, 42);
        assert_ne!(k_io, k_ooo, "core models must never collide on a key");

        // And a slow in-order measurement cached under its key is never
        // served to the out-of-order core's lookup.
        let cache = KCache::new();
        cache.get_or_compute(&k_io, 1, || vec![900.0]);
        let v = cache.get_or_compute(&k_ooo, 1, || vec![450.0]);
        assert_eq!(v, vec![450.0], "ooo lookup must measure, not reuse io");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cross_core_poisoned_collision_is_dropped() {
        // Belt-and-braces for the identity fix: even if a cache file
        // was written by a pre-fix build where an in-order entry sat
        // under a key now owned by an out-of-order measurement, its
        // values-vs-checksum integrity still gates the load, so a
        // tampered/colliding entry is dropped and recomputed rather
        // than served across core models.
        use xr32::config::CpuConfig;
        let path = tmpfile("core_collision");
        let k_ooo = key(
            CpuConfig::ooo().fingerprint(),
            "base",
            kreg::opname::ADD_N,
            8,
            42,
        );
        // The stored cycles are the in-order core's (900.0) but the
        // checksum describes the value an honest writer recorded
        // (450.0): exactly what a collision overwrite looks like.
        let stale_check = format!("{:016x}", checksum(&k_ooo, &[450.0]));
        let doc = format!(
            r#"{{"schema_version":1,"entries":[{{"key":"{k_ooo}","values":[900.0],"check":"{stale_check}"}}]}}"#
        );
        std::fs::write(&path, doc).unwrap();

        let cache = KCache::open(&path);
        assert_eq!(cache.poisoned_dropped(), 1);
        let v = cache.get_or_compute(&k_ooo, 1, || vec![450.0]);
        assert_eq!(v, vec![450.0], "recomputed under the ooo key");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_entry_is_dropped_and_recomputed() {
        let path = tmpfile("poison");
        let k = key(0x1234, "base", kreg::opname::ADD_N, 8, 42);
        // A file whose stored cycles were tampered with: the checksum
        // still describes the original [202.0] value.
        let good_check = format!("{:016x}", checksum(&k, &[202.0]));
        let doc = format!(
            r#"{{"schema_version":1,"entries":[{{"key":"{k}","values":[666.0],"check":"{good_check}"}}]}}"#
        );
        std::fs::write(&path, doc).unwrap();

        let cache = KCache::open(&path);
        assert_eq!(cache.poisoned_dropped(), 1, "tampered entry dropped");
        assert_eq!(cache.len(), 0);
        let v = cache.get_or_compute(&k, 1, || vec![202.0]);
        assert_eq!(v, vec![202.0], "recomputed, not served poisoned");
        assert_eq!(cache.misses(), 1);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_shard_does_not_take_down_its_neighbours() {
        // Shard-aware regression: a file holding valid entries spread
        // across many shards plus one tampered entry must drop exactly
        // the tampered entry — the poisoning is confined to that entry
        // and the healthy entries in every shard (including the
        // poisoned entry's own) still load and serve.
        let path = tmpfile("poisoned_shard");
        let mut entries = Vec::new();
        let mut keys = Vec::new();
        for seed in 0..64u64 {
            let k = key(0x5EED, "base", kreg::opname::ADD_N, 8, seed);
            let v = vec![100.0 + seed as f64];
            let check = format!("{:016x}", checksum(&k, &v));
            entries.push(format!(
                r#"{{"key":"{k}","values":[{}],"check":"{check}"}}"#,
                v[0]
            ));
            keys.push((k, v));
        }
        // Tamper with one entry's values, keeping its original check.
        let bad = key(0x5EED, "base", kreg::opname::ADD_N, 8, 7);
        let bad_check = format!("{:016x}", checksum(&bad, &[107.0]));
        let bad_idx = 7;
        entries[bad_idx] = format!(r#"{{"key":"{bad}","values":[666.0],"check":"{bad_check}"}}"#);
        let doc = format!(
            r#"{{"schema_version":1,"entries":[{}]}}"#,
            entries.join(",")
        );
        std::fs::write(&path, doc).unwrap();

        let cache = KCache::open(&path);
        assert_eq!(cache.poisoned_dropped(), 1);
        assert_eq!(cache.len(), 63, "only the tampered entry is dropped");
        // The 64 sequential seeds exercise multiple shards; every
        // healthy entry — shard-mates of the poisoned one included —
        // must still be served.
        let occupied: std::collections::BTreeSet<usize> =
            keys.iter().map(|(k, _)| shard_of(k)).collect();
        assert!(occupied.len() > 1, "test must span multiple shards");
        for (i, (k, v)) in keys.iter().enumerate() {
            if i == bad_idx {
                assert_eq!(cache.get(k), None, "poisoned entry must miss");
            } else {
                assert_eq!(cache.get(k).as_ref(), Some(v));
            }
        }

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_does_not_block_concurrent_readers() {
        // The shard-aware persist guarantee: while one thread
        // repeatedly serializes the cache, reader threads on all shards
        // keep being served. With a whole-cache mutex this test would
        // still pass functionally but the shard assertion below pins
        // the structural property: to_json holds at most one shard's
        // read lock at a time, so a reader's own read lock can always
        // be acquired concurrently.
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering as AO};
        let cache = KCache::new();
        let keys: Vec<String> = (0..256u64)
            .map(|s| key(0xC0FFEE, "base", kreg::opname::MUL_1, 16, s))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            cache.insert(k, vec![i as f64]);
        }
        let stop = AtomicBool::new(false);
        let docs = AtomicU32::new(0);
        std::thread::scope(|scope| {
            let persister = scope.spawn(|| {
                while !stop.load(AO::Relaxed) {
                    let json = cache.to_json();
                    assert!(json.get("entries").and_then(Json::as_arr).is_some());
                    docs.fetch_add(1, AO::Relaxed);
                }
            });
            let mut reader_hits = 0u64;
            // Read for 50 rounds and then until the persister has
            // finished a document (bounded), so both sides provably
            // made progress at the same time however the two threads
            // are scheduled.
            let mut round = 0u64;
            while round < 50 || (docs.load(AO::Relaxed) == 0 && round < 100_000) {
                for (i, k) in keys.iter().enumerate() {
                    let got = cache.get(k).expect("entry present");
                    assert_eq!(got[0], i as f64);
                    reader_hits += 1;
                }
                if round == 25 {
                    // Writers interleave with the persister too.
                    cache.insert(
                        &key(0xC0FFEE, "base", kreg::opname::MUL_1, 16, 999),
                        vec![1.0],
                    );
                }
                round += 1;
            }
            stop.store(true, AO::Relaxed);
            persister.join().unwrap();
            assert!(docs.load(AO::Relaxed) >= 1, "persister made progress");
            assert_eq!(reader_hits, round * 256);
        });
    }

    #[test]
    fn valid_persisted_entry_survives_checksum() {
        let path = tmpfile("valid");
        let cache = KCache::open(&path);
        let k = key(0x77, "accel-a16m4", kreg::opname::ADDMUL_1, 32, 8);
        cache.get_or_compute(&k, 0, || vec![100.25, 7.0, -1.5]);
        cache.save().unwrap();
        let warm = KCache::open(&path);
        assert_eq!(warm.poisoned_dropped(), 0);
        assert_eq!(
            warm.get_or_compute(&k, 0, || panic!("persisted entry must round-trip")),
            vec![100.25, 7.0, -1.5]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_entries_stay_globally_sorted() {
        let cache = KCache::new();
        for seed in [9u64, 3, 7, 1, 5] {
            cache.insert(&key(0x1, "base", kreg::opname::ADD_N, 8, seed), vec![1.0]);
        }
        let keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "persisted order is key-sorted across shards");
    }

    #[test]
    fn garbage_file_starts_empty() {
        let path = tmpfile("garbage");
        std::fs::write(&path, "not json at all{{{").unwrap();
        let cache = KCache::open(&path);
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
