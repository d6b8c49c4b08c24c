//! The persistent tuning database.
//!
//! A process-wide map from [`TuneKey`] to the measured winner
//! ([`TunedEntry`]), plus a monotonically increasing *generation* counter.
//! Planners fold the generation into their config fingerprints, so
//! recording a new winner changes every subsequent plan-cache key and
//! stale cached plans die by eviction — no explicit invalidation walk.
//!
//! Persistence rules:
//!
//! * Location: `$IATF_TUNE_DB` if set (set it to the empty string to
//!   disable persistence entirely), else `$HOME/.cache/iatf/tune.json`,
//!   else in-memory only.
//! * A record appends one JSON line to a `<db>.log` sibling; the snapshot
//!   itself is rewritten atomically (temp file + `rename(2)`) only when
//!   the log is compacted (the `store` module). After every mutation
//!   except [`TuningDb::clear`] the snapshot plus its log equal the
//!   in-memory map, and a crash loses at most the line being written.
//! * The format is versioned ([`SCHEMA_VERSION`]). A missing file starts
//!   empty; an unreadable, unparseable, wrong-schema, or otherwise
//!   corrupt file *also* starts empty — the heuristics keep working, an
//!   obs counter ([`iatf_obs::TuneEvent::DbCorrupt`]) records the event,
//!   and nothing panics. Individually malformed entries inside a valid
//!   document are skipped, not fatal; so are torn or invalid log lines,
//!   each counted as one `DbCorrupt`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

use iatf_obs::{count_tune, Json, TuneEvent};

use crate::key::TuneKey;
use crate::store::{self, Load, LogStore};

/// On-disk format version; bump on any incompatible layout change. Files
/// carrying a different version are treated as absent (heuristics apply).
pub const SCHEMA_VERSION: u64 = 1;

/// The measured winner recorded for one input fingerprint.
///
/// Fields mirror the run-time stage's decision points; the measured
/// GFLOPS of the winner and of the heuristic baseline ride along so
/// exports (BENCH_4) and staleness audits can see *why* an entry exists.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TunedEntry {
    /// Pack Selecter override: 0 = Auto, 1 = Always (2, the retired
    /// `Never`, reads back as Auto).
    pub pack: u8,
    /// Batch Counter override: packs per super-block; 0 keeps the
    /// heuristic L1-model output.
    pub group_packs: u64,
    /// Effective L1 budget fraction the winner was measured with
    /// (informational — `group_packs` already captures its effect).
    pub l1_fraction: f64,
    /// Whether parallel execution beat serial at this input (the
    /// serial→parallel crossover decision for auto dispatch).
    pub parallel: bool,
    /// Winner's measured GFLOPS during the sweep.
    pub tuned_gflops: f64,
    /// Heuristic baseline's measured GFLOPS during the same sweep.
    pub heuristic_gflops: f64,
    /// Relative measurement noise observed across sweep rounds.
    pub noise: f64,
    /// Where/when the entry was measured (see [`Provenance`]).
    pub provenance: Provenance,
}

/// Where, when, and from which measurement an entry came.
///
/// Zero values mean "unknown": entries written before provenance existed
/// decode with `Provenance::default()`, and a build without the journal
/// feature records `journal_event: 0`. The fields make a pooled or
/// copied tuning db auditable — every entry says which host fingerprint
/// measured it and which journal event holds the full sweep record.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Journal id of the `sweep_winner` event that produced this entry.
    pub journal_event: u64,
    /// Measurement-host fingerprint (`iatf_journal::host_fingerprint` of
    /// the dispatched µarch row and vector width).
    pub host: u64,
    /// Unix seconds when the winner was recorded.
    pub recorded_at: u64,
}

impl TunedEntry {
    fn valid(&self) -> bool {
        self.pack <= 2
            && self.l1_fraction.is_finite()
            && self.l1_fraction > 0.0
            && self.l1_fraction <= 4.0
            && self.tuned_gflops.is_finite()
            && self.tuned_gflops >= 0.0
            && self.heuristic_gflops.is_finite()
            && self.heuristic_gflops >= 0.0
            && self.noise.is_finite()
            && self.noise >= 0.0
    }
}

/// Result of loading a db file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// File read and accepted; this many entries survived validation.
    Loaded(usize),
    /// No file at the path; db starts empty.
    Missing,
    /// File present but unreadable/unparseable/wrong schema; db starts
    /// empty and the `DbCorrupt` obs counter was incremented.
    Corrupt,
}

struct Inner {
    entries: HashMap<TuneKey, TunedEntry>,
    store: LogStore,
}

/// Process-wide tuning database.
pub struct TuningDb {
    inner: Mutex<Inner>,
    generation: AtomicU64,
}

impl TuningDb {
    /// Fresh empty db with persistence disabled (tests, embedders).
    pub fn in_memory() -> Self {
        TuningDb {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                store: LogStore::default(),
            }),
            generation: AtomicU64::new(1),
        }
    }

    /// The process-wide instance. First use resolves the persistence path
    /// (`$IATF_TUNE_DB`, else `$HOME/.cache/iatf/tune.json`) and loads
    /// whatever is there; corruption degrades to an empty db.
    pub fn global() -> &'static TuningDb {
        static GLOBAL: OnceLock<TuningDb> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let db = TuningDb::in_memory();
            if let Some(path) = default_path() {
                db.load_from(&path);
                db.set_path(Some(path));
            }
            db
        })
    }

    /// Looks up the recorded winner for a fingerprint.
    pub fn lookup(&self, key: &TuneKey) -> Option<TunedEntry> {
        self.inner.lock().unwrap().entries.get(key).copied()
    }

    /// Records a winner, bumps the generation (invalidating cached plans
    /// built against tuned state), and persists eagerly — one appended log
    /// line — if a path is configured. Persistence failures are
    /// deliberately silent — the in-process db stays authoritative.
    pub fn record(&self, key: TuneKey, entry: TunedEntry) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.entries.insert(key, entry);
        // ordering: Relaxed — generation is a pure invalidation counter mixed into plan fingerprints; the entries it guards are published by the mutex, not by this atomic.
        let generation = self.generation.fetch_add(1, Relaxed) + 1;
        let persisted = inner.store.append(
            || encode_entry(&key, &entry),
            inner.entries.len(),
            || render(&inner.entries, generation),
        );
        drop(guard);
        if matches!(persisted, Ok(true)) {
            count_tune(TuneEvent::Persist);
        }
        if iatf_journal::is_enabled() {
            // The record points back at the sweep winner that produced it
            // (or the ambient cause when provenance is unknown).
            iatf_journal::publish(
                iatf_journal::EventKind::DbRecord,
                &key.encode(),
                entry.provenance.journal_event,
                Json::object()
                    .set("generation", self.generation())
                    .set("tuned_gflops", entry.tuned_gflops)
                    .set("noise", entry.noise)
                    .set("host", format!("{:016x}", entry.provenance.host).as_str()),
            );
        }
    }

    /// Evicts the entry for `key` (drift remediation: the next
    /// first-touch dispatch re-sweeps and re-records). Bumps the
    /// generation and persists when an entry was actually removed, so
    /// plans cached against the stale winner are invalidated exactly like
    /// they are when a new winner is recorded. Returns whether an entry
    /// existed.
    pub fn remove(&self, key: &TuneKey) -> bool {
        let mut guard = self.inner.lock().unwrap();
        if guard.entries.remove(key).is_none() {
            return false;
        }
        // ordering: Relaxed — invalidation counter bump; entry state is mutex-guarded.
        let generation = self.generation.fetch_add(1, Relaxed) + 1;
        let inner = &mut *guard;
        let persisted = inner.store.compact(|| render(&inner.entries, generation));
        drop(guard);
        if matches!(persisted, Ok(true)) {
            count_tune(TuneEvent::Persist);
        }
        if iatf_journal::is_enabled() {
            // Cause is ambient: a drift-triggered eviction runs inside the
            // retune's cause scope and links back to the drift event.
            iatf_journal::publish(
                iatf_journal::EventKind::DbEvict,
                &key.encode(),
                0,
                Json::object().set("generation", self.generation()),
            );
        }
        true
    }

    /// Current generation. Monotonically increases on every mutation;
    /// planners mix it into plan-cache fingerprints.
    pub fn generation(&self) -> u64 {
        // ordering: Relaxed — advisory version read; any pairing with entries goes through the mutex.
        self.generation.load(Relaxed)
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (in-memory only; the on-disk file is untouched
    /// until the next record compacts it) and bumps the generation.
    /// Benchmarks use this for hermetic runs.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.clear();
        inner.store.invalidate();
        // ordering: Relaxed — invalidation counter bump; entry state is mutex-guarded.
        self.generation.fetch_add(1, Relaxed);
    }

    /// Points persistence somewhere else (or `None` to disable). Does not
    /// reload; combine with [`load_from`](Self::load_from) if needed. The
    /// next record writes the whole map there.
    pub fn set_path(&self, path: Option<PathBuf>) {
        self.inner.lock().unwrap().store.set_path(path);
    }

    /// Replaces the in-memory entries with the contents of `path` and the
    /// log lines appended after it. Corruption of the snapshot empties the
    /// db and counts one `DbCorrupt` event; each torn or invalid log line
    /// is skipped and counts one. This function never panics on file
    /// contents.
    pub fn load_from(&self, path: &Path) -> LoadOutcome {
        match store::load(path, SCHEMA_VERSION, "entries", decode_entry) {
            Load::Found {
                doc,
                entries,
                replayed,
                bad,
            } => {
                for _ in 0..bad {
                    count_tune(TuneEvent::DbCorrupt);
                }
                // every logged record bumped the generation once
                let generation = doc.get("generation").and_then(Json::as_u64).unwrap_or(1);
                let n = entries.len();
                self.replace(entries, Some(generation.max(1) + replayed));
                LoadOutcome::Loaded(n)
            }
            Load::Missing => {
                self.replace(HashMap::new(), None);
                LoadOutcome::Missing
            }
            Load::Corrupt => {
                self.replace(HashMap::new(), None);
                count_tune(TuneEvent::DbCorrupt);
                LoadOutcome::Corrupt
            }
        }
    }

    /// All recorded entries, sorted by encoded key (export / reporting).
    pub fn entries(&self) -> Vec<(TuneKey, TunedEntry)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<_> = inner.entries.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_cached_key(|(k, _)| k.encode());
        out
    }

    /// Installs a wholesale-replaced map (and, if given, its generation);
    /// the next record compacts it to disk.
    fn replace(&self, entries: HashMap<TuneKey, TunedEntry>, generation: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries = entries;
        inner.store.invalidate();
        if let Some(generation) = generation {
            // ordering: Relaxed — generation is a version stamp; the entries map itself is published by the mutex held here.
            self.generation.store(generation, Relaxed);
        }
    }
}

fn default_path() -> Option<PathBuf> {
    iatf_obs::env::env_path("IATF_TUNE_DB", &[".cache", "iatf", "tune.json"])
}

fn decode_entry(item: &Json) -> Option<(TuneKey, TunedEntry)> {
    let key = TuneKey::decode(item.get("key")?.as_str()?)?;
    // Provenance is additive and optional: pre-provenance entries decode
    // with every field defaulted to "unknown" rather than being skipped.
    // The host fingerprint travels as a hex string because full-range u64
    // values do not survive f64-based JSON number paths.
    let provenance = Provenance {
        journal_event: item.get("journal_event").and_then(Json::as_u64).unwrap_or(0),
        host: item
            .get("host")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0),
        recorded_at: item.get("recorded_at").and_then(Json::as_u64).unwrap_or(0),
    };
    let entry = TunedEntry {
        pack: u8::try_from(item.get("pack")?.as_u64()?).ok()?,
        group_packs: item.get("group_packs")?.as_u64()?,
        l1_fraction: item.get("l1_fraction")?.as_f64()?,
        parallel: item.get("parallel")?.as_bool()?,
        tuned_gflops: item.get("tuned_gflops")?.as_f64()?,
        heuristic_gflops: item.get("heuristic_gflops")?.as_f64()?,
        noise: item.get("noise")?.as_f64()?,
        provenance,
    };
    entry.valid().then_some((key, entry))
}

/// One entry's JSON object: an element of the snapshot's `entries` array
/// and, stamped with its epoch, one log line.
fn encode_entry(k: &TuneKey, e: &TunedEntry) -> Json {
    Json::object()
        .set("key", k.encode().as_str())
        .set("pack", u64::from(e.pack))
        .set("group_packs", e.group_packs)
        .set("l1_fraction", e.l1_fraction)
        .set("parallel", e.parallel)
        .set("tuned_gflops", e.tuned_gflops)
        .set("heuristic_gflops", e.heuristic_gflops)
        .set("noise", e.noise)
        .set("journal_event", e.provenance.journal_event)
        .set("host", format!("{:016x}", e.provenance.host).as_str())
        .set("recorded_at", e.provenance.recorded_at)
}

fn render(entries: &HashMap<TuneKey, TunedEntry>, generation: u64) -> Json {
    let mut sorted: Vec<_> = entries.iter().collect();
    sorted.sort_by_cached_key(|(k, _)| k.encode());
    let items: Vec<Json> = sorted.into_iter().map(|(k, e)| encode_entry(k, e)).collect();
    Json::object()
        .set("schema", SCHEMA_VERSION)
        .set("generation", generation)
        .set("entries", items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TuneOp;
    use std::sync::atomic::AtomicU32;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tune-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "iatf-tune-{tag}-{}-{}.json",
            std::process::id(),
            SEQ.fetch_add(1, Relaxed)
        ))
    }

    fn sample_key(n: u32) -> TuneKey {
        TuneKey {
            op: TuneOp::Gemm,
            dtype: 0,
            m: n,
            n,
            k: n,
            mode: 0,
            conj: 0,
            count: 1024,
            width: 1,
        }
    }

    fn sample_entry() -> TunedEntry {
        TunedEntry {
            pack: 2,
            group_packs: 8,
            l1_fraction: 0.75,
            parallel: false,
            tuned_gflops: 3.5,
            heuristic_gflops: 3.1,
            noise: 0.02,
            // Non-default values so the persistence round-trip tests
            // prove provenance survives the disk format (the host value
            // exercises the full-u64 hex path).
            provenance: Provenance {
                journal_event: 123_456_789,
                host: 0xdead_beef_cafe_f00d,
                recorded_at: 1_754_000_000,
            },
        }
    }

    #[test]
    fn record_lookup_and_generation() {
        let db = TuningDb::in_memory();
        let g0 = db.generation();
        assert!(db.lookup(&sample_key(8)).is_none());
        db.record(sample_key(8), sample_entry());
        assert_eq!(db.lookup(&sample_key(8)), Some(sample_entry()));
        assert!(db.generation() > g0);
        assert_eq!(db.len(), 1);
        let g1 = db.generation();
        db.clear();
        assert!(db.is_empty());
        assert!(db.generation() > g1);
    }

    /// Removes a db file and its log.
    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(store::log_path(path)).ok();
    }

    fn log_lines(path: &Path) -> usize {
        std::fs::read_to_string(store::log_path(path)).map_or(0, |t| t.lines().count())
    }

    /// Entries of the snapshot alone: what a reader that knows no log
    /// (the parent format) sees.
    fn snapshot_entries(path: &Path) -> usize {
        let doc = iatf_obs::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get("entries").and_then(Json::as_array).unwrap().len()
    }

    #[test]
    fn remove_evicts_bumps_generation_and_persists() {
        let path = temp_path("remove");
        let db = TuningDb::in_memory();
        db.set_path(Some(path.clone()));
        db.record(sample_key(4), sample_entry());
        db.record(sample_key(5), sample_entry());
        assert_eq!(log_lines(&path), 1, "the second record is one log line");
        let g1 = db.generation();
        assert!(db.remove(&sample_key(4)));
        assert!(db.generation() > g1, "remove must invalidate cached plans");
        assert!(db.lookup(&sample_key(4)).is_none());
        // The eviction compacted: the snapshot alone holds the survivor.
        assert_eq!((snapshot_entries(&path), log_lines(&path)), (1, 0));
        // Removing a missing key is a no-op: no generation churn.
        let g2 = db.generation();
        assert!(!db.remove(&sample_key(4)));
        assert_eq!(db.generation(), g2);
        // The eviction reached disk.
        let fresh = TuningDb::in_memory();
        assert_eq!(fresh.load_from(&path), LoadOutcome::Loaded(1));
        assert!(fresh.lookup(&sample_key(4)).is_none());
        assert!(fresh.lookup(&sample_key(5)).is_some());
        assert_eq!(fresh.generation(), db.generation());
        cleanup(&path);
    }

    #[test]
    fn persists_and_reloads_atomically() {
        let path = temp_path("roundtrip");
        let db = TuningDb::in_memory();
        db.set_path(Some(path.clone()));
        db.record(sample_key(4), sample_entry());
        db.record(sample_key(5), TunedEntry { pack: 0, ..sample_entry() });

        // No temp-file droppings next to the target.
        let dir = path.parent().unwrap();
        let strays = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("iatf-tune-roundtrip"))
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(strays, 0);
        // The first record after set_path wrote the snapshot, the second
        // only appended: a log-less reader sees the first alone.
        assert_eq!((snapshot_entries(&path), log_lines(&path)), (1, 1));

        let fresh = TuningDb::in_memory();
        assert_eq!(fresh.load_from(&path), LoadOutcome::Loaded(2));
        assert_eq!(fresh.lookup(&sample_key(4)), Some(sample_entry()));
        assert_eq!(fresh.lookup(&sample_key(5)).map(|e| e.pack), Some(0));
        assert_eq!(fresh.generation(), db.generation());
        cleanup(&path);
    }

    #[test]
    fn torn_and_garbage_log_lines_are_skipped_and_counted() {
        let path = temp_path("torn");
        let db = TuningDb::in_memory();
        db.set_path(Some(path.clone()));
        for n in 1..=4 {
            db.record(sample_key(n), sample_entry());
        }
        // a garbage line in the middle, a line torn mid-write at the end
        let log = store::log_path(&path);
        let text = std::fs::read_to_string(&log).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let torn = &lines[2][..lines[2].len() / 2];
        let invalid = lines[2].replacen("\"key\":\"", "\"key\":\"x", 1);
        lines[2] = &invalid;
        let doctored = format!("{}\n{}\n{}", lines.join("\n"), "%%garbage%%", torn);
        std::fs::write(&log, doctored).unwrap();

        let before = iatf_obs::tune_count(iatf_obs::TuneEvent::DbCorrupt);
        let fresh = TuningDb::in_memory();
        // snapshot (key 1) + two intact lines (keys 2, 3)
        assert_eq!(fresh.load_from(&path), LoadOutcome::Loaded(3));
        assert!(fresh.lookup(&sample_key(4)).is_none());
        if iatf_obs::is_enabled() {
            let skipped = iatf_obs::tune_count(iatf_obs::TuneEvent::DbCorrupt) - before;
            assert_eq!(skipped, 3, "invalid entry, garbage and torn line");
        }
        cleanup(&path);
    }

    #[test]
    fn superseded_log_lines_are_not_replayed() {
        // A crash between a compaction's rename and its truncate leaves
        // the previous epoch's lines beside the new snapshot.
        let path = temp_path("superseded");
        let db = TuningDb::in_memory();
        db.set_path(Some(path.clone()));
        db.record(sample_key(1), sample_entry());
        db.record(sample_key(2), sample_entry());
        let old_log = std::fs::read(store::log_path(&path)).unwrap();
        assert!(db.remove(&sample_key(2)));
        std::fs::write(store::log_path(&path), old_log).unwrap();
        let fresh = TuningDb::in_memory();
        assert_eq!(fresh.load_from(&path), LoadOutcome::Loaded(1));
        assert!(fresh.lookup(&sample_key(2)).is_none(), "eviction resurrected");
        cleanup(&path);
    }

    /// Random sequences of record / remove / clear / set_path: after every
    /// mutation that persists, a fresh load reproduces the in-memory
    /// entries and generation exactly, and the log never holds more than
    /// max(64, entries) lines.
    #[test]
    fn random_mutation_sequences_reload_exactly() {
        let paths = [temp_path("prop-a"), temp_path("prop-b")];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _ in 0..48 {
            let db = TuningDb::in_memory();
            let mut at = next(2) as usize;
            db.set_path(Some(paths[at].clone()));
            // on disk is what memory holds (false after clear / set_path)
            let mut synced = false;
            for _ in 0..120 {
                match next(20) {
                    0 => {
                        db.clear();
                        synced = false;
                    }
                    1 => {
                        at = next(2) as usize;
                        db.set_path(Some(paths[at].clone()));
                        synced = false;
                    }
                    2..=5 => synced |= db.remove(&sample_key(next(96) as u32)),
                    _ => {
                        let entry = TunedEntry {
                            group_packs: next(64),
                            tuned_gflops: next(1000) as f64 / 8.0,
                            ..sample_entry()
                        };
                        db.record(sample_key(next(96) as u32), entry);
                        synced = true;
                    }
                }
                assert!(log_lines(&paths[at]) <= db.len().max(store::COMPACT_LINES));
                if synced {
                    let fresh = TuningDb::in_memory();
                    assert_eq!(fresh.load_from(&paths[at]), LoadOutcome::Loaded(db.len()));
                    assert_eq!(fresh.entries(), db.entries());
                    assert_eq!(fresh.generation(), db.generation());
                }
            }
        }
        paths.iter().for_each(|p| cleanup(p));
    }

    #[test]
    fn a_log_beside_an_epochless_snapshot_is_not_its_own() {
        // The parent format has no epoch and keeps no log: a stray log
        // beside such a snapshot must not be replayed onto it.
        let path = temp_path("epochless");
        std::fs::write(
            &path,
            r#"{"schema": 1, "generation": 3, "entries": []}"#,
        )
        .unwrap();
        std::fs::write(
            store::log_path(&path),
            "{\"key\": \"0:0:4:4:4:0:0:1024:1\", \"pack\": 2, \"group_packs\": 8, \"l1_fraction\": 0.75, \"parallel\": false, \"tuned_gflops\": 3.5, \"heuristic_gflops\": 3.1, \"noise\": 0.02, \"epoch\": 0}\n",
        )
        .unwrap();
        let db = TuningDb::in_memory();
        assert_eq!(db.load_from(&path), LoadOutcome::Loaded(0));
        assert_eq!(db.generation(), 3);
        cleanup(&path);
    }

    #[test]
    fn missing_file_starts_empty() {
        let db = TuningDb::in_memory();
        db.record(sample_key(9), sample_entry());
        assert_eq!(db.load_from(&temp_path("missing")), LoadOutcome::Missing);
        assert!(db.is_empty());
    }

    #[test]
    fn garbage_file_degrades_to_empty_with_counter() {
        for garbage in [
            "not json at all",
            "{\"schema\": 1, \"generation\": ",        // truncated
            "{\"schema\": 999, \"entries\": []}",      // wrong schema
            "{\"generation\": 3, \"entries\": []}",    // schema missing
            "{\"schema\": 1, \"entries\": 42}",        // entries not an array
            "[1, 2, 3]",                               // wrong top-level shape
        ] {
            let path = temp_path("garbage");
            std::fs::write(&path, garbage).unwrap();
            let db = TuningDb::in_memory();
            db.record(sample_key(7), sample_entry());
            let before = iatf_obs::tune_count(iatf_obs::TuneEvent::DbCorrupt);
            assert_eq!(db.load_from(&path), LoadOutcome::Corrupt, "accepted {garbage:?}");
            assert!(db.is_empty(), "entries survived {garbage:?}");
            if iatf_obs::is_enabled() {
                assert!(iatf_obs::tune_count(iatf_obs::TuneEvent::DbCorrupt) > before);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let path = temp_path("partial");
        std::fs::write(
            &path,
            r#"{"schema": 1, "generation": 6, "entries": [
                {"key": "0:0:4:4:4:0:0:1024:1", "pack": 2, "group_packs": 8,
                 "l1_fraction": 0.75, "parallel": false,
                 "tuned_gflops": 3.5, "heuristic_gflops": 3.1, "noise": 0.02},
                {"key": "bogus", "pack": 0},
                {"key": "0:0:5:5:5:0:0:1024:1", "pack": 77, "group_packs": 1,
                 "l1_fraction": 0.5, "parallel": false,
                 "tuned_gflops": 1.0, "heuristic_gflops": 1.0, "noise": 0.0}
            ]}"#,
        )
        .unwrap();
        let db = TuningDb::in_memory();
        assert_eq!(db.load_from(&path), LoadOutcome::Loaded(1));
        assert_eq!(db.generation(), 6);
        assert_eq!(
            db.lookup(&sample_key(4)),
            Some(TunedEntry {
                provenance: Provenance::default(),
                ..sample_entry()
            })
        );
        std::fs::remove_file(&path).ok();
    }

    /// A db written before provenance existed (no journal_event / host /
    /// recorded_at fields) must decode with provenance defaulted, not be
    /// skipped — pooled dbs keep their history across the upgrade.
    #[test]
    fn pre_provenance_entries_decode_with_defaults() {
        let path = temp_path("preprov");
        std::fs::write(
            &path,
            r#"{"schema": 1, "generation": 9, "entries": [
                {"key": "0:0:4:4:4:0:0:1024:1", "pack": 2, "group_packs": 8,
                 "l1_fraction": 0.75, "parallel": false,
                 "tuned_gflops": 3.5, "heuristic_gflops": 3.1, "noise": 0.02},
                {"key": "0:0:5:5:5:0:0:1024:1", "pack": 1, "group_packs": 4,
                 "l1_fraction": 0.5, "parallel": true,
                 "tuned_gflops": 2.0, "heuristic_gflops": 1.5, "noise": 0.01,
                 "host": "not-hex", "journal_event": 17}
            ]}"#,
        )
        .unwrap();
        let db = TuningDb::in_memory();
        assert_eq!(db.load_from(&path), LoadOutcome::Loaded(2));
        let old = db.lookup(&sample_key(4)).unwrap();
        assert_eq!(old.provenance, Provenance::default());
        assert_eq!(old.tuned_gflops, 3.5);
        // Partially-present provenance: decodable fields land, garbage
        // (a non-hex host) defaults instead of poisoning the entry.
        let partial = db.lookup(&sample_key(5)).unwrap();
        assert_eq!(partial.provenance.journal_event, 17);
        assert_eq!(partial.provenance.host, 0);
        // And the compaction of the first record after set_path re-renders
        // the provenance fields for all three; a logged record carries them
        // too.
        db.set_path(Some(path.clone()));
        db.record(sample_key(6), sample_entry());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("journal_event").count(), 3);
        assert!(text.contains("deadbeefcafef00d"));
        db.record(sample_key(7), sample_entry());
        let line = std::fs::read_to_string(store::log_path(&path)).unwrap();
        assert!(line.contains("\"journal_event\":123456789"), "{line}");
        assert!(line.contains("deadbeefcafef00d"));
        cleanup(&path);
    }
}
