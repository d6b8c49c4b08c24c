//! Persistent performance envelopes: what "healthy" looks like per input.
//!
//! A [`PerfEnvelope`] records the expected warm-dispatch latency and
//! throughput for one [`TuneKey`], plus the relative noise band the
//! expectation was measured under. The watch layer (`iatf-watch`) compares
//! live dispatch latencies against these envelopes to detect drift; this
//! module only owns the storage, mirroring the [`TuningDb`] persistence
//! rules so the two files live side by side and fail the same way:
//!
//! * Location: `$IATF_WATCH_ENVELOPES` if set (empty string disables
//!   persistence), else `$HOME/.cache/iatf/envelopes.json`, else
//!   in-memory only.
//! * A record appends one line to an `<envelopes>.log` sibling and the
//!   snapshot is rewritten atomically (temp file + rename) only when the
//!   log is compacted — the same store the tuning db uses. The format is
//!   versioned ([`ENVELOPE_SCHEMA_VERSION`]), and a corrupt file degrades
//!   to an empty db: detection falls back to self-calibrated envelopes,
//!   nothing panics. Individually malformed entries and log lines are
//!   skipped, not fatal.
//!
//! [`TuningDb`]: crate::TuningDb

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use iatf_obs::Json;

use crate::key::TuneKey;
use crate::store::{self, Load, LogStore};

/// On-disk envelope format version; files carrying a different version
/// are treated as absent.
pub const ENVELOPE_SCHEMA_VERSION: u64 = 1;

/// Where an envelope's expectation came from (reported in drift events so
/// an operator can judge how much to trust the threshold).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeSource {
    /// Seeded from a `TunedEntry`'s sweep measurement.
    Tuned,
    /// Seeded from the plan explainer's roofline prediction.
    Roofline,
    /// Self-calibrated from live warm dispatches.
    Observed,
}

impl EnvelopeSource {
    /// Stable on-disk / exposition name.
    pub fn name(self) -> &'static str {
        match self {
            EnvelopeSource::Tuned => "tuned",
            EnvelopeSource::Roofline => "roofline",
            EnvelopeSource::Observed => "observed",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "tuned" => Some(EnvelopeSource::Tuned),
            "roofline" => Some(EnvelopeSource::Roofline),
            "observed" => Some(EnvelopeSource::Observed),
            _ => None,
        }
    }
}

/// Expected warm-dispatch performance for one input fingerprint.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PerfEnvelope {
    /// Expected latency of one warm dispatch, nanoseconds.
    pub expected_ns: f64,
    /// Expected throughput at this input, GFLOPS.
    pub expected_gflops: f64,
    /// Relative noise band of the expectation (from sweep rounds or the
    /// calibration window); drift thresholds scale with this.
    pub noise: f64,
    /// Provenance of the expectation.
    pub source: EnvelopeSource,
}

impl PerfEnvelope {
    fn valid(&self) -> bool {
        self.expected_ns.is_finite()
            && self.expected_ns > 0.0
            && self.expected_gflops.is_finite()
            && self.expected_gflops >= 0.0
            && self.noise.is_finite()
            && (0.0..=1.0).contains(&self.noise)
    }
}

struct Inner {
    entries: HashMap<TuneKey, PerfEnvelope>,
    store: LogStore,
}

/// Process-wide envelope store, persisted alongside the tuning db.
pub struct EnvelopeDb {
    inner: Mutex<Inner>,
}

/// Result of loading an envelope file (same shape as the tuning db's
/// [`LoadOutcome`](crate::LoadOutcome), kept separate so callers can't
/// confuse the two).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeLoad {
    /// File read and accepted; this many entries survived validation.
    Loaded(usize),
    /// No file at the path; store starts empty.
    Missing,
    /// File present but unusable; store starts empty.
    Corrupt,
}

impl EnvelopeDb {
    /// Fresh empty store with persistence disabled.
    pub fn in_memory() -> Self {
        EnvelopeDb {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                store: LogStore::default(),
            }),
        }
    }

    /// The process-wide instance; first use resolves the persistence path
    /// and loads whatever is there.
    pub fn global() -> &'static EnvelopeDb {
        static GLOBAL: OnceLock<EnvelopeDb> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let db = EnvelopeDb::in_memory();
            if let Some(path) = default_path() {
                db.load_from(&path);
                db.set_path(Some(path));
            }
            db
        })
    }

    /// Looks up the envelope for a fingerprint.
    pub fn lookup(&self, key: &TuneKey) -> Option<PerfEnvelope> {
        self.inner.lock().unwrap().entries.get(key).copied()
    }

    /// Records (or replaces) an envelope and persists eagerly — one
    /// appended log line — if a path is configured. Invalid envelopes are
    /// dropped rather than stored.
    pub fn record(&self, key: TuneKey, envelope: PerfEnvelope) {
        if !envelope.valid() {
            return;
        }
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.entries.insert(key, envelope);
        let _ = inner.store.append(
            || encode_entry(&key, &envelope),
            inner.entries.len(),
            || render(&inner.entries),
        );
    }

    /// Number of recorded envelopes.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether no envelopes are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every envelope (in-memory only until the next record
    /// compacts the file).
    pub fn clear(&self) {
        self.replace(HashMap::new());
    }

    /// Points persistence somewhere else (or `None` to disable).
    pub fn set_path(&self, path: Option<PathBuf>) {
        self.inner.lock().unwrap().store.set_path(path);
    }

    /// All recorded envelopes, sorted by encoded key.
    pub fn entries(&self) -> Vec<(TuneKey, PerfEnvelope)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<_> = inner.entries.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_cached_key(|(k, _)| k.encode());
        out
    }

    /// Replaces the in-memory envelopes with the contents of `path` and
    /// the log lines appended after it; corruption of any kind empties the
    /// store (a bad log line only drops itself) and never panics.
    pub fn load_from(&self, path: &Path) -> EnvelopeLoad {
        let (entries, outcome) =
            match store::load(path, ENVELOPE_SCHEMA_VERSION, "envelopes", decode_entry) {
                Load::Found { entries, .. } => {
                    let n = entries.len();
                    (entries, EnvelopeLoad::Loaded(n))
                }
                Load::Missing => (HashMap::new(), EnvelopeLoad::Missing),
                Load::Corrupt => (HashMap::new(), EnvelopeLoad::Corrupt),
            };
        self.replace(entries);
        outcome
    }

    /// Installs a wholesale-replaced map; the next record compacts it.
    fn replace(&self, entries: HashMap<TuneKey, PerfEnvelope>) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries = entries;
        inner.store.invalidate();
    }
}

fn default_path() -> Option<PathBuf> {
    iatf_obs::env::env_path("IATF_WATCH_ENVELOPES", &[".cache", "iatf", "envelopes.json"])
}

fn decode_entry(item: &Json) -> Option<(TuneKey, PerfEnvelope)> {
    let key = TuneKey::decode(item.get("key")?.as_str()?)?;
    let env = PerfEnvelope {
        expected_ns: item.get("expected_ns")?.as_f64()?,
        expected_gflops: item.get("expected_gflops")?.as_f64()?,
        noise: item.get("noise")?.as_f64()?,
        source: EnvelopeSource::from_name(item.get("source")?.as_str()?)?,
    };
    env.valid().then_some((key, env))
}

fn encode_entry(k: &TuneKey, e: &PerfEnvelope) -> Json {
    Json::object()
        .set("key", k.encode().as_str())
        .set("expected_ns", e.expected_ns)
        .set("expected_gflops", e.expected_gflops)
        .set("noise", e.noise)
        .set("source", e.source.name())
}

fn render(entries: &HashMap<TuneKey, PerfEnvelope>) -> Json {
    let mut sorted: Vec<_> = entries.iter().collect();
    sorted.sort_by_cached_key(|(k, _)| k.encode());
    let items: Vec<Json> = sorted.into_iter().map(|(k, e)| encode_entry(k, e)).collect();
    Json::object()
        .set("schema", ENVELOPE_SCHEMA_VERSION)
        .set("envelopes", items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TuneOp;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tune-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "iatf-envelope-{tag}-{}-{}.json",
            std::process::id(),
            SEQ.fetch_add(1, Relaxed)
        ))
    }

    fn sample_key(n: u32) -> TuneKey {
        TuneKey {
            op: TuneOp::Gemm,
            dtype: 1,
            m: n,
            n,
            k: n,
            mode: 0,
            conj: 0,
            count: 512,
            width: 1,
        }
    }

    fn sample_env() -> PerfEnvelope {
        PerfEnvelope {
            expected_ns: 12_500.0,
            expected_gflops: 3.2,
            noise: 0.05,
            source: EnvelopeSource::Tuned,
        }
    }

    #[test]
    fn record_persist_reload_roundtrip() {
        let path = temp_path("roundtrip");
        let db = EnvelopeDb::in_memory();
        db.set_path(Some(path.clone()));
        db.record(sample_key(8), sample_env());
        db.record(
            sample_key(12),
            PerfEnvelope {
                source: EnvelopeSource::Observed,
                ..sample_env()
            },
        );
        let fresh = EnvelopeDb::in_memory();
        assert_eq!(fresh.load_from(&path), EnvelopeLoad::Loaded(2));
        assert_eq!(fresh.lookup(&sample_key(8)), Some(sample_env()));
        assert_eq!(
            fresh.lookup(&sample_key(12)).map(|e| e.source),
            Some(EnvelopeSource::Observed)
        );
        // the second record was one log line; a torn one after it drops
        // only itself
        let log = store::log_path(&path);
        assert_eq!(std::fs::read_to_string(&log).unwrap().lines().count(), 1);
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        std::io::Write::write_all(&mut f, b"{\"key\": \"0:1:9:9").unwrap();
        assert_eq!(fresh.load_from(&path), EnvelopeLoad::Loaded(2));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn invalid_envelopes_are_not_stored() {
        let db = EnvelopeDb::in_memory();
        for bad in [
            PerfEnvelope {
                expected_ns: 0.0,
                ..sample_env()
            },
            PerfEnvelope {
                expected_ns: f64::NAN,
                ..sample_env()
            },
            PerfEnvelope {
                noise: 1.5,
                ..sample_env()
            },
            PerfEnvelope {
                expected_gflops: f64::INFINITY,
                ..sample_env()
            },
        ] {
            db.record(sample_key(4), bad);
            assert!(db.is_empty(), "stored invalid envelope {bad:?}");
        }
    }

    #[test]
    fn corrupt_or_missing_files_degrade_to_empty() {
        let db = EnvelopeDb::in_memory();
        db.record(sample_key(6), sample_env());
        assert_eq!(db.load_from(&temp_path("missing")), EnvelopeLoad::Missing);
        assert!(db.is_empty());

        for garbage in [
            "not json",
            "{\"schema\": 999, \"envelopes\": []}",
            "{\"schema\": 1, \"envelopes\": 7}",
        ] {
            let path = temp_path("garbage");
            std::fs::write(&path, garbage).unwrap();
            let db = EnvelopeDb::in_memory();
            db.record(sample_key(6), sample_env());
            assert_eq!(db.load_from(&path), EnvelopeLoad::Corrupt, "accepted {garbage:?}");
            assert!(db.is_empty());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let path = temp_path("partial");
        std::fs::write(
            &path,
            r#"{"schema": 1, "envelopes": [
                {"key": "0:1:8:8:8:0:0:512:1", "expected_ns": 12500.0,
                 "expected_gflops": 3.2, "noise": 0.05, "source": "tuned"},
                {"key": "bogus", "expected_ns": 1.0},
                {"key": "0:1:9:9:9:0:0:512:1", "expected_ns": 1.0,
                 "expected_gflops": 1.0, "noise": 0.0, "source": "psychic"}
            ]}"#,
        )
        .unwrap();
        let db = EnvelopeDb::in_memory();
        assert_eq!(db.load_from(&path), EnvelopeLoad::Loaded(1));
        assert_eq!(db.lookup(&sample_key(8)), Some(sample_env()));
        std::fs::remove_file(&path).ok();
    }
}
