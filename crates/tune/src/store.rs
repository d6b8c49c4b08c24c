//! Persistence shared by the tuning db and the envelope store: a snapshot
//! written atomically, plus an append-only log beside it.
//!
//! * Recording one entry appends that entry's JSON object as one line to
//!   `<snapshot>.log` — one small write, whatever the map's size.
//! * *Compaction* writes the whole map as a snapshot (temp file +
//!   `rename(2)`, the format readers already know) and then truncates the
//!   log. It happens when an append would grow the log past
//!   `max(COMPACT_LINES, entries)` lines — so its cost is amortised O(1)
//!   per record — on every removal, and on the first write after the map
//!   was replaced wholesale (clear, a new path, a load), because the disk
//!   then no longer mirrors the map.
//! * Loading replays the log onto the snapshot. Every line carries the
//!   snapshot's `epoch` stamp; lines from an older epoch (a crash between
//!   the rename and the truncate) are ignored rather than resurrecting
//!   what the snapshot superseded. A torn or unparseable line is skipped
//!   and counted, and the rest loads: a crash loses at most the line
//!   being written.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use iatf_obs::{parse_json, Json};

use crate::key::TuneKey;

/// Log lines always allowed before an append compacts instead.
pub(crate) const COMPACT_LINES: usize = 64;

/// The log beside a snapshot: `<snapshot>.log`.
pub(crate) fn log_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".log");
    PathBuf::from(name)
}

/// Where one db persists, and what its log holds.
#[derive(Default)]
pub(crate) struct LogStore {
    path: Option<PathBuf>,
    log: Option<File>,
    lines: usize,
    epoch: u64,
    /// The disk no longer mirrors the map: the next write compacts.
    stale: bool,
}

impl LogStore {
    /// Points persistence at `path` (`None` disables it).
    pub(crate) fn set_path(&mut self, path: Option<PathBuf>) {
        *self = LogStore {
            path,
            epoch: self.epoch,
            stale: true,
            ..LogStore::default()
        };
    }

    /// The map was replaced wholesale: the next write compacts.
    pub(crate) fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Persists a map that just gained or replaced one entry (`entry()`,
    /// its JSON object) and now holds `entries` entries: appends the entry
    /// to the log, or compacts with `snapshot()` when the log is full or
    /// stale. `Ok(false)` when persistence is off.
    pub(crate) fn append(
        &mut self,
        entry: impl FnOnce() -> Json,
        entries: usize,
        snapshot: impl FnOnce() -> Json,
    ) -> std::io::Result<bool> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        if self.stale || self.lines >= entries.max(COMPACT_LINES) {
            return self.compact(snapshot);
        }
        let mut line = entry().set("epoch", self.epoch).to_compact();
        line.push('\n');
        let written = match &mut self.log {
            Some(f) => f.write_all(line.as_bytes()),
            slot => open_log(path).and_then(|f| slot.insert(f).write_all(line.as_bytes())),
        };
        // a failed or partial write leaves the disk behind the map
        self.stale = written.is_err();
        self.lines += 1;
        written.map(|()| true)
    }

    /// Writes `snapshot()` (a document object) as the whole db under a
    /// fresh epoch, then truncates the log. `Ok(false)` when persistence
    /// is off.
    pub(crate) fn compact(&mut self, snapshot: impl FnOnce() -> Json) -> std::io::Result<bool> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        self.stale = true;
        self.epoch = fresh_epoch(self.epoch);
        write_atomic(path, &snapshot().set("epoch", self.epoch).to_pretty())?;
        match &mut self.log {
            Some(f) => f.set_len(0)?,
            slot => slot.insert(open_log(path)?).set_len(0)?,
        }
        self.lines = 0;
        self.stale = false;
        Ok(true)
    }
}

fn open_log(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(log_path(path))
}

/// An epoch no earlier compaction of this path used: the wall clock in
/// microseconds (exact through JSON's f64 number path), strictly after
/// `previous`.
fn fresh_epoch(previous: u64) -> u64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64);
    now.max(previous + 1)
}

/// What [`load`] found at a snapshot path.
pub(crate) enum Load<V> {
    /// No snapshot.
    Missing,
    /// The snapshot is unreadable, not JSON, of another schema, or has no
    /// entry array.
    Corrupt,
    /// The snapshot document, its decodable entries with the log lines of
    /// its epoch replayed over them, how many lines replayed, and how many
    /// were torn, not JSON, undecodable, or carried no epoch.
    Found {
        doc: Json,
        entries: HashMap<TuneKey, V>,
        replayed: u64,
        bad: usize,
    },
}

/// Loads the snapshot at `path` — whose `schema` field must be `schema`
/// and whose `field` array holds the entries — and replays its log.
/// Undecodable snapshot entries are skipped, not fatal.
pub(crate) fn load<V>(
    path: &Path,
    schema: u64,
    field: &str,
    decode: fn(&Json) -> Option<(TuneKey, V)>,
) -> Load<V> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Load::Missing,
        Err(_) => return Load::Corrupt,
    };
    let Ok(doc) = parse_json(&text) else {
        return Load::Corrupt;
    };
    let Some(raw) = doc
        .get(field)
        .and_then(Json::as_array)
        .filter(|_| doc.get("schema").and_then(Json::as_u64) == Some(schema))
    else {
        return Load::Corrupt;
    };
    let mut entries: HashMap<_, _> = raw.iter().filter_map(decode).collect();
    // (a snapshot without an epoch was written by a build that keeps no
    // log: whatever log lies beside it is not its own)
    let epoch = doc.get("epoch").and_then(Json::as_u64);
    let (mut replayed, mut bad) = (0, 0);
    let log = std::fs::read(log_path(path)).unwrap_or_default();
    for raw in log.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let line = std::str::from_utf8(raw)
            .ok()
            .and_then(|s| parse_json(s).ok());
        match line
            .as_ref()
            .map(|l| (l.get("epoch").and_then(Json::as_u64), decode(l)))
        {
            Some((Some(e), _)) if Some(e) != epoch => {} // superseded
            Some((Some(_), Some((key, value)))) => {
                entries.insert(key, value);
                replayed += 1;
            }
            _ => bad += 1,
        }
    }
    Load::Found {
        doc,
        entries,
        replayed,
        bad,
    }
}

/// Writes `contents` to a `.tmp.<pid>` sibling, then renames it over
/// `path`: readers never see a half-written file, and a crash mid-write
/// leaves the previous one intact.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}
