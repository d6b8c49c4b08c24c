//! Input-aware empirical autotuner for the IATF run-time stage.
//!
//! The paper's run-time stage decides how to execute a batched compact
//! BLAS call from static heuristics: the Pack Selecter's structural rule,
//! the Batch Counter's L1 occupancy model with a fixed budget fraction,
//! and whichever entry point (serial or parallel) the caller picked. This
//! crate makes those decisions *measured*: per input fingerprint
//! (op, dtype, dims, count) a short calibrated micro-benchmark sweep runs
//! the candidate configurations against each other and the winner is
//! recorded in a process-wide [`TuningDb`] that persists to disk.
//!
//! Three pieces, deliberately free of any dependency on the planner so the
//! core crate can depend on this one:
//!
//! * [`key`] — [`TuneKey`], the input fingerprint the db is indexed by,
//!   with a stable string encoding for the on-disk format.
//! * [`measure`] — the racing sweep harness: interleaved rounds,
//!   min-of-rounds timing and a noise estimate over opaque candidate
//!   closures supplied by the caller, dropping candidates that have
//!   clearly lost and stopping once the ranking is decided.
//! * [`db`] — [`TuningDb`]: a mutex-guarded map plus a monotonically
//!   increasing *generation* that planners fold into their plan-cache
//!   fingerprints, so recording a new winner invalidates stale cached
//!   plans. A record appends one line to a log beside the snapshot; the
//!   snapshot is versioned, rewritten atomically (temp file + rename) only
//!   when the log is compacted, and corruption-tolerant: a truncated or
//!   garbage file degrades to an empty db — heuristics keep working,
//!   nothing panics.
//! * [`envelope`] — [`EnvelopeDb`]: persisted performance envelopes
//!   (expected warm-dispatch latency and throughput per fingerprint) that
//!   the watch layer compares live traffic against; same persistence
//!   rules as the tuning db, stored alongside it.
//!
//! The BLAS-specific candidate construction (which plans to build, what
//! synthetic operands to run them on) lives in `iatf-core`'s `autotune`
//! module; this crate only measures closures and stores winners.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod envelope;
pub mod key;
pub mod measure;
mod store;

pub use db::{LoadOutcome, Provenance, TunedEntry, TuningDb, SCHEMA_VERSION};
pub use envelope::{
    EnvelopeDb, EnvelopeLoad, EnvelopeSource, PerfEnvelope, ENVELOPE_SCHEMA_VERSION,
};
pub use key::{TuneKey, TuneOp};
pub use measure::{sweep, SweepReport};
