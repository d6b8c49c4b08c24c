//! BLAS-specific glue to the empirical autotuner (`iatf-tune`).
//!
//! The tuning crate itself is op-agnostic: it knows how to run calibrated
//! interleaved sweeps ([`iatf_tune::sweep`]) and how to persist winners
//! ([`iatf_tune::TuningDb`]). This module owns everything BLAS-shaped:
//!
//! * **Keys** — mapping an input fingerprint (op, dtype, dims, mode,
//!   conjugation, group count) to a [`TuneKey`], reusing the exact mode
//!   encodings the plan cache keys use.
//! * **Candidates** — the space the sweep explores ([`sweep_configs`]):
//!   the heuristic plan (always candidate 0, so the winner can never be
//!   slower than the baseline *in the sweep's own numbers*), the pack
//!   policies the base does not already dominate, and explicit super-block
//!   sizes at a quarter, half and double the heuristic's. Candidates that
//!   decode to the same plan decisions are deduplicated before timing.
//! * **Workloads** — synthetic operands sized like the real input but
//!   capped in group count so the sweep's working set stays modest, filled
//!   in place. Triangular sweeps run against identity matrices, making
//!   repeated in-place solves a bitwise fixed point (no drift across
//!   timing reps).
//! * **Decisions** — translating a recorded [`TunedEntry`] back into the
//!   overrides the planners consume ([`TunedDecision`]).
//!
//! Consultation (`lookup_*`) is cheap — one mutex-guarded hash lookup —
//! and only happens when [`TunePolicy`] is `Cached` or `FirstTouch`; the
//! default `Heuristic` policy never touches the db. Sweeps build their
//! candidate plans with a `Heuristic` config, so tuning never recurses
//! into itself.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::config::{BatchPolicy, PackPolicy, TunePolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::gemm::OperandPlan;
use crate::plan::tri::{Multiply, Solve, TriOp, TriPlan};
use crate::plan::{cache, GemmPlan};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, TrsmDims, TrsmMode};
use iatf_obs as obs;
use iatf_simd::{Real, VecWidth};
use iatf_trace as trace;
use iatf_tune::{sweep, SweepReport, TuneKey, TuneOp, TunedEntry, TuningDb};

/// Overrides a tuned entry imposes on one planner invocation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TunedDecision {
    /// Pack Selecter override: the winner's policy.
    pub pack: PackPolicy,
    /// Batch Counter override; `None` keeps the heuristic L1-model size.
    pub group_packs: Option<usize>,
    /// Serial→parallel crossover: whether parallel execution measured
    /// faster for this input.
    pub parallel: bool,
}

fn decision_from(entry: TunedEntry) -> TunedDecision {
    TunedDecision {
        // Entries store `PackPolicy as u8`. Any other code decodes as
        // `Auto` — among them 2, the retired `Never`, which planned the
        // sizes a sweep measures exactly like `Auto`.
        pack: if entry.pack == PackPolicy::Always as u8 {
            PackPolicy::Always
        } else {
            PackPolicy::Auto
        },
        group_packs: usize::try_from(entry.group_packs)
            .ok()
            .filter(|&gp| gp > 0),
        parallel: entry.parallel,
    }
}

fn dim32(d: usize) -> u32 {
    u32::try_from(d).unwrap_or(u32::MAX)
}

/// The db key the planners use for a GEMM input (exports and tests use
/// this to address entries the same way the run-time stage does).
pub fn gemm_tune_key<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    width: VecWidth,
) -> TuneKey {
    TuneKey {
        op: TuneOp::Gemm,
        dtype: E::DTYPE as u8,
        m: dim32(dims.m),
        n: dim32(dims.n),
        k: dim32(dims.k),
        mode: cache::gemm_mode_bits(mode),
        conj: (conj_a as u8) | ((conj_b as u8) << 1),
        count: count as u64,
        width: width.code(),
    }
}

/// The db key for a triangular input of op `O`.
pub(crate) fn tri_tune_key<E: CompactElement, O: TriOp<E>>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    width: VecWidth,
) -> TuneKey {
    TuneKey {
        op: O::TUNE,
        dtype: E::DTYPE as u8,
        m: dim32(dims.m),
        n: dim32(dims.n),
        k: 0,
        mode: cache::trsm_mode_bits(mode),
        conj: conj as u8,
        count: count as u64,
        width: width.code(),
    }
}

/// The db key for a TRSM input.
pub fn trsm_tune_key<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    width: VecWidth,
) -> TuneKey {
    tri_tune_key::<E, Solve>(dims, mode, conj, count, width)
}

/// The db key for a TRMM input.
pub fn trmm_tune_key<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    width: VecWidth,
) -> TuneKey {
    tri_tune_key::<E, Multiply>(dims, mode, conj, count, width)
}

/// The db's decision for the input `key` names, if `cfg` consults the db
/// (under `Heuristic` the key is not even built).
fn consult(cfg: &TuningConfig, key: impl FnOnce() -> TuneKey) -> Option<TunedDecision> {
    if matches!(cfg.tune, TunePolicy::Heuristic) {
        return None;
    }
    match TuningDb::global().lookup(&key()) {
        Some(entry) => {
            obs::count_tune(obs::TuneEvent::Apply);
            Some(decision_from(entry))
        }
        None => {
            obs::count_tune(obs::TuneEvent::Miss);
            None
        }
    }
}

pub(crate) fn lookup_gemm<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Option<TunedDecision> {
    consult(cfg, || gemm_tune_key::<E>(dims, mode, conj_a, conj_b, count, cfg.width))
}

pub(crate) fn lookup_tri<E: CompactElement, O: TriOp<E>>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Option<TunedDecision> {
    consult(cfg, || tri_tune_key::<E, O>(dims, mode, conj, count, cfg.width))
}

/// One sweep candidate: a fully built plan plus the metadata that becomes
/// the recorded entry if it wins.
struct Candidate<P> {
    plan: P,
    pack_code: u8,
    group_packs: usize,
    /// Whether winning should pin `group_packs` in the db. Candidates
    /// that only vary the pack policy leave the Batch Counter heuristic
    /// in charge (its output depends on the *real* group count, which the
    /// capped measurement count cannot stand in for).
    records_gp: bool,
}

/// Sweep working-set cap: synthetic operands are sized to the real input
/// but the group count is clamped so all operands together stay around
/// this many bytes — enough to exercise the L1/L2 behaviour the Batch
/// Counter models, small enough that a sweep never allocates gigabytes.
const MEASURE_CAP_BYTES: usize = 8 << 20;

/// Group-count floor for measurement, so tiny inputs still produce
/// super-block structure worth timing.
const MEASURE_MIN_COUNT: usize = 64;

fn measure_count(bytes_per_matrix: usize, count: usize) -> usize {
    count
        .min((MEASURE_CAP_BYTES / bytes_per_matrix.max(1)).max(MEASURE_MIN_COUNT))
        .max(1)
}

/// A synthetic sweep operand, laid out at `width` and filled in place —
/// no standard batch to generate and convert — with finite, normal
/// values in [0.5, 1.375].
fn synthetic<E: CompactElement>(
    rows: usize,
    cols: usize,
    count: usize,
    width: VecWidth,
) -> CompactBatch<E> {
    let mut x = CompactBatch::<E>::zeroed_at(rows, cols, count, width);
    for (i, s) in x.as_scalars_mut().iter_mut().enumerate() {
        *s = E::Real::from_f64(0.5 + 0.125 * (i % 8) as f64);
    }
    x
}

/// The identity triangle of a triangular sweep, padding lanes included:
/// solving or multiplying by it in place leaves B bitwise unchanged, so
/// timing reps never drift, overflow or go subnormal.
fn identity<E: CompactElement>(q: usize, count: usize, width: VecWidth) -> CompactBatch<E> {
    let mut a = CompactBatch::<E>::zeroed_at(q, q, count, width);
    for v in 0..count {
        for i in 0..q {
            a.set(v, i, i, E::one());
        }
    }
    a.pad_triangle_identity();
    a
}

/// The configurations a first-touch sweep from `cfg` races, heuristic
/// first, given the heuristic plan's super-block size `gp0`. Candidate 0
/// is `cfg` itself, planned heuristically; each other candidate varies one
/// decision:
///
/// * the pack policy, from an `Always` base only: where `Auto` streams an
///   operand, `Always` does the same kernel work plus the pack traffic,
///   and above the direct bound `Auto` packs already, so an `Auto` base
///   never races `Always`;
/// * the super-block size, pinned at `gp0/4`, `gp0/2` and `2·gp0` (at
///   least 1, each size once). This is also the only way the L1 budget
///   fraction reaches a plan, so it is not varied separately.
pub fn sweep_configs(cfg: &TuningConfig, gp0: usize) -> Vec<TuningConfig> {
    let base = heuristic_config(cfg);
    let packs = (base.pack == PackPolicy::Always).then(|| TuningConfig {
        pack: PackPolicy::Auto,
        ..base.clone()
    });
    let mut sizes: Vec<usize> = Vec::new();
    for gp in [gp0 / 4, gp0 / 2, gp0 * 2].map(|gp| gp.max(1)) {
        if gp != gp0 && !sizes.contains(&gp) {
            sizes.push(gp);
        }
    }
    let sizes = sizes.into_iter().map(|gp| TuningConfig {
        batch: BatchPolicy::Fixed(gp),
        ..base.clone()
    });
    std::iter::once(base.clone()).chain(packs).chain(sizes).collect()
}

/// Candidate 0's configuration: `cfg` planned heuristically, so tuning
/// never recurses into itself.
fn heuristic_config(cfg: &TuningConfig) -> TuningConfig {
    TuningConfig {
        tune: TunePolicy::Heuristic,
        ..cfg.clone()
    }
}

/// The plan decisions that affect execution — A access, B access and the
/// super-block size; candidates that agree on them are timed once.
type Signature = (OperandPlan, OperandPlan, usize);

/// Builds and deduplicates the candidate plans of [`sweep_configs`] for
/// one sweep. Candidate 0 is always the heuristic baseline.
fn enumerate_candidates<P>(
    cfg: &TuningConfig,
    build: &dyn Fn(&TuningConfig) -> Option<(P, Signature)>,
) -> Vec<Candidate<P>> {
    let heuristic = heuristic_config(cfg);
    let Some((plan, sig)) = build(&heuristic) else {
        return Vec::new();
    };
    let gp0 = sig.2;
    let mut out = vec![Candidate {
        plan,
        pack_code: heuristic.pack as u8,
        group_packs: gp0,
        records_gp: false,
    }];
    let mut sigs = vec![sig];
    for ccfg in sweep_configs(cfg, gp0).into_iter().skip(1) {
        if let Some((plan, sig)) = build(&ccfg) {
            if !sigs.contains(&sig) {
                sigs.push(sig);
                out.push(Candidate {
                    plan,
                    pack_code: ccfg.pack as u8,
                    group_packs: sig.2,
                    records_gp: ccfg.batch != heuristic.batch,
                });
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn record_winner<P>(
    db: &TuningDb,
    key: TuneKey,
    cfg: &TuningConfig,
    winner: &Candidate<P>,
    report: &SweepReport,
    flops: f64,
    parallel: bool,
    provenance: iatf_tune::Provenance,
) {
    let entry = TunedEntry {
        pack: winner.pack_code,
        group_packs: if winner.records_gp {
            winner.group_packs as u64
        } else {
            0
        },
        l1_fraction: cfg.l1_budget_fraction,
        parallel,
        tuned_gflops: flops / (report.secs[report.winner] * 1e9),
        heuristic_gflops: flops / (report.secs[0] * 1e9),
        noise: report.noise,
        provenance,
    };
    db.record(key, entry);
}

fn unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Journal probe for a sweep that is about to measure: returns the
/// `sweep_start` event id (0 when the journal is off). Cause is ambient,
/// so a retune-triggered sweep links back to its drift event while a
/// first-touch sweep is a root.
fn journal_sweep_start(key: &TuneKey, budget_ms: u64, candidates: usize) -> u64 {
    if !iatf_journal::is_enabled() {
        return 0;
    }
    iatf_journal::publish(
        iatf_journal::EventKind::SweepStart,
        &key.encode(),
        0,
        obs::Json::object()
            .set("budget_ms", budget_ms)
            .set("candidates", candidates as u64),
    )
}

/// Journal probes for a finished sweep: one `sweep_candidate` event per
/// measured configuration and the `sweep_winner` (noise, rep counts,
/// host/µarch/width fingerprint), all caused by `sweep_event`. Returns
/// the provenance to stamp into the recorded entry (zeros when off).
fn journal_sweep_outcome<P>(
    key: &TuneKey,
    width: VecWidth,
    cands: &[Candidate<P>],
    report: &SweepReport,
    parallel: bool,
    flops: f64,
    sweep_event: u64,
) -> iatf_tune::Provenance {
    if !iatf_journal::is_enabled() {
        return iatf_tune::Provenance::default();
    }
    let kstr = key.encode();
    for (i, cand) in cands.iter().enumerate() {
        iatf_journal::publish(
            iatf_journal::EventKind::SweepCandidate,
            &kstr,
            sweep_event,
            obs::Json::object()
                .set("index", i as u64)
                .set("pack", u64::from(cand.pack_code))
                .set("group_packs", cand.group_packs as u64)
                .set("secs", report.secs[i])
                .set("winner", i == report.winner),
        );
    }
    let row = iatf_kernels::row_for(width);
    let host = iatf_journal::host_fingerprint(row.uarch, row.width.name());
    let winner_event = iatf_journal::publish(
        iatf_journal::EventKind::SweepWinner,
        &kstr,
        sweep_event,
        obs::Json::object()
            .set("winner", report.winner as u64)
            .set("candidates", cands.len() as u64)
            .set("noise", report.noise)
            .set("rounds", report.rounds as u64)
            .set("iters", report.iters as u64)
            .set("parallel", parallel)
            .set("tuned_gflops", flops / (report.secs[report.winner] * 1e9))
            .set("uarch", row.uarch)
            .set("width", row.width.name())
            .set("host", format!("{host:016x}").as_str()),
    );
    iatf_tune::Provenance {
        journal_event: winner_event,
        host,
        recorded_at: unix_secs(),
    }
}

/// The measured half of every sweep, once its candidates and operands
/// exist: times the candidates against each other, races the winner
/// serial vs parallel (with the `parallel` feature), then journals and
/// records the winner. `exec(plan, parallel)` runs one plan on the sweep's
/// operands; `started` is when the caller's first call began paying.
#[allow(clippy::too_many_arguments)]
fn race<P>(
    db: &TuningDb,
    key: TuneKey,
    cfg: &TuningConfig,
    budget_ms: u64,
    started: Instant,
    cands: &[Candidate<P>],
    flops: f64,
    exec: impl Fn(&P, bool),
) {
    let total = Duration::from_millis(budget_ms.max(1));
    let jsweep = journal_sweep_start(&key, budget_ms, cands.len());
    let exec = &exec;
    let report = {
        let mut runners: Vec<Box<dyn FnMut() + '_>> = cands
            .iter()
            .map(|cand| Box::new(move || exec(&cand.plan, false)) as Box<dyn FnMut() + '_>)
            .collect();
        sweep(total.saturating_sub(started.elapsed()), &mut runners)
    };
    let winner = &cands[report.winner];
    let parallel = cfg!(feature = "parallel") && {
        let mut runners: Vec<Box<dyn FnMut() + '_>> = vec![
            Box::new(|| exec(&winner.plan, false)),
            Box::new(|| exec(&winner.plan, true)),
        ];
        sweep(total.saturating_sub(started.elapsed()), &mut runners).winner == 1
    };
    let provenance = journal_sweep_outcome(&key, cfg.width, cands, &report, parallel, flops, jsweep);
    record_winner(db, key, cfg, winner, &report, flops, parallel, provenance);
}

/// First touch for any op: sweeps through `sweep` when the db has no entry
/// for `key` yet. Returns whether one exists afterwards.
fn ensure(key: TuneKey, sweep: impl FnOnce(&TuningDb)) -> bool {
    let db = TuningDb::global();
    if db.lookup(&key).is_none() {
        sweep(db);
    }
    db.lookup(&key).is_some()
}

/// Drift remediation for any op: if the watch layer flagged `key`, evict
/// its stale tuning-db entry — bumping the db generation, which
/// invalidates every cached plan keyed on it — re-sweep through `resweep`
/// within the watch retune budget (`IATF_WATCH_RETUNE_MS`), and hand the
/// fresh measurement back so the drift chart re-arms.
fn retune(key: TuneKey, resweep: impl FnOnce(&TuningDb, u64)) {
    let Some(drift_event) = iatf_watch::take_retune_cause(&key) else {
        return;
    };
    obs::count_tune(obs::TuneEvent::Retune);
    // Everything the remediation does — eviction, re-sweep, envelope
    // re-arm — journals under the drift event that triggered it.
    let _cause = iatf_journal::cause_scope(drift_event);
    let db = TuningDb::global();
    db.remove(&key);
    resweep(db, iatf_watch::retune_budget_ms());
    let outcome = db.lookup(&key);
    journal_retune(&key, drift_event, outcome.as_ref());
    match outcome {
        Some(entry) => iatf_watch::note_retuned(&key, entry.tuned_gflops, entry.noise),
        None => iatf_watch::note_retuned(&key, 0.0, 0.0),
    }
}

/// Journal probe for a finished retune: records whether the re-sweep
/// produced a fresh winner, caused by the drift event that demanded it.
fn journal_retune(key: &TuneKey, drift_event: u64, outcome: Option<&TunedEntry>) {
    if !iatf_journal::is_enabled() {
        return;
    }
    iatf_journal::publish(
        iatf_journal::EventKind::Retune,
        &key.encode(),
        drift_event,
        obs::Json::object()
            .set("rerecorded", outcome.is_some())
            .set("tuned_gflops", outcome.map_or(0.0, |e| e.tuned_gflops))
            .set("noise", outcome.map_or(0.0, |e| e.noise)),
    );
}

/// Drift remediation for a GEMM input ([`retune`]). Compiles to nothing
/// unless the `watch` feature is on; never runs under the `Heuristic`
/// policy (there is no db entry to refresh).
pub fn maybe_retune_gemm<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    cfg: &TuningConfig,
) {
    if !iatf_watch::is_enabled() || matches!(cfg.tune, TunePolicy::Heuristic) {
        return;
    }
    if dims.validate().is_err() || count == 0 {
        return;
    }
    let key = gemm_tune_key::<E>(dims, mode, conj_a, conj_b, count, cfg.width);
    retune(key, |db, budget| {
        sweep_gemm::<E>(db, key, dims, mode, conj_a, conj_b, count, budget, cfg);
    });
}

/// Runs the first-touch sweep for a GEMM input if `cfg.tune` asks for one
/// and the db has no entry yet. Returns whether a tuned entry exists for
/// the key afterwards. The one-shot API calls this before planning; the
/// benchmark harness calls it directly to drive tuning.
pub fn ensure_tuned_gemm<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    cfg: &TuningConfig,
) -> bool {
    let TunePolicy::FirstTouch(budget_ms) = cfg.tune else {
        return false;
    };
    if dims.validate().is_err() || count == 0 {
        return false;
    }
    let key = gemm_tune_key::<E>(dims, mode, conj_a, conj_b, count, cfg.width);
    ensure(key, |db| {
        sweep_gemm::<E>(db, key, dims, mode, conj_a, conj_b, count, budget_ms, cfg);
    })
}

#[allow(clippy::too_many_arguments)]
fn sweep_gemm<E: CompactElement>(
    db: &TuningDb,
    key: TuneKey,
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    budget_ms: u64,
    cfg: &TuningConfig,
) {
    obs::count_tune(obs::TuneEvent::Sweep);
    let _trace = trace::span_arg(trace::SpanKind::TuneSweep, count as u64);
    // The clock starts before the candidates and synthetic operands are
    // built: the caller's first call pays for those too, so they are
    // charged to the budget and the timed rounds get what is left.
    let started = Instant::now();
    let scalar = core::mem::size_of::<E>();
    let per_matrix = (dims.m * dims.k + dims.k * dims.n + dims.m * dims.n) * scalar;
    let mcount = measure_count(per_matrix, count);
    let cands = enumerate_candidates(cfg, &|c: &TuningConfig| {
        let p = GemmPlan::<E>::new(dims, mode, conj_a, conj_b, mcount, c).ok()?;
        let sig = (p.a_plan, p.b_plan, p.group_packs);
        Some((p, sig))
    });
    if cands.is_empty() {
        return;
    }
    let (ar, ac) = dims.a_shape(mode);
    let (br, bc) = dims.b_shape(mode);
    let a = synthetic::<E>(ar, ac, mcount, cfg.width);
    let b = synthetic::<E>(br, bc, mcount, cfg.width);
    let c = RefCell::new(CompactBatch::<E>::zeroed_at(dims.m, dims.n, mcount, cfg.width));
    // β = 0 overwrites C every invocation, so repeated timing reps cannot
    // accumulate (values stay bounded by the synthetic inputs).
    let (alpha, beta) = (E::one(), E::zero());
    let flops = E::DTYPE.flops_per_mac() as f64 * dims.macs() as f64 * mcount as f64;
    race(db, key, cfg, budget_ms, started, &cands, flops, |p, parallel| {
        let _ = p.execute_with(parallel, alpha, &a, &b, beta, &mut c.borrow_mut());
    });
}

/// Drift remediation for a triangular input of op `O` ([`retune`]).
pub(crate) fn maybe_retune_tri<E: CompactElement, O: TriOp<E>>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) {
    if !iatf_watch::is_enabled() || matches!(cfg.tune, TunePolicy::Heuristic) {
        return;
    }
    if dims.validate().is_err() || count == 0 {
        return;
    }
    let key = tri_tune_key::<E, O>(dims, mode, conj, count, cfg.width);
    retune(key, |db, budget| {
        sweep_tri::<E, O>(db, key, dims, mode, conj, count, budget, cfg);
    });
}

/// Drift remediation for a TRSM input (see [`maybe_retune_gemm`]).
pub fn maybe_retune_trsm<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) {
    maybe_retune_tri::<E, Solve>(dims, mode, conj, count, cfg);
}

/// Drift remediation for a TRMM input (see [`maybe_retune_gemm`]).
pub fn maybe_retune_trmm<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) {
    maybe_retune_tri::<E, Multiply>(dims, mode, conj, count, cfg);
}

/// First-touch tuning for a triangular input of op `O` (see
/// [`ensure_tuned_gemm`]).
pub(crate) fn ensure_tuned_tri<E: CompactElement, O: TriOp<E>>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> bool {
    let TunePolicy::FirstTouch(budget_ms) = cfg.tune else {
        return false;
    };
    if dims.validate().is_err() || count == 0 {
        return false;
    }
    let key = tri_tune_key::<E, O>(dims, mode, conj, count, cfg.width);
    ensure(key, |db| {
        sweep_tri::<E, O>(db, key, dims, mode, conj, count, budget_ms, cfg);
    })
}

/// Runs the first-touch sweep for a TRSM input if `cfg.tune` asks for one
/// and the db has no entry yet (see [`ensure_tuned_gemm`]).
pub fn ensure_tuned_trsm<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> bool {
    ensure_tuned_tri::<E, Solve>(dims, mode, conj, count, cfg)
}

/// Runs the first-touch sweep for a TRMM input if `cfg.tune` asks for one
/// and the db has no entry yet (see [`ensure_tuned_gemm`]).
pub fn ensure_tuned_trmm<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> bool {
    ensure_tuned_tri::<E, Multiply>(dims, mode, conj, count, cfg)
}

#[allow(clippy::too_many_arguments)]
fn sweep_tri<E: CompactElement, O: TriOp<E>>(
    db: &TuningDb,
    key: TuneKey,
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    budget_ms: u64,
    cfg: &TuningConfig,
) {
    obs::count_tune(obs::TuneEvent::Sweep);
    let _trace = trace::span_arg(trace::SpanKind::TuneSweep, count as u64);
    let started = Instant::now(); // as in `sweep_gemm`
    let q = dims.triangle_order(mode);
    let per_matrix = (q * q + dims.m * dims.n) * core::mem::size_of::<E>();
    let mcount = measure_count(per_matrix, count);
    let cands = enumerate_candidates(cfg, &|c: &TuningConfig| {
        let p = TriPlan::<E, O>::new(dims, mode, conj, mcount, c).ok()?;
        let sig = (p.a_plan, p.b_plan, p.group_packs);
        Some((p, sig))
    });
    if cands.is_empty() {
        return;
    }
    // Identity A makes the repeated in-place solve/multiply a bitwise
    // fixed point: X = 1·B every rep, no drift, no overflow, regardless
    // of how many timing iterations run.
    let a = identity::<E>(q, mcount, cfg.width);
    let b = RefCell::new(synthetic::<E>(dims.m, dims.n, mcount, cfg.width));
    let flops = E::DTYPE.flops_per_mac() as f64 * dims.macs(mode) as f64 * mcount as f64;
    race(db, key, cfg, budget_ms, started, &cands, flops, |p, parallel| {
        let _ = p.execute_with(parallel, E::one(), &a, &mut b.borrow_mut());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_distinguish_ops_and_inputs() {
        let gd = GemmDims::new(8, 8, 8);
        let td = TrsmDims::new(8, 8);
        let tmode = TrsmMode::all()[0];
        let w = VecWidth::W128;
        let gk = gemm_tune_key::<f32>(gd, GemmMode::NN, false, false, 100, w);
        let sk = trsm_tune_key::<f32>(td, tmode, false, 100, w);
        let mk = trmm_tune_key::<f32>(td, tmode, false, 100, w);
        assert_ne!(gk, sk);
        assert_ne!(sk, mk);
        assert_ne!(
            gk,
            gemm_tune_key::<f64>(gd, GemmMode::NN, false, false, 100, w)
        );
        assert_ne!(
            gk,
            gemm_tune_key::<f32>(gd, GemmMode::NT, false, false, 100, w)
        );
        assert_ne!(
            gk,
            gemm_tune_key::<f32>(gd, GemmMode::NN, true, false, 100, w)
        );
        assert_ne!(
            gk,
            gemm_tune_key::<f32>(gd, GemmMode::NN, false, false, 101, w)
        );
        // A db entry recorded at one vector width never answers for
        // another: the width is part of the key itself.
        for other in VecWidth::ALL {
            if other != w {
                assert_ne!(
                    gk,
                    gemm_tune_key::<f32>(gd, GemmMode::NN, false, false, 100, other)
                );
            }
        }
        // Keys round-trip through the db's string encoding.
        assert_eq!(TuneKey::decode(&gk.encode()), Some(gk));
        assert_eq!(TuneKey::decode(&mk.encode()), Some(mk));
    }

    #[test]
    fn heuristic_policy_never_consults_the_db() {
        let cfg = TuningConfig::default(); // tune: Heuristic
        assert!(lookup_gemm::<f32>(
            GemmDims::new(4, 4, 4),
            GemmMode::NN,
            false,
            false,
            64,
            &cfg
        )
        .is_none());
        assert!(!ensure_tuned_gemm::<f32>(
            GemmDims::new(4, 4, 4),
            GemmMode::NN,
            false,
            false,
            64,
            &cfg
        ));
    }

    #[test]
    fn measure_count_caps_large_groups_and_floors_small_ones() {
        // Large input: capped well below the requested count.
        let c = measure_count(32 * 32 * 3 * 8, 1_000_000);
        assert!((MEASURE_MIN_COUNT..1_000_000).contains(&c));
        // Small input: floor kicks in but never exceeds the real count.
        assert_eq!(measure_count(4 * 4 * 3 * 4, 16), 16);
        assert_eq!(measure_count(usize::MAX, 1_000), MEASURE_MIN_COUNT);
    }

    #[test]
    fn the_super_block_ladder_stays_clamped_and_unique() {
        let cfg = TuningConfig::default();
        for gp0 in [0, 1, 2, 3, 4, 5, 8, 64, 1000] {
            let sizes: Vec<usize> = sweep_configs(&cfg, gp0)
                .iter()
                .filter_map(|c| match c.batch {
                    BatchPolicy::Fixed(gp) => Some(gp),
                    _ => None,
                })
                .collect();
            assert!(sizes.iter().all(|&gp| gp >= 1 && gp != gp0), "{gp0}: {sizes:?}");
            for (i, gp) in sizes.iter().enumerate() {
                assert!(!sizes[..i].contains(gp), "{gp0}: {sizes:?}");
            }
            if gp0 >= 4 {
                assert_eq!(sizes, vec![gp0 / 4, gp0 / 2, 2 * gp0]);
            }
        }
        // one decision at a time: a size candidate keeps the base's policy
        for c in &sweep_configs(&cfg, 8)[1..] {
            assert!((c.pack != cfg.pack) ^ (c.batch != cfg.batch), "{c:?}");
            assert!(matches!(c.tune, TunePolicy::Heuristic));
        }
    }

    fn entry(pack: u8, group_packs: u64, parallel: bool) -> TunedEntry {
        TunedEntry {
            pack,
            group_packs,
            l1_fraction: 0.5,
            parallel,
            tuned_gflops: 1.0,
            heuristic_gflops: 1.0,
            noise: 0.0,
            provenance: Default::default(),
        }
    }

    #[test]
    fn entry_decisions_round_trip() {
        let d = decision_from(entry(PackPolicy::Always as u8, 16, true));
        assert_eq!(d.pack, PackPolicy::Always);
        assert_eq!(d.group_packs, Some(16));
        assert!(d.parallel);
        // group_packs == 0 means "keep the heuristic".
        let d = decision_from(entry(PackPolicy::Auto as u8, 0, false));
        assert_eq!(d.pack, PackPolicy::Auto);
        assert_eq!(d.group_packs, None);
        assert!(!d.parallel);
        // 2, the retired `Never`, plans like `Auto`
        assert_eq!(decision_from(entry(2, 0, false)).pack, PackPolicy::Auto);
    }
}
