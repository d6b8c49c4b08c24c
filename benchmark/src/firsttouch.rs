//! The `first_touch` workload: a stream of keys the library has never
//! seen, each called once cold (sweep, record, plan build) and then
//! [`WARM_CALLS`] times warm, under `TunePolicy::FirstTouch`. A key's first
//! call is a slot of its own; its warm calls are cut into slots of about
//! [`SLOT_NS`], so that each lies between two nearby reference slots.

use crate::cells::{
    agrees, corrupt, gather_compact, gemm_flops, peak_flops_per_unit, sample_indices,
    scalars_healthy, tri_flops,
};
use crate::gen::{Digest, Rng};
use crate::layers::LayerAcc;
use crate::refk::{Isa, RefKind, Yardstick};
use crate::spans::Recorder;
use crate::stats;
use crate::timeline::{SlotOut, Workload, SLOT_NS};
use iatf_baselines::naive;
use iatf_core::plan::cache;
use iatf_core::{
    compact_gemm, compact_trmm, compact_trsm, ensure_tuned_gemm, ensure_tuned_trmm,
    ensure_tuned_trsm, CompactElement, GemmPlan, TrmmPlan, TrsmPlan, TunePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch, TrsmDims, TrsmMode};
use iatf_simd::{c32, c64, DType, Real};
use iatf_tune::TuningDb;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweep budget per unseen key, milliseconds.
pub const BUDGET_MS: u64 = 10;
/// Matrices per call.
pub const COUNT: usize = 512;
/// Warm calls a key gets after its first call.
pub const WARM_CALLS: u64 = 255;
/// Keys one cold pass goes through.
pub const COLD_KEYS: usize = 8;

/// The keys of a cold pass: fixed by definition, not by the seed, so
/// `setup_s` times the same sweeps in every run. They are the largest shapes
/// of the key space, two per dtype, so they also set the run's peak memory.
fn cold_keys() -> [Key; COLD_KEYS] {
    let big = *DIMS.end();
    let key = |op, dtype, mode| Key {
        op,
        dtype,
        m: big,
        n: big,
        k: if op == Op::Gemm { big } else { 0 },
        mode,
    };
    [
        key(Op::Gemm, DType::F32, 0),
        key(Op::Gemm, DType::F64, 1),
        key(Op::Gemm, DType::C32, 2),
        key(Op::Gemm, DType::C64, 3),
        key(Op::Trsm, DType::F64, 0),
        key(Op::Trsm, DType::C64, 5),
        key(Op::Trmm, DType::F32, 10),
        key(Op::Trmm, DType::C32, 15),
    ]
}
/// Smallest and largest dimension of a key.
const DIMS: std::ops::RangeInclusive<usize> = 5..=13;
/// Keys kept per (op, dtype) class: far more than a 60 s run consumes.
const KEYS_PER_CLASS: usize = 1000;
/// (op, dtype) classes: three ops, four dtypes.
const CLASSES: u64 = 12;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Op {
    Gemm,
    Trsm,
    Trmm,
}

/// One never-seen input fingerprint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Key {
    op: Op,
    dtype: DType,
    m: usize,
    n: usize,
    k: usize,
    /// Index into `GemmMode::ALL` or `TrsmMode::all()`.
    mode: usize,
}

/// What one key's life cost.
#[derive(Copy, Clone, Debug, Default)]
struct Life {
    first_ns: f64,
    warm_ns: f64,
    /// The part of both spent in `execute` (traced run only).
    execute_ns: f64,
    /// Warm calls also replayed on the heuristic plan, and their `execute`
    /// time on the tuned and on the heuristic plan (traced run only).
    replayed: u64,
    tuned_ns: f64,
    heuristic_ns: f64,
}

/// Deals a shuffled class out so that small, medium and large keys take
/// turns: any prefix of the stream then holds the same mixture of sizes,
/// whichever seed shuffled it, and two seeds measure the same thing.
fn interleave_size_bands(shuffled: Vec<Key>) -> Vec<Key> {
    let work = |k: &Key| k.m * k.n * k.k.max(1);
    let mut sizes: Vec<usize> = shuffled.iter().map(work).collect();
    sizes.sort_unstable();
    let (low, high) = (sizes[sizes.len() / 3], sizes[2 * sizes.len() / 3]);
    let mut bands: [Vec<Key>; 3] = Default::default();
    for k in shuffled {
        let w = work(&k);
        bands[usize::from(w >= low) + usize::from(w >= high)].push(k);
    }
    let per_band = KEYS_PER_CLASS.div_ceil(3);
    assert!(
        bands.iter().all(|b| b.len() >= per_band),
        "key space too small for its bands"
    );
    (0..KEYS_PER_CLASS).map(|i| bands[i % 3][i / 3]).collect()
}

/// What the oracle has found along the stream so far.
#[derive(Default)]
struct Verdicts {
    attempted: u64,
    mismatched: u64,
    /// Corrupt the next checked result.
    inject: bool,
    unhealthy: bool,
}

impl Verdicts {
    /// Counts one checked call: `ok` is whether it returned `Ok`, `want`
    /// what it had to leave in the sampled matrices.
    fn judge<E: CompactElement>(
        &mut self,
        prob: &Problem<E>,
        idx: &[usize],
        want: &StdBatch<E>,
        ok: bool,
    ) {
        let mut got = prob.output(idx);
        if std::mem::take(&mut self.inject) {
            corrupt(&mut got);
        }
        self.attempted += 1;
        self.mismatched += u64::from(!ok || !agrees(&got, want, prob.depth()));
    }
}

/// The key whose warm calls are under way.
struct Current {
    live: Box<dyn Live>,
    /// Stratum of the key's first call; its warm calls are the next one.
    stratum: u32,
    /// Warm calls still to make, and how many the next slot makes.
    remaining: u64,
    chunk: u64,
    peak_units_per_call: f64,
    life: Life,
}

/// The workload.
pub struct FirstTouch {
    isa: Isa,
    seed: u64,
    tuned: TuningConfig,
    heuristic: TuningConfig,
    keys: Vec<Key>,
    next: usize,
    current: Option<Current>,
    lives: Vec<Life>,
    verdicts: Verdicts,
}

impl FirstTouch {
    /// Builds the seeded key stream: classes (op × dtype) take turns, so
    /// any prefix holds the same mixture of classes; within a class the
    /// seed picks which shapes and modes come first.
    pub fn new(seed: u64, isa: Isa) -> Self {
        let heuristic = TuningConfig::host();
        let tuned = TuningConfig {
            tune: TunePolicy::FirstTouch(BUDGET_MS),
            ..heuristic.clone()
        };
        let mut classes: Vec<Vec<Key>> = Vec::new();
        for op in [Op::Gemm, Op::Trsm, Op::Trmm] {
            for dtype in DType::ALL {
                let mut all = Vec::new();
                for m in DIMS {
                    for n in DIMS {
                        if op == Op::Gemm {
                            for k in DIMS {
                                for mode in 0..GemmMode::ALL.len() {
                                    all.push(Key {
                                        op,
                                        dtype,
                                        m,
                                        n,
                                        k,
                                        mode,
                                    });
                                }
                            }
                        } else {
                            for mode in 0..TrsmMode::all().len() {
                                all.push(Key {
                                    op,
                                    dtype,
                                    m,
                                    n,
                                    k: 0,
                                    mode,
                                });
                            }
                        }
                    }
                }
                Rng::new(seed, 0xf175 + classes.len() as u64).shuffle(&mut all);
                classes.push(interleave_size_bands(all));
            }
        }
        let keys = (0..KEYS_PER_CLASS)
            .flat_map(|i| classes.iter().map(move |c| c[i]))
            .collect();
        FirstTouch {
            isa,
            seed,
            tuned,
            heuristic,
            keys,
            next: 0,
            current: None,
            lives: Vec::new(),
            verdicts: Verdicts::default(),
        }
    }

    fn forget_everything() {
        TuningDb::global().clear();
        cache::clear();
    }

    fn take_key(&mut self) -> (Key, u64) {
        if self.next == self.keys.len() {
            // only a run far beyond 60 s gets here: start over with an empty db
            Self::forget_everything();
            self.next = 0;
        }
        let key = self.keys[self.next];
        self.next += 1;
        (key, self.next as u64)
    }

    /// Generates `key`'s operands; `stream` separates them from the next key's.
    fn start(&self, key: Key, stream: u64) -> Box<dyn Live> {
        let rng = &mut Rng::new(self.seed, 0x5eed_0000 + stream);
        let (tuned, plain) = (&self.tuned, &self.heuristic);
        match key.dtype {
            DType::F32 => Box::new(Run::<f32>::new(key, tuned, plain, rng)),
            DType::F64 => Box::new(Run::<f64>::new(key, tuned, plain, rng)),
            DType::C32 => Box::new(Run::<c32>::new(key, tuned, plain, rng)),
            DType::C64 => Box::new(Run::<c64>::new(key, tuned, plain, rng)),
        }
    }

    /// The next key's first call.
    fn first_slot(&mut self, rec: Option<&mut Recorder>, id: u32) -> SlotOut {
        let (key, stream) = self.take_key();
        let mut live = self.start(key, stream);
        let first = live.first(Some(&mut self.verdicts), rec, id);
        let peak_units_per_call = live.peak_units_per_call(self.isa);
        // Keys of one (op, dtype) class and size band are alike. Classes take
        // turns along the stream, and within a class the three bands do.
        let (class, band) = ((stream - 1) % CLASSES, (stream - 1) / CLASSES % 3);
        let stratum = 2 * (3 * class + band) as u32;
        self.current = Some(Current {
            live,
            stratum,
            remaining: WARM_CALLS,
            // one call, whose time then sizes the slots that follow
            chunk: 1,
            peak_units_per_call,
            life: Life {
                first_ns: first.ns,
                execute_ns: first.execute_ns,
                ..Life::default()
            },
        });
        SlotOut {
            stratum,
            ns: first.ns,
            // the sweep runs for its budget whatever the clock does
            budget_ns: (BUDGET_MS as f64 * 1e6).min(first.ns),
            attributed_ns: first.ns,
            execute_ns: first.execute_ns,
            calls: 1,
            peak_units: peak_units_per_call,
            failed: first.failed,
            ..SlotOut::default()
        }
    }

    /// The next slot of warm calls of the key under way.
    fn warm_slot(&mut self, mut cur: Current, rec: Option<&mut Recorder>, id: u32) -> SlotOut {
        let calls = cur.chunk.min(cur.remaining);
        let warm = cur.live.warm(calls, rec, id);
        cur.remaining -= calls;
        if warm.ns > 0.0 {
            cur.chunk = ((SLOT_NS * calls as f64 / warm.ns).round() as u64).max(1);
        }
        cur.life.warm_ns += warm.ns;
        cur.life.execute_ns += warm.execute_ns;
        if warm.heuristic_ns > 0.0 {
            cur.life.replayed += calls;
            cur.life.tuned_ns += warm.execute_ns;
            cur.life.heuristic_ns += warm.heuristic_ns;
        }
        // the time reported is the time inside library calls, traced or not:
        // generating and checking the key's operands is harness work
        let out = SlotOut {
            stratum: cur.stratum + 1,
            ns: warm.ns,
            attributed_ns: warm.ns,
            execute_ns: warm.execute_ns,
            calls,
            peak_units: calls as f64 * cur.peak_units_per_call,
            failed: warm.failed,
            ..SlotOut::default()
        };
        if cur.remaining == 0 {
            cur.live.finish(&mut self.verdicts);
            self.lives.push(cur.life);
        } else {
            self.current = Some(cur);
        }
        out
    }
}

/// What a key's first call cost.
#[derive(Copy, Clone, Debug, Default)]
struct First {
    ns: f64,
    /// The part spent in `execute` (traced run only).
    execute_ns: f64,
    failed: u64,
}

/// What a run of warm calls cost.
#[derive(Copy, Clone, Debug, Default)]
struct Warm {
    ns: f64,
    /// The part spent in `execute` (traced run only).
    execute_ns: f64,
    /// The same `execute` calls on the heuristic plan (traced run only).
    heuristic_ns: f64,
    failed: u64,
}

/// One key being lived through, whatever its dtype.
trait Live {
    /// The first call, checked against the oracle when `verdicts` is given;
    /// taken apart into spans when `rec` is.
    fn first(
        &mut self,
        verdicts: Option<&mut Verdicts>,
        rec: Option<&mut Recorder>,
        id: u32,
    ) -> First;
    /// `calls` warm calls.
    fn warm(&mut self, calls: u64, rec: Option<&mut Recorder>, id: u32) -> Warm;
    /// A second checked call: state that went wrong during the warm calls
    /// shows here.
    fn finish(&mut self, verdicts: &mut Verdicts);
    /// `ref.fma` units the useful flops of one call would take at peak.
    fn peak_units_per_call(&self, isa: Isa) -> f64;
}

struct Run<E: CompactElement> {
    prob: Problem<E>,
    /// Matrices the oracle checks.
    idx: Vec<usize>,
    tuned: TuningConfig,
    heuristic: TuningConfig,
    /// The tuned and the heuristic plan, held across the traced warm calls.
    held: Option<Held<E>>,
    plain: Option<Held<E>>,
}

impl<E: CompactElement> Run<E> {
    fn new(key: Key, tuned: &TuningConfig, heuristic: &TuningConfig, rng: &mut Rng) -> Self {
        Run {
            prob: Problem::new(key, tuned, rng),
            idx: sample_indices(COUNT, rng),
            tuned: tuned.clone(),
            heuristic: heuristic.clone(),
            held: None,
            plain: None,
        }
    }
}

impl<E: CompactElement> Live for Run<E> {
    fn first(
        &mut self,
        verdicts: Option<&mut Verdicts>,
        rec: Option<&mut Recorder>,
        id: u32,
    ) -> First {
        let Run {
            prob,
            idx,
            tuned,
            held,
            ..
        } = self;
        // what the call must leave in the sampled matrices
        let want = verdicts.is_some().then(|| prob.expected(idx));
        let (ok, ns, execute_ns) = match rec {
            None => {
                let t0 = Instant::now();
                let ok = prob.oneshot(tuned);
                (ok, t0.elapsed().as_nanos() as f64, 0.0)
            }
            Some(rec) => {
                let t = rec.open("core.autotune.ensure", id);
                prob.ensure(tuned);
                let ensure_ns = rec.close(t, 1) as f64;
                let t = rec.open("core.cache.miss", id);
                *held = prob.plan(tuned);
                let miss_ns = rec.close(t, 1) as f64;
                let t = rec.open("core.plan.execute", id);
                let ok = held.as_ref().is_some_and(|h| prob.execute(h));
                let execute_ns = rec.close(t, 1) as f64;
                (ok, ensure_ns + miss_ns + execute_ns, execute_ns)
            }
        };
        if let (Some(verdicts), Some(want)) = (verdicts, want) {
            verdicts.judge(prob, idx, &want, ok);
        }
        First {
            ns,
            execute_ns,
            failed: u64::from(!ok),
        }
    }

    fn warm(&mut self, calls: u64, rec: Option<&mut Recorder>, id: u32) -> Warm {
        let Run {
            prob,
            tuned,
            heuristic,
            held,
            plain,
            ..
        } = self;
        let mut failed = 0;
        let Some(rec) = rec else {
            let t0 = Instant::now();
            for _ in 0..calls {
                failed += u64::from(!prob.oneshot(tuned));
            }
            return Warm {
                ns: t0.elapsed().as_nanos() as f64,
                failed,
                ..Warm::default()
            };
        };
        // a key whose first call ran untraced holds no plans yet
        if held.is_none() {
            *held = prob.plan(tuned);
        }
        if plain.is_none() {
            *plain = prob.plan(heuristic);
        }
        let Some(held) = held else {
            return Warm {
                failed: calls,
                ..Warm::default()
            };
        };
        let t = rec.open("core.cache.lookup", id);
        for _ in 0..calls {
            let _ = std::hint::black_box(prob.plan(tuned));
        }
        let lookup_ns = rec.close(t, calls) as f64;
        let t = rec.open("core.plan.execute", id);
        for _ in 0..calls {
            failed += u64::from(!prob.execute(held));
        }
        let execute_ns = rec.close(t, calls) as f64;
        let mut heuristic_ns = 0.0;
        if let Some(plain) = plain {
            let t = rec.open("heuristic.replay", id);
            for _ in 0..calls {
                failed += u64::from(!prob.execute(plain));
            }
            heuristic_ns = rec.close(t, calls) as f64;
        }
        Warm {
            ns: lookup_ns + execute_ns,
            execute_ns,
            heuristic_ns,
            failed,
        }
    }

    fn finish(&mut self, verdicts: &mut Verdicts) {
        let want = self.prob.expected(&self.idx);
        let ok = self.prob.oneshot(&self.tuned);
        verdicts.judge(&self.prob, &self.idx, &want, ok);
        verdicts.unhealthy |= !self.prob.healthy();
    }

    fn peak_units_per_call(&self, isa: Isa) -> f64 {
        self.prob.flops() / peak_flops_per_unit(isa, E::DTYPE.scalar_bytes())
    }
}

/// A plan held across calls.
enum Held<E: CompactElement> {
    Gemm(Arc<GemmPlan<E>>),
    Trsm(Arc<TrsmPlan<E>>),
    Trmm(Arc<TrmmPlan<E>>),
}

/// One key's operands.
enum Problem<E: CompactElement> {
    Gemm {
        dims: GemmDims,
        mode: GemmMode,
        a: CompactBatch<E>,
        b: CompactBatch<E>,
        c: CompactBatch<E>,
    },
    Tri {
        solve: bool,
        dims: TrsmDims,
        mode: TrsmMode,
        a: CompactBatch<E>,
        b: CompactBatch<E>,
    },
}

fn filled<E: CompactElement>(
    rows: usize,
    cols: usize,
    scale: f64,
    cfg: &TuningConfig,
    rng: &mut Rng,
) -> CompactBatch<E> {
    // COUNT is a multiple of every interleaving factor, so there are no padding lanes to keep zero
    let mut x = CompactBatch::<E>::zeroed_at(rows, cols, COUNT, cfg.width);
    for s in x.as_scalars_mut() {
        *s = Real::from_f64(scale * rng.symmetric());
    }
    x
}

impl<E: CompactElement> Problem<E> {
    fn new(key: Key, cfg: &TuningConfig, rng: &mut Rng) -> Self {
        match key.op {
            Op::Gemm => {
                let dims = GemmDims::new(key.m, key.n, key.k);
                let mode = GemmMode::ALL[key.mode];
                let (ar, ac) = dims.a_shape(mode);
                let (br, bc) = dims.b_shape(mode);
                Problem::Gemm {
                    dims,
                    mode,
                    a: filled(ar, ac, 1.0, cfg, rng),
                    b: filled(br, bc, 1.0, cfg, rng),
                    c: filled(key.m, key.n, 1.0, cfg, rng),
                }
            }
            Op::Trsm | Op::Trmm => {
                let dims = TrsmDims::new(key.m, key.n);
                let mode = TrsmMode::all()[key.mode];
                let t = dims.triangle_order(mode);
                // I + N with ‖N‖ ≤ 0.01: 255 solves (or multiplies) in place change
                // magnitudes by at most 1.01²⁵⁵ ≈ 13, so values stay normal
                let mut a = filled::<E>(t, t, 0.01 / t as f64, cfg, rng);
                for v in 0..COUNT {
                    for i in 0..t {
                        a.set(v, i, i, E::one());
                    }
                }
                Problem::Tri {
                    solve: key.op == Op::Trsm,
                    dims,
                    mode,
                    a,
                    b: filled(key.m, key.n, 1.0, cfg, rng),
                }
            }
        }
    }

    fn flops(&self) -> f64 {
        match self {
            Problem::Gemm { dims, .. } => gemm_flops::<E>(*dims, COUNT),
            Problem::Tri { dims, mode, .. } => tri_flops::<E>(*dims, *mode, COUNT),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Problem::Gemm { dims, .. } => dims.k,
            Problem::Tri { dims, mode, .. } => dims.triangle_order(*mode),
        }
    }

    fn oneshot(&mut self, cfg: &TuningConfig) -> bool {
        match self {
            Problem::Gemm { mode, a, b, c, .. } => {
                compact_gemm(*mode, E::one(), a, b, E::one(), c, cfg)
            }
            Problem::Tri {
                solve: true,
                mode,
                a,
                b,
                ..
            } => compact_trsm(*mode, E::one(), a, b, cfg),
            Problem::Tri {
                solve: false,
                mode,
                a,
                b,
                ..
            } => compact_trmm(*mode, E::one(), a, b, cfg),
        }
        .is_ok()
    }

    fn ensure(&self, cfg: &TuningConfig) {
        match self {
            Problem::Gemm { dims, mode, .. } => {
                ensure_tuned_gemm::<E>(*dims, *mode, false, false, COUNT, cfg);
            }
            Problem::Tri {
                solve: true,
                dims,
                mode,
                ..
            } => {
                ensure_tuned_trsm::<E>(*dims, *mode, false, COUNT, cfg);
            }
            Problem::Tri {
                solve: false,
                dims,
                mode,
                ..
            } => {
                ensure_tuned_trmm::<E>(*dims, *mode, false, COUNT, cfg);
            }
        }
    }

    fn plan(&self, cfg: &TuningConfig) -> Option<Held<E>> {
        match self {
            Problem::Gemm { dims, mode, .. } => {
                cache::cached_gemm_plan::<E>(*dims, *mode, false, false, COUNT, cfg)
                    .ok()
                    .map(Held::Gemm)
            }
            Problem::Tri {
                solve: true,
                dims,
                mode,
                ..
            } => cache::cached_trsm_plan::<E>(*dims, *mode, false, COUNT, cfg)
                .ok()
                .map(Held::Trsm),
            Problem::Tri {
                solve: false,
                dims,
                mode,
                ..
            } => cache::cached_trmm_plan::<E>(*dims, *mode, false, COUNT, cfg)
                .ok()
                .map(Held::Trmm),
        }
    }

    fn execute(&mut self, held: &Held<E>) -> bool {
        match (self, held) {
            (Problem::Gemm { a, b, c, .. }, Held::Gemm(p)) => {
                p.execute(E::one(), a, b, E::one(), c).is_ok()
            }
            (Problem::Tri { a, b, .. }, Held::Trsm(p)) => p.execute(E::one(), a, b).is_ok(),
            (Problem::Tri { a, b, .. }, Held::Trmm(p)) => p.execute(E::one(), a, b).is_ok(),
            _ => false,
        }
    }

    /// What the next call must leave in the sampled matrices.
    fn expected(&self, idx: &[usize]) -> StdBatch<E> {
        match self {
            Problem::Gemm { mode, a, b, c, .. } => {
                let mut want = gather_compact(c, idx);
                naive::gemm_ref(
                    *mode,
                    false,
                    false,
                    E::one(),
                    &gather_compact(a, idx),
                    &gather_compact(b, idx),
                    E::one(),
                    &mut want,
                );
                want
            }
            Problem::Tri {
                solve, mode, a, b, ..
            } => {
                let mut want = gather_compact(b, idx);
                let a_s = gather_compact(a, idx);
                if *solve {
                    naive::trsm_ref(*mode, false, E::one(), &a_s, &mut want);
                } else {
                    naive::trmm_ref(*mode, false, E::one(), &a_s, &mut want);
                }
                want
            }
        }
    }

    fn output(&self, idx: &[usize]) -> StdBatch<E> {
        match self {
            Problem::Gemm { c, .. } => gather_compact(c, idx),
            Problem::Tri { b, .. } => gather_compact(b, idx),
        }
    }

    fn healthy(&self) -> bool {
        match self {
            Problem::Gemm { c, .. } => scalars_healthy(c.as_scalars()),
            Problem::Tri { b, .. } => scalars_healthy(b.as_scalars()),
        }
    }
}

impl Workload for FirstTouch {
    fn name(&self) -> &'static str {
        "first_touch"
    }

    fn reference(&self) -> RefKind {
        RefKind::Fma
    }

    fn footprint(&self) -> usize {
        3 * 13 * 13 * COUNT * 16
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.text("first_touch");
        for k in &self.keys[..256] {
            for w in [k.op as usize, k.dtype as usize, k.m, k.n, k.k, k.mode] {
                d.word(w as u64);
            }
        }
        d.value()
    }

    fn describe(&self) -> String {
        format!(
            "stream of unseen keys, {} per (op, dtype) class, count={COUNT}, 1 cold + {WARM_CALLS} warm calls each, FirstTouch({BUDGET_MS})",
            KEYS_PER_CLASS
        )
    }

    fn cold_pass(&mut self) -> SlotOut {
        Self::forget_everything();
        let mut out = SlotOut::default();
        for (i, key) in cold_keys().into_iter().enumerate() {
            let first = self.start(key, 0xc01d + i as u64).first(None, None, 0);
            out.ns += first.ns;
            out.calls += 1;
            out.failed += first.failed;
        }
        out
    }

    fn calibrate(&mut self) {
        Self::forget_everything();
    }

    fn slot(&mut self, mut rec: Option<&mut Recorder>, id: u32) -> SlotOut {
        let span = rec.as_deref_mut().map(|r| r.open("slot", id));
        let out = match self.current.take() {
            None => self.first_slot(rec.as_deref_mut(), id),
            Some(cur) => self.warm_slot(cur, rec.as_deref_mut(), id),
        };
        if let (Some(rec), Some(span)) = (rec, span) {
            rec.close(span, out.calls);
        }
        out
    }

    fn check(&mut self, _rng: &mut Rng, inject: bool) -> (u64, u64) {
        // every key is checked as it runs; an injected fault lands on the next one
        self.verdicts.inject |= inject;
        (
            std::mem::take(&mut self.verdicts.attempted),
            std::mem::take(&mut self.verdicts.mismatched),
        )
    }

    fn healthy(&self) -> bool {
        !self.verdicts.unhealthy
    }

    fn profile(
        &mut self,
        _rec: &mut Recorder,
        _acc: &mut LayerAcc,
        _yard: &mut Yardstick,
        _budget: Duration,
    ) {
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut first: Vec<f64> = self.lives.iter().map(|l| l.first_ns * 1e-6).collect();
        let first_total: f64 = self.lives.iter().map(|l| l.first_ns).sum();
        let total: f64 = self.lives.iter().map(|l| l.first_ns + l.warm_ns).sum();
        let replayed = || self.lives.iter().filter(|l| l.replayed > 0);
        let ratios: Vec<f64> = replayed()
            .map(|l| l.heuristic_ns / l.tuned_ns.max(1.0))
            .collect();
        // calls after which a key's sweep has paid for itself, where it ever does
        let mut breakeven: Vec<f64> = replayed()
            .filter_map(|l| {
                let saved = (l.heuristic_ns - l.tuned_ns) / l.replayed as f64;
                (saved > 0.0).then(|| l.first_ns / saved)
            })
            .collect();
        let entries = TuningDb::global().entries();
        let strict = entries
            .iter()
            .filter(|(_, e)| e.heuristic_gflops < e.tuned_gflops * (1.0 - e.noise))
            .count();
        vec![
            ("core.autotune.first_call_ms_p50", stats::median(&mut first)),
            (
                "core.autotune.first_call_share",
                crate::layers::ratio(first_total, total),
            ),
            (
                "core.autotune.tuned_over_heuristic",
                stats::geomean(&ratios),
            ),
            (
                "core.autotune.strict_win_ratio",
                crate::layers::ratio(strict as f64, entries.len() as f64),
            ),
            (
                "core.autotune.breakeven_calls",
                stats::median(&mut breakeven),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_is_seeded_and_classes_take_turns() {
        let isa = Isa::Scalar;
        let a = FirstTouch::new(3, isa);
        let b = FirstTouch::new(3, isa);
        let c = FirstTouch::new(4, isa);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.keys.len(), 12 * KEYS_PER_CLASS);
        for (i, k) in a.keys.iter().take(48).enumerate() {
            assert_eq!((k.op, k.dtype), (a.keys[i % 12].op, a.keys[i % 12].dtype));
            assert!(DIMS.contains(&k.m) && DIMS.contains(&k.n));
        }
        // within a class the size bands take turns: small, medium, large
        let work = |k: &Key| k.m * k.n * k.k.max(1);
        for i in (0..48).step_by(3) {
            assert!(work(&a.keys[12 * i]) < work(&a.keys[12 * (i + 2)]));
        }
        let mut seen = std::collections::HashSet::new();
        assert!(a
            .keys
            .iter()
            .all(|k| seen.insert((k.op as u8, k.dtype, k.m, k.n, k.k, k.mode))));
    }

    #[test]
    fn problems_agree_with_the_oracle_and_stay_normal() {
        let cfg = TuningConfig::host();
        let idx = [0, COUNT - 1];
        for (op, mode) in [(Op::Gemm, 2), (Op::Trsm, 5), (Op::Trmm, 11)] {
            let key = Key {
                op,
                dtype: DType::F32,
                m: 7,
                n: 5,
                k: 6,
                mode,
            };
            let mut p = Problem::<f32>::new(key, &cfg, &mut Rng::new(1, 1));
            for _ in 0..WARM_CALLS {
                assert!(p.oneshot(&cfg));
            }
            let want = p.expected(&idx);
            assert!(p.oneshot(&cfg));
            assert!(agrees(&p.output(&idx), &want, p.depth()), "{op:?}");
            assert!(p.healthy(), "{op:?}");
            let held = p.plan(&cfg).expect("valid key");
            assert!(p.execute(&held));
        }
    }
}
