//! Behavioural guarantees of the empirical autotuner.
//!
//! * Tuned plans must be **bit-identical** to heuristic plans: tuning may
//!   change *how* the work is scheduled (packing, super-block size), never
//!   *what* is computed. Verified across all four dtypes × GEMM/TRSM/TRMM
//!   with a forced tuned entry that provably changes the plan structure.
//! * Recording a new winner bumps the db generation, which changes the
//!   plan-cache fingerprint of tuning-aware configs — previously cached
//!   plans become unreachable (stale plans age out by eviction).
//! * A corrupt db degrades to pure heuristics at the plan level.
//! * First-touch tuning sweeps once, records, and still returns
//!   bit-identical results through the public API.
//! * Under the default `Auto` pack policy the sweep never races the fully
//!   packed plan (it cannot beat `Auto`); swept from a packed base it
//!   still races `Auto`.
//! * A db persisted while `PackPolicy::Never` existed still loads, and its
//!   `Never` entries plan like `Auto`.
//!
//! The tuning db and plan cache are process-global, so every test
//! serializes on one mutex, disables db persistence, and starts clean.

use iatf_core::autotune::{gemm_tune_key, sweep_configs, trmm_tune_key, trsm_tune_key};
use iatf_core::plan::cache;
use iatf_core::{
    compact_gemm, compact_trmm, compact_trsm, CompactElement, GemmPlan, PackPolicy, TrmmPlan,
    TrsmPlan, TunePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch, TrsmDims, TrsmMode};
use iatf_simd::{c32, c64, dispatched_width, Real};
use iatf_tune::{TunedEntry, TuningDb};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests and resets the global tuning db (persistence off, so
/// nothing is written to the user's cache directory) and the plan cache.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let db = TuningDb::global();
    db.set_path(None);
    db.clear();
    cache::clear();
    guard
}

/// A tuned entry that forces structurally different plans than the default
/// heuristics: packing everywhere and a tiny super-block.
fn forced_entry() -> TunedEntry {
    TunedEntry {
        pack: 1, // Always
        group_packs: 2,
        l1_fraction: 0.25,
        parallel: false,
        tuned_gflops: 1.0,
        heuristic_gflops: 1.0,
        noise: 0.0,
        provenance: Default::default(),
    }
}

/// Bit pattern of every scalar in the batch (`to_f64` widens losslessly,
/// so equal bit vectors mean bitwise-equal results, signed zeros included).
fn bits<E: CompactElement>(c: &CompactBatch<E>) -> Vec<u64> {
    assert_eq!(c.padding_lanes(), 0, "pick counts that fill every lane");
    c.as_scalars()
        .iter()
        .map(|x| x.to_f64().to_bits())
        .collect()
}

fn heuristic_cfg() -> TuningConfig {
    TuningConfig::default()
}

fn cached_cfg() -> TuningConfig {
    TuningConfig {
        tune: TunePolicy::Cached,
        ..heuristic_cfg()
    }
}

/// Group count divisible by every dtype's pack width (f32 P=4, rest ≤ 4).
const COUNT: usize = 16;

fn gemm_bitexact<E: CompactElement>(m: usize, n: usize, k: usize) {
    let dims = GemmDims::new(m, n, k);
    let a = CompactBatch::<E>::from_std(&StdBatch::random(m, k, COUNT, 1));
    let b = CompactBatch::<E>::from_std(&StdBatch::random(k, n, COUNT, 2));
    let run = |cfg: &TuningConfig| {
        let mut c = CompactBatch::<E>::zeroed(m, n, COUNT);
        compact_gemm(GemmMode::NN, E::one(), &a, &b, E::zero(), &mut c, cfg).unwrap();
        c
    };
    let c_heuristic = run(&heuristic_cfg());

    TuningDb::global().record(
        gemm_tune_key::<E>(dims, GemmMode::NN, false, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    let cfg = cached_cfg();
    // The forced entry must actually change the plan, or this test checks
    // nothing.
    let ph = GemmPlan::<E>::new(dims, GemmMode::NN, false, false, COUNT, &heuristic_cfg()).unwrap();
    let pt = GemmPlan::<E>::new(dims, GemmMode::NN, false, false, COUNT, &cfg).unwrap();
    assert!(
        ph.a_plan != pt.a_plan || ph.b_plan != pt.b_plan || ph.group_packs != pt.group_packs,
        "forced entry produced an identical plan for {}",
        std::any::type_name::<E>()
    );
    let c_tuned = run(&cfg);
    assert_eq!(
        bits(&c_heuristic),
        bits(&c_tuned),
        "tuned GEMM diverged for {}",
        std::any::type_name::<E>()
    );
}

fn trsm_bitexact<E: CompactElement>(q: usize, n: usize) {
    let mode = TrsmMode::all()[0]; // Left / Lower / NoTrans / NonUnit
    let dims = TrsmDims::new(q, n);
    let a = CompactBatch::<E>::from_std(&StdBatch::random_triangular(
        q, COUNT, mode.uplo, mode.diag, 3,
    ));
    let b0 = CompactBatch::<E>::from_std(&StdBatch::random(q, n, COUNT, 4));
    let run = |cfg: &TuningConfig| {
        let mut b = b0.clone();
        compact_trsm(mode, E::one(), &a, &mut b, cfg).unwrap();
        b
    };
    let x_heuristic = run(&heuristic_cfg());

    TuningDb::global().record(trsm_tune_key::<E>(dims, mode, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    let cfg = cached_cfg();
    let ph = TrsmPlan::<E>::new(dims, mode, false, COUNT, &heuristic_cfg()).unwrap();
    let pt = TrsmPlan::<E>::new(dims, mode, false, COUNT, &cfg).unwrap();
    assert!(
        ph.b_plan != pt.b_plan || ph.group_packs != pt.group_packs,
        "forced entry produced an identical TRSM plan for {}",
        std::any::type_name::<E>()
    );
    let x_tuned = run(&cfg);
    assert_eq!(
        bits(&x_heuristic),
        bits(&x_tuned),
        "tuned TRSM diverged for {}",
        std::any::type_name::<E>()
    );
}

fn trmm_bitexact<E: CompactElement>(q: usize, n: usize) {
    let mode = TrsmMode::all()[0];
    let dims = TrsmDims::new(q, n);
    let a = CompactBatch::<E>::from_std(&StdBatch::random_triangular(
        q, COUNT, mode.uplo, mode.diag, 5,
    ));
    let b0 = CompactBatch::<E>::from_std(&StdBatch::random(q, n, COUNT, 6));
    let run = |cfg: &TuningConfig| {
        let mut b = b0.clone();
        compact_trmm(mode, E::one(), &a, &mut b, cfg).unwrap();
        b
    };
    let y_heuristic = run(&heuristic_cfg());

    TuningDb::global().record(trmm_tune_key::<E>(dims, mode, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    let cfg = cached_cfg();
    let ph = TrmmPlan::<E>::new(dims, mode, false, COUNT, &heuristic_cfg()).unwrap();
    let pt = TrmmPlan::<E>::new(dims, mode, false, COUNT, &cfg).unwrap();
    assert!(
        ph.b_plan != pt.b_plan || ph.group_packs != pt.group_packs,
        "forced entry produced an identical TRMM plan for {}",
        std::any::type_name::<E>()
    );
    let y_tuned = run(&cfg);
    assert_eq!(
        bits(&y_heuristic),
        bits(&y_tuned),
        "tuned TRMM diverged for {}",
        std::any::type_name::<E>()
    );
}

#[test]
fn tuned_plans_are_bit_identical_across_dtypes_and_ops() {
    let _g = lock();
    // Shapes with both full and remainder tiles for every kernel family.
    gemm_bitexact::<f32>(7, 6, 5);
    gemm_bitexact::<f64>(7, 6, 5);
    gemm_bitexact::<c32>(5, 4, 3);
    gemm_bitexact::<c64>(5, 4, 3);
    trsm_bitexact::<f32>(9, 6);
    trsm_bitexact::<f64>(9, 6);
    trsm_bitexact::<c32>(5, 4);
    trsm_bitexact::<c64>(5, 4);
    trmm_bitexact::<f32>(9, 6);
    trmm_bitexact::<f64>(9, 6);
    trmm_bitexact::<c32>(5, 4);
    trmm_bitexact::<c64>(5, 4);
}

#[test]
fn generation_bump_invalidates_cached_plans() {
    let _g = lock();
    let cfg = TuningConfig {
        tune: TunePolicy::Cached,
        ..TuningConfig::default()
    };
    let dims = GemmDims::new(6, 6, 6);
    let a = CompactBatch::<f64>::from_std(&StdBatch::random(6, 6, COUNT, 1));
    let b = CompactBatch::<f64>::from_std(&StdBatch::random(6, 6, COUNT, 2));
    let mut c = CompactBatch::<f64>::zeroed(6, 6, COUNT);
    let run = |c: &mut CompactBatch<f64>| {
        compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, c, &cfg).unwrap();
    };

    run(&mut c);
    let s1 = cache::stats();
    assert_eq!((s1.misses, s1.hits), (1, 0));
    run(&mut c);
    let s2 = cache::stats();
    assert_eq!((s2.misses, s2.hits), (1, 1), "same generation must hit");

    // Recording any winner bumps the generation: the old cached plan's key
    // no longer matches, so the next call rebuilds with the new db state.
    TuningDb::global().record(
        gemm_tune_key::<f64>(dims, GemmMode::NN, false, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    run(&mut c);
    let s3 = cache::stats();
    assert_eq!(s3.misses, 2, "generation bump must invalidate the cached plan");

    // Heuristic configs are generation-independent: their fingerprints (and
    // thus cached plans) survive db mutations.
    let heuristic = TuningConfig::default();
    let f = heuristic.fingerprint();
    TuningDb::global().record(
        gemm_tune_key::<f64>(GemmDims::new(2, 2, 2), GemmMode::NN, false, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    assert_eq!(f, heuristic.fingerprint());
}

#[test]
fn corrupt_db_degrades_to_heuristic_plans() {
    let _g = lock();
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tune-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("core-corrupt-{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\": 1, \"entr").unwrap();

    let db = TuningDb::global();
    db.record(
        gemm_tune_key::<f64>(GemmDims::new(6, 6, 6), GemmMode::NN, false, false, COUNT, dispatched_width()),
        forced_entry(),
    );
    assert_eq!(db.load_from(&path), iatf_tune::LoadOutcome::Corrupt);
    assert!(db.is_empty());

    // With the db emptied, a Cached config plans exactly like Heuristic.
    let dims = GemmDims::new(6, 6, 6);
    let ph = GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, COUNT, &heuristic_cfg()).unwrap();
    let pt = GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, COUNT, &cached_cfg()).unwrap();
    assert_eq!(ph.a_plan, pt.a_plan);
    assert_eq!(ph.b_plan, pt.b_plan);
    assert_eq!(ph.group_packs, pt.group_packs);
    std::fs::remove_file(&path).ok();
}

#[test]
fn first_touch_sweeps_records_and_stays_bit_identical() {
    let _g = lock();
    let m = 6;
    let a = CompactBatch::<f32>::from_std(&StdBatch::random(m, m, COUNT, 7));
    let b = CompactBatch::<f32>::from_std(&StdBatch::random(m, m, COUNT, 8));
    let mut c_h = CompactBatch::<f32>::zeroed(m, m, COUNT);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c_h, &heuristic_cfg()).unwrap();

    let db = TuningDb::global();
    assert!(db.is_empty());
    let cfg = TuningConfig {
        tune: TunePolicy::FirstTouch(5),
        ..heuristic_cfg()
    };
    let mut c_t = CompactBatch::<f32>::zeroed(m, m, COUNT);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c_t, &cfg).unwrap();
    let key = gemm_tune_key::<f32>(
        GemmDims::new(m, m, m),
        GemmMode::NN,
        false,
        false,
        COUNT,
        dispatched_width(),
    );
    let entry = db.lookup(&key).expect("first touch must record a winner");
    assert_ne!(entry.pack, 1, "an Auto-base sweep recorded PackPolicy::Always");
    assert!(entry.tuned_gflops > 0.0 && entry.tuned_gflops.is_finite());
    assert!(entry.tuned_gflops >= entry.heuristic_gflops * 0.99999);
    assert_eq!(bits(&c_h), bits(&c_t));

    // Second call: entry already present, no second sweep (len stable).
    let len = db.len();
    let gen = db.generation();
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c_t, &cfg).unwrap();
    assert_eq!(db.len(), len);
    assert_eq!(db.generation(), gen);
    assert_eq!(bits(&c_h), bits(&c_t));

    // TRSM and TRMM first-touch paths record under their own keys.
    let mode = TrsmMode::all()[0];
    let ta = CompactBatch::<f64>::from_std(&StdBatch::random_triangular(
        m, COUNT, mode.uplo, mode.diag, 9,
    ));
    let mut tb = CompactBatch::<f64>::from_std(&StdBatch::random(m, m, COUNT, 10));
    compact_trsm(mode, 1.0, &ta, &mut tb, &cfg).unwrap();
    assert!(db
        .lookup(&trsm_tune_key::<f64>(
            TrsmDims::new(m, m),
            mode,
            false,
            COUNT,
            dispatched_width()
        ))
        .is_some());
    compact_trmm(mode, 1.0, &ta, &mut tb, &cfg).unwrap();
    assert!(db
        .lookup(&trmm_tune_key::<f64>(
            TrsmDims::new(m, m),
            mode,
            false,
            COUNT,
            dispatched_width()
        ))
        .is_some());
}

#[test]
fn auto_base_never_races_always_and_a_packed_base_still_offers_auto() {
    let auto = heuristic_cfg();
    assert_eq!(auto.pack, PackPolicy::Auto);
    let packed = TuningConfig {
        pack: PackPolicy::Always,
        ..auto.clone()
    };
    for gp0 in [1, 2, 7, 64] {
        let from_auto = sweep_configs(&auto, gp0);
        assert_eq!(from_auto[0].pack, PackPolicy::Auto);
        assert!(from_auto.iter().all(|c| c.pack == PackPolicy::Auto));
        let from_packed = sweep_configs(&packed, gp0);
        assert_eq!(from_packed[0].pack, PackPolicy::Always);
        assert!(from_packed.iter().any(|c| c.pack == PackPolicy::Auto));
    }
}

#[test]
fn a_persisted_never_entry_loads_and_plans_like_auto() {
    let _g = lock();
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tune-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("core-never-{}.json", std::process::id()));
    let log = dir.join(format!("core-never-{}.json.log", std::process::id()));
    let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));

    // A db written by a build that still had `Never` (pack code 2), with a
    // super-block size the heuristic would not pick.
    let (dims, mode) = (TrsmDims::new(9, 6), TrsmMode::LNLN);
    let key = trsm_tune_key::<f64>(dims, mode, false, COUNT, dispatched_width());
    let writer = TuningDb::in_memory();
    writer.set_path(Some(path.clone()));
    writer.record(key, TunedEntry { pack: 2, group_packs: 1, ..forced_entry() });

    let db = TuningDb::global();
    assert_eq!(db.load_from(&path), iatf_tune::LoadOutcome::Loaded(1));
    assert_eq!(db.lookup(&key).map(|e| e.pack), Some(2));
    let ph = TrsmPlan::<f64>::new(dims, mode, false, COUNT, &heuristic_cfg()).unwrap();
    let pt = TrsmPlan::<f64>::new(dims, mode, false, COUNT, &cached_cfg()).unwrap();
    assert_eq!((pt.a_plan, pt.b_plan), (ph.a_plan, ph.b_plan));
    assert_eq!(pt.group_packs, 1, "the entry must still apply");
    let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));
}
