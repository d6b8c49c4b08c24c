//! Width-generic execution guarantees.
//!
//! * Every vector width the host can run (and the scalar reference) must
//!   agree with the scalar backend within FMA-reassociation tolerance,
//!   for all four dtypes across GEMM/TRSM/TRMM. The compact layout
//!   changes shape with the width (`P` = 2…16), so this also exercises
//!   packing and remainder handling at every lane count.
//! * Serial and parallel execution must stay bit-identical at every
//!   width, not just the dispatched one.
//! * A plan built for one width must reject batches laid out at another
//!   with [`LayoutError::WidthMismatch`] — through the public API.
//! * A tuning-db entry recorded at one width must never influence a plan
//!   built for another width: the width is part of the `TuneKey`.

use iatf_baselines::naive;
use iatf_core::autotune::gemm_tune_key;
use iatf_core::{
    compact_gemm, compact_trmm, compact_trsm, CompactElement, GemmPlan, TunePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, LayoutError, StdBatch, TrsmMode};
use iatf_simd::{available_widths, c32, c64, Element, Real, VecWidth};

fn tol<E: Element>(k: usize) -> f64 {
    let base = if E::Real::BYTES == 4 { 1e-4 } else { 1e-12 };
    base * (k.max(1) as f64).sqrt()
}

fn cfg_at(width: VecWidth) -> TuningConfig {
    TuningConfig {
        width,
        ..TuningConfig::default()
    }
}

/// GEMM at `width` against the naive reference (shape with remainder
/// tiles at every lane count: 9×7×5, count not a multiple of any `P`).
fn gemm_at_width<E: CompactElement>(width: VecWidth) {
    let (m, n, k, count) = (9usize, 7usize, 5usize, 11usize);
    let a = StdBatch::<E>::random(m, k, count, 0x51);
    let b = StdBatch::<E>::random(k, n, count, 0x52);
    let c0 = StdBatch::<E>::random(m, n, count, 0x53);
    let ca = CompactBatch::from_std_at(&a, width);
    let cb = CompactBatch::from_std_at(&b, width);
    let mut cc = CompactBatch::from_std_at(&c0, width);
    compact_gemm(GemmMode::NN, E::one(), &ca, &cb, E::one(), &mut cc, &cfg_at(width)).unwrap();

    let mut want = c0.clone();
    naive::gemm_ref(GemmMode::NN, false, false, E::one(), &a, &b, E::one(), &mut want);
    let diff = want.max_abs_diff(&cc.to_std());
    assert!(
        diff <= tol::<E>(k),
        "gemm {:?} at {width}: diff {diff}",
        E::DTYPE
    );
}

fn trsm_at_width<E: CompactElement>(width: VecWidth) {
    let mode = TrsmMode::LNLN;
    let (q, n, count) = (9usize, 6usize, 11usize);
    let a = StdBatch::<E>::random_triangular(q, count, mode.uplo, mode.diag, 0x54);
    let b0 = StdBatch::<E>::random(q, n, count, 0x55);
    let ca = CompactBatch::from_std_at(&a, width);
    let mut cb = CompactBatch::from_std_at(&b0, width);
    compact_trsm(mode, E::one(), &ca, &mut cb, &cfg_at(width)).unwrap();

    let mut want = b0.clone();
    naive::trsm_ref(mode, false, E::one(), &a, &mut want);
    let diff = want.max_abs_diff(&cb.to_std());
    assert!(
        diff <= tol::<E>(q) * 10.0,
        "trsm {:?} at {width}: diff {diff}",
        E::DTYPE
    );
}

fn trmm_at_width<E: CompactElement>(width: VecWidth) {
    let mode = TrsmMode::LNLN;
    let (q, n, count) = (9usize, 6usize, 11usize);
    let a = StdBatch::<E>::random_triangular(q, count, mode.uplo, mode.diag, 0x56);
    let b0 = StdBatch::<E>::random(q, n, count, 0x57);
    let ca = CompactBatch::from_std_at(&a, width);
    let mut cb = CompactBatch::from_std_at(&b0, width);
    compact_trmm(mode, E::one(), &ca, &mut cb, &cfg_at(width)).unwrap();

    let mut want = b0.clone();
    naive::trmm_ref(mode, false, E::one(), &a, &mut want);
    let diff = want.max_abs_diff(&cb.to_std());
    assert!(
        diff <= tol::<E>(q) * 10.0,
        "trmm {:?} at {width}: diff {diff}",
        E::DTYPE
    );
}

#[test]
fn every_available_width_agrees_with_the_reference() {
    for &width in available_widths() {
        gemm_at_width::<f32>(width);
        gemm_at_width::<f64>(width);
        gemm_at_width::<c32>(width);
        gemm_at_width::<c64>(width);
        trsm_at_width::<f32>(width);
        trsm_at_width::<f64>(width);
        trsm_at_width::<c32>(width);
        trsm_at_width::<c64>(width);
        trmm_at_width::<f32>(width);
        trmm_at_width::<f64>(width);
        trmm_at_width::<c32>(width);
        trmm_at_width::<c64>(width);
    }
}

/// The forced-scalar backend and each SIMD width see the same packed
/// operand bytes per logical element, so a direct cross-width comparison
/// (not just reference agreement) pins down lane-shuffle bugs that a
/// loose tolerance against the reference could mask.
#[test]
fn wider_backends_match_scalar_within_fma_tolerance() {
    for &width in available_widths() {
        if width == VecWidth::Scalar {
            continue;
        }
        let (m, n, k, count) = (8usize, 8usize, 8usize, 16usize);
        let a = StdBatch::<f64>::random(m, k, count, 0x60);
        let b = StdBatch::<f64>::random(k, n, count, 0x61);
        let run = |w: VecWidth| {
            let ca = CompactBatch::from_std_at(&a, w);
            let cb = CompactBatch::from_std_at(&b, w);
            let mut cc = CompactBatch::<f64>::zeroed_at(m, n, count, w);
            compact_gemm(GemmMode::NN, 1.0, &ca, &cb, 0.0, &mut cc, &cfg_at(w)).unwrap();
            cc.to_std()
        };
        let scalar = run(VecWidth::Scalar);
        let wide = run(width);
        let diff = scalar.max_abs_diff(&wide);
        // One rounding step per FMA pairing difference, k terms deep.
        assert!(diff <= 1e-13 * (k as f64), "{width}: diff {diff}");
    }
}

#[test]
fn width_mismatched_batches_are_rejected_end_to_end() {
    let (m, n, k, count) = (4usize, 4usize, 4usize, 8usize);
    let cfg = cfg_at(VecWidth::W128);
    let a = CompactBatch::from_std_at(&StdBatch::<f32>::random(m, k, count, 1), VecWidth::W128);
    let b = CompactBatch::from_std_at(&StdBatch::<f32>::random(k, n, count, 2), VecWidth::W128);
    // C laid out at the scalar width, plan built for W128.
    let mut c = CompactBatch::<f32>::zeroed_at(m, n, count, VecWidth::Scalar);
    let err = compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap_err();
    assert_eq!(
        err,
        LayoutError::WidthMismatch {
            operand: "C",
            expected: VecWidth::W128,
            got: VecWidth::Scalar,
        }
    );
    // Same shapes at the right width succeed.
    let mut c = CompactBatch::<f32>::zeroed_at(m, n, count, VecWidth::W128);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
}

/// Acceptance criterion: a tuning-db entry recorded at `P = 4` (f32 at
/// 128-bit) must never supply a pack override to a `P = 8` (256-bit)
/// plan. The widths key separately, so the W256 lookup misses and the
/// plan falls back to pure heuristics.
#[test]
fn db_entry_from_one_width_never_serves_another() {
    use iatf_tune::{TunedEntry, TuningDb};
    let db = TuningDb::global();
    db.set_path(None);
    db.clear();

    let dims = GemmDims::new(8, 8, 8);
    const COUNT: usize = 16;
    // Record a winner at W128 that provably changes plan structure.
    db.record(
        gemm_tune_key::<f32>(dims, GemmMode::NN, false, false, COUNT, VecWidth::W128),
        TunedEntry {
            pack: 1, // Always
            group_packs: 2,
            l1_fraction: 0.25,
            parallel: false,
            tuned_gflops: 1.0,
            heuristic_gflops: 1.0,
            noise: 0.0,
            provenance: Default::default(),
        },
    );
    let plan_at = |width: VecWidth, tune: TunePolicy| {
        let cfg = TuningConfig {
            width,
            tune,
            ..cfg_at(width)
        };
        GemmPlan::<f32>::new(dims, GemmMode::NN, false, false, COUNT, &cfg).unwrap()
    };
    // At W128 the entry applies: the tuned plan differs from heuristic.
    let h128 = plan_at(VecWidth::W128, TunePolicy::Heuristic);
    let t128 = plan_at(VecWidth::W128, TunePolicy::Cached);
    assert!(
        h128.a_plan != t128.a_plan || h128.b_plan != t128.b_plan
            || h128.group_packs != t128.group_packs,
        "forced W128 entry failed to change the W128 plan"
    );
    // At W256 the same db must be invisible: tuned == heuristic.
    let h256 = plan_at(VecWidth::W256, TunePolicy::Heuristic);
    let t256 = plan_at(VecWidth::W256, TunePolicy::Cached);
    assert_eq!(h256.a_plan, t256.a_plan);
    assert_eq!(h256.b_plan, t256.b_plan);
    assert_eq!(h256.group_packs, t256.group_packs);
    db.clear();
}

#[cfg(feature = "parallel")]
#[test]
fn parallel_matches_serial_bitwise_at_every_width() {
    for &width in available_widths() {
        let (m, n, k, count) = (9usize, 7usize, 5usize, 33usize);
        let a = CompactBatch::from_std_at(&StdBatch::<f32>::random(m, k, count, 3), width);
        let b = CompactBatch::from_std_at(&StdBatch::<f32>::random(k, n, count, 4), width);
        let plan = GemmPlan::<f32>::new(
            GemmDims::new(m, n, k),
            GemmMode::NN,
            false,
            false,
            count,
            &cfg_at(width),
        )
        .unwrap();
        let mut c_seq = CompactBatch::<f32>::zeroed_at(m, n, count, width);
        plan.execute(1.5, &a, &b, 0.0, &mut c_seq).unwrap();
        let mut c_par = CompactBatch::<f32>::zeroed_at(m, n, count, width);
        plan.execute_parallel(1.5, &a, &b, 0.0, &mut c_par).unwrap();
        assert_eq!(c_seq.as_scalars(), c_par.as_scalars(), "{width}");
    }
}
