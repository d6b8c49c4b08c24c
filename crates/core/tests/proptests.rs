//! Property-based tests: random shapes, modes, batch counts and scalars,
//! checked against the scalar oracle and against algebraic invariants.

use iatf_baselines::naive;
use iatf_core::{compact_gemm, compact_trsm, GemmPlan, TuningConfig};
use iatf_layout::{
    CompactBatch, Diag, GemmDims, GemmMode, Side, StdBatch, Trans, TrsmMode, Uplo,
};
use iatf_simd::{c64, Element};
use proptest::prelude::*;

fn gemm_mode_strategy() -> impl Strategy<Value = GemmMode> {
    prop_oneof![
        Just(GemmMode::NN),
        Just(GemmMode::NT),
        Just(GemmMode::TN),
        Just(GemmMode::TT),
    ]
}

fn trsm_mode_strategy() -> impl Strategy<Value = TrsmMode> {
    (
        prop_oneof![Just(Side::Left), Just(Side::Right)],
        prop_oneof![Just(Trans::No), Just(Trans::Yes)],
        prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)],
        prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
    )
        .prop_map(|(s, t, u, d)| TrsmMode::new(s, t, u, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_f64_matches_oracle(
        m in 1usize..=34,
        n in 1usize..=34,
        k in 1usize..=34,
        mode in gemm_mode_strategy(),
        count in 1usize..=9,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in any::<u32>(),
    ) {
        let (ar, ac) = match mode.transa { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match mode.transb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = StdBatch::<f64>::random(ar, ac, count, seed as u64);
        let b = StdBatch::<f64>::random(br, bc, count, seed as u64 + 1);
        let c0 = StdBatch::<f64>::random(m, n, count, seed as u64 + 2);
        let ca = CompactBatch::from_std(&a);
        let cb = CompactBatch::from_std(&b);
        let mut cc = CompactBatch::from_std(&c0);
        compact_gemm(mode, alpha, &ca, &cb, beta, &mut cc, &TuningConfig::default()).unwrap();
        let mut want = c0.clone();
        naive::gemm_ref(mode, false, false, alpha, &a, &b, beta, &mut want);
        let diff = want.max_abs_diff(&cc.to_std());
        prop_assert!(diff < 1e-11 * (k as f64).sqrt().max(1.0), "diff {diff}");
    }

    #[test]
    fn gemm_c64_matches_oracle(
        m in 1usize..=16,
        n in 1usize..=16,
        k in 1usize..=16,
        mode in gemm_mode_strategy(),
        count in 1usize..=5,
        ar_ in -1.0f64..1.0,
        ai_ in -1.0f64..1.0,
        seed in any::<u32>(),
    ) {
        let alpha = c64::new(ar_, ai_);
        let beta = c64::new(0.5, -0.25);
        let (ar, ac) = match mode.transa { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match mode.transb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = StdBatch::<c64>::random(ar, ac, count, seed as u64);
        let b = StdBatch::<c64>::random(br, bc, count, seed as u64 + 1);
        let c0 = StdBatch::<c64>::random(m, n, count, seed as u64 + 2);
        let ca = CompactBatch::from_std(&a);
        let cb = CompactBatch::from_std(&b);
        let mut cc = CompactBatch::from_std(&c0);
        compact_gemm(mode, alpha, &ca, &cb, beta, &mut cc, &TuningConfig::default()).unwrap();
        let mut want = c0.clone();
        naive::gemm_ref(mode, false, false, alpha, &a, &b, beta, &mut want);
        let diff = want.max_abs_diff(&cc.to_std());
        prop_assert!(diff < 1e-11 * (k as f64).max(1.0), "diff {diff}");
    }

    #[test]
    fn trsm_f64_residual_bounded(
        m in 1usize..=24,
        n in 1usize..=24,
        mode in trsm_mode_strategy(),
        count in 1usize..=5,
        alpha in -2.0f64..2.0,
        seed in any::<u32>(),
    ) {
        let t = if mode.side == Side::Left { m } else { n };
        let a = StdBatch::<f64>::random_triangular(t, count, mode.uplo, mode.diag, seed as u64);
        let b0 = StdBatch::<f64>::random(m, n, count, seed as u64 + 1);
        let ca = CompactBatch::from_std(&a);
        let mut cb = CompactBatch::from_std(&b0);
        compact_trsm(mode, alpha, &ca, &mut cb, &TuningConfig::default()).unwrap();
        let x = cb.to_std();
        let r = naive::trsm_residual(mode, false, alpha, &a, &x, &b0);
        prop_assert!(r < 1e-10, "{mode}: residual {r}");
    }

    #[test]
    fn trsm_then_multiply_recovers_rhs(
        m in 1usize..=12,
        n in 1usize..=12,
        count in 1usize..=4,
        seed in any::<u32>(),
    ) {
        // GEMM(compact) of L with X(compact TRSM solution) == B: couples the
        // two pipelines end to end.
        let a_full = StdBatch::<f64>::from_fn(m, m, count, |v, i, j| {
            if i > j { ((v + i * 3 + j) % 7) as f64 / (8.0 * m as f64) }
            else if i == j { 1.0 + ((v + i) % 3) as f64 * 0.5 }
            else { 0.0 }
        });
        let b0 = StdBatch::<f64>::random(m, n, count, seed as u64);
        let ca = CompactBatch::from_std(&a_full);
        let mut cx = CompactBatch::from_std(&b0);
        let cfg = TuningConfig::default();
        compact_trsm(TrsmMode::LNLN, 1.0, &ca, &mut cx, &cfg).unwrap();
        // recompute B = L·X with compact GEMM
        let mut cb = CompactBatch::<f64>::zeroed(m, n, count);
        compact_gemm(GemmMode::NN, 1.0, &ca, &cx, 0.0, &mut cb, &cfg).unwrap();
        let back = cb.to_std();
        let diff = back.max_abs_diff(&b0);
        prop_assert!(diff < 1e-10, "round trip diff {diff}");
    }

    #[test]
    fn plan_commands_cover_tiles(
        m in 1usize..=20,
        n in 1usize..=20,
        k in 1usize..=8,
        count in 1usize..=10,
    ) {
        let cfg = TuningConfig::default();
        let plan = GemmPlan::<f32>::new(GemmDims::new(m, n, k), GemmMode::NN, false, false, count, &cfg).unwrap();
        let mut area = std::collections::HashMap::new();
        for c in plan.commands() {
            if let iatf_core::Command::Gemm { pack, i0, j0, mr, nr } = c {
                prop_assert!(i0 + mr <= m && j0 + nr <= n);
                *area.entry(pack).or_insert(0usize) += mr * nr;
            }
        }
        let packs = count.div_ceil(f32::p_at(cfg.width));
        prop_assert_eq!(area.len(), packs);
        for (_, a) in area {
            prop_assert_eq!(a, m * n);
        }
    }

    #[test]
    fn compact_round_trip_random_shapes(
        rows in 1usize..=40,
        cols in 1usize..=40,
        count in 1usize..=11,
        seed in any::<u32>(),
    ) {
        let std = StdBatch::<f32>::random(rows, cols, count, seed as u64);
        let compact = CompactBatch::from_std(&std);
        prop_assert_eq!(std.max_abs_diff(&compact.to_std()), 0.0);
        // padding lanes of the last pack are zero
        let pad = compact.padding_lanes();
        if pad > 0 {
            let sp = compact.pack_slice(compact.packs() - 1);
            let p = compact.p();
            for gidx in 0..rows * cols {
                for lane in (p - pad)..p {
                    prop_assert_eq!(sp[gidx * p + lane], 0.0);
                }
            }
        }
    }

    #[test]
    fn gemm_linearity_in_alpha(
        m in 1usize..=10,
        k in 1usize..=10,
        seed in any::<u32>(),
    ) {
        // C(2α) − 2·C(α) == 0 with β = 0: exercises the SAVE scaling.
        let a = StdBatch::<f64>::random(m, k, 3, seed as u64);
        let b = StdBatch::<f64>::random(k, m, 3, seed as u64 + 1);
        let ca = CompactBatch::from_std(&a);
        let cb = CompactBatch::from_std(&b);
        let cfg = TuningConfig::default();
        let mut c1 = CompactBatch::<f64>::zeroed(m, m, 3);
        let mut c2 = CompactBatch::<f64>::zeroed(m, m, 3);
        compact_gemm(GemmMode::NN, 0.75, &ca, &cb, 0.0, &mut c1, &cfg).unwrap();
        compact_gemm(GemmMode::NN, 1.5, &ca, &cb, 0.0, &mut c2, &cfg).unwrap();
        let s1 = c1.to_std();
        let s2 = c2.to_std();
        for v in 0..3 {
            for i in 0..m {
                for j in 0..m {
                    let d = (2.0 * s1.get(v, i, j) - s2.get(v, i, j)).abs();
                    prop_assert!(d < 1e-12);
                }
            }
        }
    }
}
