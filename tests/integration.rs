//! Workspace-level integration tests: the facade API, cross-crate
//! consistency (IATF vs every baseline vs the oracle), and the examples'
//! algorithmic patterns.

use iatf::prelude::*;
use iatf::LayoutError;
use iatf_baselines::{batched, blasloop, naive, specialized};

#[test]
fn facade_reexports_work_end_to_end() {
    let cfg = TuningConfig::host();
    let a = CompactBatch::from_std(&StdBatch::<f32>::random(4, 3, 100, 1));
    let b = CompactBatch::from_std(&StdBatch::<f32>::random(3, 5, 100, 2));
    let mut c = CompactBatch::<f32>::zeroed(4, 5, 100);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
    assert!(c.get(99, 3, 4).is_finite());
}

#[test]
fn four_implementations_agree() {
    // IATF, blasloop, batched, specialized and the oracle must all compute
    // the same product.
    let (m, n, k, count) = (7usize, 6usize, 5usize, 9usize);
    let a = StdBatch::<f32>::random(m, k, count, 11);
    let b = StdBatch::<f32>::random(k, n, count, 12);
    let c0 = StdBatch::<f32>::random(m, n, count, 13);

    let mut oracle = c0.clone();
    naive::gemm_ref(GemmMode::NN, false, false, 1.5, &a, &b, 0.5, &mut oracle);

    let mut via_loop = c0.clone();
    blasloop::gemm(GemmMode::NN, 1.5, &a, &b, 0.5, &mut via_loop);
    assert!(oracle.max_abs_diff(&via_loop) < 1e-4);

    let mut via_batch = c0.clone();
    batched::gemm(GemmMode::NN, 1.5, &a, &b, 0.5, &mut via_batch);
    assert!(oracle.max_abs_diff(&via_batch) < 1e-4);

    let mut via_spec = c0.clone();
    specialized::gemm(GemmMode::NN, 1.5, &a, &b, 0.5, &mut via_spec);
    assert!(oracle.max_abs_diff(&via_spec) < 1e-4);

    let mut via_iatf = c0.clone();
    iatf::std_gemm_via_compact(
        GemmMode::NN,
        1.5,
        &a,
        &b,
        0.5,
        &mut via_iatf,
        &TuningConfig::host(),
    )
    .unwrap();
    assert!(oracle.max_abs_diff(&via_iatf) < 1e-4);
}

#[test]
fn trsm_implementations_agree() {
    for mode in [TrsmMode::LNLN, TrsmMode::LTUN, TrsmMode::LNUN] {
        let (m, n, count) = (8usize, 5usize, 5usize);
        let a = StdBatch::<f64>::random_triangular(m, count, mode.uplo, mode.diag, 21);
        let b0 = StdBatch::<f64>::random(m, n, count, 22);

        let mut oracle = b0.clone();
        naive::trsm_ref(mode, false, 2.0, &a, &mut oracle);

        let mut via_loop = b0.clone();
        blasloop::trsm(mode, 2.0, &a, &mut via_loop);
        assert!(oracle.max_abs_diff(&via_loop) < 1e-9, "{mode}");

        let mut via_iatf = b0.clone();
        iatf::std_trsm_via_compact(mode, 2.0, &a, &mut via_iatf, &TuningConfig::host()).unwrap();
        assert!(oracle.max_abs_diff(&via_iatf) < 1e-9, "{mode}");
    }
}

#[test]
fn complex_pipeline_end_to_end() {
    let cfg = TuningConfig::host();
    let count = 7usize;
    let n = 6usize;
    let a = StdBatch::<c64>::random(n, n, count, 31);
    let b = StdBatch::<c64>::random(n, n, count, 32);
    let mut c_ref = StdBatch::<c64>::zeroed(n, n, count);
    let alpha = c64::new(0.5, -1.0);
    naive::gemm_ref(
        GemmMode::TN,
        false,
        false,
        alpha,
        &a,
        &b,
        c64::zero(),
        &mut c_ref,
    );
    let ca = CompactBatch::from_std(&a);
    let cb = CompactBatch::from_std(&b);
    let mut cc = CompactBatch::<c64>::zeroed(n, n, count);
    compact_gemm(GemmMode::TN, alpha, &ca, &cb, c64::zero(), &mut cc, &cfg).unwrap();
    assert!(c_ref.max_abs_diff(&cc.to_std()) < 1e-12);
}

#[test]
fn gemm_then_trsm_composes() {
    // Solve (L·X = A·B) for many matrices: the output of compact GEMM feeds
    // compact TRSM without leaving the compact layout.
    let cfg = TuningConfig::host();
    let count = 10usize;
    let n = 9usize;
    let a = CompactBatch::from_std(&StdBatch::<f64>::random(n, n, count, 41));
    let b = CompactBatch::from_std(&StdBatch::<f64>::random(n, n, count, 42));
    let l_std = StdBatch::<f64>::random_triangular(n, count, Uplo::Lower, Diag::NonUnit, 43);
    let l = CompactBatch::from_std(&l_std);

    let mut rhs = CompactBatch::<f64>::zeroed(n, n, count);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut rhs, &cfg).unwrap();
    let rhs_copy = rhs.to_std();
    compact_trsm(TrsmMode::LNLN, 1.0, &l, &mut rhs, &cfg).unwrap();
    let x = rhs.to_std();
    let r = naive::trsm_residual(TrsmMode::LNLN, false, 1.0, &l_std, &x, &rhs_copy);
    assert!(r < 1e-10, "residual {r}");
}

#[test]
fn large_group_with_padding() {
    // group sizes that are not multiples of P, at the paper's largest size
    let cfg = TuningConfig::host();
    for count in [1usize, 5, 127] {
        let a = StdBatch::<f32>::random(33, 33, count, 51);
        let b = StdBatch::<f32>::random(33, 33, count, 52);
        let ca = CompactBatch::from_std(&a);
        let cb = CompactBatch::from_std(&b);
        let mut cc = CompactBatch::<f32>::zeroed(33, 33, count);
        compact_gemm(GemmMode::NN, 1.0, &ca, &cb, 0.0, &mut cc, &cfg).unwrap();
        let mut want = StdBatch::<f32>::zeroed(33, 33, count);
        naive::gemm_ref(GemmMode::NN, false, false, 1.0, &a, &b, 0.0, &mut want);
        assert!(want.max_abs_diff(&cc.to_std()) < 1e-2, "count={count}");
    }
}

#[test]
fn error_paths_are_reported() {
    let cfg = TuningConfig::host();
    let a = CompactBatch::from_std(&StdBatch::<f32>::random(4, 3, 10, 1));
    let b = CompactBatch::from_std(&StdBatch::<f32>::random(4, 5, 10, 2)); // wrong k
    let mut c = CompactBatch::<f32>::zeroed(4, 5, 10);
    let err = compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap_err();
    assert!(matches!(err, LayoutError::ShapeMismatch { operand: "B", .. }));

    let b_badcount = CompactBatch::from_std(&StdBatch::<f32>::random(3, 5, 11, 2));
    let err = compact_gemm(GemmMode::NN, 1.0, &a, &b_badcount, 0.0, &mut c, &cfg).unwrap_err();
    assert!(matches!(err, LayoutError::BatchMismatch { .. }));

    // Triangular ops name the operand at fault and its own count. B sets
    // the plan (4×5, 10 matrices), so A must be 4×4 × 10.
    let tri = |rows, cols, count| CompactBatch::<f32>::zeroed(rows, cols, count);
    let cases = [
        (tri(5, 5, 10), tri(4, 5, 10), LayoutError::ShapeMismatch {
            operand: "A",
            expected: (4, 4),
            got: (5, 5),
        }),
        (tri(4, 4, 11), tri(4, 5, 10), LayoutError::BatchMismatch {
            operand: "A",
            expected: 10,
            got: 11,
        }),
    ];
    for (a, mut b, want) in cases {
        assert_eq!(compact_trsm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg), Err(want.clone()));
        assert_eq!(compact_trmm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg), Err(want));
    }
    // B's own shape and count come from B, so a plan built for B cannot
    // disagree with it; a B mismatch shows on a plan built for another B.
    let dims = TrsmDims::new(4, 5);
    let trsm = TrsmPlan::<f32>::new(dims, TrsmMode::LNLN, false, 10, &cfg).unwrap();
    let trmm = TrmmPlan::<f32>::new(dims, TrsmMode::LNLN, false, 10, &cfg).unwrap();
    let a = tri(4, 4, 10);
    let cases = [
        (tri(4, 6, 10), LayoutError::ShapeMismatch {
            operand: "B",
            expected: (4, 5),
            got: (4, 6),
        }),
        (tri(4, 5, 9), LayoutError::BatchMismatch {
            operand: "B",
            expected: 10,
            got: 9,
        }),
    ];
    for (mut b, want) in cases {
        assert_eq!(trsm.execute(1.0, &a, &mut b), Err(want.clone()));
        assert_eq!(trmm.execute(1.0, &a, &mut b), Err(want));
    }
}

#[test]
fn install_time_analysis_is_exposed() {
    // the facade's core module gives access to the CMAR analysis
    assert_eq!(iatf::core::optimal_real_kernel(), (4, 4));
    let (m, n) = iatf::core::optimal_complex_kernel();
    assert!((m, n) == (3, 2) || (m, n) == (2, 3));
}

#[test]
fn in_place_streaming_matches_packed_in_every_mode() {
    // All 16 modes: the default policy solves and multiplies B where it is
    // stored — reversed modes walk down from the stored last row with a
    // negative step, which a debug build would trap as an overflow if the
    // kernels multiplied it unsigned — and must equal the fully packed
    // path bit for bit, and the oracle within tolerance. The poisoned half
    // of `random_triangular` catches a strip read outside the triangle.
    let auto = TuningConfig::host();
    let always = TuningConfig {
        pack: iatf::PackPolicy::Always,
        ..auto.clone()
    };
    let bits = |b: &CompactBatch<f64>| -> Vec<u64> {
        b.as_scalars().iter().map(|x| x.to_bits()).collect()
    };
    for mode in TrsmMode::all() {
        let (m, n, count) = (7usize, 3usize, 5usize);
        let t = if mode.side == Side::Left { m } else { n };
        let a_std = StdBatch::<f64>::random_triangular(t, count, mode.uplo, mode.diag, 61);
        let b_std = StdBatch::<f64>::random(m, n, count, 62);
        let a = CompactBatch::from_std(&a_std);
        let b0 = CompactBatch::from_std(&b_std);

        let solve = |cfg: &TuningConfig| {
            let mut b = b0.clone();
            compact_trsm(mode, 1.5, &a, &mut b, cfg).unwrap();
            b
        };
        let x = solve(&auto);
        assert_eq!(bits(&x), bits(&solve(&always)), "trsm {mode}");
        let mut want = b_std.clone();
        naive::trsm_ref(mode, false, 1.5, &a_std, &mut want);
        assert!(want.max_abs_diff(&x.to_std()) < 1e-9, "trsm {mode}");

        let multiply = |cfg: &TuningConfig| {
            let mut b = b0.clone();
            compact_trmm(mode, 1.5, &a, &mut b, cfg).unwrap();
            b
        };
        let y = multiply(&auto);
        assert_eq!(bits(&y), bits(&multiply(&always)), "trmm {mode}");
        let mut want = b_std.clone();
        naive::trmm_ref(mode, false, 1.5, &a_std, &mut want);
        assert!(want.max_abs_diff(&y.to_std()) < 1e-9, "trmm {mode}");
    }
}

#[test]
fn in_place_kernels_never_read_outside_the_referenced_triangle() {
    // The in-place kernels read each diagonal block's triangle where A is
    // stored. With NaN in A's unreferenced triangle (and, in the unit
    // mode, on its stored diagonal) any stray read reaches the result:
    // the default path must stay finite, bit-identical to the fully
    // packed one, and on the oracle. One mode per (side, effective uplo)
    // plus a unit mode, at the dispatched width, count P + 1.
    use iatf::simd::Real;
    fn check<E: iatf::CompactElement>(dlim: f64) {
        let auto = TuningConfig::host();
        let always = TuningConfig {
            pack: iatf::PackPolicy::Always,
            ..auto.clone()
        };
        let count = E::p_at(auto.width) + 1;
        let alpha = E::from_f64s(1.5, -0.25);
        let unit = TrsmMode::new(Side::Right, Trans::Yes, Uplo::Lower, Diag::Unit);
        let mut modes = vec![unit];
        for mode in TrsmMode::all() {
            let class = |m: &TrsmMode| (m.side, m.effective_uplo());
            if mode.diag == Diag::NonUnit && !modes.iter().any(|m| class(m) == class(&mode)) {
                modes.push(mode);
            }
        }
        let bits = |s: &StdBatch<E>| -> Vec<u64> {
            s.as_slice()
                .iter()
                .flat_map(|x| [x.re().to_f64().to_bits(), x.im().to_f64().to_bits()])
                .collect()
        };
        for mode in modes {
            let (m, n) = (9usize, 6usize);
            let t = if mode.side == Side::Left { m } else { n };
            let stored = StdBatch::<E>::random_triangular(t, count, mode.uplo, mode.diag, 71);
            let a_std = StdBatch::from_fn(t, t, count, |v, i, j| {
                let referenced = match mode.uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if referenced && !(i == j && mode.diag == Diag::Unit) {
                    stored.get(v, i, j)
                } else {
                    E::from_f64s(f64::NAN, f64::NAN)
                }
            });
            let b_std = StdBatch::<E>::random(m, n, count, 72);
            let a = CompactBatch::from_std(&a_std);
            for solve in [true, false] {
                let run = |cfg: &TuningConfig| {
                    let mut b = CompactBatch::from_std(&b_std);
                    if solve {
                        compact_trsm(mode, alpha, &a, &mut b, cfg).unwrap();
                    } else {
                        compact_trmm(mode, alpha, &a, &mut b, cfg).unwrap();
                    }
                    b.to_std()
                };
                let got = run(&auto);
                let what = format!("{:?} {mode} solve={solve}", E::DTYPE);
                assert!(got.as_slice().iter().all(|x| x.is_finite()), "{what}");
                assert_eq!(bits(&got), bits(&run(&always)), "{what}");
                let mut want = b_std.clone();
                if solve {
                    naive::trsm_ref(mode, false, alpha, &a_std, &mut want);
                } else {
                    naive::trmm_ref(mode, false, alpha, &a_std, &mut want);
                }
                assert!(want.max_abs_diff(&got) < dlim, "{what}");
            }
        }
    }
    check::<f64>(1e-9);
    check::<c32>(2e-3);
}

#[test]
fn compact_storage_is_line_aligned() {
    // Every batch starts on a cache line, so at the dispatched width no
    // element-group load splits one. The 40×40 × 24 batch is past the
    // allocator's 128 KiB threshold, where a plain `Vec` sits at page + 16.
    fn check<E: iatf::CompactElement>() {
        let line = |b: &CompactBatch<E>| b.as_scalars().as_ptr().addr().is_multiple_of(64);
        let mut largest = 0;
        for (n, count) in [(2usize, 3usize), (40, 24)] {
            let a = CompactBatch::from_std(&StdBatch::<E>::random(n, n, count, 81));
            let c = CompactBatch::<E>::zeroed(n, n, count);
            assert!(
                line(&a) && line(&c) && line(&a.clone()),
                "{:?} n={n}",
                E::DTYPE
            );
            largest = largest.max(std::mem::size_of_val(c.as_scalars()));
        }
        assert!(largest > 128 << 10);
    }
    check::<f32>();
    check::<f64>();
    check::<c32>();
    check::<c64>();
}
