//! End-to-end correctness: the IATF pipeline (plan → pack → kernels →
//! unpack) against the scalar oracle, across sizes, modes, dtypes, batch
//! counts and configuration policies.

use iatf_baselines::naive;
use iatf_core::{
    compact_gemm_ex, compact_trsm_ex, BatchPolicy, CompactElement, PackPolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, Diag, GemmMode, Side, StdBatch, Trans, TrsmMode, Uplo};
use iatf_simd::{c32, c64, Element};

fn tol<E: Element>(k: usize) -> f64 {
    let base = if E::Real::BYTES == 4 { 1e-4 } else { 1e-12 };
    base * (k.max(1) as f64).sqrt()
}

use iatf_simd::Real;

#[allow(clippy::too_many_arguments)]
fn check_gemm<E: CompactElement>(
    m: usize,
    n: usize,
    k: usize,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    alpha: E,
    beta: E,
    cfg: &TuningConfig,
    seed: u64,
) {
    let (ar, ac) = match mode.transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match mode.transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let a = StdBatch::<E>::random(ar, ac, count, seed);
    let b = StdBatch::<E>::random(br, bc, count, seed + 1);
    let c0 = StdBatch::<E>::random(m, n, count, seed + 2);

    let ca = CompactBatch::from_std(&a);
    let cb = CompactBatch::from_std(&b);
    let mut cc = CompactBatch::from_std(&c0);
    compact_gemm_ex(mode, conj_a, conj_b, alpha, &ca, &cb, beta, &mut cc, cfg).unwrap();
    let got = cc.to_std();

    let mut want = c0.clone();
    naive::gemm_ref(mode, conj_a, conj_b, alpha, &a, &b, beta, &mut want);

    let diff = want.max_abs_diff(&got);
    assert!(
        diff <= tol::<E>(k),
        "gemm {:?} {m}x{n}x{k} {mode} conj=({conj_a},{conj_b}) count={count}: diff {diff}",
        E::DTYPE
    );
}

#[test]
fn gemm_size_sweep_all_dtypes_nn() {
    let cfg = TuningConfig::default();
    for nsize in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33] {
        check_gemm::<f32>(
            nsize, nsize, nsize, GemmMode::NN, false, false, 9, 1.0, 1.0, &cfg, nsize as u64,
        );
        check_gemm::<f64>(
            nsize, nsize, nsize, GemmMode::NN, false, false, 5, 1.0, 1.0, &cfg, nsize as u64,
        );
        check_gemm::<c32>(
            nsize,
            nsize,
            nsize,
            GemmMode::NN,
            false,
            false,
            6,
            c32::new(1.0, 0.0),
            c32::new(1.0, 0.0),
            &cfg,
            nsize as u64,
        );
        check_gemm::<c64>(
            nsize,
            nsize,
            nsize,
            GemmMode::NN,
            false,
            false,
            3,
            c64::new(1.0, 0.0),
            c64::new(1.0, 0.0),
            &cfg,
            nsize as u64,
        );
    }
}

#[test]
fn gemm_all_modes_rectangular() {
    let cfg = TuningConfig::default();
    for mode in GemmMode::ALL {
        check_gemm::<f32>(7, 5, 9, mode, false, false, 10, 2.0, 0.5, &cfg, 100);
        check_gemm::<f64>(6, 11, 3, mode, false, false, 7, -1.0, 1.5, &cfg, 200);
        check_gemm::<c32>(
            5,
            4,
            6,
            mode,
            false,
            false,
            5,
            c32::new(1.5, -0.5),
            c32::new(0.25, 0.75),
            &cfg,
            300,
        );
        check_gemm::<c64>(
            9,
            2,
            4,
            mode,
            false,
            false,
            4,
            c64::new(0.0, 1.0),
            c64::new(1.0, -1.0),
            &cfg,
            400,
        );
    }
}

#[test]
fn gemm_conjugation_modes() {
    let cfg = TuningConfig::default();
    for (ca, cb) in [(true, false), (false, true), (true, true)] {
        check_gemm::<c64>(
            5,
            5,
            5,
            GemmMode::TN,
            ca,
            cb,
            5,
            c64::new(1.0, 0.5),
            c64::new(0.5, 0.0),
            &cfg,
            500,
        );
        check_gemm::<c32>(
            4,
            6,
            3,
            GemmMode::NT,
            ca,
            cb,
            6,
            c32::new(1.0, 0.0),
            c32::new(0.0, 0.0),
            &cfg,
            600,
        );
    }
}

#[test]
fn gemm_alpha_beta_special_cases() {
    let cfg = TuningConfig::default();
    // beta = 0 must not read C (checked structurally in kernels; here just
    // numerically), alpha = 0 zeroes the product term.
    check_gemm::<f64>(8, 8, 8, GemmMode::NN, false, false, 5, 1.0, 0.0, &cfg, 700);
    check_gemm::<f64>(8, 8, 8, GemmMode::NN, false, false, 5, 0.0, 2.0, &cfg, 701);
    check_gemm::<f32>(3, 3, 3, GemmMode::NN, false, false, 5, -2.5, -0.5, &cfg, 702);
}

#[test]
fn gemm_batch_padding_cases() {
    // counts around multiples of P for both P=4 and P=2.
    let cfg = TuningConfig::default();
    for count in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
        check_gemm::<f32>(6, 6, 6, GemmMode::NN, false, false, count, 1.0, 1.0, &cfg, 800);
        check_gemm::<f64>(6, 6, 6, GemmMode::NN, false, false, count, 1.0, 1.0, &cfg, 801);
    }
}

#[test]
fn gemm_policy_matrix() {
    // every pack/batch policy combination must agree with the oracle.
    for pack in [PackPolicy::Auto, PackPolicy::Always] {
        for batch in [BatchPolicy::Auto, BatchPolicy::Fixed(1), BatchPolicy::Fixed(3)] {
            let cfg = TuningConfig {
                pack,
                batch,
                ..TuningConfig::default()
            };
            check_gemm::<f32>(10, 7, 5, GemmMode::NN, false, false, 13, 1.5, 0.5, &cfg, 900);
            check_gemm::<f64>(4, 4, 8, GemmMode::TT, false, false, 5, 1.0, 1.0, &cfg, 901);
            check_gemm::<c32>(
                3,
                3,
                3,
                GemmMode::TN,
                false,
                false,
                9,
                c32::new(1.0, 1.0),
                c32::new(1.0, 0.0),
                &cfg,
                902,
            );
        }
    }
}

#[test]
fn gemm_k_extremes() {
    let cfg = TuningConfig::default();
    for k in [1usize, 2, 3, 4, 5, 64] {
        check_gemm::<f64>(4, 4, k, GemmMode::NN, false, false, 4, 1.0, 1.0, &cfg, 1000);
        check_gemm::<f32>(5, 3, k, GemmMode::TN, false, false, 4, 1.0, 0.0, &cfg, 1001);
    }
}

// ---------------------------------------------------------------------------
// TRSM
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn check_trsm<E: CompactElement>(
    m: usize,
    n: usize,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    alpha: E,
    cfg: &TuningConfig,
    seed: u64,
) {
    let t = if mode.side == Side::Left { m } else { n };
    let a = StdBatch::<E>::random_triangular(t, count, mode.uplo, mode.diag, seed);
    let b0 = StdBatch::<E>::random(m, n, count, seed + 1);

    let ca = CompactBatch::from_std(&a);
    let mut cb = CompactBatch::from_std(&b0);
    compact_trsm_ex(mode, conj, alpha, &ca, &mut cb, cfg).unwrap();
    let got = cb.to_std();

    // residual check against the original system
    let r = naive::trsm_residual(mode, conj, alpha, &a, &got, &b0);
    let lim = if E::Real::BYTES == 4 { 5e-4 } else { 1e-10 };
    assert!(
        r < lim,
        "trsm {:?} {m}x{n} {mode} conj={conj} count={count}: residual {r}",
        E::DTYPE
    );

    // and element-wise agreement with the oracle solution
    let mut want = b0.clone();
    naive::trsm_ref(mode, conj, alpha, &a, &mut want);
    let diff = want.max_abs_diff(&got);
    let dlim = if E::Real::BYTES == 4 { 1e-3 } else { 1e-9 };
    assert!(
        diff < dlim,
        "trsm {:?} {m}x{n} {mode}: diff vs oracle {diff}",
        E::DTYPE
    );
}

#[test]
fn trsm_size_sweep_lnln() {
    let cfg = TuningConfig::default();
    for nsize in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 32, 33] {
        check_trsm::<f32>(nsize, nsize, TrsmMode::LNLN, false, 9, 1.0, &cfg, nsize as u64);
        check_trsm::<f64>(nsize, nsize, TrsmMode::LNLN, false, 5, 1.0, &cfg, nsize as u64);
        check_trsm::<c32>(
            nsize,
            nsize,
            TrsmMode::LNLN,
            false,
            6,
            c32::new(1.0, 0.0),
            &cfg,
            nsize as u64,
        );
        check_trsm::<c64>(
            nsize,
            nsize,
            TrsmMode::LNLN,
            false,
            3,
            c64::new(1.0, 0.0),
            &cfg,
            nsize as u64,
        );
    }
}

#[test]
fn trsm_all_sixteen_modes() {
    let cfg = TuningConfig::default();
    for mode in TrsmMode::all() {
        check_trsm::<f32>(9, 7, mode, false, 10, 1.0, &cfg, 2000);
        check_trsm::<f64>(6, 10, mode, false, 5, 1.0, &cfg, 2100);
        check_trsm::<c64>(5, 4, mode, false, 4, c64::new(1.0, 0.0), &cfg, 2200);
    }
}

#[test]
fn trsm_alpha_variants() {
    let cfg = TuningConfig::default();
    check_trsm::<f64>(8, 8, TrsmMode::LNLN, false, 5, 2.5, &cfg, 2300);
    check_trsm::<f64>(8, 8, TrsmMode::LNUN, false, 5, -0.5, &cfg, 2301);
    check_trsm::<c32>(6, 6, TrsmMode::LTLN, false, 5, c32::new(0.0, 1.0), &cfg, 2302);
    check_trsm::<c64>(4, 4, TrsmMode::LNLN, true, 5, c64::new(1.0, -1.0), &cfg, 2303);
}

#[test]
fn trsm_register_capacity_boundary() {
    // M around the register-resident bound (5 real / 2 complex) exercises
    // both the single-block and the blocked paths.
    let cfg = TuningConfig::default();
    for m in 1..=8 {
        check_trsm::<f64>(m, 6, TrsmMode::LNLN, false, 4, 1.0, &cfg, 2400 + m as u64);
        check_trsm::<c64>(
            m,
            3,
            TrsmMode::LNLN,
            false,
            4,
            c64::new(1.0, 0.0),
            &cfg,
            2500 + m as u64,
        );
    }
}

#[test]
fn trsm_policy_matrix() {
    for pack in [PackPolicy::Auto, PackPolicy::Always] {
        for batch in [BatchPolicy::Auto, BatchPolicy::Fixed(2)] {
            let cfg = TuningConfig {
                pack,
                batch,
                ..TuningConfig::default()
            };
            check_trsm::<f32>(7, 9, TrsmMode::LNLN, false, 11, 1.0, &cfg, 2600);
            check_trsm::<f64>(6, 5, TrsmMode::LNUN, false, 5, 1.0, &cfg, 2601);
        }
    }
}

#[test]
fn trsm_batch_padding_cases() {
    let cfg = TuningConfig::default();
    for count in [1usize, 2, 3, 4, 5, 8, 9] {
        check_trsm::<f32>(5, 5, TrsmMode::LNLN, false, count, 1.0, &cfg, 2700);
        check_trsm::<f64>(5, 5, TrsmMode::LTUN, false, count, 1.0, &cfg, 2701);
    }
}

#[test]
fn trsm_rectangular_b() {
    let cfg = TuningConfig::default();
    // wide and tall right-hand sides, both sides
    check_trsm::<f64>(4, 33, TrsmMode::LNLN, false, 4, 1.0, &cfg, 2800);
    check_trsm::<f64>(33, 4, TrsmMode::LNLN, false, 4, 1.0, &cfg, 2801);
    let right = TrsmMode::new(Side::Right, Trans::No, iatf_layout::Uplo::Upper, iatf_layout::Diag::NonUnit);
    check_trsm::<f64>(4, 12, right, false, 4, 1.0, &cfg, 2802);
    check_trsm::<f32>(12, 4, right, false, 6, 1.0, &cfg, 2803);
}

#[test]
fn plan_reuse_is_deterministic() {
    // one plan, many executions on different data
    use iatf_core::GemmPlan;
    use iatf_layout::GemmDims;
    let cfg = TuningConfig::default();
    let plan =
        GemmPlan::<f64>::new(GemmDims::new(6, 6, 6), GemmMode::NN, false, false, 8, &cfg).unwrap();
    for trial in 0..3 {
        let a = StdBatch::<f64>::random(6, 6, 8, 3000 + trial);
        let b = StdBatch::<f64>::random(6, 6, 8, 3100 + trial);
        let ca = CompactBatch::from_std(&a);
        let cb = CompactBatch::from_std(&b);
        let mut cc = CompactBatch::<f64>::zeroed(6, 6, 8);
        plan.execute(1.0, &ca, &cb, 0.0, &mut cc).unwrap();
        let mut want = StdBatch::<f64>::zeroed(6, 6, 8);
        naive::gemm_ref(GemmMode::NN, false, false, 1.0, &a, &b, 0.0, &mut want);
        assert!(want.max_abs_diff(&cc.to_std()) < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// In-place streaming vs the fully packed reference
// ---------------------------------------------------------------------------

use iatf_core::{GemmPlan, TrmmPlan, TrsmPlan};
use iatf_layout::{GemmDims, TrsmDims};
use iatf_simd::{available_widths, VecWidth};

fn scalar_bits<E: CompactElement>(c: &CompactBatch<E>) -> Vec<u64> {
    c.as_scalars()
        .iter()
        .map(|x| x.to_f64().to_bits())
        .collect()
}

fn policy_cfg(pack: PackPolicy, width: VecWidth) -> TuningConfig {
    TuningConfig {
        pack,
        width,
        ..TuningConfig::default()
    }
}

/// Group counts around one pack: 1, P−1, P, P+1 (deduplicated, ≥ 1).
fn counts_around(p: usize) -> Vec<usize> {
    let mut v = vec![1, p.saturating_sub(1).max(1), p, p + 1];
    v.dedup();
    v
}

#[derive(Copy, Clone, Debug)]
enum TriOp {
    Solve,
    Multiply,
}

/// One plan execution on a copy of `b0`, serial or through the parallel
/// executor.
#[allow(clippy::too_many_arguments)]
fn run_tri<E: CompactElement>(
    op: TriOp,
    mode: TrsmMode,
    conj: bool,
    alpha: E,
    a: &CompactBatch<E>,
    b0: &CompactBatch<E>,
    cfg: &TuningConfig,
    parallel: bool,
) -> CompactBatch<E> {
    let dims = TrsmDims::new(b0.rows(), b0.cols());
    let mut b = b0.clone();
    macro_rules! go {
        ($plan:ident) => {{
            let plan = $plan::<E>::new(dims, mode, conj, b0.count(), cfg).unwrap();
            #[cfg(feature = "parallel")]
            if parallel {
                plan.execute_parallel(alpha, a, &mut b).unwrap();
                return b;
            }
            let _ = parallel;
            plan.execute(alpha, a, &mut b).unwrap();
        }};
    }
    match op {
        TriOp::Solve => go!(TrsmPlan),
        TriOp::Multiply => go!(TrmmPlan),
    }
    b
}

/// `a` with every entry its mode must not read replaced by NaN: the
/// unreferenced triangle and, in a unit mode, the stored diagonal.
fn poison_unreferenced<E: CompactElement>(a: &StdBatch<E>, mode: TrsmMode) -> StdBatch<E> {
    let nan = E::from_f64s(f64::NAN, f64::NAN);
    StdBatch::from_fn(a.rows(), a.cols(), a.count(), |v, i, j| {
        let stored = match mode.uplo {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        };
        if stored && !(i == j && mode.diag == Diag::Unit) {
            a.get(v, i, j)
        } else {
            nan
        }
    })
}

/// `Auto` (everything in place) against `Always` (everything packed), bit
/// for bit, and against the oracle — for one dtype at one width, over all
/// 16 modes × counts around P × three B shapes × conj × both ops, every
/// result finite. A comes from `random_triangular`, whose other half (and
/// unit diagonal) holds ~1e30; with `poison` those entries are NaN instead,
/// so a single read outside the referenced triangle — by a strip, by a
/// triangle read where it is stored, or by a packer — reaches the result.
fn tri_in_place_matches_packed<E: CompactElement>(width: VecWidth, poison: bool) {
    let alpha = E::from_f64s(1.25, -0.5);
    let dlim = if E::Real::BYTES == 4 { 2e-3 } else { 1e-9 };
    for mode in TrsmMode::all() {
        for (m, n) in [(9usize, 9usize), (7, 3), (3, 7)] {
            let t = if mode.side == Side::Left { m } else { n };
            for count in counts_around(E::p_at(width)) {
                let seed = (m * 31 + n) as u64 + count as u64;
                let mut a_std =
                    StdBatch::<E>::random_triangular(t, count, mode.uplo, mode.diag, seed);
                if poison {
                    a_std = poison_unreferenced(&a_std, mode);
                }
                let b_std = StdBatch::<E>::random(m, n, count, seed + 1);
                let a = CompactBatch::from_std_at(&a_std, width);
                let b0 = CompactBatch::from_std_at(&b_std, width);
                for conj in [false, true] {
                    for op in [TriOp::Solve, TriOp::Multiply] {
                        let what = format!(
                            "{op:?} {:?} {mode} {m}x{n} conj={conj} count={count} {width} \
                             poison={poison}",
                            E::DTYPE
                        );
                        let auto = policy_cfg(PackPolicy::Auto, width);
                        let always = policy_cfg(PackPolicy::Always, width);
                        let want_bits =
                            scalar_bits(&run_tri(op, mode, conj, alpha, &a, &b0, &always, false));
                        let got = run_tri(op, mode, conj, alpha, &a, &b0, &auto, false);
                        assert_eq!(scalar_bits(&got), want_bits, "serial {what}");
                        if cfg!(feature = "parallel") {
                            let par = run_tri(op, mode, conj, alpha, &a, &b0, &auto, true);
                            assert_eq!(scalar_bits(&par), want_bits, "parallel {what}");
                        }
                        let mut want = b_std.clone();
                        match op {
                            TriOp::Solve => naive::trsm_ref(mode, conj, alpha, &a_std, &mut want),
                            TriOp::Multiply => {
                                naive::trmm_ref(mode, conj, alpha, &a_std, &mut want);
                            }
                        }
                        let got = got.to_std();
                        assert!(got.as_slice().iter().all(|x| x.is_finite()), "{what}");
                        let diff = want.max_abs_diff(&got);
                        assert!(diff < dlim, "{what}: diff vs oracle {diff}");
                    }
                }
            }
        }
    }
}

#[test]
fn tri_in_place_is_bitwise_the_packed_path_all_modes_widths_dtypes() {
    for &width in available_widths() {
        tri_in_place_matches_packed::<f32>(width, false);
        tri_in_place_matches_packed::<f64>(width, false);
        tri_in_place_matches_packed::<c32>(width, false);
        tri_in_place_matches_packed::<c64>(width, false);
    }
}

/// The poisoned column: the in-place kernels read each diagonal block's
/// triangle where A is stored, so NaN outside the referenced triangle (and
/// on a unit diagonal) must never reach a result.
#[test]
fn tri_never_reads_outside_the_referenced_triangle_all_modes_widths_dtypes() {
    for &width in available_widths() {
        tri_in_place_matches_packed::<f32>(width, true);
        tri_in_place_matches_packed::<f64>(width, true);
        tri_in_place_matches_packed::<c32>(width, true);
        tri_in_place_matches_packed::<c64>(width, true);
    }
}

/// GEMM: streamed operands against packed panels, bit for bit (same FMA
/// order, different addresses), all four modes, edge tiles both ways.
fn gemm_direct_matches_packed<E: CompactElement>(width: VecWidth) {
    let (m, n, k) = (9usize, 7usize, 5usize);
    let dims = GemmDims::new(m, n, k);
    let (alpha, beta) = (E::from_f64s(1.5, 0.25), E::from_f64s(-0.5, 1.0));
    for mode in GemmMode::ALL {
        let (ar, ac) = dims.a_shape(mode);
        let (br, bc) = dims.b_shape(mode);
        for count in counts_around(E::p_at(width)) {
            let a_std = StdBatch::<E>::random(ar, ac, count, 11);
            let b_std = StdBatch::<E>::random(br, bc, count, 12);
            let c_std = StdBatch::<E>::random(m, n, count, 13);
            let a = CompactBatch::from_std_at(&a_std, width);
            let b = CompactBatch::from_std_at(&b_std, width);
            let c0 = CompactBatch::from_std_at(&c_std, width);
            let run = |pack: PackPolicy, parallel: bool| {
                let plan =
                    GemmPlan::<E>::new(dims, mode, false, false, count, &policy_cfg(pack, width))
                        .unwrap();
                let mut c = c0.clone();
                #[cfg(feature = "parallel")]
                if parallel {
                    plan.execute_parallel(alpha, &a, &b, beta, &mut c).unwrap();
                    return c;
                }
                let _ = parallel;
                plan.execute(alpha, &a, &b, beta, &mut c).unwrap();
                c
            };
            let what = format!("gemm {:?} {mode} count={count} {width}", E::DTYPE);
            let want_bits = scalar_bits(&run(PackPolicy::Always, false));
            let got = run(PackPolicy::Auto, false);
            assert_eq!(scalar_bits(&got), want_bits, "auto {what}");
            if cfg!(feature = "parallel") {
                assert_eq!(
                    scalar_bits(&run(PackPolicy::Auto, true)),
                    want_bits,
                    "parallel {what}"
                );
            }
            let mut want = c_std.clone();
            naive::gemm_ref(mode, false, false, alpha, &a_std, &b_std, beta, &mut want);
            let diff = want.max_abs_diff(&got.to_std());
            assert!(diff <= tol::<E>(k) * 4.0, "{what}: diff vs oracle {diff}");
        }
    }
}

#[test]
fn gemm_direct_is_bitwise_the_packed_path_all_modes_widths_dtypes() {
    for &width in available_widths() {
        gemm_direct_matches_packed::<f32>(width);
        gemm_direct_matches_packed::<f64>(width);
        gemm_direct_matches_packed::<c32>(width);
        gemm_direct_matches_packed::<c64>(width);
    }
}
