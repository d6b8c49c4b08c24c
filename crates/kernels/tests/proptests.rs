//! Property-based kernel tests: every dispatch-table kernel against the
//! scalar oracle over random shapes, depths and operands.

use iatf_kernels::oracle;
use iatf_kernels::table::{
    cplx_gemm_kernel, cplx_trsm_kernel, real_gemm_kernel, real_trsm_kernel,
};
use iatf_simd::{F32x4, F64x2, Real, SimdReal, VecWidth};
use proptest::prelude::*;

fn vecs(len: usize, seed: u64, scale: f64) -> Vec<f64> {
    let mut rng = oracle::TestRng::new(seed);
    (0..len).map(|_| rng.next() * scale).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn real_gemm_kernels_match_oracle_f64(
        mr in 1usize..=4,
        nr in 1usize..=4,
        k in 1usize..=40,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in any::<u32>(),
    ) {
        let p = F64x2::LANES;
        let pa: Vec<f64> = vecs(k * mr * p, seed as u64, 1.0);
        let pb: Vec<f64> = vecs(k * nr * p, seed as u64 + 1, 1.0);
        let c0: Vec<f64> = vecs(mr * nr * p, seed as u64 + 2, 1.0);
        let mut c = c0.clone();
        let kern = real_gemm_kernel::<f64>(VecWidth::W128, mr, nr);
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for the proptest-chosen (k, mr, nr, P), and the strides passed match that sizing.
        unsafe {
            kern(k, alpha, beta, pa.as_ptr(), p, mr * p, pb.as_ptr(), p, nr * p,
                 c.as_mut_ptr(), p, mr * p);
        }
        let want = oracle::real_gemm_tile(mr, nr, k, p, alpha, beta, &pa, &pb, &c0);
        for (got, w) in c.iter().zip(&want) {
            prop_assert!((got - w).abs() < 1e-11 * w.abs().max(1.0));
        }
    }

    #[test]
    fn real_gemm_kernels_match_oracle_f32(
        mr in 1usize..=4,
        nr in 1usize..=4,
        k in 1usize..=24,
        seed in any::<u32>(),
    ) {
        let p = F32x4::LANES;
        let paf: Vec<f32> = vecs(k * mr * p, seed as u64, 1.0).iter().map(|&x| x as f32).collect();
        let pbf: Vec<f32> = vecs(k * nr * p, seed as u64 + 1, 1.0).iter().map(|&x| x as f32).collect();
        let c0f: Vec<f32> = vecs(mr * nr * p, seed as u64 + 2, 1.0).iter().map(|&x| x as f32).collect();
        let mut c = c0f.clone();
        let kern = real_gemm_kernel::<f32>(VecWidth::W128, mr, nr);
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for the proptest-chosen (k, mr, nr, P), and the strides passed match that sizing.
        unsafe {
            kern(k, 1.5, 0.5, paf.as_ptr(), p, mr * p, pbf.as_ptr(), p, nr * p,
                 c.as_mut_ptr(), p, mr * p);
        }
        let want = oracle::real_gemm_tile(mr, nr, k, p, 1.5, 0.5, &paf, &pbf, &c0f);
        for (got, w) in c.iter().zip(&want) {
            prop_assert!((got.to_f64() - w).abs() < 1e-4 * w.abs().max(1.0));
        }
    }

    #[test]
    fn cplx_gemm_kernels_match_oracle(
        mr in 1usize..=3,
        nr in 1usize..=2,
        k in 1usize..=24,
        ar in -1.5f64..1.5,
        ai in -1.5f64..1.5,
        seed in any::<u32>(),
    ) {
        let p = F64x2::LANES;
        let g = 2 * p;
        let pa: Vec<f64> = vecs(k * mr * g, seed as u64, 1.0);
        let pb: Vec<f64> = vecs(k * nr * g, seed as u64 + 1, 1.0);
        let c0: Vec<f64> = vecs(mr * nr * g, seed as u64 + 2, 1.0);
        let mut c = c0.clone();
        let kern = cplx_gemm_kernel::<f64>(VecWidth::W128, mr, nr);
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for the proptest-chosen (k, mr, nr, P), and the strides passed match that sizing.
        unsafe {
            kern(k, [ar, ai], [0.5, -0.25], pa.as_ptr(), g, mr * g, pb.as_ptr(), g, nr * g,
                 c.as_mut_ptr(), g, mr * g);
        }
        let want = oracle::cplx_gemm_tile(mr, nr, k, p, [ar, ai], [0.5, -0.25], &pa, &pb, &c0);
        for (got, w) in c.iter().zip(&want) {
            prop_assert!((got - w).abs() < 1e-10 * w.abs().max(1.0));
        }
    }

    #[test]
    fn real_trsm_kernels_match_oracle(
        mr in 1usize..=5,
        nr in 1usize..=4,
        kk in 0usize..=24,
        seed in any::<u32>(),
    ) {
        let p = F64x2::LANES;
        let rows = kk + mr;
        // strip continued by the triangle, safe reciprocal diagonal
        let mut rng = oracle::TestRng::new(seed as u64 + 9);
        let diag_of = |r: usize, l: usize| {
            (1.0 / (1.0 + 0.25 * ((r + l + seed as usize) % 4) as f64), 0.0)
        };
        let (pa_rect, tri) = oracle::block_operands(mr, kk, p, p, &mut rng, diag_of);
        let row_stride = nr * p;
        let panel0: Vec<f64> = vecs(rows * nr * p, seed as u64 + 3, 1.0);
        let mut panel = panel0.clone();
        let kern = real_trsm_kernel::<f64>(VecWidth::W128, mr, nr);
        // SAFETY: the strip holds `kk + mr` slivers of mr groups, the diagonal mr groups and the panel `rows × nr` groups — exactly what the proptest-chosen (kk, mr, nr, P) and these strides address.
        unsafe {
            kern(kk, pa_rect.as_ptr(), p, mr * p, tri.as_ptr(),
                 panel.as_mut_ptr(), kk, row_stride, p);
        }
        let want = oracle::real_trsm_block(mr, nr, kk, p, &pa_rect, &tri, &panel0, kk, row_stride, p);
        for (got, w) in panel.iter().zip(&want) {
            prop_assert!((got - w).abs() < 1e-10 * w.abs().max(1.0));
        }
    }

    #[test]
    fn cplx_trsm_kernels_match_oracle(
        mr in 1usize..=2,
        nr in 1usize..=2,
        kk in 0usize..=16,
        seed in any::<u32>(),
    ) {
        let p = F32x4::LANES;
        let g = 2 * p;
        let rows = kk + mr;
        let mut rng = oracle::TestRng::new(seed as u64 + 9);
        let diag_of = |r: usize, l: usize| {
            let d = 1.0 + 0.25 * ((r + l + seed as usize) % 4) as f64;
            let di = 0.2 - 0.1 * ((r * 3 + l) % 5) as f64;
            let n = d * d + di * di;
            (d / n, -di / n)
        };
        let (rect64, tri64) = oracle::block_operands(mr, kk, p, g, &mut rng, diag_of);
        let pa_rect: Vec<f32> = rect64.iter().map(|&x| x as f32).collect();
        let tri: Vec<f32> = tri64.iter().map(|&x| x as f32).collect();
        let row_stride = nr * g;
        let panel064 = vecs(rows * nr * g, seed as u64 + 3, 1.0);
        let panel0: Vec<f32> = panel064.iter().map(|&x| x as f32).collect();
        let mut panel = panel0.clone();
        let kern = cplx_trsm_kernel::<f32>(VecWidth::W128, mr, nr);
        // SAFETY: the strip holds `kk + mr` slivers of mr groups, the diagonal mr groups and the panel `rows × nr` groups — exactly what the proptest-chosen (kk, mr, nr, P) and these strides address.
        unsafe {
            kern(kk, pa_rect.as_ptr(), g, mr * g, tri.as_ptr(),
                 panel.as_mut_ptr(), kk, row_stride, g);
        }
        let rect_f: Vec<f64> = pa_rect.iter().map(|&x| x as f64).collect();
        let tri_f: Vec<f64> = tri.iter().map(|&x| x as f64).collect();
        let panel_f: Vec<f64> = panel0.iter().map(|&x| x as f64).collect();
        let want = oracle::cplx_trsm_block(mr, nr, kk, p, &rect_f, &tri_f, &panel_f, kk, row_stride, g);
        for (got, w) in panel.iter().zip(&want) {
            prop_assert!((got.to_f64() - w).abs() < 2e-3 * w.abs().max(1.0),
                "got {got} want {w}");
        }
    }
}
