//! GEMM microkernels (paper §4.2.1, Algorithm 2/3).
//!
//! `gemm_ukr` is the real-element kernel, `cgemm_ukr` the split-complex one.
//! Both compute, for one pack of `P` matrices,
//!
//! ```text
//! C[0..m_r, 0..n_r] = alpha · A[0..m_r, 0..K] · B[0..K, 0..n_r] + beta · C
//! ```
//!
//! with every element being a `P`-wide vector group. The K loop is software
//! pipelined two deep ("ping-pong"): register set 0 and set 1 alternate
//! between *being computed with* and *being loaded into*, the direct
//! translation of the paper's `I / M1 / M2 / E / SUB` templates.

use iatf_simd::{prefetch_read, CVec, Real, SimdReal};

/// Function-pointer type of a monomorphized real GEMM microkernel.
///
/// Strides are in scalars. A sliver addressing: the vector for row `i` of
/// K-step `k` is at `pa + k·a_k + i·a_i`; B: column `j` of step `k` at
/// `pb + k·b_k + j·b_j`. C: element group `(i, j)` at `c + i·c_i + j·c_j`.
/// Packed panels use `a_i = P, a_k = m_r·P` / `b_j = P, b_k = n_r·P`; the
/// no-pack path passes the compact layout's native strides instead.
// SAFETY: unsafe fn type — callers must pass pointers valid for the full sliver-addressed extent implied by (k, strides) as documented above.
pub type RealGemmKernel<R> = unsafe fn(
    k: usize,
    alpha: R,
    beta: R,
    pa: *const R,
    a_i: usize,
    a_k: usize,
    pb: *const R,
    b_j: usize,
    b_k: usize,
    c: *mut R,
    c_i: usize,
    c_j: usize,
);

/// Function-pointer type of a monomorphized complex GEMM microkernel.
///
/// Identical addressing, but every "element group" is `2·P` scalars (split
/// re/im) and `alpha`/`beta` are `[re, im]` pairs.
// SAFETY: unsafe fn type — callers must pass pointers valid for the full sliver-addressed extent implied by (k, strides) as documented above.
pub type CplxGemmKernel<R> = unsafe fn(
    k: usize,
    alpha: [R; 2],
    beta: [R; 2],
    pa: *const R,
    a_i: usize,
    a_k: usize,
    pb: *const R,
    b_j: usize,
    b_k: usize,
    c: *mut R,
    c_i: usize,
    c_j: usize,
);

#[inline(always)]
// SAFETY: unsafe fn — `p` must be valid for the whole strided extent (`(N-1)*stride + LANES` scalars); each lane load stays inside it.
unsafe fn load_set<V: SimdReal, const N: usize>(p: *const V::Scalar, stride: usize) -> [V; N] {
    let mut out = [V::zero(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = V::load(p.add(i * stride));
    }
    out
}

#[inline(always)]
fn fma_tile<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[V; NR]; MR],
    a: &[V; MR],
    b: &[V; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = acc[i][j].fma(a[i], b[j]);
        }
    }
}

#[inline(always)]
fn fmul_tile<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[V; NR]; MR],
    a: &[V; MR],
    b: &[V; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = a[i].mul(b[j]);
        }
    }
}

/// Real GEMM microkernel, generic over vector type and tile size.
///
/// Monomorphize via [`crate::table::real_gemm_kernel`] or directly:
/// `gemm_ukr::<F32x4, 4, 4>` is the paper's main SGEMM kernel.
///
/// # Safety
/// All pointers must be valid for the strided region the tile covers:
/// `k` A-slivers of `MR` vectors, `k` B-slivers of `NR` vectors, and an
/// `MR × NR` tile of `P`-wide C groups.
#[inline(always)]
pub unsafe fn gemm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    k: usize,
    alpha: V::Scalar,
    beta: V::Scalar,
    mut pa: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    mut pb: *const V::Scalar,
    b_j: usize,
    b_k: usize,
    c: *mut V::Scalar,
    c_i: usize,
    c_j: usize,
) {
    // A and B slivers are already resident in L1 after packing; C is not
    // (paper §4.3) — prefetch its first and last column.
    prefetch_read(c);
    prefetch_read(c.add((NR - 1) * c_j));

    let mut acc = [[V::zero(); NR]; MR];

    if k == 1 {
        // TEMPLATE_SUB on an empty accumulator (Algorithm 3, K == 1 arm).
        let a0 = load_set::<V, MR>(pa, a_i);
        let b0 = load_set::<V, NR>(pb, b_j);
        fmul_tile(&mut acc, &a0, &b0);
    } else if k >= 2 {
        // TEMPLATE_I: load both register sets (steps 0 and 1), compute step
        // 0 with FMUL so nothing depends on a zeroed accumulator.
        let mut a0 = load_set::<V, MR>(pa, a_i);
        let mut a1 = load_set::<V, MR>(pa.add(a_k), a_i);
        // The cursors advance with wrapping arithmetic: after the last
        // sliver they may point past the operand (a no-pack tile at
        // `i0 > 0` of the last pack ends beyond the batch), which is a
        // value never dereferenced, not an in-bounds offset.
        pa = pa.wrapping_add(2 * a_k);
        let mut b0 = load_set::<V, NR>(pb, b_j);
        let mut b1 = load_set::<V, NR>(pb.add(b_k), b_j);
        pb = pb.wrapping_add(2 * b_k);
        fmul_tile(&mut acc, &a0, &b0);

        // Steps 1..k remain; set 1 holds step 1. Each M2/M1 computes one
        // step and loads the step after next into the idle set. (The paper's
        // Algorithm 3 sequences the same templates; its printed tail
        // dispatch has an off-by-one — a literal reading loads one sliver
        // past the panel for odd K ≥ 5 — which this loop corrects while
        // keeping the two-deep pipeline.)
        let mut remaining = k - 1;
        while remaining >= 3 {
            // TEMPLATE_M2: load set 0, compute set 1.
            a0 = load_set::<V, MR>(pa, a_i);
            b0 = load_set::<V, NR>(pb, b_j);
            pa = pa.wrapping_add(a_k);
            pb = pb.wrapping_add(b_k);
            fma_tile(&mut acc, &a1, &b1);
            // TEMPLATE_M1: load set 1, compute set 0.
            a1 = load_set::<V, MR>(pa, a_i);
            b1 = load_set::<V, NR>(pb, b_j);
            pa = pa.wrapping_add(a_k);
            pb = pb.wrapping_add(b_k);
            fma_tile(&mut acc, &a0, &b0);
            remaining -= 2;
        }
        if remaining == 2 {
            // TEMPLATE_M2 then a compute-only exit on set 0.
            a0 = load_set::<V, MR>(pa, a_i);
            b0 = load_set::<V, NR>(pb, b_j);
            fma_tile(&mut acc, &a1, &b1);
            fma_tile(&mut acc, &a0, &b0);
        } else {
            // TEMPLATE_E: compute-only exit on set 1.
            fma_tile(&mut acc, &a1, &b1);
        }
    }

    // TEMPLATE_SAVE: C = alpha·acc + beta·C. beta == 0 skips the C load
    // entirely (first-touch stores must not read uninitialized memory).
    let valpha = V::splat(alpha);
    if beta == V::Scalar::ZERO {
        for j in 0..NR {
            for i in 0..MR {
                let ptr = c.add(i * c_i + j * c_j);
                acc[i][j].mul(valpha).store(ptr);
            }
        }
    } else {
        let vbeta = V::splat(beta);
        for j in 0..NR {
            for i in 0..MR {
                let ptr = c.add(i * c_i + j * c_j);
                let orig = V::load(ptr);
                orig.mul(vbeta).fma(acc[i][j], valpha).store(ptr);
            }
        }
    }
}

/// Non-pipelined real GEMM microkernel: the same tile update written as a
/// plain `SUB`-per-step loop (single register set, no ping-pong). Exists
/// for the pipelining ablation — §4.2's claim is that the two-deep software
/// pipeline of [`gemm_ukr`] beats this on in-order cores.
///
/// # Safety
/// As [`gemm_ukr`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub unsafe fn gemm_ukr_nopipeline<V: SimdReal, const MR: usize, const NR: usize>(
    k: usize,
    alpha: V::Scalar,
    beta: V::Scalar,
    mut pa: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    mut pb: *const V::Scalar,
    b_j: usize,
    b_k: usize,
    c: *mut V::Scalar,
    c_i: usize,
    c_j: usize,
) {
    prefetch_read(c);
    let mut acc = [[V::zero(); NR]; MR];
    for _ in 0..k {
        let a0 = load_set::<V, MR>(pa, a_i);
        let b0 = load_set::<V, NR>(pb, b_j);
        pa = pa.wrapping_add(a_k);
        pb = pb.wrapping_add(b_k);
        fma_tile(&mut acc, &a0, &b0);
    }
    let valpha = V::splat(alpha);
    if beta == V::Scalar::ZERO {
        for j in 0..NR {
            for i in 0..MR {
                acc[i][j].mul(valpha).store(c.add(i * c_i + j * c_j));
            }
        }
    } else {
        let vbeta = V::splat(beta);
        for j in 0..NR {
            for i in 0..MR {
                let ptr = c.add(i * c_i + j * c_j);
                let orig = V::load(ptr);
                orig.mul(vbeta).fma(acc[i][j], valpha).store(ptr);
            }
        }
    }
}

#[inline(always)]
// SAFETY: unsafe fn — `p` must be valid for the whole strided extent (`(N-1)*stride + LANES` scalars); each lane load stays inside it.
unsafe fn load_cset<V: SimdReal, const N: usize>(p: *const V::Scalar, stride: usize) -> [CVec<V>; N] {
    let mut out = [CVec::<V>::zero(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = CVec::load(p.add(i * stride));
    }
    out
}

#[inline(always)]
fn cfma_tile<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[CVec<V>; NR]; MR],
    a: &[CVec<V>; MR],
    b: &[CVec<V>; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = acc[i][j].fma(a[i], b[j]);
        }
    }
}

/// Complex GEMM microkernel (split representation).
///
/// Every complex FMA is four vector FMA-class instructions, so the
/// compute/register accounting matches the paper's Eq. 3 (optimum 3×2).
///
/// # Safety
/// As [`gemm_ukr`], with `2·P`-scalar element groups.
#[inline(always)]
pub unsafe fn cgemm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    k: usize,
    alpha: [V::Scalar; 2],
    beta: [V::Scalar; 2],
    mut pa: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    mut pb: *const V::Scalar,
    b_j: usize,
    b_k: usize,
    c: *mut V::Scalar,
    c_i: usize,
    c_j: usize,
) {
    prefetch_read(c);
    prefetch_read(c.add((NR - 1) * c_j));

    let mut acc = [[CVec::<V>::zero(); NR]; MR];

    if k == 1 {
        let a0 = load_cset::<V, MR>(pa, a_i);
        let b0 = load_cset::<V, NR>(pb, b_j);
        cfma_tile(&mut acc, &a0, &b0);
    } else if k >= 2 {
        let mut a0 = load_cset::<V, MR>(pa, a_i);
        let mut a1 = load_cset::<V, MR>(pa.add(a_k), a_i);
        pa = pa.wrapping_add(2 * a_k);
        let mut b0 = load_cset::<V, NR>(pb, b_j);
        let mut b1 = load_cset::<V, NR>(pb.add(b_k), b_j);
        pb = pb.wrapping_add(2 * b_k);
        cfma_tile(&mut acc, &a0, &b0);

        let mut remaining = k - 1;
        while remaining >= 3 {
            a0 = load_cset::<V, MR>(pa, a_i);
            b0 = load_cset::<V, NR>(pb, b_j);
            pa = pa.wrapping_add(a_k);
            pb = pb.wrapping_add(b_k);
            cfma_tile(&mut acc, &a1, &b1);
            a1 = load_cset::<V, MR>(pa, a_i);
            b1 = load_cset::<V, NR>(pb, b_j);
            pa = pa.wrapping_add(a_k);
            pb = pb.wrapping_add(b_k);
            cfma_tile(&mut acc, &a0, &b0);
            remaining -= 2;
        }
        if remaining == 2 {
            a0 = load_cset::<V, MR>(pa, a_i);
            b0 = load_cset::<V, NR>(pb, b_j);
            cfma_tile(&mut acc, &a1, &b1);
            cfma_tile(&mut acc, &a0, &b0);
        } else {
            cfma_tile(&mut acc, &a1, &b1);
        }
    }

    let beta_zero = beta[0] == V::Scalar::ZERO && beta[1] == V::Scalar::ZERO;
    for j in 0..NR {
        for i in 0..MR {
            let ptr = c.add(i * c_i + j * c_j);
            let scaled = acc[i][j].scale(alpha[0], alpha[1]);
            let res = if beta_zero {
                scaled
            } else {
                let orig = CVec::<V>::load(ptr);
                scaled.add(orig.scale(beta[0], beta[1]))
            };
            res.store(ptr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use iatf_simd::{F32x4, F64x2};

    /// Packs random slivers in kernel panel order and compares the kernel
    /// tile against the scalar oracle for one (MR, NR, K) instance.
    fn check_real<V: SimdReal, const MR: usize, const NR: usize>(k: usize, alpha: f64, beta: f64) {
        let p = V::LANES;
        let mut rng = oracle::TestRng::new((MR * 31 + NR * 7 + k) as u64);
        let pa: Vec<V::Scalar> = (0..k * MR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let pb: Vec<V::Scalar> = (0..k * NR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let c0: Vec<V::Scalar> = (0..MR * NR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let mut c = c0.clone();
        let (al, be) = (V::Scalar::from_f64(alpha), V::Scalar::from_f64(beta));
        // SAFETY: the buffers above are sized exactly to the kernel's packed-panel extents for these (k, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            gemm_ukr::<V, MR, NR>(
                k,
                al,
                be,
                pa.as_ptr(),
                p,
                MR * p,
                pb.as_ptr(),
                p,
                NR * p,
                c.as_mut_ptr(),
                p,
                MR * p,
            );
        }
        let want = oracle::real_gemm_tile::<V::Scalar>(MR, NR, k, p, alpha, beta, &pa, &pb, &c0);
        let tol = if V::Scalar::BYTES == 4 { 1e-4 } else { 1e-12 };
        for (idx, (&got, &w)) in c.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.to_f64() - w).abs() <= tol * w.abs().max(1.0),
                "MRxNR {MR}x{NR} k={k} idx={idx}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn all_sizes_all_k_f64() {
        // k sweeps every Algorithm-3 arm: SUB-only, I;E, I;E;SUB, even/odd
        // pipelines.
        for k in 1..=9 {
            check_real::<F64x2, 1, 1>(k, 1.0, 1.0);
            check_real::<F64x2, 2, 3>(k, 1.0, 1.0);
            check_real::<F64x2, 3, 2>(k, 1.0, 1.0);
            check_real::<F64x2, 4, 4>(k, 1.0, 1.0);
            check_real::<F64x2, 4, 1>(k, 1.0, 1.0);
            check_real::<F64x2, 1, 4>(k, 1.0, 1.0);
        }
        check_real::<F64x2, 4, 4>(33, 1.0, 1.0);
    }

    #[test]
    fn all_sizes_f32() {
        for k in 1..=6 {
            check_real::<F32x4, 4, 4>(k, 1.0, 1.0);
            check_real::<F32x4, 3, 3>(k, 1.0, 1.0);
            check_real::<F32x4, 2, 4>(k, 1.0, 1.0);
        }
        check_real::<F32x4, 4, 4>(32, 1.0, 1.0);
    }

    #[test]
    fn alpha_beta_variants() {
        for (alpha, beta) in [(1.0, 0.0), (2.5, 0.0), (1.0, 1.0), (-0.5, 3.0), (0.0, 1.0)] {
            check_real::<F64x2, 4, 4>(5, alpha, beta);
            check_real::<F32x4, 4, 3>(4, alpha, beta);
        }
    }

    #[test]
    fn beta_zero_ignores_garbage_c() {
        // With beta == 0 the kernel must not incorporate prior C contents —
        // fill C with NaN and require a finite result.
        let p = F64x2::LANES;
        let k = 3;
        let pa = vec![1.0f64; k * 2 * p];
        let pb = vec![1.0f64; k * 2 * p];
        let mut c = vec![f64::NAN; 2 * 2 * p];
        // SAFETY: the buffers above are sized exactly to the kernel's packed-panel extents for these (k, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            gemm_ukr::<F64x2, 2, 2>(
                k,
                1.0,
                0.0,
                pa.as_ptr(),
                p,
                2 * p,
                pb.as_ptr(),
                p,
                2 * p,
                c.as_mut_ptr(),
                p,
                2 * p,
            );
        }
        for &x in &c {
            assert_eq!(x, k as f64);
        }
    }

    fn check_cplx<V: SimdReal, const MR: usize, const NR: usize>(
        k: usize,
        alpha: [f64; 2],
        beta: [f64; 2],
    ) {
        let p = V::LANES;
        let g = 2 * p;
        let mut rng = oracle::TestRng::new((MR * 113 + NR * 17 + k) as u64);
        let pa: Vec<V::Scalar> = (0..k * MR * g)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let pb: Vec<V::Scalar> = (0..k * NR * g)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let c0: Vec<V::Scalar> = (0..MR * NR * g)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let mut c = c0.clone();
        let al = [
            V::Scalar::from_f64(alpha[0]),
            V::Scalar::from_f64(alpha[1]),
        ];
        let be = [V::Scalar::from_f64(beta[0]), V::Scalar::from_f64(beta[1])];
        // SAFETY: the buffers above are sized exactly to the kernel's packed-panel extents for these (k, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            cgemm_ukr::<V, MR, NR>(
                k,
                al,
                be,
                pa.as_ptr(),
                g,
                MR * g,
                pb.as_ptr(),
                g,
                NR * g,
                c.as_mut_ptr(),
                g,
                MR * g,
            );
        }
        let want =
            oracle::cplx_gemm_tile::<V::Scalar>(MR, NR, k, p, alpha, beta, &pa, &pb, &c0);
        let tol = if V::Scalar::BYTES == 4 { 1e-3 } else { 1e-11 };
        for (idx, (&got, &w)) in c.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.to_f64() - w).abs() <= tol * w.abs().max(1.0),
                "cplx {MR}x{NR} k={k} idx={idx}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn complex_all_sizes_all_k() {
        for k in 1..=7 {
            check_cplx::<F32x4, 3, 2>(k, [1.0, 0.0], [1.0, 0.0]);
            check_cplx::<F64x2, 3, 2>(k, [1.0, 0.0], [1.0, 0.0]);
            check_cplx::<F64x2, 1, 1>(k, [1.0, 0.0], [1.0, 0.0]);
            check_cplx::<F64x2, 2, 2>(k, [1.0, 0.0], [1.0, 0.0]);
            check_cplx::<F32x4, 1, 2>(k, [1.0, 0.0], [1.0, 0.0]);
            check_cplx::<F32x4, 2, 1>(k, [1.0, 0.0], [1.0, 0.0]);
        }
    }

    #[test]
    fn complex_alpha_beta() {
        check_cplx::<F64x2, 3, 2>(4, [0.5, -1.5], [2.0, 0.25]);
        check_cplx::<F64x2, 2, 2>(5, [0.0, 1.0], [0.0, 0.0]);
        check_cplx::<F32x4, 3, 2>(6, [1.0, 1.0], [1.0, -1.0]);
    }

    #[test]
    fn nopipeline_variant_matches_pipelined() {
        // identical inputs → identical sums (same accumulation order per
        // element, both fused)
        let p = F64x2::LANES;
        for k in [1usize, 2, 5, 16] {
            let mut rng = oracle::TestRng::new(k as u64);
            let pa: Vec<f64> = (0..k * 4 * p).map(|_| rng.next()).collect();
            let pb: Vec<f64> = (0..k * 4 * p).map(|_| rng.next()).collect();
            let c0: Vec<f64> = (0..16 * p).map(|_| rng.next()).collect();
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            // SAFETY: the buffers above are sized exactly to the kernel's packed-panel extents for these (k, MR, NR, P), and the strides passed match that sizing.
            unsafe {
                gemm_ukr::<F64x2, 4, 4>(
                    k,
                    1.25,
                    0.5,
                    pa.as_ptr(),
                    p,
                    4 * p,
                    pb.as_ptr(),
                    p,
                    4 * p,
                    c1.as_mut_ptr(),
                    p,
                    4 * p,
                );
                gemm_ukr_nopipeline::<F64x2, 4, 4>(
                    k,
                    1.25,
                    0.5,
                    pa.as_ptr(),
                    p,
                    4 * p,
                    pb.as_ptr(),
                    p,
                    4 * p,
                    c2.as_mut_ptr(),
                    p,
                    4 * p,
                );
            }
            // the pipelined kernel's first step is FMUL, the plain kernel's
            // is FMA onto zero — both exact, so results are identical
            assert_eq!(c1, c2, "k={k}");
        }
    }

    #[test]
    fn strided_direct_access() {
        // Simulate the no-pack path: A stored with a column stride larger
        // than the sliver (rows > MR) and B column-major.
        let p = F64x2::LANES;
        let (rows, k, nr) = (3usize, 4usize, 2usize);
        const MR: usize = 2;
        let mut rng = oracle::TestRng::new(77);
        // A: compact column-major rows×k
        let a: Vec<f64> = (0..rows * k * p).map(|_| rng.next()).collect();
        // B: compact column-major k×nr
        let b: Vec<f64> = (0..k * nr * p).map(|_| rng.next()).collect();
        let mut c = vec![0.0f64; rows * nr * p];
        // SAFETY: the buffers above are sized exactly to the kernel's packed-panel extents for these (k, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            gemm_ukr::<F64x2, MR, 2>(
                k,
                1.0,
                0.0,
                a.as_ptr(), // rows i=0..2 of A
                p,
                rows * p, // next k step is one column over
                b.as_ptr(),
                k * p, // next column of B
                p,     // next k step is one row down
                c.as_mut_ptr(),
                p,
                rows * p,
            );
        }
        // reference: c[i][j][lane] = sum_k a[(k*rows+i)*p+l] * b[(j*k+kk)*p+l]
        for i in 0..MR {
            for j in 0..nr {
                for l in 0..p {
                    let mut want = 0.0;
                    for kk in 0..k {
                        want += a[(kk * rows + i) * p + l] * b[(j * k + kk) * p + l];
                    }
                    let got = c[(j * rows + i) * p + l];
                    assert!((got - want).abs() < 1e-12, "({i},{j},{l}): {got} vs {want}");
                }
            }
        }
    }
}
