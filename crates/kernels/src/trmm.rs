//! TRMM microkernels — triangular matrix multiply, the first of the
//! paper's future-work "other BLAS functions under the SIMD-friendly data
//! layout".
//!
//! Canonical operation (modes are canonicalized by the same index maps as
//! TRSM): `B = α · L · B` with `L` lower triangular, over an `nr`-wide
//! row-major B panel. Row `i` of the result needs *original* rows `j ≤ i`,
//! so the driver walks diagonal blocks **bottom-up** and each block kernel
//! reads only rows at or above itself — which are still original when it
//! runs.
//!
//! Per block (`mb` rows starting at `row0`, preceded by `kk = row0` rows):
//!
//! ```text
//! acc = Tri(block) · B[row0 .. row0+mb]        (triangle includes diagonal)
//! acc += Rect · B[0 .. kk]                     (FMA over the rows above)
//! B[row0 ..] = α · acc
//! ```
//!
//! The operand contract is TRSM's ([`crate::trsm::RealTrsmKernel`]): the
//! strictly lower triangle continues the rectangular strip (column `kk + j`
//! holds `L(row0+i, row0+j)`), and `pa_tri` holds only the `mb` diagonal
//! groups — stored *directly* here (multiplied, not divided; unit diagonals
//! pack as 1). The block's own rows are loaded into the accumulators once
//! and multiplied there bottom-up — row `i` is replaced only after every row
//! below it, so rows `j ≤ i` still hold their original values when it is
//! formed — and the rectangular phase runs through TRSM's two-deep
//! ping-pong loop with FMA in place of FMS (its register sets are named, not
//! picked through a reference per step, so they stay in registers). Real and
//! complex kernels share that one body.

use crate::trsm::{load_block, rect_update, store_block, CplxGroup, Group, RealGroup};
use iatf_simd::{prefetch_read, CVec, SimdReal};

/// Function-pointer type of a monomorphized real TRMM block kernel. Strides
/// are signed steps carried in `usize`, as in [`crate::trsm::RealTrsmKernel`].
// SAFETY: unsafe fn type — callers must pass panel/strip/diagonal pointers valid for the extents implied by (kk, MR, NR, strides); see the operand contract above.
pub type RealTrmmKernel<R> = unsafe fn(
    kk: usize,
    alpha: R,
    pa_rect: *const R,
    a_i: usize,
    a_k: usize,
    pa_tri: *const R,
    panel: *mut R,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
);

/// Complex counterpart of [`RealTrmmKernel`] (`alpha` as `[re, im]`).
// SAFETY: unsafe fn type — callers must pass panel/strip/diagonal pointers valid for the extents implied by (kk, MR, NR, strides); see the operand contract above.
pub type CplxTrmmKernel<R> = unsafe fn(
    kk: usize,
    alpha: [R; 2],
    pa_rect: *const R,
    a_i: usize,
    a_k: usize,
    pa_tri: *const R,
    panel: *mut R,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
);

/// Multiply body shared by [`trmm_ukr`] and [`ctrmm_ukr`]: the block's
/// triangle against its own rows, in registers, then the strip against the
/// rows above, scaled by `alpha` on the way out.
#[inline(always)]
// SAFETY: unsafe fn — the operand contract of [`trmm_ukr`]; the triangle pointer is formed with wrapping arithmetic and read only at `j < i`.
unsafe fn trmm_block<K: Group, const MR: usize, const NR: usize>(
    kk: usize,
    alpha: K::G,
    pa_rect: *const K::S,
    a_i: usize,
    a_k: usize,
    pa_tri: *const K::S,
    panel: *mut K::S,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    prefetch_read(panel.offset(row0 * rs));
    let mut acc = load_block::<K, MR, NR>(panel, row0, rs, cs);

    // triangular part, bottom-up so rows j ≤ i still hold B_orig when row i
    // becomes Σ_{j ≤ i} L(i,j) · B_orig(row0+j)
    let tri = pa_rect.wrapping_offset(kk as isize * a_k);
    for i in (0..MR).rev() {
        let mut row = [K::zero(); NR];
        for j in 0..=i {
            let lij = if j < i {
                K::load(tri.offset(i as isize * a_i + j as isize * a_k))
            } else {
                K::load(pa_tri.add(i * K::LEN))
            };
            for col in 0..NR {
                row[col] = K::fma(row[col], lij, acc[j][col]);
            }
        }
        acc[i] = row;
    }

    rect_update::<K, false, MR, NR>(&mut acc, kk, pa_rect, a_i, a_k, panel, rs, cs);

    for row in &mut acc {
        for cell in row {
            *cell = K::mul(*cell, alpha);
        }
    }
    store_block::<K, MR, NR>(&acc, panel, row0, rs, cs);
}

/// Fused real TRMM block kernel.
///
/// # Safety
/// Same operand contract as [`crate::trsm::trsm_ukr`] (strip continued by
/// the strictly lower triangle, `MR` *direct* diagonal groups, panel —
/// strides read as signed, see [`crate::trsm::RealTrsmKernel`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub unsafe fn trmm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    alpha: V::Scalar,
    pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    trmm_block::<RealGroup<V>, MR, NR>(
        kk,
        V::splat(alpha),
        pa_rect,
        a_i,
        a_k,
        pa_tri,
        panel,
        row0,
        row_stride,
        col_stride,
    );
}

/// Fused complex TRMM block kernel (split representation).
///
/// # Safety
/// As [`trmm_ukr`] with `2·P`-scalar element groups.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub unsafe fn ctrmm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    alpha: [V::Scalar; 2],
    pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    trmm_block::<CplxGroup<V>, MR, NR>(
        kk,
        CVec::splat(alpha[0], alpha[1]),
        pa_rect,
        a_i,
        a_k,
        pa_tri,
        panel,
        row0,
        row_stride,
        col_stride,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, TestRng};
    use iatf_simd::{F32x4, F64x2, Real};

    /// Scalar reference: acc_i = α·(Σ_{k<kk} strip(i,k)·panel[k] +
    /// Σ_{j<i} strip(i,kk+j)·panel[row0+j] + diag(i)·panel[row0+i]), stored
    /// into rows row0..row0+mr.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        mr: usize,
        nr: usize,
        kk: usize,
        p: usize,
        alpha: f64,
        strip: &[f64],
        diag: &[f64],
        panel: &[f64],
        row0: usize,
        row_stride: usize,
    ) -> Vec<f64> {
        let mut out = panel.to_vec();
        for l in 0..p {
            for j in 0..nr {
                for i in 0..mr {
                    let x = |r: usize| panel[r * row_stride + j * p + l];
                    let mut acc = diag[i * p + l] * x(row0 + i);
                    for k in 0..kk + i {
                        let row = if k < kk { k } else { row0 + k - kk };
                        acc += strip[(k * mr + i) * p + l] * x(row);
                    }
                    out[(row0 + i) * row_stride + j * p + l] = alpha * acc;
                }
            }
        }
        out
    }

    fn check<V: SimdReal, const MR: usize, const NR: usize>(kk: usize, alpha: f64) {
        let p = V::LANES;
        let rows = kk + MR;
        let mut rng = TestRng::new((MR * 19 + NR * 3 + kk) as u64);
        let (strip, diag) = oracle::block_operands(MR, kk, p, p, &mut rng, |r, l| {
            (0.75 + 0.125 * ((r + 2 * l) % 5) as f64, 0.0)
        });
        let to =
            |v: &[f64]| -> Vec<V::Scalar> { v.iter().map(|&x| V::Scalar::from_f64(x)).collect() };
        let back = |v: &[V::Scalar]| -> Vec<f64> { v.iter().map(|x| x.to_f64()).collect() };
        let (strip, diag) = (to(&strip), to(&diag));
        let panel0 = to(&(0..rows * NR * p).map(|_| rng.next()).collect::<Vec<_>>());
        let mut panel = panel0.clone();
        // SAFETY: the strip holds `kk + MR` slivers of MR groups, the diagonal MR groups and the panel `rows × NR` groups — exactly the extents these (kk, MR, NR, P) and strides address.
        unsafe {
            trmm_ukr::<V, MR, NR>(
                kk,
                V::Scalar::from_f64(alpha),
                strip.as_ptr(),
                p,
                MR * p,
                diag.as_ptr(),
                panel.as_mut_ptr(),
                kk,
                NR * p,
                p,
            );
        }
        let want = reference(
            MR,
            NR,
            kk,
            p,
            alpha,
            &back(&strip),
            &back(&diag),
            &back(&panel0),
            kk,
            NR * p,
        );
        let tol = if V::Scalar::BYTES == 4 { 1e-4 } else { 1e-12 };
        for (idx, (got, w)) in panel.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.to_f64() - w).abs() <= tol * w.abs().max(1.0),
                "trmm {MR}x{NR} kk={kk}: idx {idx}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn real_blocks_match_reference() {
        for kk in [0usize, 1, 2, 3, 5, 9] {
            check::<F64x2, 4, 4>(kk, 1.0);
            check::<F64x2, 2, 3>(kk, -0.5);
            check::<F32x4, 4, 4>(kk, 2.0);
            check::<F32x4, 1, 2>(kk, 1.0);
            check::<F64x2, 3, 1>(kk, 1.5);
        }
    }

    #[test]
    fn complex_block_matches_manual() {
        // 1×1 block, no rect and no off-diagonal: out = α·d·x per lane
        let p = F64x2::LANES;
        let diag = [2.0, 3.0, 0.5, -0.5]; // re lanes | im lanes
        let panel0 = [1.0, 1.0, 1.0, 0.0]; // x = (1+i, 1)
        let mut panel = panel0;
        // SAFETY: a 1×1 block at kk = 0 reads no strip group, one diagonal group and one panel group — the buffers above.
        unsafe {
            ctrmm_ukr::<F64x2, 1, 1>(
                0,
                [1.0, 0.0],
                core::ptr::null(),
                0,
                0,
                diag.as_ptr(),
                panel.as_mut_ptr(),
                0,
                2 * p,
                2 * p,
            );
        }
        // lane 0: (2+0.5i)(1+i) = 1.5 + 2.5i; lane 1: (3−0.5i)(1) = 3 − 0.5i
        assert!((panel[0] - 1.5).abs() < 1e-14);
        assert!((panel[1] - 3.0).abs() < 1e-14);
        assert!((panel[2] - 2.5).abs() < 1e-14);
        assert!((panel[3] + 0.5).abs() < 1e-14);
    }

    /// A reversed mode streams its panel and strip from the stored last row
    /// downwards: negative strides (two's complement in `usize`) must
    /// produce bit-for-bit what the ascending walk over the mirrored
    /// buffers produces, in debug builds too.
    #[test]
    fn descending_walk_matches_ascending() {
        const MR: usize = 3;
        const NR: usize = 2;
        let (p, kk) = (F64x2::LANES, 5usize);
        let rows = kk + MR;
        let mut rng = TestRng::new(77);
        let strip: Vec<f64> = (0..rows * MR * p).map(|_| rng.next()).collect();
        let diag: Vec<f64> = (0..MR * p).map(|_| rng.next()).collect();
        let fwd0: Vec<f64> = (0..rows * NR * p).map(|_| rng.next()).collect();
        let rs = NR * p;
        // mirrored copies: panel rows and strip slivers in reverse order
        let mirror = |v: &[f64], n: usize, len: usize| -> Vec<f64> {
            (0..n)
                .rev()
                .flat_map(|r| v[r * len..(r + 1) * len].to_vec())
                .collect()
        };
        let mut fwd = fwd0.clone();
        let mut rev = mirror(&fwd0, rows, rs);
        let strip_rev = mirror(&strip, rows, MR * p);
        // SAFETY: both calls address exactly the `rows × NR` panel and the `kk + MR` strip slivers built above — ascending from element 0, or descending from the last row / last sliver with negated strides.
        unsafe {
            trmm_ukr::<F64x2, MR, NR>(
                kk,
                1.5,
                strip.as_ptr(),
                p,
                MR * p,
                diag.as_ptr(),
                fwd.as_mut_ptr(),
                kk,
                rs,
                p,
            );
            trmm_ukr::<F64x2, MR, NR>(
                kk,
                1.5,
                strip_rev.as_ptr().add((rows - 1) * MR * p),
                p,
                (MR * p).wrapping_neg(),
                diag.as_ptr(),
                rev.as_mut_ptr().add((rows - 1) * rs),
                kk,
                rs.wrapping_neg(),
                p,
            );
        }
        assert_eq!(mirror(&rev, rows, rs), fwd);
    }
}
