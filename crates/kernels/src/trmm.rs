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
//! Packed layouts are shared with TRSM (`iatf_pack::trsm`), except the
//! diagonal is stored *directly* (multiplied, not divided — no reciprocal
//! needed here; unit diagonals pack as 1).

use crate::trsm::{load_cset, load_set};
use iatf_simd::{prefetch_read, CVec, SimdReal};

/// Function-pointer type of a monomorphized real TRMM block kernel. Strides
/// are signed steps carried in `usize`, as in [`crate::trsm::RealTrsmKernel`].
// SAFETY: unsafe fn type — callers must pass panel/packed pointers valid for the extents implied by (kk, MR, NR, strides); see the packing contract above.
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
// SAFETY: unsafe fn type — callers must pass panel/packed pointers valid for the extents implied by (kk, MR, NR, strides); see the packing contract above.
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

/// Fused real TRMM block kernel.
///
/// # Safety
/// Same operand contract as `iatf_kernels::trsm_ukr` (rect strip, packed
/// triangle with *direct* diagonal, panel — strides read as signed, see
/// [`crate::trsm::RealTrsmKernel`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub unsafe fn trmm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    alpha: V::Scalar,
    mut pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let p = V::LANES;
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    prefetch_read(panel.offset(row0 * rs));
    let mut acc = [[V::zero(); NR]; MR];

    // triangular part: acc_i = Σ_{j ≤ i} L(i,j) · B_orig(row0+j)
    let mut tri = pa_tri;
    for i in 0..MR {
        for j in 0..=i {
            let lij = V::load(tri);
            tri = tri.add(p);
            for col in 0..NR {
                let x = V::load(panel.offset((row0 + j as isize) * rs + col as isize * cs));
                acc[i][col] = acc[i][col].fma(lij, x);
            }
        }
    }

    // rectangular part over the rows above the block (double-buffered)
    if kk == 1 {
        let a0 = load_set::<V, MR>(pa_rect, a_i);
        let x0 = load_set::<V, NR>(panel, cs);
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = acc[i][j].fma(a0[i], x0[j]);
            }
        }
    } else if kk >= 2 {
        let mut a0 = load_set::<V, MR>(pa_rect, a_i);
        let mut a1 = load_set::<V, MR>(pa_rect.offset(a_k), a_i);
        pa_rect = pa_rect.wrapping_offset(2 * a_k);
        let mut x0 = load_set::<V, NR>(panel, cs);
        let mut x1 = load_set::<V, NR>(panel.offset(rs), cs);
        let mut xrow = 2isize;
        let mut k = 0usize;
        while k < kk {
            let (a, x) = if k % 2 == 0 { (&a0, &x0) } else { (&a1, &x1) };
            for i in 0..MR {
                for j in 0..NR {
                    acc[i][j] = acc[i][j].fma(a[i], x[j]);
                }
            }
            if k + 2 < kk {
                if k % 2 == 0 {
                    a0 = load_set::<V, MR>(pa_rect, a_i);
                    x0 = load_set::<V, NR>(panel.offset(xrow * rs), cs);
                } else {
                    a1 = load_set::<V, MR>(pa_rect, a_i);
                    x1 = load_set::<V, NR>(panel.offset(xrow * rs), cs);
                }
                pa_rect = pa_rect.wrapping_offset(a_k);
                xrow += 1;
            }
            k += 1;
        }
    }

    // scale and store
    let va = V::splat(alpha);
    for (i, row) in acc.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            cell.mul(va)
                .store(panel.offset((row0 + i as isize) * rs + j as isize * cs));
        }
    }
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
    mut pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let g = 2 * V::LANES;
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    prefetch_read(panel.offset(row0 * rs));
    let mut acc = [[CVec::<V>::zero(); NR]; MR];

    let mut tri = pa_tri;
    for i in 0..MR {
        for j in 0..=i {
            let lij = CVec::<V>::load(tri);
            tri = tri.add(g);
            for col in 0..NR {
                let x = CVec::<V>::load(panel.offset((row0 + j as isize) * rs + col as isize * cs));
                acc[i][col] = acc[i][col].fma(lij, x);
            }
        }
    }

    for k in 0..kk as isize {
        let a = load_cset::<V, MR>(pa_rect, a_i);
        pa_rect = pa_rect.wrapping_offset(a_k);
        let x = load_cset::<V, NR>(panel.offset(k * rs), cs);
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = acc[i][j].fma(a[i], x[j]);
            }
        }
    }

    for (i, row) in acc.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            cell.scale(alpha[0], alpha[1])
                .store(panel.offset((row0 + i as isize) * rs + j as isize * cs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TestRng;
    use iatf_simd::{F32x4, F64x2, Real};

    /// Scalar reference: acc_i = α·(Σ_{k<kk} rect(i,k)·panel[k] +
    /// Σ_{j≤i} tri(i,j)·panel[row0+j]), stored into rows row0..row0+mr.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        mr: usize,
        nr: usize,
        kk: usize,
        p: usize,
        alpha: f64,
        rect: &[f64],
        tri: &[f64],
        panel: &[f64],
        row0: usize,
        row_stride: usize,
    ) -> Vec<f64> {
        let mut out = panel.to_vec();
        for l in 0..p {
            for j in 0..nr {
                for i in 0..mr {
                    let mut acc = 0.0;
                    for k in 0..kk {
                        acc += rect[(k * mr + i) * p + l] * panel[k * row_stride + j * p + l];
                    }
                    for jj in 0..=i {
                        let a = tri[(i * (i + 1) / 2 + jj) * p + l];
                        acc += a * panel[(row0 + jj) * row_stride + j * p + l];
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
        let rect: Vec<V::Scalar> = (0..kk * MR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let tri: Vec<V::Scalar> = (0..MR * (MR + 1) / 2 * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let panel0: Vec<V::Scalar> = (0..rows * NR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let mut panel = panel0.clone();
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            trmm_ukr::<V, MR, NR>(
                kk,
                V::Scalar::from_f64(alpha),
                rect.as_ptr(),
                p,
                MR * p,
                tri.as_ptr(),
                panel.as_mut_ptr(),
                kk,
                NR * p,
                p,
            );
        }
        let rect_f: Vec<f64> = rect.iter().map(|x| x.to_f64()).collect();
        let tri_f: Vec<f64> = tri.iter().map(|x| x.to_f64()).collect();
        let panel_f: Vec<f64> = panel0.iter().map(|x| x.to_f64()).collect();
        let want = reference(MR, NR, kk, p, alpha, &rect_f, &tri_f, &panel_f, kk, NR * p);
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
        // 1×1 block, no rect: out = α·l·x per lane
        let p = F64x2::LANES;
        let tri = [2.0, 3.0, 0.5, -0.5]; // re lanes | im lanes
        let panel0 = [1.0, 1.0, 1.0, 0.0]; // x = (1+i, 1)
        let mut panel = panel0;
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            ctrmm_ukr::<F64x2, 1, 1>(
                0,
                [1.0, 0.0],
                core::ptr::null(),
                0,
                0,
                tri.as_ptr(),
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

    /// A reversed mode streams its panel and rect strip from the stored
    /// last row downwards: negative strides (two's complement in `usize`)
    /// must produce bit-for-bit what the ascending walk over the mirrored
    /// buffers produces, in debug builds too.
    #[test]
    fn descending_walk_matches_ascending() {
        const MR: usize = 3;
        const NR: usize = 2;
        let (p, kk) = (F64x2::LANES, 5usize);
        let rows = kk + MR;
        let mut rng = TestRng::new(77);
        let rect: Vec<f64> = (0..kk * MR * p).map(|_| rng.next()).collect();
        let tri: Vec<f64> = (0..MR * (MR + 1) / 2 * p).map(|_| rng.next()).collect();
        let fwd0: Vec<f64> = (0..rows * NR * p).map(|_| rng.next()).collect();
        let rs = NR * p;
        // mirrored copies: panel rows and rect slivers in reverse order
        let mirror = |v: &[f64], n: usize, len: usize| -> Vec<f64> {
            (0..n)
                .rev()
                .flat_map(|r| v[r * len..(r + 1) * len].to_vec())
                .collect()
        };
        let mut fwd = fwd0.clone();
        let mut rev = mirror(&fwd0, rows, rs);
        let rect_rev = mirror(&rect, kk, MR * p);
        // SAFETY: both calls address exactly the `rows × NR` panel and the `kk` rect slivers built above — ascending from element 0, or descending from the last row / last sliver with negated strides.
        unsafe {
            trmm_ukr::<F64x2, MR, NR>(
                kk,
                1.5,
                rect.as_ptr(),
                p,
                MR * p,
                tri.as_ptr(),
                fwd.as_mut_ptr(),
                kk,
                rs,
                p,
            );
            trmm_ukr::<F64x2, MR, NR>(
                kk,
                1.5,
                rect_rev.as_ptr().add((kk - 1) * MR * p),
                p,
                (MR * p).wrapping_neg(),
                tri.as_ptr(),
                rev.as_mut_ptr().add((rows - 1) * rs),
                kk,
                rs.wrapping_neg(),
                p,
            );
        }
        assert_eq!(mirror(&rev, rows, rs), fwd);
    }
}
