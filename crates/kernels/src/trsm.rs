//! TRSM microkernels (paper §4.2.2, Algorithm 4 and the FMLS rectangular
//! kernels of Eq. 4).
//!
//! The canonical operation (after the packing kernels have normalized every
//! mode — side/uplo/trans/diag — into it) is the *left, lower,
//! non-transposed* block solve on an `M × nr` column panel of B held in a
//! row-major packed panel:
//!
//! ```text
//! X[row0 .. row0+m_r] = Tri⁻¹ · ( B[row0 ..] − Rect · X[0 .. kk] )
//! ```
//!
//! * The **rectangular** phase subtracts the contribution of the `kk`
//!   already-solved rows with fused multiply-*subtract* (NEON `FMLS`). A
//!   general GEMM kernel would spend `M·N` extra multiplies on `alpha`; the
//!   dedicated FMLS kernel saves them (paper Eq. 4) — the saving is
//!   measurable at small sizes and reproduced by the `ablation_fmls` bench.
//! * The **triangular** phase is Algorithm 4: the diagonal block's triangle
//!   is register-resident; diagonal elements were packed as *reciprocals*
//!   (1/a_ii), so the solve multiplies instead of dividing (§4.4). Unit
//!   diagonals are packed as reciprocal 1, making one kernel serve both
//!   `Diag` modes.
//!
//! The rectangular phase is software-pipelined two deep exactly like the
//! GEMM kernels.

use iatf_simd::{prefetch_read, CVec, SimdReal};

/// Function-pointer type of a monomorphized real TRSM block kernel.
///
/// See the module docs for the operation. `pa_rect` addresses like a GEMM A
/// sliver (`a_i` between rows, `a_k` between k-steps); `pa_tri` is the
/// packed triangle (row `r` holds `r+1` vector groups, reciprocal diagonal
/// last); the panel is addressed as `panel + row·row_stride + col·col_stride`.
///
/// The four strides are **signed** steps carried in `usize` parameters (a
/// negative step is passed as its two's-complement value): the planners
/// stream reversed modes in place by pointing `panel` / `pa_rect` at the
/// stored *last* row and walking down. Kernel bodies reinterpret them as
/// `isize` on entry, so a descending walk is defined behaviour in debug and
/// release alike.
// SAFETY: unsafe fn type — callers must pass packed-triangle/rect/panel pointers valid for the extents implied by (kk, MR, NR, strides) per the addressing contract above.
pub type RealTrsmKernel<R> = unsafe fn(
    kk: usize,
    pa_rect: *const R,
    a_i: usize,
    a_k: usize,
    pa_tri: *const R,
    panel: *mut R,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
);

/// Complex counterpart of [`RealTrsmKernel`] (split `2·P` element groups).
pub type CplxTrsmKernel<R> = RealTrsmKernel<R>;

/// Rectangular-phase-only kernel (the paper's Table 1 "rectangular" TRSM
/// kernels), used standalone in the FMLS-vs-GEMM ablation.
pub type RealTrsmRectKernel<R> = RealTrsmKernel<R>;
/// Complex rectangular-phase-only kernel.
pub type CplxTrsmRectKernel<R> = RealTrsmKernel<R>;

#[inline(always)]
// SAFETY: unsafe fn — `p + i·stride` (signed) must be valid for `LANES` scalars for every `i < N`; each lane load stays inside that extent.
pub(crate) unsafe fn load_set<V: SimdReal, const N: usize>(
    p: *const V::Scalar,
    stride: isize,
) -> [V; N] {
    let mut out = [V::zero(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = V::load(p.offset(i as isize * stride));
    }
    out
}

#[inline(always)]
fn fms_tile<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[V; NR]; MR],
    a: &[V; MR],
    x: &[V; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = acc[i][j].fms(a[i], x[j]);
        }
    }
}

#[inline(always)]
// SAFETY: unsafe fn — `panel` must cover rows `row0..row0+MR` and `NR` columns at the given strides; every lane access stays inside that block.
unsafe fn load_block<V: SimdReal, const MR: usize, const NR: usize>(
    panel: *const V::Scalar,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) -> [[V; NR]; MR] {
    let mut acc = [[V::zero(); NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell =
                V::load(panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride));
        }
    }
    acc
}

#[inline(always)]
// SAFETY: unsafe fn — `panel` must cover rows `row0..row0+MR` and `NR` columns at the given strides; every lane access stays inside that block.
unsafe fn store_block<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &[[V; NR]; MR],
    panel: *mut V::Scalar,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) {
    for (i, row) in acc.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            cell.store(panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride));
        }
    }
}

/// Rectangular elimination `acc -= Rect · X[0..kk]`, ping-pong pipelined.
#[inline(always)]
// SAFETY: unsafe fn — `pa`/`panel` must cover `kk` k-steps at the given signed strides; the ping-pong loads below never exceed step `kk-1` (the cursor itself advances with wrapping arithmetic, so stepping it past the last sliver is not an access).
unsafe fn rect_eliminate<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[V; NR]; MR],
    kk: usize,
    mut pa: *const V::Scalar,
    a_i: isize,
    a_k: isize,
    panel: *const V::Scalar,
    row_stride: isize,
    col_stride: isize,
) {
    if kk == 0 {
        return;
    }
    if kk == 1 {
        let a0 = load_set::<V, MR>(pa, a_i);
        let x0 = load_set::<V, NR>(panel, col_stride);
        fms_tile(acc, &a0, &x0);
        return;
    }
    // Two-deep pipeline over the solved rows.
    let mut a0 = load_set::<V, MR>(pa, a_i);
    let mut a1 = load_set::<V, MR>(pa.offset(a_k), a_i);
    pa = pa.wrapping_offset(2 * a_k);
    let mut x0 = load_set::<V, NR>(panel, col_stride);
    let mut x1 = load_set::<V, NR>(panel.offset(row_stride), col_stride);
    let mut xrow = 2isize;
    fms_tile(acc, &a0, &x0);
    let mut remaining = kk - 1;
    while remaining >= 3 {
        a0 = load_set::<V, MR>(pa, a_i);
        x0 = load_set::<V, NR>(panel.offset(xrow * row_stride), col_stride);
        pa = pa.wrapping_offset(a_k);
        xrow += 1;
        fms_tile(acc, &a1, &x1);
        a1 = load_set::<V, MR>(pa, a_i);
        x1 = load_set::<V, NR>(panel.offset(xrow * row_stride), col_stride);
        pa = pa.wrapping_offset(a_k);
        xrow += 1;
        fms_tile(acc, &a0, &x0);
        remaining -= 2;
    }
    if remaining == 2 {
        a0 = load_set::<V, MR>(pa, a_i);
        x0 = load_set::<V, NR>(panel.offset(xrow * row_stride), col_stride);
        fms_tile(acc, &a1, &x1);
        fms_tile(acc, &a0, &x0);
    } else {
        fms_tile(acc, &a1, &x1);
    }
}

/// Triangular register solve (Algorithm 4 body) on the loaded block.
#[inline(always)]
// SAFETY: unsafe fn — `pa_tri` must hold the packed triangle for MR rows (`MR·(MR+1)/2` vector groups); the walk below never leaves it.
unsafe fn tri_solve<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[V; NR]; MR],
    pa_tri: *const V::Scalar,
) {
    let p = V::LANES;
    let mut tri = pa_tri;
    for i in 0..MR {
        for j in 0..i {
            let lij = V::load(tri);
            tri = tri.add(p);
            for col in 0..NR {
                acc[i][col] = acc[i][col].fms(lij, acc[j][col]);
            }
        }
        let rdiag = V::load(tri);
        tri = tri.add(p);
        for col in 0..NR {
            acc[i][col] = acc[i][col].mul(rdiag);
        }
    }
}

/// Fused TRSM block kernel: rectangular elimination + triangular solve,
/// in place on the panel.
///
/// # Safety
/// `pa_rect` must cover `kk` strided slivers of `MR` groups, `pa_tri` the
/// packed `MR`-row triangle, and the panel rows `0..row0+MR` × `NR` columns
/// — all at the given strides, read as signed (see [`RealTrsmKernel`]).
#[inline(always)]
pub unsafe fn trsm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    prefetch_read(panel.offset(row0 * rs));
    let mut acc = load_block::<V, MR, NR>(panel, row0, rs, cs);
    rect_eliminate::<V, MR, NR>(&mut acc, kk, pa_rect, a_i, a_k, panel, rs, cs);
    tri_solve::<V, MR, NR>(&mut acc, pa_tri);
    store_block::<V, MR, NR>(&acc, panel, row0, rs, cs);
}

/// Rectangular-only TRSM kernel: `B[row0..row0+MR] -= Rect · X[0..kk]`.
///
/// # Safety
/// As [`trsm_ukr`], minus the triangle.
#[inline(always)]
pub unsafe fn trsm_rect_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    _pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    let mut acc = load_block::<V, MR, NR>(panel, row0, rs, cs);
    rect_eliminate::<V, MR, NR>(&mut acc, kk, pa_rect, a_i, a_k, panel, rs, cs);
    store_block::<V, MR, NR>(&acc, panel, row0, rs, cs);
}

// ---------------------------------------------------------------------------
// Complex kernels (split representation).
// ---------------------------------------------------------------------------

#[inline(always)]
// SAFETY: unsafe fn — `p + i·stride` (signed) must be valid for `2·LANES` scalars for every `i < N`; each lane load stays inside that extent.
pub(crate) unsafe fn load_cset<V: SimdReal, const N: usize>(
    p: *const V::Scalar,
    stride: isize,
) -> [CVec<V>; N] {
    let mut out = [CVec::<V>::zero(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = CVec::load(p.offset(i as isize * stride));
    }
    out
}

#[inline(always)]
fn cfms_tile<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &mut [[CVec<V>; NR]; MR],
    a: &[CVec<V>; MR],
    x: &[CVec<V>; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = acc[i][j].fms(a[i], x[j]);
        }
    }
}

#[inline(always)]
// SAFETY: unsafe fn — `panel` must cover rows `row0..row0+MR` and `NR` columns of `2·LANES`-scalar groups at the given signed strides; every access stays inside that block.
unsafe fn load_cblock<V: SimdReal, const MR: usize, const NR: usize>(
    panel: *const V::Scalar,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) -> [[CVec<V>; NR]; MR] {
    let mut acc = [[CVec::<V>::zero(); NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = CVec::load(
                panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride),
            );
        }
    }
    acc
}

#[inline(always)]
// SAFETY: unsafe fn — as `load_cblock`, for writes.
unsafe fn store_cblock<V: SimdReal, const MR: usize, const NR: usize>(
    acc: &[[CVec<V>; NR]; MR],
    panel: *mut V::Scalar,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) {
    for (i, row) in acc.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            cell.store(panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride));
        }
    }
}

/// Fused complex TRSM block kernel.
///
/// # Safety
/// As [`trsm_ukr`] with `2·P`-scalar element groups.
#[inline(always)]
pub unsafe fn ctrsm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    mut pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    prefetch_read(panel.offset(row0 * rs));
    let g = 2 * V::LANES;
    let mut acc = load_cblock::<V, MR, NR>(panel, row0, rs, cs);

    // Rectangular phase (two-deep pipelined for kk ≥ 2).
    if kk == 1 {
        let a0 = load_cset::<V, MR>(pa_rect, a_i);
        let x0 = load_cset::<V, NR>(panel, cs);
        cfms_tile(&mut acc, &a0, &x0);
    } else if kk >= 2 {
        let mut a0 = load_cset::<V, MR>(pa_rect, a_i);
        let mut a1 = load_cset::<V, MR>(pa_rect.offset(a_k), a_i);
        pa_rect = pa_rect.wrapping_offset(2 * a_k);
        let mut x0 = load_cset::<V, NR>(panel, cs);
        let mut x1 = load_cset::<V, NR>(panel.offset(rs), cs);
        let mut xrow = 2isize;
        cfms_tile(&mut acc, &a0, &x0);
        let mut remaining = kk - 1;
        while remaining >= 3 {
            a0 = load_cset::<V, MR>(pa_rect, a_i);
            x0 = load_cset::<V, NR>(panel.offset(xrow * rs), cs);
            pa_rect = pa_rect.wrapping_offset(a_k);
            xrow += 1;
            cfms_tile(&mut acc, &a1, &x1);
            a1 = load_cset::<V, MR>(pa_rect, a_i);
            x1 = load_cset::<V, NR>(panel.offset(xrow * rs), cs);
            pa_rect = pa_rect.wrapping_offset(a_k);
            xrow += 1;
            cfms_tile(&mut acc, &a0, &x0);
            remaining -= 2;
        }
        if remaining == 2 {
            a0 = load_cset::<V, MR>(pa_rect, a_i);
            x0 = load_cset::<V, NR>(panel.offset(xrow * rs), cs);
            cfms_tile(&mut acc, &a1, &x1);
            cfms_tile(&mut acc, &a0, &x0);
        } else {
            cfms_tile(&mut acc, &a1, &x1);
        }
    }

    // Triangular phase with complex reciprocal diagonal.
    let mut tri = pa_tri;
    for i in 0..MR {
        for j in 0..i {
            let lij = CVec::<V>::load(tri);
            tri = tri.add(g);
            for col in 0..NR {
                acc[i][col] = acc[i][col].fms(lij, acc[j][col]);
            }
        }
        let rdiag = CVec::<V>::load(tri);
        tri = tri.add(g);
        for col in 0..NR {
            acc[i][col] = CVec::zero().fma(acc[i][col], rdiag);
        }
    }

    store_cblock::<V, MR, NR>(&acc, panel, row0, rs, cs);
}

/// Rectangular-only complex TRSM kernel.
///
/// # Safety
/// As [`ctrsm_ukr`], minus the triangle.
#[inline(always)]
pub unsafe fn ctrsm_rect_ukr<V: SimdReal, const MR: usize, const NR: usize>(
    kk: usize,
    pa_rect: *const V::Scalar,
    a_i: usize,
    a_k: usize,
    _pa_tri: *const V::Scalar,
    panel: *mut V::Scalar,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    let mut acc = load_cblock::<V, MR, NR>(panel, row0, rs, cs);
    // Reuse the simple path: complex rect elimination without pipelining
    // subtleties is still correct for the ablation's purposes.
    let mut pa = pa_rect;
    for k in 0..kk as isize {
        let a = load_cset::<V, MR>(pa, a_i);
        let x = load_cset::<V, NR>(panel.offset(k * rs), cs);
        cfms_tile(&mut acc, &a, &x);
        pa = pa.wrapping_offset(a_k);
    }
    store_cblock::<V, MR, NR>(&acc, panel, row0, rs, cs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, TestRng};
    use iatf_simd::{F32x4, F64x2, Real};

    /// Builds packed operands for one block solve and compares kernel vs
    /// oracle.
    fn check_real<V: SimdReal, const MR: usize, const NR: usize>(kk: usize) {
        let p = V::LANES;
        let rows = kk + MR;
        let mut rng = TestRng::new((MR * 41 + NR * 5 + kk) as u64);
        // rect: kk slivers of MR groups, small magnitudes
        let pa_rect: Vec<V::Scalar> = (0..kk * MR * p)
            .map(|_| V::Scalar::from_f64(rng.next() / rows as f64))
            .collect();
        // triangle rows with reciprocal diagonal in [1,2]^-1
        let tri_groups = MR * (MR + 1) / 2;
        let mut pa_tri = vec![V::Scalar::ZERO; tri_groups * p];
        for r in 0..MR {
            let base = r * (r + 1) / 2;
            for c in 0..=r {
                for l in 0..p {
                    let val = if c == r {
                        1.0 / (1.0 + 0.5 * ((r + l) % 3) as f64)
                    } else {
                        rng.next() / MR as f64
                    };
                    pa_tri[(base + c) * p + l] = V::Scalar::from_f64(val);
                }
            }
        }
        // panel: rows× NR groups, row-major
        let row_stride = NR * p;
        let panel0: Vec<V::Scalar> = (0..rows * NR * p)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let mut panel = panel0.clone();
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            trsm_ukr::<V, MR, NR>(
                kk,
                pa_rect.as_ptr(),
                p,
                MR * p,
                pa_tri.as_ptr(),
                panel.as_mut_ptr(),
                kk,
                row_stride,
                p,
            );
        }
        let rect_f: Vec<f64> = pa_rect.iter().map(|x| x.to_f64()).collect();
        let tri_f: Vec<f64> = pa_tri.iter().map(|x| x.to_f64()).collect();
        let panel_f: Vec<f64> = panel0.iter().map(|x| x.to_f64()).collect();
        let want =
            oracle::real_trsm_block(MR, NR, kk, p, &rect_f, &tri_f, &panel_f, kk, row_stride, p);
        let tol = if V::Scalar::BYTES == 4 { 1e-4 } else { 1e-12 };
        for (idx, (&got, &w)) in panel.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.to_f64() - w).abs() <= tol * w.abs().max(1.0),
                "real trsm {MR}x{NR} kk={kk} idx={idx}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn real_blocks_match_oracle() {
        for kk in [0usize, 1, 2, 3, 4, 5, 8, 13] {
            check_real::<F64x2, 4, 4>(kk);
            check_real::<F64x2, 1, 4>(kk);
            check_real::<F64x2, 3, 2>(kk);
            check_real::<F32x4, 4, 4>(kk);
            check_real::<F32x4, 2, 1>(kk);
            check_real::<F32x4, 5, 4>(kk);
        }
    }

    #[test]
    fn m5_register_triangle() {
        // The M ≤ 5 full-register case of §4.2.2.
        check_real::<F64x2, 5, 1>(0);
        check_real::<F64x2, 5, 2>(0);
        check_real::<F32x4, 5, 3>(0);
    }

    #[test]
    fn rect_only_matches_oracle() {
        let p = F64x2::LANES;
        const MR: usize = 3;
        const NR: usize = 2;
        let kk = 4;
        let mut rng = TestRng::new(17);
        let pa_rect: Vec<f64> = (0..kk * MR * p).map(|_| rng.next()).collect();
        let row_stride = NR * p;
        let panel0: Vec<f64> = (0..(kk + MR) * NR * p).map(|_| rng.next()).collect();
        let mut panel = panel0.clone();
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            trsm_rect_ukr::<F64x2, MR, NR>(
                kk,
                pa_rect.as_ptr(),
                p,
                MR * p,
                core::ptr::null(),
                panel.as_mut_ptr(),
                kk,
                row_stride,
                p,
            );
        }
        // oracle: identity triangle (recip diag = 1, no off-diagonals)
        let mut tri = vec![0.0f64; MR * (MR + 1) / 2 * p];
        for r in 0..MR {
            let base = (r * (r + 1) / 2 + r) * p;
            for l in 0..p {
                tri[base + l] = 1.0;
            }
        }
        let want =
            oracle::real_trsm_block(MR, NR, kk, p, &pa_rect, &tri, &panel0, kk, row_stride, p);
        for (got, w) in panel.iter().zip(want.iter()) {
            assert!((got - w).abs() < 1e-12);
        }
    }

    fn check_cplx<V: SimdReal, const MR: usize, const NR: usize>(kk: usize) {
        let p = V::LANES;
        let g = 2 * p;
        let rows = kk + MR;
        let mut rng = TestRng::new((MR * 301 + NR * 11 + kk) as u64);
        let pa_rect: Vec<V::Scalar> = (0..kk * MR * g)
            .map(|_| V::Scalar::from_f64(rng.next() / rows as f64))
            .collect();
        let tri_groups = MR * (MR + 1) / 2;
        let mut pa_tri = vec![V::Scalar::ZERO; tri_groups * g];
        for r in 0..MR {
            let base = r * (r + 1) / 2;
            for c in 0..=r {
                for l in 0..p {
                    let (re, im) = if c == r {
                        // reciprocal of (d, 0.3) with d in [1,2]
                        let d = 1.0 + 0.4 * ((r + l) % 3) as f64;
                        let n = d * d + 0.09;
                        (d / n, -0.3 / n)
                    } else {
                        (rng.next() / MR as f64, rng.next() / MR as f64)
                    };
                    pa_tri[(base + c) * g + l] = V::Scalar::from_f64(re);
                    pa_tri[(base + c) * g + p + l] = V::Scalar::from_f64(im);
                }
            }
        }
        let row_stride = NR * g;
        let panel0: Vec<V::Scalar> = (0..rows * NR * g)
            .map(|_| V::Scalar::from_f64(rng.next()))
            .collect();
        let mut panel = panel0.clone();
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            ctrsm_ukr::<V, MR, NR>(
                kk,
                pa_rect.as_ptr(),
                g,
                MR * g,
                pa_tri.as_ptr(),
                panel.as_mut_ptr(),
                kk,
                row_stride,
                g,
            );
        }
        let rect_f: Vec<f64> = pa_rect.iter().map(|x| x.to_f64()).collect();
        let tri_f: Vec<f64> = pa_tri.iter().map(|x| x.to_f64()).collect();
        let panel_f: Vec<f64> = panel0.iter().map(|x| x.to_f64()).collect();
        let want = oracle::cplx_trsm_block(
            MR, NR, kk, p, &rect_f, &tri_f, &panel_f, kk, row_stride, g,
        );
        let tol = if V::Scalar::BYTES == 4 { 1e-3 } else { 1e-11 };
        for (idx, (&got, &w)) in panel.iter().zip(want.iter()).enumerate() {
            assert!(
                (got.to_f64() - w).abs() <= tol * w.abs().max(1.0),
                "cplx trsm {MR}x{NR} kk={kk} idx={idx}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn complex_blocks_match_oracle() {
        for kk in [0usize, 1, 2, 3, 5, 7] {
            check_cplx::<F32x4, 2, 2>(kk);
            check_cplx::<F64x2, 2, 2>(kk);
            check_cplx::<F64x2, 1, 2>(kk);
            check_cplx::<F32x4, 2, 1>(kk);
            check_cplx::<F32x4, 1, 1>(kk);
        }
    }

    #[test]
    fn solves_actual_triangular_system() {
        // End-to-end on one pack: build L (lower, nonunit), pack triangle
        // with reciprocal diagonal, solve L·X = B for a 4×3 panel, then
        // verify the residual directly against L.
        let p = F64x2::LANES;
        const M: usize = 4;
        const NRP: usize = 3;
        let mut rng = TestRng::new(5);
        // L per lane
        let mut l = vec![0.0f64; M * M * p];
        for i in 0..M {
            for j in 0..=i {
                for lane in 0..p {
                    l[(i * M + j) * p + lane] = if i == j {
                        1.5 + 0.25 * lane as f64
                    } else {
                        rng.next()
                    };
                }
            }
        }
        // pack triangle rows with reciprocal diag
        let mut tri = vec![0.0f64; M * (M + 1) / 2 * p];
        for i in 0..M {
            let base = i * (i + 1) / 2;
            for j in 0..=i {
                for lane in 0..p {
                    let v = l[(i * M + j) * p + lane];
                    tri[(base + j) * p + lane] = if i == j { 1.0 / v } else { v };
                }
            }
        }
        let row_stride = NRP * p;
        let b0: Vec<f64> = (0..M * NRP * p).map(|_| rng.next()).collect();
        let mut panel = b0.clone();
        // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these (kk, MR, NR, P), and the strides passed match that sizing.
        unsafe {
            trsm_ukr::<F64x2, M, NRP>(
                0,
                core::ptr::null(),
                0,
                0,
                tri.as_ptr(),
                panel.as_mut_ptr(),
                0,
                row_stride,
                p,
            );
        }
        // residual: L · X == B
        for lane in 0..p {
            for col in 0..NRP {
                for i in 0..M {
                    let mut lhs = 0.0;
                    for j in 0..=i {
                        lhs += l[(i * M + j) * p + lane] * panel[j * row_stride + col * p + lane];
                    }
                    let rhs = b0[i * row_stride + col * p + lane];
                    assert!(
                        (lhs - rhs).abs() < 1e-12,
                        "lane {lane} col {col} row {i}: {lhs} vs {rhs}"
                    );
                }
            }
        }
    }

    /// Reversed modes solve in place from the stored last row downwards:
    /// negative strides (two's complement in `usize`) must give bit-for-bit
    /// the ascending result over mirrored buffers, in debug builds too.
    #[test]
    fn descending_walk_matches_ascending() {
        fn mirror<T: Copy>(v: &[T], n: usize, len: usize) -> Vec<T> {
            (0..n)
                .rev()
                .flat_map(|r| v[r * len..(r + 1) * len].to_vec())
                .collect()
        }
        fn run<V: SimdReal, const MR: usize, const NR: usize>(cplx: bool, kk: usize) {
            let g = if cplx { 2 * V::LANES } else { V::LANES };
            let rows = kk + MR;
            let mut rng = TestRng::new((MR * 7 + NR + kk) as u64);
            let mut gen = |n: usize, scale: f64| -> Vec<V::Scalar> {
                (0..n)
                    .map(|_| V::Scalar::from_f64(0.5 + scale * rng.next()))
                    .collect()
            };
            let rect = gen(kk * MR * g, 0.1);
            let tri = gen(MR * (MR + 1) / 2 * g, 0.1);
            let fwd0 = gen(rows * NR * g, 1.0);
            let rs = NR * g;
            let mut fwd = fwd0.clone();
            let mut rev = mirror(&fwd0, rows, rs);
            let rect_rev = mirror(&rect, kk, MR * g);
            let kernel = if cplx {
                ctrsm_ukr::<V, MR, NR>
            } else {
                trsm_ukr::<V, MR, NR>
            };
            // `kk == 0` never reads the rect strip, so its start pointer is as good as any
            let last_sliver = kk.saturating_sub(1) * MR * g;
            // SAFETY: both calls address exactly the `rows × NR` panel and the `kk` rect slivers built above — ascending from element 0, or descending from the last row / last sliver with negated strides.
            unsafe {
                kernel(
                    kk,
                    rect.as_ptr(),
                    g,
                    MR * g,
                    tri.as_ptr(),
                    fwd.as_mut_ptr(),
                    kk,
                    rs,
                    g,
                );
                kernel(
                    kk,
                    rect_rev.as_ptr().add(last_sliver),
                    g,
                    (MR * g).wrapping_neg(),
                    tri.as_ptr(),
                    rev.as_mut_ptr().add((rows - 1) * rs),
                    kk,
                    rs.wrapping_neg(),
                    g,
                );
            }
            let back = mirror(&rev, rows, rs);
            for (a, b) in back.iter().zip(&fwd) {
                assert_eq!(
                    a.to_f64().to_bits(),
                    b.to_f64().to_bits(),
                    "{MR}x{NR} kk={kk} cplx={cplx}"
                );
            }
        }
        for kk in [0usize, 1, 2, 3, 4, 7] {
            run::<F64x2, 4, 4>(false, kk);
            run::<F32x4, 3, 2>(false, kk);
            run::<F64x2, 2, 2>(true, kk);
            run::<F32x4, 1, 2>(true, kk);
        }
    }
}
