//! TRSM microkernels (paper §4.2.2, Algorithm 4 and the FMLS rectangular
//! kernels of Eq. 4).
//!
//! The canonical operation (after the index maps of `iatf_pack::trsm` have
//! normalized every mode — side/uplo/trans/diag — into it) is the *left,
//! lower, non-transposed* block solve on an `M × nr` column panel of B:
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
//!   It is software-pipelined two deep like the GEMM kernels, and the TRMM
//!   kernels accumulate through the same loop with FMA.
//! * The **triangular** phase is Algorithm 4 on the register-resident
//!   block. Its strictly lower triangle is the *continuation of the strip*:
//!   column `kk + j` of the strip the rectangular phase walks holds
//!   `Â(row0+i, row0+j)`, so the triangle is read wherever the strip lives —
//!   in the stored pack when streamed in place, in the packed buffer under
//!   `PackPolicy::Always` — and never copied on its own. Only the block's
//!   `m_r` diagonal groups are packed, as *reciprocals* (1/a_ii), so the
//!   solve multiplies instead of dividing (§4.4). Unit diagonals and padded
//!   lanes are packed as 1, making one kernel serve both `Diag` modes.
//!
//! Real and complex kernels share every body below, written once over
//! `Group`: a real element group is one vector, a complex one a
//! split-complex pair ([`CVec`]).

use core::marker::PhantomData;
use iatf_simd::{prefetch_read, CVec, SimdReal};

/// Function-pointer type of a monomorphized real TRSM block kernel.
///
/// See the module docs for the operation. `pa_rect + i·a_i + k·a_k`
/// addresses `Â(row0+i, k)` for every `k < kk + i`: the `kk` columns of the
/// rectangular strip, then the block's strictly lower triangle
/// (`Â(row0+i, row0+j)` at column `kk + j`). `pa_tri` holds the block's `MR`
/// reciprocal diagonal groups back to back. The panel is addressed as
/// `panel + row·row_stride + col·col_stride`.
///
/// The four strides are **signed** steps carried in `usize` parameters (a
/// negative step is passed as its two's-complement value): the planners
/// stream reversed modes in place by pointing `panel` / `pa_rect` at the
/// stored *last* row and walking down. Kernel bodies reinterpret them as
/// `isize` on entry, so a descending walk is defined behaviour in debug and
/// release alike.
// SAFETY: unsafe fn type — callers must pass strip/diagonal/panel pointers valid for the extents implied by (kk, MR, NR, strides) per the addressing contract above.
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

/// How the triangular kernels hold one element group in registers: a real
/// vector ([`RealGroup`]) or a split-complex pair ([`CplxGroup`]).
pub(crate) trait Group {
    /// Scalar of the operands in memory.
    type S: Copy;
    /// One element group in registers.
    type G: Copy;
    /// Scalars per element group.
    const LEN: usize;
    fn zero() -> Self::G;
    /// # Safety
    /// `p` must be valid for reading `LEN` scalars.
    unsafe fn load(p: *const Self::S) -> Self::G;
    /// # Safety
    /// `p` must be valid for writing `LEN` scalars.
    unsafe fn store(g: Self::G, p: *mut Self::S);
    /// `acc + a·b`.
    fn fma(acc: Self::G, a: Self::G, b: Self::G) -> Self::G;
    /// `acc − a·b`.
    fn fms(acc: Self::G, a: Self::G, b: Self::G) -> Self::G;
    /// `a·b`.
    fn mul(a: Self::G, b: Self::G) -> Self::G;
}

/// Real element groups: one `V` per group.
pub(crate) struct RealGroup<V>(PhantomData<V>);
/// Complex element groups: one split [`CVec`] per group.
pub(crate) struct CplxGroup<V>(PhantomData<V>);

impl<V: SimdReal> Group for RealGroup<V> {
    type S = V::Scalar;
    type G = V;
    const LEN: usize = V::LANES;
    #[inline(always)]
    fn zero() -> V {
        V::zero()
    }
    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's `LEN`-scalar guarantee to the vector load.
    unsafe fn load(p: *const V::Scalar) -> V {
        V::load(p)
    }
    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's `LEN`-scalar guarantee to the vector store.
    unsafe fn store(g: V, p: *mut V::Scalar) {
        g.store(p);
    }
    #[inline(always)]
    fn fma(acc: V, a: V, b: V) -> V {
        acc.fma(a, b)
    }
    #[inline(always)]
    fn fms(acc: V, a: V, b: V) -> V {
        acc.fms(a, b)
    }
    #[inline(always)]
    fn mul(a: V, b: V) -> V {
        a.mul(b)
    }
}

impl<V: SimdReal> Group for CplxGroup<V> {
    type S = V::Scalar;
    type G = CVec<V>;
    const LEN: usize = 2 * V::LANES;
    #[inline(always)]
    fn zero() -> CVec<V> {
        CVec::zero()
    }
    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's `2·P`-scalar guarantee to the split load.
    unsafe fn load(p: *const V::Scalar) -> CVec<V> {
        CVec::load(p)
    }
    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's `2·P`-scalar guarantee to the split store.
    unsafe fn store(g: CVec<V>, p: *mut V::Scalar) {
        g.store(p);
    }
    #[inline(always)]
    fn fma(acc: CVec<V>, a: CVec<V>, b: CVec<V>) -> CVec<V> {
        acc.fma(a, b)
    }
    #[inline(always)]
    fn fms(acc: CVec<V>, a: CVec<V>, b: CVec<V>) -> CVec<V> {
        acc.fms(a, b)
    }
    /// Four FMA-class instructions, as the complex kernels' SAVE scaling.
    #[inline(always)]
    fn mul(a: CVec<V>, b: CVec<V>) -> CVec<V> {
        CVec::zero().fma(a, b)
    }
}

#[inline(always)]
// SAFETY: unsafe fn — `p + i·stride` (signed) must be valid for one group for every `i < N`; each load stays inside that extent.
unsafe fn load_set<K: Group, const N: usize>(p: *const K::S, stride: isize) -> [K::G; N] {
    let mut out = [K::zero(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = K::load(p.offset(i as isize * stride));
    }
    out
}

#[inline(always)]
// SAFETY: unsafe fn — `panel` must cover rows `row0..row0+MR` and `NR` columns of groups at the given signed strides; every access stays inside that block.
pub(crate) unsafe fn load_block<K: Group, const MR: usize, const NR: usize>(
    panel: *const K::S,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) -> [[K::G; NR]; MR] {
    let mut acc = [[K::zero(); NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell =
                K::load(panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride));
        }
    }
    acc
}

#[inline(always)]
// SAFETY: unsafe fn — as `load_block`, for writes.
pub(crate) unsafe fn store_block<K: Group, const MR: usize, const NR: usize>(
    acc: &[[K::G; NR]; MR],
    panel: *mut K::S,
    row0: isize,
    row_stride: isize,
    col_stride: isize,
) {
    for (i, row) in acc.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            K::store(
                *cell,
                panel.offset((row0 + i as isize) * row_stride + j as isize * col_stride),
            );
        }
    }
}

/// `acc ∓= a ⊗ x`: FMS when `SUB` (the solve's elimination), FMA otherwise
/// (the multiply's accumulation).
#[inline(always)]
fn update_tile<K: Group, const SUB: bool, const MR: usize, const NR: usize>(
    acc: &mut [[K::G; NR]; MR],
    a: &[K::G; MR],
    x: &[K::G; NR],
) {
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] = if SUB {
                K::fms(acc[i][j], a[i], x[j])
            } else {
                K::fma(acc[i][j], a[i], x[j])
            };
        }
    }
}

/// Rectangular phase `acc ∓= Rect · X[0..kk]` in k order, ping-pong
/// pipelined two deep (`SUB` as in `update_tile`).
#[inline(always)]
// SAFETY: unsafe fn — `pa`/`panel` must cover `kk` k-steps at the given signed strides; the ping-pong loads below never exceed step `kk-1` (the cursor itself advances with wrapping arithmetic, so stepping it past the last sliver is not an access).
pub(crate) unsafe fn rect_update<K: Group, const SUB: bool, const MR: usize, const NR: usize>(
    acc: &mut [[K::G; NR]; MR],
    kk: usize,
    mut pa: *const K::S,
    a_i: isize,
    a_k: isize,
    panel: *const K::S,
    row_stride: isize,
    col_stride: isize,
) {
    if kk == 0 {
        return;
    }
    if kk == 1 {
        let a0 = load_set::<K, MR>(pa, a_i);
        let x0 = load_set::<K, NR>(panel, col_stride);
        update_tile::<K, SUB, MR, NR>(acc, &a0, &x0);
        return;
    }
    // Two-deep pipeline over the rows above the block.
    let mut a0 = load_set::<K, MR>(pa, a_i);
    let mut a1 = load_set::<K, MR>(pa.offset(a_k), a_i);
    pa = pa.wrapping_offset(2 * a_k);
    let mut x0 = load_set::<K, NR>(panel, col_stride);
    let mut x1 = load_set::<K, NR>(panel.offset(row_stride), col_stride);
    let mut xrow = 2isize;
    update_tile::<K, SUB, MR, NR>(acc, &a0, &x0);
    let mut remaining = kk - 1;
    while remaining >= 3 {
        a0 = load_set::<K, MR>(pa, a_i);
        x0 = load_set::<K, NR>(panel.offset(xrow * row_stride), col_stride);
        pa = pa.wrapping_offset(a_k);
        xrow += 1;
        update_tile::<K, SUB, MR, NR>(acc, &a1, &x1);
        a1 = load_set::<K, MR>(pa, a_i);
        x1 = load_set::<K, NR>(panel.offset(xrow * row_stride), col_stride);
        pa = pa.wrapping_offset(a_k);
        xrow += 1;
        update_tile::<K, SUB, MR, NR>(acc, &a0, &x0);
        remaining -= 2;
    }
    if remaining == 2 {
        a0 = load_set::<K, MR>(pa, a_i);
        x0 = load_set::<K, NR>(panel.offset(xrow * row_stride), col_stride);
        update_tile::<K, SUB, MR, NR>(acc, &a1, &x1);
        update_tile::<K, SUB, MR, NR>(acc, &a0, &x0);
    } else {
        update_tile::<K, SUB, MR, NR>(acc, &a1, &x1);
    }
}

/// Triangular register solve (Algorithm 4 body) on the loaded block:
/// `L(i, j)`, `j < i`, at `tri + i·a_i + j·a_k` (the strip's continuation),
/// the reciprocal diagonal at `pa_diag`.
#[inline(always)]
// SAFETY: unsafe fn — `tri + i·a_i + j·a_k` (signed) must be valid for one group for every `j < i < MR`, and `pa_diag` for `MR` consecutive groups; only those are read.
unsafe fn tri_solve<K: Group, const MR: usize, const NR: usize>(
    acc: &mut [[K::G; NR]; MR],
    tri: *const K::S,
    a_i: isize,
    a_k: isize,
    pa_diag: *const K::S,
) {
    for i in 0..MR {
        for j in 0..i {
            let lij = K::load(tri.offset(i as isize * a_i + j as isize * a_k));
            for col in 0..NR {
                acc[i][col] = K::fms(acc[i][col], lij, acc[j][col]);
            }
        }
        let rdiag = K::load(pa_diag.add(i * K::LEN));
        for col in 0..NR {
            acc[i][col] = K::mul(acc[i][col], rdiag);
        }
    }
}

/// Fused block solve shared by [`trsm_ukr`] and [`ctrsm_ukr`].
#[inline(always)]
// SAFETY: unsafe fn — the operand contract of [`RealTrsmKernel`]; the triangle pointer is formed with wrapping arithmetic and read only at `j < i`.
unsafe fn trsm_block<K: Group, const MR: usize, const NR: usize>(
    kk: usize,
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
    rect_update::<K, true, MR, NR>(&mut acc, kk, pa_rect, a_i, a_k, panel, rs, cs);
    let tri = pa_rect.wrapping_offset(kk as isize * a_k);
    tri_solve::<K, MR, NR>(&mut acc, tri, a_i, a_k, pa_tri);
    store_block::<K, MR, NR>(&acc, panel, row0, rs, cs);
}

/// Rectangular-only block update shared by [`trsm_rect_ukr`] and
/// [`ctrsm_rect_ukr`].
#[inline(always)]
// SAFETY: unsafe fn — as `trsm_block`, minus the triangle and diagonal.
unsafe fn rect_block<K: Group, const MR: usize, const NR: usize>(
    kk: usize,
    pa_rect: *const K::S,
    a_i: usize,
    a_k: usize,
    panel: *mut K::S,
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) {
    let (a_i, a_k) = (a_i as isize, a_k as isize);
    let (row0, rs, cs) = (row0 as isize, row_stride as isize, col_stride as isize);
    let mut acc = load_block::<K, MR, NR>(panel, row0, rs, cs);
    rect_update::<K, true, MR, NR>(&mut acc, kk, pa_rect, a_i, a_k, panel, rs, cs);
    store_block::<K, MR, NR>(&acc, panel, row0, rs, cs);
}

/// Fused TRSM block kernel: rectangular elimination + triangular solve,
/// in place on the panel.
///
/// # Safety
/// `pa_rect` must cover the strip columns `k < kk + i` of every row `i <
/// MR` (strip, then strictly lower triangle), `pa_tri` the `MR` diagonal
/// groups, and the panel rows `0..row0+MR` × `NR` columns — all at the
/// given strides, read as signed (see [`RealTrsmKernel`]).
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
    trsm_block::<RealGroup<V>, MR, NR>(
        kk, pa_rect, a_i, a_k, pa_tri, panel, row0, row_stride, col_stride,
    );
}

/// Rectangular-only TRSM kernel: `B[row0..row0+MR] -= Rect · X[0..kk]`.
///
/// # Safety
/// As [`trsm_ukr`], for the first `kk` strip columns only; `_pa_tri` is
/// never read.
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
    rect_block::<RealGroup<V>, MR, NR>(kk, pa_rect, a_i, a_k, panel, row0, row_stride, col_stride);
}

/// Fused complex TRSM block kernel.
///
/// # Safety
/// As [`trsm_ukr`] with `2·P`-scalar element groups.
#[inline(always)]
pub unsafe fn ctrsm_ukr<V: SimdReal, const MR: usize, const NR: usize>(
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
    trsm_block::<CplxGroup<V>, MR, NR>(
        kk, pa_rect, a_i, a_k, pa_tri, panel, row0, row_stride, col_stride,
    );
}

/// Rectangular-only complex TRSM kernel.
///
/// # Safety
/// As [`trsm_rect_ukr`] with `2·P`-scalar element groups.
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
    rect_block::<CplxGroup<V>, MR, NR>(kk, pa_rect, a_i, a_k, panel, row0, row_stride, col_stride);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, TestRng};
    use iatf_simd::{F32x4, F64x2, Real};

    fn to<R: Real>(v: &[f64]) -> Vec<R> {
        v.iter().map(|&x| R::from_f64(x)).collect()
    }

    fn back<R: Real>(v: &[R]) -> Vec<f64> {
        v.iter().map(|x| x.to_f64()).collect()
    }

    /// Builds one block's operands (strip + triangle, reciprocal diagonal,
    /// NaN wherever the kernel must not read) and compares kernel vs
    /// oracle.
    fn check_real<V: SimdReal, const MR: usize, const NR: usize>(kk: usize) {
        let p = V::LANES;
        let rows = kk + MR;
        let mut rng = TestRng::new((MR * 41 + NR * 5 + kk) as u64);
        // reciprocal diagonal in [1,2]^-1
        let (strip, diag) = oracle::block_operands(MR, kk, p, p, &mut rng, |r, l| {
            (1.0 / (1.0 + 0.5 * ((r + l) % 3) as f64), 0.0)
        });
        let (pa_rect, pa_tri) = (to::<V::Scalar>(&strip), to::<V::Scalar>(&diag));
        // panel: rows × NR groups, row-major
        let row_stride = NR * p;
        let panel0 = to::<V::Scalar>(&(0..rows * NR * p).map(|_| rng.next()).collect::<Vec<_>>());
        let mut panel = panel0.clone();
        // SAFETY: the strip holds `kk + MR` slivers of MR groups, the diagonal MR groups and the panel `rows × NR` groups — exactly the extents these (kk, MR, NR, P) and strides address.
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
        let want = oracle::real_trsm_block(
            MR,
            NR,
            kk,
            p,
            &back(&pa_rect),
            &back(&pa_tri),
            &back(&panel0),
            kk,
            row_stride,
            p,
        );
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
        // SAFETY: the strip holds exactly the `kk` slivers of MR groups the rect-only kernel reads, the panel `(kk + MR) × NR` groups; the diagonal pointer is never read.
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
        // oracle: identity block (zero triangle, unit diagonal)
        let mut strip = pa_rect.clone();
        strip.resize((kk + MR) * MR * p, 0.0);
        let want = oracle::real_trsm_block(
            MR,
            NR,
            kk,
            p,
            &strip,
            &vec![1.0; MR * p],
            &panel0,
            kk,
            row_stride,
            p,
        );
        for (got, w) in panel.iter().zip(want.iter()) {
            assert!((got - w).abs() < 1e-12);
        }
    }

    fn check_cplx<V: SimdReal, const MR: usize, const NR: usize>(kk: usize) {
        let p = V::LANES;
        let g = 2 * p;
        let rows = kk + MR;
        let mut rng = TestRng::new((MR * 301 + NR * 11 + kk) as u64);
        // reciprocal of (d, 0.3) with d in [1,2]
        let (strip, diag) = oracle::block_operands(MR, kk, p, g, &mut rng, |r, l| {
            let d = 1.0 + 0.4 * ((r + l) % 3) as f64;
            let n = d * d + 0.09;
            (d / n, -0.3 / n)
        });
        let (pa_rect, pa_tri) = (to::<V::Scalar>(&strip), to::<V::Scalar>(&diag));
        let row_stride = NR * g;
        let panel0 = to::<V::Scalar>(&(0..rows * NR * g).map(|_| rng.next()).collect::<Vec<_>>());
        let mut panel = panel0.clone();
        // SAFETY: the strip holds `kk + MR` slivers of MR complex groups, the diagonal MR groups and the panel `rows × NR` groups — exactly the extents these (kk, MR, NR, P) and strides address.
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
        let want = oracle::cplx_trsm_block(
            MR,
            NR,
            kk,
            p,
            &back(&pa_rect),
            &back(&pa_tri),
            &back(&panel0),
            kk,
            row_stride,
            g,
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
        // End-to-end on one pack: build L (lower, nonunit), lay its
        // strictly lower part out as the strip's continuation and its
        // diagonal as reciprocals, solve L·X = B for a 4×3 panel, then
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
        let mut strip = vec![f64::NAN; M * M * p];
        let mut diag = vec![0.0f64; M * p];
        for i in 0..M {
            for lane in 0..p {
                for j in 0..i {
                    strip[(j * M + i) * p + lane] = l[(i * M + j) * p + lane];
                }
                diag[i * p + lane] = 1.0 / l[(i * M + i) * p + lane];
            }
        }
        let row_stride = NRP * p;
        let b0: Vec<f64> = (0..M * NRP * p).map(|_| rng.next()).collect();
        let mut panel = b0.clone();
        // SAFETY: the strip holds M slivers of M groups, the diagonal M groups and the panel `M × NRP` groups — exactly what kk = 0 and these strides address.
        unsafe {
            trsm_ukr::<F64x2, M, NRP>(
                0,
                strip.as_ptr(),
                p,
                M * p,
                diag.as_ptr(),
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
    /// the ascending result over mirrored buffers, in debug builds too —
    /// the triangle included, since it continues the mirrored strip.
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
            let strip = gen(rows * MR * g, 0.1);
            let diag = gen(MR * g, 0.1);
            let fwd0 = gen(rows * NR * g, 1.0);
            let rs = NR * g;
            let mut fwd = fwd0.clone();
            let mut rev = mirror(&fwd0, rows, rs);
            let strip_rev = mirror(&strip, rows, MR * g);
            let kernel = if cplx {
                ctrsm_ukr::<V, MR, NR>
            } else {
                trsm_ukr::<V, MR, NR>
            };
            // SAFETY: both calls address exactly the `rows × NR` panel and the `kk + MR` strip slivers built above — ascending from element 0, or descending from the last row / last sliver with negated strides.
            unsafe {
                kernel(
                    kk,
                    strip.as_ptr(),
                    g,
                    MR * g,
                    diag.as_ptr(),
                    fwd.as_mut_ptr(),
                    kk,
                    rs,
                    g,
                );
                kernel(
                    kk,
                    strip_rev.as_ptr().add((rows - 1) * MR * g),
                    g,
                    (MR * g).wrapping_neg(),
                    diag.as_ptr(),
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
