//! TRSM packing kernels (paper §4.4) and mode canonicalization.
//!
//! Every one of the sixteen `(side, trans, uplo, diag)` modes is folded into
//! one canonical form — **left, lower, non-transposed** — by an index map
//! applied while gathering:
//!
//! * `side = Right` and/or `trans = T` compose into a single *flip* (read
//!   the stored element `(j, i)` instead of `(i, j)`): `X·op(A) = αB` is
//!   `op(A)ᵀ·Xᵀ = αBᵀ`, so the right side is the left-side solve of the
//!   transposed system on a transposed panel.
//! * If the *effective* triangle after flipping is upper, indices are
//!   *reversed* (`i ↦ T−1−i`): reversing rows and columns of an upper
//!   triangular matrix yields a lower triangular one, and the permuted
//!   solution is un-permuted for free while unpacking.
//!
//! This is exactly the paper's Pack Selecter contract: "pack matrices into
//! the same order, so that only one computational kernel is needed to handle
//! all modes."
//!
//! The packed A diagonal stores its entries as **reciprocals** (`1/aᵢᵢ`;
//! complex: `ā/|a|²`) because "considering the long delay of division
//! instructions under the ARM architecture ... the diagonal part is stored
//! as its reciprocal" (§4.4). `Diag::Unit` packs reciprocal 1 and never
//! reads the stored diagonal. The α of `op(A)·X = α·B` is applied while
//! packing B.
//!
//! Every one of those maps is *affine* in the canonical indices, so none of
//! this needs a copy: [`TrsmIndexMap::b_in_place`] and
//! [`TrsmIndexMap::a_rect_in_place`] express B̂ and Â's block strips as a
//! base offset plus two signed strides into the stored pack
//! ([`InPlaceAccess`] — the right side swaps the row and column steps,
//! reversal starts at the stored last row and walks down). A block's strip
//! runs on past its `r0` rectangular columns into the block's own strictly
//! lower triangle, which the kernels read there, so the planners stream
//! both operands through those strides and pack only the `t` diagonal
//! groups ([`a_layout_diag`] / [`pack_a_diag`]), which need the reciprocal
//! and the padded-lane ones. The full packer [`pack_a_tri`] lays every
//! strip out contiguously in that same shape — `r0 + mb` slivers, then the
//! diagonal — and remains the `PackPolicy::Always` reference path and the
//! conjugated-A path, since conjugation is not a stride.
//!
//! These packers work on raw pack slices, so the interleaving factor `p`
//! (lanes per element group — a property of the batch's vector width) is an
//! explicit parameter throughout; callers pass `CompactBatch::p()`.

use crate::gemm::group_len;
use iatf_layout::{Diag, Side, Trans, TrsmMode, Uplo};
use iatf_simd::{Element, Real};

/// Canonicalizing index map for one TRSM problem.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TrsmIndexMap {
    /// Order of the triangular matrix.
    pub t: usize,
    /// Columns of the canonical right-hand side `B̂` (`n` for left, `m` for
    /// right).
    pub bn: usize,
    /// Read stored `(j, i)` instead of `(i, j)` (side/trans composition).
    pub flip: bool,
    /// Reverse indices (`i ↦ t−1−i`) to turn effective-upper into lower.
    pub reversed: bool,
    /// Conjugate A elements while packing (conjugate-transpose modes).
    pub conj: bool,
    /// Unit-diagonal solve: pack reciprocal 1, never read the diagonal.
    pub unit: bool,
    /// Right-side problem (affects the B mapping).
    pub side_right: bool,
}

impl TrsmIndexMap {
    /// Builds the map for a mode and the B dimensions `m × n`.
    pub fn new(mode: TrsmMode, conj: bool, m: usize, n: usize) -> Self {
        let side_right = mode.side == Side::Right;
        let t = if side_right { n } else { m };
        let bn = if side_right { m } else { n };
        let flip = side_right ^ (mode.trans == Trans::Yes);
        let uplo_eff = if flip { mode.uplo.flip() } else { mode.uplo };
        Self {
            t,
            bn,
            flip,
            reversed: uplo_eff == Uplo::Upper,
            conj,
            unit: mode.diag == Diag::Unit,
            side_right,
        }
    }

    /// Stored `(row, col)` of the canonical coefficient `Â(i, j)`, `i ≥ j`.
    #[inline]
    pub fn a_src(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i >= j && i < self.t);
        let (ii, jj) = if self.reversed {
            (self.t - 1 - i, self.t - 1 - j)
        } else {
            (i, j)
        };
        if self.flip {
            (jj, ii)
        } else {
            (ii, jj)
        }
    }

    /// Stored `(row, col)` in B of the canonical `B̂(i, j)`. The same map
    /// serves packing (gather) and unpacking (scatter of the solution).
    #[inline]
    pub fn b_src(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i < self.t && j < self.bn);
        let ii = if self.reversed { self.t - 1 - i } else { i };
        if self.side_right {
            (j, ii)
        } else {
            (ii, j)
        }
    }

    /// Rows of the stored B (`m`): the triangle order on the left side, the
    /// canonical column count on the right.
    #[inline]
    fn b_rows(&self) -> usize {
        if self.side_right {
            self.bn
        } else {
            self.t
        }
    }

    /// In-place addressing of the B̂ column panel starting at canonical
    /// column `j0` (canonical rows `0..t`) inside one stored pack of B.
    /// The right side swaps the two steps; reversal starts at stored row
    /// `t − 1` and steps down.
    pub fn b_in_place<E: Element>(&self, p: usize, j0: usize) -> InPlaceAccess {
        let g = group_len::<E>(p) as isize;
        let rows = self.b_rows();
        let (r, c) = self.b_src(0, j0);
        let (along_i, along_j) = if self.side_right {
            (rows as isize * g, g)
        } else {
            (g, rows as isize * g)
        };
        InPlaceAccess {
            base: (c * rows + r) * group_len::<E>(p),
            row: if self.reversed { -along_i } else { along_i },
            col: along_j,
        }
    }

    /// In-place addressing of the rectangular strip `Â(r0 + i, k)`, `k <
    /// r0`, of the diagonal block starting at canonical row `r0`, inside one
    /// stored pack of A: `row` steps `i`, `col` steps `k`. `flip` swaps the
    /// two steps, `reversed` negates both.
    pub fn a_rect_in_place<E: Element>(&self, p: usize, r0: usize) -> InPlaceAccess {
        let g = group_len::<E>(p) as isize;
        let (r, c) = self.a_src(r0, 0);
        let (along_i, along_k) = if self.flip {
            (self.t as isize * g, g)
        } else {
            (g, self.t as isize * g)
        };
        let sign = if self.reversed { -1 } else { 1 };
        InPlaceAccess {
            base: (c * self.t + r) * group_len::<E>(p),
            row: sign * along_i,
            col: sign * along_k,
        }
    }
}

/// Affine addressing of a canonical operand region inside one stored pack:
/// the element group at canonical `(i, j)` of the region starts at scalar
/// `base + i·row + j·col` of the pack. Steps are signed — a reversed mode
/// walks the stored rows downwards — and are handed to the kernels as their
/// two's-complement `usize` ([`InPlaceAccess::row_stride`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InPlaceAccess {
    /// Scalar offset of the region's canonical `(0, 0)` from the pack start.
    pub base: usize,
    /// Signed scalar step between consecutive canonical rows.
    pub row: isize,
    /// Signed scalar step between consecutive canonical columns.
    pub col: isize,
}

impl InPlaceAccess {
    /// Row step as the kernel shims take it (two's complement in `usize`).
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row as usize
    }

    /// Column step as the kernel shims take it.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col as usize
    }

    /// Scalar offset of canonical `(i, j)` from the pack start.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> isize {
        self.base as isize + i as isize * self.row + j as isize * self.col
    }

    /// Smallest and largest group start reached over canonical rows
    /// `0..rows` and columns `0..cols` (both non-empty): the extremes of an
    /// affine map sit at the corners.
    pub fn envelope(&self, rows: usize, cols: usize) -> (isize, isize) {
        let corners = [
            self.offset(0, 0),
            self.offset(rows - 1, 0),
            self.offset(0, cols - 1),
            self.offset(rows - 1, cols - 1),
        ];
        corners
            .into_iter()
            .fold((isize::MAX, isize::MIN), |(lo, hi), o| {
                (lo.min(o), hi.max(o))
            })
    }
}

/// Placement of one diagonal block's packed data inside the A buffer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ABlockLayout {
    /// First canonical row of the block.
    pub r0: usize,
    /// Block height (rows of the diagonal triangle).
    pub mb: usize,
    /// Scalar offset of the strip: `r0 + mb` K-major slivers of `mb` groups
    /// — the rectangular part, then the block's strictly lower triangle
    /// (`Â(r0+i, r0+j)` in sliver `r0 + j`). Empty in [`a_layout_diag`].
    pub rect_off: usize,
    /// Scalar offset of the block's `mb` diagonal groups.
    pub tri_off: usize,
}

/// Computes the fully packed A layout for a block decomposition and the
/// total buffer length in scalars, at interleaving factor `p`. `blocks` are
/// `(r0, mb)` pairs in row order (N-shaped: by the time block `b` is
/// packed/consumed, all rows above it already are — paper §4.4's
/// requirement for the solve ordering). Filled by [`pack_a_tri`].
pub fn a_layout<E: Element>(p: usize, blocks: &[(usize, usize)]) -> (Vec<ABlockLayout>, usize) {
    layout_with::<E>(p, blocks, true)
}

/// The diagonal-only layout of in-place execution: the same blocks with
/// **empty** strips (`rect_off == tri_off`; strip and triangle are read in
/// place through [`TrsmIndexMap::a_rect_in_place`]), so the buffer holds
/// the `t` diagonal groups, block after block. Filled by [`pack_a_diag`].
pub fn a_layout_diag<E: Element>(
    p: usize,
    blocks: &[(usize, usize)],
) -> (Vec<ABlockLayout>, usize) {
    layout_with::<E>(p, blocks, false)
}

fn layout_with<E: Element>(
    p: usize,
    blocks: &[(usize, usize)],
    strips: bool,
) -> (Vec<ABlockLayout>, usize) {
    let g = group_len::<E>(p);
    let mut out = Vec::with_capacity(blocks.len());
    let mut off = 0usize;
    for &(r0, mb) in blocks {
        let rect_off = off;
        if strips {
            off += (r0 + mb) * mb * g;
        }
        let tri_off = off;
        off += mb * g;
        out.push(ABlockLayout {
            r0,
            mb,
            rect_off,
            tri_off,
        });
    }
    (out, off)
}

/// Standard block decomposition: diagonal blocks of height `tb`, with the
/// register-capacity special case — when the whole triangle fits the
/// register file (`t ≤ t_max`, paper: `M ≤ 5` real / `M ≤ 2` complex) a
/// single block is used and no rectangular phase exists.
pub fn block_decomposition(t: usize, tb: usize, t_max: usize) -> Vec<(usize, usize)> {
    if t == 0 {
        return Vec::new();
    }
    if t <= t_max {
        return vec![(0, t)];
    }
    let mut blocks = Vec::with_capacity(t.div_ceil(tb));
    let mut r0 = 0;
    while r0 < t {
        let mb = tb.min(t - r0);
        blocks.push((r0, mb));
        r0 += mb;
    }
    blocks
}

#[inline]
fn write_group<E: Element>(
    p: usize,
    dst: &mut [E::Real],
    src_pack: &[E::Real],
    rows: usize,
    (r, c): (usize, usize),
    conj: bool,
) {
    let g = group_len::<E>(p);
    let s = (c * rows + r) * g;
    dst[..g].copy_from_slice(&src_pack[s..s + g]);
    if conj && E::IS_COMPLEX {
        for x in &mut dst[p..g] {
            *x = -*x;
        }
    }
}

/// Writes one diagonal group from its stored group `src` into `dst`,
/// inverted when `recip` (TRSM) or verbatim (TRMM). Padding lanes (≥
/// `live`) and unit mode get the identity value 1. Whole planes at a time,
/// with no branch per lane, so the reciprocals vectorize: this runs for
/// every diagonal group of every call.
fn write_diag_group<E: Element>(
    p: usize,
    dst: &mut [E::Real],
    src: &[E::Real],
    live: usize,
    unit: bool,
    conj: bool,
    recip: bool,
) {
    let (dre, dim) = dst.split_at_mut(p);
    if unit {
        dre.fill(E::Real::ONE);
        dim.fill(E::Real::ZERO);
        return;
    }
    let (sre, sim) = src.split_at(p);
    if E::IS_COMPLEX {
        // conjugate-transpose modes see the conjugated diagonal
        let sign = if conj { -E::Real::ONE } else { E::Real::ONE };
        for (((dr, di), &re), &im) in dre.iter_mut().zip(dim.iter_mut()).zip(sre).zip(sim) {
            let im = sign * im;
            if recip {
                let norm = re * re + im * im;
                (*dr, *di) = (re / norm, -im / norm);
            } else {
                (*dr, *di) = (re, im);
            }
        }
        dim[live..].fill(E::Real::ZERO);
    } else if recip {
        for (d, &s) in dre.iter_mut().zip(sre) {
            *d = E::Real::ONE / s;
        }
    } else {
        dre.copy_from_slice(sre);
    }
    dre[live..].fill(E::Real::ONE);
}

/// Packs one pack of the triangular coefficient matrix (given as its
/// scalar slice `sp` with `rows` stored rows, at interleaving factor `p`)
/// into an [`a_layout`] buffer: per block, the strip (`r0 + mb` K-major
/// slivers: the rectangular part, then the strictly lower triangle) and the
/// diagonal — reciprocal (TRSM) or direct (TRMM) per `recip`. The strip
/// groups on and above the triangle's diagonal are never read and are left
/// as they are.
///
/// `live` is the number of valid lanes in this pack (`p` except possibly the
/// last pack); padded diagonal lanes get 1 so the dead lanes stay finite.
#[allow(clippy::too_many_arguments)]
pub fn pack_a_tri<E: Element>(
    dst: &mut [E::Real],
    sp: &[E::Real],
    rows: usize,
    p: usize,
    map: &TrsmIndexMap,
    layout: &[ABlockLayout],
    live: usize,
    recip: bool,
) {
    let g = group_len::<E>(p);
    for blk in layout {
        for k in 0..blk.r0 + blk.mb {
            // sliver r0 + j holds the triangle's column j below the diagonal
            for i in (k + 1).saturating_sub(blk.r0)..blk.mb {
                let off = blk.rect_off + (k * blk.mb + i) * g;
                write_group::<E>(
                    p,
                    &mut dst[off..off + g],
                    sp,
                    rows,
                    map.a_src(blk.r0 + i, k),
                    map.conj,
                );
            }
        }
    }
    pack_a_diag::<E>(dst, sp, rows, p, map, layout, live, recip);
}

/// Packs only the blocks' diagonal groups (reciprocal or direct, identity
/// in padded lanes and unit mode) at their `tri_off` — all that in-place
/// execution needs from A, whose strips and triangles the kernels read
/// through [`TrsmIndexMap::a_rect_in_place`]. Fills an [`a_layout_diag`]
/// buffer; [`pack_a_tri`] calls it for the diagonals of the full layout.
#[allow(clippy::too_many_arguments)]
pub fn pack_a_diag<E: Element>(
    dst: &mut [E::Real],
    sp: &[E::Real],
    rows: usize,
    p: usize,
    map: &TrsmIndexMap,
    layout: &[ABlockLayout],
    live: usize,
    recip: bool,
) {
    let g = group_len::<E>(p);
    for blk in layout {
        for i in 0..blk.mb {
            let (r, c) = map.a_src(blk.r0 + i, blk.r0 + i);
            let (off, s) = (blk.tri_off + i * g, (c * rows + r) * g);
            write_diag_group::<E>(
                p,
                &mut dst[off..off + g],
                &sp[s..s + g],
                live,
                map.unit,
                map.conj,
                recip,
            );
        }
    }
}

/// Scalar length of a packed B panel of width `w` at interleaving factor
/// `p`.
pub fn panel_b_len<E: Element>(p: usize, t: usize, w: usize) -> usize {
    t * w * group_len::<E>(p)
}

#[inline]
fn scale_group<E: Element>(p: usize, dst: &mut [E::Real], alpha: E) {
    if E::IS_COMPLEX {
        let (ar, ai) = (alpha.re(), alpha.im());
        for lane in 0..p {
            let re = dst[lane];
            let im = dst[p + lane];
            dst[lane] = re * ar - im * ai;
            dst[p + lane] = re * ai + im * ar;
        }
    } else {
        let a = alpha.re();
        for x in dst.iter_mut() {
            *x *= a;
        }
    }
}

/// Scales every element group of one stored pack of B by α, in place — the
/// α ≠ 1 step of an in-place solve. Each group gets the very product
/// [`pack_b_panel`] computes while copying it, so the scaled values are
/// bitwise-equal to the packed path's.
pub fn scale_b_in_place<E: Element>(p: usize, b_pack: &mut [E::Real], alpha: E) {
    for group in b_pack.chunks_exact_mut(group_len::<E>(p)) {
        scale_group::<E>(p, group, alpha);
    }
}

/// Packs a width-`w` column panel of B̂ (rows `0..t`, columns `j0..j0+w`)
/// into row-major panel layout (`row_stride = w·g`, `col_stride = g`),
/// scaling by α during the copy.
#[allow(clippy::too_many_arguments)]
pub fn pack_b_panel<E: Element>(
    dst: &mut [E::Real],
    sp: &[E::Real],
    rows: usize,
    p: usize,
    map: &TrsmIndexMap,
    j0: usize,
    w: usize,
    alpha: E,
) {
    let g = group_len::<E>(p);
    let scale = alpha != E::one();
    let mut off = 0usize;
    for i in 0..map.t {
        for j in 0..w {
            let dg = &mut dst[off..off + g];
            write_group::<E>(p, dg, sp, rows, map.b_src(i, j0 + j), false);
            if scale {
                scale_group::<E>(p, dg, alpha);
            }
            off += g;
        }
    }
}

/// Scatters a solved panel back into the compact B batch (which becomes X),
/// inverting the canonical mapping.
pub fn unpack_b_panel<E: Element>(
    src_panel: &[E::Real],
    dp: &mut [E::Real],
    rows: usize,
    p: usize,
    map: &TrsmIndexMap,
    j0: usize,
    w: usize,
) {
    let g = group_len::<E>(p);
    let mut off = 0usize;
    for i in 0..map.t {
        for j in 0..w {
            let (r, c) = map.b_src(i, j0 + j);
            let d = (c * rows + r) * g;
            dp[d..d + g].copy_from_slice(&src_panel[off..off + g]);
            off += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_layout::{CompactBatch, StdBatch};
    use iatf_simd::{c64, VecWidth};

    // The numeric-offset tests below assume P=2 (f64 at 128-bit), so they
    // pin the layout to W128 regardless of the host's dispatched width.
    const W: VecWidth = VecWidth::W128;

    #[test]
    fn maps_read_only_the_stored_triangle() {
        // For every mode, a_src of a canonical-lower position must land in
        // the triangle the mode says is referenced.
        for mode in TrsmMode::all() {
            let map = TrsmIndexMap::new(mode, false, 6, 4);
            for i in 0..map.t {
                for j in 0..=i {
                    let (r, c) = map.a_src(i, j);
                    match mode.uplo {
                        Uplo::Lower => assert!(r >= c, "{mode}: ({i},{j})→({r},{c})"),
                        Uplo::Upper => assert!(r <= c, "{mode}: ({i},{j})→({r},{c})"),
                    }
                    // diagonal maps to diagonal
                    if i == j {
                        assert_eq!(r, c);
                    }
                }
            }
        }
    }

    #[test]
    fn a_src_is_a_bijection_on_the_triangle() {
        for mode in TrsmMode::all() {
            let map = TrsmIndexMap::new(mode, false, 5, 5);
            let mut seen = std::collections::HashSet::new();
            for i in 0..map.t {
                for j in 0..=i {
                    assert!(seen.insert(map.a_src(i, j)), "{mode}");
                }
            }
            assert_eq!(seen.len(), map.t * (map.t + 1) / 2);
        }
    }

    #[test]
    fn b_src_is_a_bijection() {
        for mode in TrsmMode::all() {
            let map = TrsmIndexMap::new(mode, false, 3, 7);
            let mut seen = std::collections::HashSet::new();
            for i in 0..map.t {
                for j in 0..map.bn {
                    let (r, c) = map.b_src(i, j);
                    assert!(r < 3 && c < 7, "{mode}");
                    assert!(seen.insert((r, c)), "{mode}");
                }
            }
            assert_eq!(seen.len(), 21);
        }
    }

    #[test]
    fn dimensions_follow_side() {
        let left = TrsmIndexMap::new(TrsmMode::LNLN, false, 4, 9);
        assert_eq!((left.t, left.bn), (4, 9));
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit);
        let map = TrsmIndexMap::new(right, false, 4, 9);
        assert_eq!((map.t, map.bn), (9, 4));
        // Right + NoTrans flips; upper flipped becomes lower → not reversed.
        assert!(map.flip);
        assert!(!map.reversed);
    }

    #[test]
    fn block_decomposition_shapes() {
        assert_eq!(block_decomposition(3, 4, 5), vec![(0, 3)]);
        assert_eq!(block_decomposition(5, 4, 5), vec![(0, 5)]);
        assert_eq!(block_decomposition(6, 4, 5), vec![(0, 4), (4, 2)]);
        assert_eq!(block_decomposition(12, 4, 5), vec![(0, 4), (4, 4), (8, 4)]);
        assert_eq!(block_decomposition(0, 4, 5), vec![]);
        // complex parameters
        assert_eq!(block_decomposition(3, 2, 2), vec![(0, 2), (2, 1)]);
    }

    #[test]
    fn a_layout_offsets() {
        let blocks = block_decomposition(6, 4, 5);
        let (layout, total) = a_layout::<f64>(2, &blocks);
        let g = 2;
        // block 0: strip (0+4)·4 groups, diagonal 4; block 1: strip
        // (4+2)·2 = 12 groups, diagonal 2.
        assert_eq!(layout[0].rect_off, 0);
        assert_eq!(layout[0].tri_off, 16 * g);
        assert_eq!(layout[1].rect_off, 20 * g);
        assert_eq!(layout[1].tri_off, (20 + 12) * g);
        assert_eq!(total, (20 + 12 + 2) * g);
        // the in-place layout keeps only the t = 6 diagonal groups
        let (diag, diag_total) = a_layout_diag::<f64>(2, &blocks);
        assert_eq!((diag[1].rect_off, diag[1].tri_off), (4 * g, 4 * g));
        assert_eq!(diag_total, 6 * g);
        // the same decomposition at a wider factor scales every offset
        let (wide, wide_total) = a_layout::<f64>(8, &blocks);
        assert_eq!(wide[1].rect_off, 4 * layout[1].rect_off);
        assert_eq!(wide_total, 4 * total);
    }

    #[test]
    fn packed_triangle_has_reciprocal_diagonal() {
        let t = 5usize;
        let std = StdBatch::<f64>::random_triangular(t, 2, Uplo::Lower, Diag::NonUnit, 3);
        let compact = CompactBatch::from_std_at(&std, W);
        let map = TrsmIndexMap::new(TrsmMode::LNLN, false, t, 3);
        let blocks = block_decomposition(t, 4, 5);
        let (layout, total) = a_layout::<f64>(compact.p(), &blocks);
        let mut dst = vec![0.0f64; total];
        pack_a_tri::<f64>(
            &mut dst,
            compact.pack_slice(0),
            compact.rows(),
            compact.p(),
            &map,
            &layout,
            2,
            true,
        );
        // single block (t=5 ≤ 5): the triangle's column j is strip sliver
        // j (K-major, 5 groups a sliver), the diagonal follows at tri_off
        let blk = layout[0];
        for i in 0..t {
            for j in 0..i {
                for lane in 0..2 {
                    let at = blk.rect_off + (j * t + i) * 2 + lane;
                    assert_eq!(dst[at], std.get(lane, i, j));
                }
            }
            for lane in 0..2 {
                let want = 1.0 / std.get(lane, i, i);
                assert!((dst[blk.tri_off + i * 2 + lane] - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn unit_diag_never_reads_stored_diagonal() {
        // random_triangular poisons the diagonal under Unit; packing must
        // still produce reciprocal 1.
        let std = StdBatch::<f64>::random_triangular(4, 2, Uplo::Lower, Diag::Unit, 9);
        let compact = CompactBatch::from_std_at(&std, W);
        let mode = TrsmMode::new(Side::Left, Trans::No, Uplo::Lower, Diag::Unit);
        let map = TrsmIndexMap::new(mode, false, 4, 2);
        let (layout, total) = a_layout::<f64>(2, &block_decomposition(4, 4, 5));
        let mut dst = vec![0.0f64; total];
        pack_a_tri::<f64>(
            &mut dst,
            compact.pack_slice(0),
            compact.rows(),
            2,
            &map,
            &layout,
            2,
            true,
        );
        let blk = layout[0];
        for i in 0..4 {
            let base = blk.tri_off + i * 2;
            assert_eq!(&dst[base..base + 2], &[1.0, 1.0]);
        }
    }

    #[test]
    fn padding_lane_diag_is_one() {
        let std = StdBatch::<f64>::random_triangular(3, 1, Uplo::Lower, Diag::NonUnit, 4);
        let compact = CompactBatch::from_std_at(&std, W); // P=2 → 1 padding lane
        let map = TrsmIndexMap::new(TrsmMode::LNLN, false, 3, 2);
        let (layout, total) = a_layout::<f64>(2, &block_decomposition(3, 4, 5));
        let mut dst = vec![0.0f64; total];
        pack_a_tri::<f64>(
            &mut dst,
            compact.pack_slice(0),
            compact.rows(),
            2,
            &map,
            &layout,
            1,
            true,
        );
        let blk = layout[0];
        for i in 0..3 {
            let base = blk.tri_off + i * 2;
            assert!((dst[base] - 1.0 / std.get(0, i, i)).abs() < 1e-15);
            assert_eq!(dst[base + 1], 1.0); // padding lane
        }
    }

    #[test]
    fn complex_reciprocal() {
        let t = 2usize;
        let std = StdBatch::<c64>::random_triangular(t, 2, Uplo::Lower, Diag::NonUnit, 5);
        let compact = CompactBatch::from_std_at(&std, W);
        let map = TrsmIndexMap::new(TrsmMode::LNLN, false, t, 1);
        let (layout, total) = a_layout::<c64>(2, &block_decomposition(t, 2, 2));
        let mut dst = vec![0.0f64; total];
        pack_a_tri::<c64>(
            &mut dst,
            compact.pack_slice(0),
            compact.rows(),
            2,
            &map,
            &layout,
            2,
            true,
        );
        let blk = layout[0];
        for i in 0..t {
            let base = blk.tri_off + i * 4;
            for lane in 0..2 {
                let d = std.get(lane, i, i);
                let want = d.recip();
                assert!((dst[base + lane] - want.re).abs() < 1e-14);
                assert!((dst[base + 2 + lane] - want.im).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn b_panel_roundtrip_with_alpha() {
        for mode in TrsmMode::all() {
            let (m, n) = (5usize, 6usize);
            let std = StdBatch::<f64>::random(m, n, 2, 77);
            let compact = CompactBatch::from_std_at(&std, W);
            let map = TrsmIndexMap::new(mode, false, m, n);
            let w = 3.min(map.bn);
            let mut panel = vec![0.0f64; panel_b_len::<f64>(2, map.t, w)];
            pack_b_panel(
                &mut panel,
                compact.pack_slice(0),
                compact.rows(),
                2,
                &map,
                0,
                w,
                2.0,
            );
            // every packed value is 2× its source
            for i in 0..map.t {
                for j in 0..w {
                    let (r, c) = map.b_src(i, j);
                    for lane in 0..2 {
                        let got = panel[(i * w + j) * 2 + lane];
                        assert_eq!(got, 2.0 * std.get(lane, r, c), "{mode}");
                    }
                }
            }
            // unpack writes back to the mapped positions
            let mut out = CompactBatch::<f64>::zeroed_at(m, n, 2, W);
            unpack_b_panel::<f64>(&panel, out.pack_slice_mut(0), 5, 2, &map, 0, w);
            for i in 0..map.t {
                for j in 0..w {
                    let (r, c) = map.b_src(i, j);
                    for lane in 0..2 {
                        assert_eq!(out.get(lane, r, c), 2.0 * std.get(lane, r, c), "{mode}");
                    }
                }
            }
        }
    }

    #[test]
    fn complex_alpha_scaling() {
        let std = StdBatch::<c64>::random(2, 2, 2, 13);
        let compact = CompactBatch::from_std_at(&std, W);
        let map = TrsmIndexMap::new(TrsmMode::LNLN, false, 2, 2);
        let alpha = c64::new(0.0, 1.0); // multiply by i
        let mut panel = vec![0.0f64; panel_b_len::<c64>(2, 2, 2)];
        pack_b_panel(
            &mut panel,
            compact.pack_slice(0),
            compact.rows(),
            2,
            &map,
            0,
            2,
            alpha,
        );
        for i in 0..2 {
            for j in 0..2 {
                for lane in 0..2 {
                    let src = std.get(lane, i, j);
                    let got_re = panel[(i * 2 + j) * 4 + lane];
                    let got_im = panel[(i * 2 + j) * 4 + 2 + lane];
                    // i·(a+bi) = -b + ai
                    assert!((got_re + src.im).abs() < 1e-15);
                    assert!((got_im - src.re).abs() < 1e-15);
                }
            }
        }
    }

    /// Panels of width ≤ `nr` over `bn` canonical columns, as the planners
    /// tile them.
    fn panels(bn: usize, nr: usize) -> Vec<(usize, usize)> {
        (0..bn)
            .step_by(nr)
            .map(|j0| (j0, nr.min(bn - j0)))
            .collect()
    }

    #[test]
    fn in_place_addresses_stay_inside_the_pack_and_match_the_maps() {
        // For every mode, block and panel: the affine (base, strides)
        // reach exactly the groups the index maps name — a block's strip
        // through its strictly lower triangle — and the extremes over the
        // extents lie inside the stored pack.
        fn check<E: Element>(p: usize, tb: usize, t_max: usize, nr: usize) {
            let g = group_len::<E>(p);
            for mode in TrsmMode::all() {
                for (m, n) in [(7usize, 3usize), (3, 7), (6, 6), (1, 5), (5, 1)] {
                    let map = TrsmIndexMap::new(mode, false, m, n);
                    let b_len = (m * n * g) as isize;
                    for (j0, w) in panels(map.bn, nr) {
                        let acc = map.b_in_place::<E>(p, j0);
                        let (lo, hi) = acc.envelope(map.t, w);
                        assert!(
                            lo >= 0 && hi + g as isize <= b_len,
                            "{mode} B {m}x{n} j0={j0}"
                        );
                        for i in 0..map.t {
                            for j in 0..w {
                                let (r, c) = map.b_src(i, j0 + j);
                                assert_eq!(acc.offset(i, j), ((c * m + r) * g) as isize, "{mode}");
                            }
                        }
                    }
                    let a_len = (map.t * map.t * g) as isize;
                    for (r0, mb) in block_decomposition(map.t, tb, t_max) {
                        let acc = map.a_rect_in_place::<E>(p, r0);
                        let (lo, hi) = acc.envelope(mb, r0 + mb);
                        assert!(
                            lo >= 0 && hi + g as isize <= a_len,
                            "{mode} A {m}x{n} r0={r0}"
                        );
                        for i in 0..mb {
                            for k in 0..r0 + i {
                                let (r, c) = map.a_src(r0 + i, k);
                                assert_eq!(
                                    acc.offset(i, k),
                                    ((c * map.t + r) * g) as isize,
                                    "{mode} A({i},{k})"
                                );
                            }
                        }
                    }
                }
            }
        }
        check::<f64>(2, 4, 5, 4);
        check::<f32>(16, 4, 5, 4);
        check::<c64>(2, 2, 2, 2);
        check::<iatf_simd::c32>(8, 2, 2, 2);
    }

    #[test]
    fn in_place_strides_follow_the_mode_table() {
        // 5×3 B, f64 at P=2 (g = 2). Left: rows are contiguous; right: the
        // steps swap; reversal negates the row step and starts at row t−1.
        let g = 2isize;
        let left = TrsmIndexMap::new(TrsmMode::LNLN, false, 5, 3).b_in_place::<f64>(2, 1);
        assert_eq!((left.base, left.row, left.col), (5 * 2, g, 5 * g));
        let rev = TrsmIndexMap::new(TrsmMode::LNUN, false, 5, 3).b_in_place::<f64>(2, 1);
        assert_eq!((rev.base, rev.row, rev.col), ((5 + 4) * 2, -g, 5 * g));
        assert_eq!(rev.row_stride(), (g as usize).wrapping_neg());
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit);
        let r = TrsmIndexMap::new(right, false, 5, 3).b_in_place::<f64>(2, 1);
        assert_eq!((r.base, r.row, r.col), (2, 5 * g, g));
        // A (order 5): flip swaps the steps, reversal negates both.
        let a = TrsmIndexMap::new(TrsmMode::LNLN, false, 5, 3).a_rect_in_place::<f64>(2, 4);
        assert_eq!((a.base, a.row, a.col), (4 * 2, g, 5 * g));
        let a = TrsmIndexMap::new(TrsmMode::LTUN, false, 5, 3).a_rect_in_place::<f64>(2, 4);
        assert_eq!((a.base, a.row, a.col), (4 * 5 * 2, 5 * g, g));
        let a = TrsmIndexMap::new(TrsmMode::LNUN, false, 5, 3).a_rect_in_place::<f64>(2, 4);
        assert_eq!((a.base, a.row, a.col), (4 * 5 * 2, -g, -5 * g));
    }

    #[test]
    fn diag_only_pack_equals_the_diagonal_of_the_full_pack() {
        let t = 9usize;
        for mode in TrsmMode::all() {
            for recip in [true, false] {
                let std = StdBatch::<c64>::random_triangular(t, 2, mode.uplo, mode.diag, 8);
                let compact = CompactBatch::from_std_at(&std, W);
                let map = TrsmIndexMap::new(mode, true, t, t);
                let blocks = block_decomposition(t, 2, 2);
                let (full, full_len) = a_layout::<c64>(2, &blocks);
                let (diag, diag_len) = a_layout_diag::<c64>(2, &blocks);
                assert_eq!(diag_len, t * 4);
                let mut want = vec![0.0f64; full_len];
                let mut got = vec![0.0f64; diag_len];
                pack_a_tri::<c64>(
                    &mut want,
                    compact.pack_slice(0),
                    t,
                    2,
                    &map,
                    &full,
                    1,
                    recip,
                );
                pack_a_diag::<c64>(&mut got, compact.pack_slice(0), t, 2, &map, &diag, 1, recip);
                for (f, d) in full.iter().zip(&diag) {
                    assert_eq!(d.rect_off, d.tri_off);
                    let len = f.mb * 4;
                    assert_eq!(
                        &got[d.tri_off..d.tri_off + len],
                        &want[f.tri_off..f.tri_off + len],
                        "{mode} recip={recip}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_scaling_is_bitwise_the_packed_scaling() {
        let (m, n) = (5usize, 4usize);
        let std = StdBatch::<c64>::random(m, n, 2, 31);
        let compact = CompactBatch::from_std_at(&std, W);
        let alpha = c64::new(0.3, -1.7);
        let mut scaled = compact.clone();
        scale_b_in_place::<c64>(2, scaled.pack_slice_mut(0), alpha);
        for mode in TrsmMode::all() {
            let map = TrsmIndexMap::new(mode, false, m, n);
            let mut panel = vec![0.0f64; panel_b_len::<c64>(2, map.t, map.bn)];
            pack_b_panel(
                &mut panel,
                compact.pack_slice(0),
                m,
                2,
                &map,
                0,
                map.bn,
                alpha,
            );
            let acc = map.b_in_place::<c64>(2, 0);
            for i in 0..map.t {
                for j in 0..map.bn {
                    let at = acc.offset(i, j) as usize;
                    let want = &panel[(i * map.bn + j) * 4..(i * map.bn + j + 1) * 4];
                    let got = &scaled.pack_slice(0)[at..at + 4];
                    assert_eq!(
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{mode}"
                    );
                }
            }
        }
    }
}
