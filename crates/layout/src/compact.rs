//! The SIMD-friendly compact data layout (paper §4.1, Figure 3).
//!
//! A [`CompactBatch`] stores a group of same-sized matrices in *packs* of
//! `P` consecutive matrices, where `P` is the interleaving factor of the
//! batch's **vector width** — a runtime property
//! ([`CompactBatch::width`]), not a compile-time constant. Within a pack
//! the matrix is column-major, but each "element" is an *element group* of
//! `P` scalars — lane `l` belongs to matrix `pack·P + l`. Loading one
//! element group with a single vector load of that width yields the same
//! `(i, j)` element of `P` matrices, so every SIMD arithmetic instruction
//! advances `P` problems. The paper fixes `P` at the NEON lane count
//! (128-bit); this crate scales it with the dispatched backend — 8/16
//! `f32` lanes on AVX2/AVX-512 hosts — via
//! [`iatf_simd::dispatched_width`]. [`CompactBatch::zeroed`] and
//! [`CompactBatch::from_std`] lay out at the dispatched width; the `_at`
//! constructors pin an explicit width (tests, cross-width comparisons).
//!
//! Complex matrices use the split representation: an element group is `2·P`
//! scalars — `P` real parts followed by `P` imaginary parts (two vector
//! registers per element group, matching the paper's complex kernels).
//!
//! When the group size is not a multiple of `P`, the trailing lanes of the
//! last pack are zero-filled ("zero padding for the cases where there are
//! not enough P matrices", §4.1); TRSM additionally needs padded *diagonals*
//! to be one so the padded lanes stay finite — see
//! [`CompactBatch::pad_triangle_identity`].

use crate::aligned::AlignedVec;
use crate::std_batch::StdBatch;
use iatf_simd::{dispatched_width, Element, Real, VecWidth};

/// A group of matrices in the SIMD-friendly compact layout.
///
/// The storage starts on a 64-byte cache line ([`AlignedVec`]), and every
/// element group is a whole number of vectors of the batch's width from
/// that start, so no group load or store splits a line: a 512-bit group is
/// exactly one line.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactBatch<E: Element> {
    rows: usize,
    cols: usize,
    count: usize,
    width: VecWidth,
    data: AlignedVec<E::Real>,
}

impl<E: Element> CompactBatch<E> {
    /// Allocates a zero-filled compact batch for `count` matrices of shape
    /// `rows × cols`, laid out at the process-wide dispatched width.
    pub fn zeroed(rows: usize, cols: usize, count: usize) -> Self {
        Self::zeroed_at(rows, cols, count, dispatched_width())
    }

    /// Allocates a zero-filled compact batch laid out at an explicit
    /// vector width.
    pub fn zeroed_at(rows: usize, cols: usize, count: usize, width: VecWidth) -> Self {
        let p = E::p_at(width);
        let packs = count.div_ceil(p);
        Self {
            rows,
            cols,
            count,
            width,
            data: AlignedVec::zeroed(packs * rows * cols * p * E::SCALARS),
        }
    }

    /// Converts a standard batch into the compact layout (the MKL-compact
    /// "pack into compact format" operation) at the dispatched width.
    /// Padding lanes are zero.
    pub fn from_std(src: &StdBatch<E>) -> Self {
        Self::from_std_at(src, dispatched_width())
    }

    /// Converts a standard batch into the compact layout at an explicit
    /// vector width.
    pub fn from_std_at(src: &StdBatch<E>, width: VecWidth) -> Self {
        let mut dst = Self::zeroed_at(src.rows(), src.cols(), src.count(), width);
        let (p, g, ps) = (dst.p(), dst.group(), dst.pack_stride());
        if ps == 0 {
            return dst; // a zero dimension: nothing to interleave
        }
        // Pack-major: a matrix's column-major element index *is* its group
        // index inside the pack, so each live lane is one pass over the
        // source matrix writing every `g`-th scalar of the pack. Padding
        // lanes of the last pack keep their zeros.
        for (pack, chunk) in dst.data.chunks_mut(ps).enumerate() {
            let live = p.min(src.count() - pack * p);
            for lane in 0..live {
                let mat = src.mat(pack * p + lane);
                for (group, x) in chunk.chunks_exact_mut(g).zip(mat) {
                    group[lane] = x.re();
                    if E::IS_COMPLEX {
                        group[p + lane] = x.im();
                    }
                }
            }
        }
        dst
    }

    /// Converts back to a standard batch, dropping padding lanes.
    pub fn to_std(&self) -> StdBatch<E> {
        let mut dst = StdBatch::zeroed(self.rows, self.cols, self.count);
        self.unpack_into(&mut dst);
        dst
    }

    /// Writes this batch's matrices into an existing standard batch of the
    /// same shape and group size.
    pub fn unpack_into(&self, dst: &mut StdBatch<E>) {
        assert_eq!(dst.shape(), (self.rows, self.cols));
        assert_eq!(dst.count(), self.count);
        let (p, g, ps) = (self.p(), self.group(), self.pack_stride());
        if ps == 0 {
            return;
        }
        // The mirror of `from_std_at`: per pack, per live lane, one pass
        // over the destination matrix reading every `g`-th scalar.
        for (pack, chunk) in self.data.chunks(ps).enumerate() {
            let live = p.min(self.count - pack * p);
            for lane in 0..live {
                let mat = dst.mat_mut(pack * p + lane);
                for (x, group) in mat.iter_mut().zip(chunk.chunks_exact(g)) {
                    let im = if E::IS_COMPLEX {
                        group[p + lane].to_f64()
                    } else {
                        0.0
                    };
                    // widening then narrowing the same scalar is exact
                    *x = E::from_f64s(group[lane].to_f64(), im);
                }
            }
        }
    }

    /// Number of rows of each matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of each matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of *logical* matrices (excluding padding lanes).
    pub fn count(&self) -> usize {
        self.count
    }

    /// The vector width this batch is laid out for.
    pub fn width(&self) -> VecWidth {
        self.width
    }

    /// Interleaving factor: matrices per pack (lanes per element group).
    #[inline]
    pub fn p(&self) -> usize {
        E::p_at(self.width)
    }

    /// Scalars in one element group (`P` for real, `2·P` for complex).
    #[inline]
    pub fn group(&self) -> usize {
        self.p() * E::SCALARS
    }

    /// Number of packs (`⌈count / P⌉`).
    pub fn packs(&self) -> usize {
        self.count.div_ceil(self.p())
    }

    /// Scalars from one pack to the next.
    pub fn pack_stride(&self) -> usize {
        self.rows * self.cols * self.group()
    }

    /// Scalars from one column to the next within a pack.
    pub fn col_stride(&self) -> usize {
        self.rows * self.group()
    }

    /// Scalar offset of element group `(i, j)` of pack `p`.
    #[inline]
    pub fn group_offset(&self, pack: usize, i: usize, j: usize) -> usize {
        debug_assert!(pack < self.packs() && i < self.rows && j < self.cols);
        pack * self.pack_stride() + (j * self.rows + i) * self.group()
    }

    /// Element `(i, j)` of matrix `v`.
    #[inline]
    pub fn get(&self, v: usize, i: usize, j: usize) -> E {
        debug_assert!(v < self.count);
        let p = self.p();
        let base = self.group_offset(v / p, i, j) + (v % p);
        if E::IS_COMPLEX {
            let re = self.data[base];
            let im = self.data[base + p];
            E::from_f64s(re.to_f64(), im.to_f64())
        } else {
            E::from_f64s(self.data[base].to_f64(), 0.0)
        }
    }

    /// Sets element `(i, j)` of matrix `v`.
    #[inline]
    pub fn set(&mut self, v: usize, i: usize, j: usize, x: E) {
        debug_assert!(v < self.count);
        let p = self.p();
        let base = self.group_offset(v / p, i, j) + (v % p);
        self.data[base] = x.re();
        if E::IS_COMPLEX {
            self.data[base + p] = x.im();
        }
    }

    /// The scalar slice of one pack.
    pub fn pack_slice(&self, pack: usize) -> &[E::Real] {
        let s = self.pack_stride();
        &self.data[pack * s..(pack + 1) * s]
    }

    /// The mutable scalar slice of one pack.
    pub fn pack_slice_mut(&mut self, pack: usize) -> &mut [E::Real] {
        let s = self.pack_stride();
        &mut self.data[pack * s..(pack + 1) * s]
    }

    /// Raw pointer to the first scalar of a pack (kernel entry point).
    pub fn pack_ptr(&self, pack: usize) -> *const E::Real {
        debug_assert!(pack < self.packs());
        self.data[pack * self.pack_stride()..].as_ptr()
    }

    /// Mutable raw pointer to the first scalar of a pack.
    pub fn pack_ptr_mut(&mut self, pack: usize) -> *mut E::Real {
        debug_assert!(pack < self.packs());
        let at = pack * self.pack_stride();
        self.data[at..].as_mut_ptr()
    }

    /// Whole scalar storage.
    pub fn as_scalars(&self) -> &[E::Real] {
        &self.data
    }

    /// Mutable scalar storage.
    pub fn as_scalars_mut(&mut self) -> &mut [E::Real] {
        &mut self.data
    }

    /// Number of padding lanes in the final pack (0 when `count % P == 0`).
    pub fn padding_lanes(&self) -> usize {
        let p = self.p();
        (p - self.count % p) % p
    }

    /// Sets the diagonal of every *padding lane* to one (identity matrix in
    /// the padded lanes). GEMM is insensitive to padding (0·0 = 0), but TRSM
    /// divides by diagonal entries, and zero diagonals in dead lanes would
    /// produce infinities that can trap or slow down the whole vector on
    /// some cores. The framework's packing kernels neutralize padded
    /// diagonals themselves (`iatf-pack` writes reciprocal 1 for dead
    /// lanes); this helper is for callers driving the raw kernels directly.
    pub fn pad_triangle_identity(&mut self) {
        let pad = self.padding_lanes();
        if pad == 0 {
            return;
        }
        let p = self.p();
        let pack = self.packs() - 1;
        let d = self.rows.min(self.cols);
        for i in 0..d {
            let base = self.group_offset(pack, i, i);
            for lane in (p - pad)..p {
                self.data[base + lane] = <E::Real as iatf_simd::Real>::ONE;
                if E::IS_COMPLEX {
                    self.data[base + p + lane] = E::Real::default();
                }
            }
        }
    }

    /// Largest absolute difference to another compact batch over logical
    /// matrices (padding excluded). The batches may be laid out at
    /// different widths — comparison is by logical element.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols, self.count), (other.rows, other.cols, other.count));
        let mut worst = 0.0f64;
        for v in 0..self.count {
            for j in 0..self.cols {
                for i in 0..self.rows {
                    let d = self.get(v, i, j).sub(other.get(v, i, j)).abs_f64();
                    worst = worst.max(d);
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_simd::{c32, c64, Real};

    #[test]
    fn group_offsets_match_figure3() {
        // Figure 3: 3×3 f32 matrices on a 128-bit unit → P = 4. The first
        // element group holds (0,0) of matrices 0..4, the next group is
        // (1,0) — column-major within the pack. Pinned to W128 so the
        // offsets stay the paper's regardless of the host's dispatch.
        let b = CompactBatch::<f32>::zeroed_at(3, 3, 8, VecWidth::W128);
        assert_eq!(b.group(), 4);
        assert_eq!(b.group_offset(0, 0, 0), 0);
        assert_eq!(b.group_offset(0, 1, 0), 4);
        assert_eq!(b.group_offset(0, 0, 1), 12);
        assert_eq!(b.group_offset(1, 0, 0), 3 * 3 * 4);
        assert_eq!(b.packs(), 2);
    }

    #[test]
    fn complex_group_is_split() {
        let mut b = CompactBatch::<c64>::zeroed_at(2, 2, 2, VecWidth::W128);
        assert_eq!(b.group(), 4);
        b.set(0, 1, 1, c64::new(3.0, -4.0));
        b.set(1, 1, 1, c64::new(5.0, 6.0));
        let base = b.group_offset(0, 1, 1);
        // re0 re1 | im0 im1
        assert_eq!(&b.as_scalars()[base..base + 4], &[3.0, 5.0, -4.0, 6.0]);
    }

    #[test]
    fn lanes_interleave_consecutive_matrices() {
        let src = StdBatch::<f32>::from_fn(2, 2, 6, |v, i, j| (v * 100 + i * 10 + j) as f32);
        let c = CompactBatch::from_std_at(&src, VecWidth::W128);
        // element (0,0): lanes are matrices 0..4
        let base = c.group_offset(0, 0, 0);
        assert_eq!(&c.as_scalars()[base..base + 4], &[0.0, 100.0, 200.0, 300.0]);
        // second pack holds matrices 4,5 and zero padding in lanes 2,3
        let base = c.group_offset(1, 1, 1);
        assert_eq!(&c.as_scalars()[base..base + 4], &[411.0, 511.0, 0.0, 0.0]);
        assert_eq!(c.padding_lanes(), 2);
    }

    #[test]
    fn round_trip_all_types_all_widths() {
        fn check<E: Element>(width: VecWidth) {
            let src = StdBatch::<E>::random(5, 3, 7, 99);
            let compact = CompactBatch::from_std_at(&src, width);
            assert_eq!(compact.width(), width);
            let back = compact.to_std();
            assert_eq!(src.max_abs_diff(&back), 0.0, "{:?} {width:?}", E::DTYPE);
        }
        for width in VecWidth::ALL {
            check::<f32>(width);
            check::<f64>(width);
            check::<c32>(width);
            check::<c64>(width);
        }
    }

    #[test]
    fn round_trip_counts_around_a_pack_and_padding_stays_zero() {
        fn check<E: Element>(width: VecWidth) {
            let p = E::p_at(width);
            for count in [1, p.saturating_sub(1).max(1), p + 1] {
                let src = StdBatch::<E>::random(4, 3, count, 7 + count as u64);
                let compact = CompactBatch::from_std_at(&src, width);
                // element by element against the indexed accessor
                for v in 0..count {
                    for j in 0..3 {
                        for i in 0..4 {
                            assert_eq!(compact.get(v, i, j), src.get(v, i, j));
                        }
                    }
                }
                // dead lanes of the last pack are untouched zeros
                let last = compact.pack_slice(compact.packs() - 1);
                let live = p - compact.padding_lanes();
                for group in last.chunks_exact(compact.group()) {
                    for half in group.chunks_exact(p) {
                        assert!(half[live..].iter().all(|&x| x == E::Real::ZERO));
                    }
                }
                let mut back = StdBatch::<E>::random(4, 3, count, 1);
                compact.unpack_into(&mut back);
                assert_eq!(back, src, "{:?} {width:?} count={count}", E::DTYPE);
            }
        }
        for width in VecWidth::ALL {
            check::<f32>(width);
            check::<f64>(width);
            check::<c32>(width);
            check::<c64>(width);
        }
    }

    #[test]
    fn zero_dimension_converts_to_an_empty_batch() {
        // pack stride 0: there is no chunk to walk
        for (rows, cols) in [(0usize, 3usize), (3, 0)] {
            let src = StdBatch::<c32>::zeroed(rows, cols, 5);
            let compact = CompactBatch::from_std_at(&src, VecWidth::W256);
            assert_eq!((compact.pack_stride(), compact.as_scalars().len()), (0, 0));
            assert_eq!(compact.to_std(), src);
        }
    }

    #[test]
    fn default_constructors_use_dispatched_width() {
        let b = CompactBatch::<f64>::zeroed(2, 2, 2);
        assert_eq!(b.width(), dispatched_width());
        assert_eq!(b.p(), f64::p_at(dispatched_width()));
    }

    #[test]
    fn wider_layout_scales_group_geometry() {
        let narrow = CompactBatch::<f32>::zeroed_at(3, 3, 20, VecWidth::W128);
        let wide = CompactBatch::<f32>::zeroed_at(3, 3, 20, VecWidth::W512);
        assert_eq!(narrow.p(), 4);
        assert_eq!(wide.p(), 16);
        assert_eq!(narrow.packs(), 5);
        assert_eq!(wide.packs(), 2);
        assert_eq!(wide.pack_stride(), 4 * narrow.pack_stride());
        assert_eq!(wide.padding_lanes(), 12);
    }

    #[test]
    fn cross_width_values_agree() {
        let src = StdBatch::<c32>::random(4, 3, 9, 5);
        let a = CompactBatch::from_std_at(&src, VecWidth::W128);
        let b = CompactBatch::from_std_at(&src, VecWidth::W256);
        // different physical layout, identical logical contents
        assert_ne!(a.pack_stride(), b.pack_stride());
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn get_set_round_trip() {
        let mut b = CompactBatch::<c32>::zeroed(4, 5, 9);
        let z = c32::new(1.5, -2.5);
        b.set(8, 3, 4, z);
        assert_eq!(b.get(8, 3, 4), z);
        assert_eq!(b.get(7, 3, 4), c32::zero());
    }

    #[test]
    fn pad_triangle_identity_sets_dead_lanes() {
        // P=2 → 1 padding lane
        let mut b = CompactBatch::<f64>::zeroed_at(3, 3, 3, VecWidth::W128);
        assert_eq!(b.padding_lanes(), 1);
        b.pad_triangle_identity();
        for i in 0..3 {
            let base = b.group_offset(1, i, i);
            // lane 0 is matrix 2 (logical, untouched zero), lane 1 is padding
            assert_eq!(b.as_scalars()[base], 0.0);
            assert_eq!(b.as_scalars()[base + 1], 1.0);
        }
        // logical values unchanged
        assert_eq!(b.get(2, 1, 1), 0.0);
    }

    #[test]
    fn strides_consistent() {
        let b = CompactBatch::<c64>::zeroed_at(4, 6, 10, VecWidth::W128);
        assert_eq!(b.pack_stride(), 4 * 6 * 4);
        assert_eq!(b.col_stride(), 4 * 4);
        assert_eq!(
            b.group_offset(2, 0, 0) - b.group_offset(1, 0, 0),
            b.pack_stride()
        );
        assert_eq!(
            b.group_offset(0, 0, 3) - b.group_offset(0, 0, 2),
            b.col_stride()
        );
        assert_eq!(b.as_scalars().len(), b.packs() * b.pack_stride());
    }

    #[test]
    fn storage_is_line_aligned_at_every_width_and_size() {
        // From one element group to a batch past the allocator's 128 KiB
        // mmap threshold, where a plain `Vec` lands at page + 16.
        fn check<E: Element>(width: VecWidth) {
            let aligned = |b: &CompactBatch<E>| {
                b.as_scalars()
                    .as_ptr()
                    .addr()
                    .is_multiple_of(crate::LINE_BYTES)
            };
            let mut largest = 0;
            for (n, count) in [(1usize, 1usize), (3, 7), (48, 20)] {
                let zeroed = CompactBatch::<E>::zeroed_at(n, n, count, width);
                let converted =
                    CompactBatch::from_std_at(&StdBatch::<E>::random(n, n, count, 3), width);
                let copy = converted.clone();
                assert!(
                    aligned(&zeroed) && aligned(&converted) && aligned(&copy),
                    "{:?} {width:?} n={n}",
                    E::DTYPE
                );
                assert_eq!(copy, converted);
                largest = largest.max(core::mem::size_of_val(converted.as_scalars()));
            }
            assert!(largest > 128 << 10);
        }
        for width in VecWidth::ALL {
            check::<f32>(width);
            check::<f64>(width);
            check::<c32>(width);
            check::<c64>(width);
        }
    }

    #[test]
    fn one_is_real_one() {
        // pad_triangle_identity writes Real::ONE; sanity-check the constant.
        assert_eq!(<f64 as Real>::ONE, 1.0);
    }
}
