//! Line-aligned scalar storage.
//!
//! The compact layout (§4.1) puts one element group in one vector register;
//! at 512 bits that group is exactly one 64-byte cache line. The claim holds
//! only if storage starts on a line: the allocator serves a large `Vec` at
//! page + 16, and then nearly every 512-bit load and store of a batch
//! straddles two lines. [`AlignedVec`] is the one owner of that alignment —
//! [`CompactBatch`](crate::CompactBatch) and `iatf_pack::PackBuffer` both
//! store their scalars in it — so every element group of every operand and
//! pack buffer starts on a line boundary at every width: a 512-bit group
//! fills one line, a 256- or 128-bit group never crosses one.
//!
//! It is safe code: the storage is a boxed slice over-allocated by one
//! line's worth of scalars, and the logical scalars start at the first line
//! boundary inside it.

use core::fmt;
use core::ops::{Deref, DerefMut};
use iatf_simd::Real;

/// Alignment, in bytes, of the first scalar of every [`AlignedVec`]: one
/// cache line, which is also one 512-bit vector.
pub const LINE_BYTES: usize = 64;

/// A scalar buffer whose first scalar sits on a [`LINE_BYTES`] boundary.
///
/// Dereferences to the logical scalars only. `Clone` re-aligns the copy;
/// `PartialEq` and `Debug` see the logical scalars, never the pad.
pub struct AlignedVec<R> {
    /// `len + PAD` scalars; the logical ones are `raw[offset..offset + len]`.
    /// A boxed slice, not a `Vec`, keeps the type three words: the arena
    /// boxes one per lease, and that box's size class moves glibc's heap
    /// trimming (EXPERIMENTS.md "Line-aligned storage").
    raw: Box<[R]>,
    /// Scalars from the allocation's start to its first line boundary.
    offset: usize,
}

impl<R> AlignedVec<R> {
    /// Scalars of over-allocation: enough to reach a line boundary from
    /// any scalar-aligned address.
    const PAD: usize = LINE_BYTES / core::mem::size_of::<R>();

    /// The logical scalars' range in `raw`.
    #[inline]
    fn logical(&self) -> core::ops::Range<usize> {
        self.offset..self.offset + self.raw.len().saturating_sub(Self::PAD)
    }
}

impl<R: Real> AlignedVec<R> {
    /// `len` zero scalars starting on a line boundary.
    pub fn zeroed(len: usize) -> Self {
        // `vec![ZERO; n]` takes zeroed pages from the allocator, so a large
        // batch costs no memset up front.
        let raw = vec![R::ZERO; len + Self::PAD].into_boxed_slice();
        let offset = raw.as_ptr().addr().wrapping_neg() % LINE_BYTES / core::mem::size_of::<R>();
        Self { raw, offset }
    }

    /// Grows or shrinks to `len` scalars in a fresh line-aligned
    /// allocation. Scalars below both lengths keep their values; grown ones
    /// are zero.
    pub fn resize(&mut self, len: usize) {
        let mut resized = Self::zeroed(len);
        let keep = len.min(self.len());
        resized[..keep].copy_from_slice(&self[..keep]);
        *self = resized;
    }
}

impl<R> Default for AlignedVec<R> {
    /// An empty buffer; allocates nothing.
    fn default() -> Self {
        Self {
            raw: Box::default(),
            offset: 0,
        }
    }
}

impl<R> Deref for AlignedVec<R> {
    type Target = [R];

    #[inline]
    fn deref(&self) -> &[R] {
        &self.raw[self.logical()]
    }
}

impl<R> DerefMut for AlignedVec<R> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [R] {
        let logical = self.logical();
        &mut self.raw[logical]
    }
}

impl<R: Real> Clone for AlignedVec<R> {
    fn clone(&self) -> Self {
        let mut copy = Self::zeroed(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl<R: PartialEq> PartialEq for AlignedVec<R> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<R: fmt::Debug> fmt::Debug for AlignedVec<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_aligned<R>(v: &AlignedVec<R>) {
        assert_eq!(v.as_ptr().addr() % LINE_BYTES, 0, "len {}", v.len());
    }

    #[test]
    fn resize_keeps_values_zero_fills_growth_and_realigns() {
        let mut v = AlignedVec::<f32>::zeroed(5);
        v.fill(3.0);
        // shrinking drops the tail; re-growing zero-fills it
        v.resize(2);
        v.resize(5);
        assert_eq!(&v[..], &[3.0, 3.0, 0.0, 0.0, 0.0]);
        assert_aligned(&v);
        // past the allocator's mmap threshold
        v.resize(100_000);
        assert_aligned(&v);
        assert_eq!(&v[..3], &[3.0, 3.0, 0.0]);
        assert!(v[5..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pad_is_invisible_to_len_eq_and_debug() {
        let mut a = AlignedVec::<f64>::zeroed(3);
        a[2] = 1.5;
        assert_eq!(a.len(), 3);
        assert_eq!(format!("{a:?}"), "[0.0, 0.0, 1.5]");
        let mut b = AlignedVec::<f64>::default();
        b.resize(3);
        assert_ne!(a, b);
        b[2] = 1.5;
        assert_eq!(a, b);
        assert!(AlignedVec::<f64>::default().is_empty());
    }
}
