//! Reusable packing buffer.

use iatf_layout::AlignedVec;
use iatf_simd::Real;

/// A growable scratch buffer for packed panels.
///
/// Execution plans reuse one buffer across all super-blocks so the packing
/// traffic stays in the same L1-resident working set (the Batch Counter
/// sizes the per-super-block footprint to the L1 capacity).
///
/// Storage is an [`AlignedVec`]: the buffer starts on a 64-byte cache line,
/// and panels are cut from it in whole element groups, so every packed
/// group starts on a line boundary like the compact batches it mirrors.
///
/// Growth semantics matter on the hot path: storage is zero-filled only on
/// **first touch** ([`PackBuffer::reserve`] extends with zeros exactly once
/// per new scalar), and already-owned storage is handed back as-is —
/// packing overwrites what it uses, so re-zeroing a warm buffer on every
/// `execute` would be pure waste. Combined with the [`crate::arena`] pool,
/// steady-state executes neither allocate nor memset.
#[derive(Debug, Default)]
pub struct PackBuffer<R> {
    data: AlignedVec<R>,
}

impl<R: Real> PackBuffer<R> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer with `len` scalars already initialized.
    pub fn with_len(len: usize) -> Self {
        let mut buf = Self::new();
        buf.reserve(len);
        buf
    }

    /// Wraps storage recycled from a previous buffer (see [`crate::arena`]);
    /// its initialized prefix is reused without re-zero-filling.
    pub fn from_vec(data: AlignedVec<R>) -> Self {
        Self { data }
    }

    /// Consumes the buffer, yielding its storage for later reuse.
    pub fn into_vec(self) -> AlignedVec<R> {
        self.data
    }

    /// Ensures at least `len` scalars are initialized. Zero fill happens
    /// only for the newly grown tail — never for storage the buffer already
    /// owns (first-touch-only semantics).
    pub fn reserve(&mut self, len: usize) {
        if self.data.len() < len {
            let grown = len - self.data.len();
            self.data.resize(len);
            iatf_obs::count_arena_bytes_grown(grown * core::mem::size_of::<R>());
        }
    }

    /// Ensures at least `len` scalars are available and returns the slice.
    /// Contents are unspecified (packing overwrites what it uses).
    pub fn get_mut(&mut self, len: usize) -> &mut [R] {
        self.reserve(len);
        &mut self.data[..len]
    }

    /// Read-only view of the first `len` scalars.
    pub fn get(&self, len: usize) -> &[R] {
        &self.data[..len]
    }

    /// Current initialized length in scalars.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Splits into two disjoint mutable regions of `a_len` and `b_len`
    /// scalars (grows as needed) — one allocation for the A and B panels of
    /// a super-block.
    pub fn split_two(&mut self, a_len: usize, b_len: usize) -> (&mut [R], &mut [R]) {
        self.reserve(a_len + b_len);
        let (a, rest) = self.data.split_at_mut(a_len);
        (a, &mut rest[..b_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_reuses() {
        let mut buf = PackBuffer::<f64>::new();
        assert!(buf.is_empty());
        {
            let s = buf.get_mut(10);
            s[9] = 1.0;
        }
        assert_eq!(buf.len(), 10);
        {
            let s = buf.get_mut(4); // no shrink
            s[0] = 2.0;
        }
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.get(10)[9], 1.0);
    }

    #[test]
    fn split_two_disjoint() {
        let mut buf = PackBuffer::<f32>::with_len(2);
        let (a, b) = buf.split_two(3, 5);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 5);
        a[2] = 7.0;
        b[0] = 9.0;
        assert_eq!(buf.get(4)[2], 7.0);
        assert_eq!(buf.get(4)[3], 9.0);
    }

    #[test]
    fn reserve_never_clears_initialized_storage() {
        let mut buf = PackBuffer::<f32>::new();
        buf.get_mut(8).fill(3.0);
        // shrinking and re-growing within capacity must not zero anything
        buf.reserve(4);
        buf.reserve(8);
        assert!(buf.get(8).iter().all(|&x| x == 3.0));
        // growth zero-fills only the new tail
        buf.reserve(12);
        assert!(buf.get(12)[..8].iter().all(|&x| x == 3.0));
        assert!(buf.get(12)[8..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn panels_start_on_a_cache_line() {
        fn check<R: Real>() {
            let line = |s: &[R]| s.as_ptr().addr().is_multiple_of(iatf_layout::LINE_BYTES);
            // 16 f32 / 8 f64: one 512-bit group, so `b` starts on a group boundary
            let group = 64 / core::mem::size_of::<R>();
            let mut buf = PackBuffer::<R>::new();
            // growth from empty, then twice more, the last past 128 KiB
            for len in [group, 40 * group, 4096 * group] {
                assert!(line(buf.get_mut(len)));
                let (a, b) = buf.split_two(3 * group, len);
                assert!(line(a) && line(b));
            }
            // a smaller view of a warm buffer, then growth again
            assert!(line(buf.get_mut(group)));
            let (a, b) = buf.split_two(group, 8192 * group);
            assert!(line(a) && line(b));
            // storage handed back to the arena and leased again
            drop(buf);
            for _ in 0..2 {
                let mut lease = crate::arena::lease::<R>();
                let (a, b) = lease.buffer().split_two(5 * group, 7 * group);
                assert!(line(a) && line(b));
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn storage_round_trips_through_vec() {
        let mut buf = PackBuffer::<f64>::new();
        buf.get_mut(6)[5] = 4.5;
        let v = buf.into_vec();
        let buf2 = PackBuffer::from_vec(v);
        assert_eq!(buf2.len(), 6);
        assert_eq!(buf2.get(6)[5], 4.5);
    }
}
