//! Seeded input generation and the cell-list digest.
//!
//! The harness owns its generator so that the same seed gives the same
//! inputs whatever the library does to its own test helpers.

use iatf_layout::{Diag, StdBatch, Uplo};
use iatf_simd::Element;

/// SplitMix64 (public-domain algorithm by Sebastiano Vigna).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates the matrix values
    /// of one cell from those of the next and from the visit order.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    /// Uniform integer in `[0, n)`, `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Dense matrices with entries uniform in `[-1, 1)` (mixed signs, so
/// repeated accumulation into C walks instead of growing linearly).
pub fn dense<E: Element>(rows: usize, cols: usize, count: usize, rng: &mut Rng) -> StdBatch<E> {
    StdBatch::from_fn(rows, cols, count, |_, _, _| {
        E::from_f64s(rng.symmetric(), rng.symmetric())
    })
}

/// Value written outside the referenced triangle (and on a unit diagonal):
/// a library that reads it produces results the oracle rejects.
const POISON: f64 = 1.0e3;

/// Well-conditioned triangular matrices: diagonal modulus in `[1, 2]`,
/// off-diagonal entries scaled by `1/order`, so a solve followed by the
/// inverse multiply returns to the starting values to rounding.
pub fn triangular<E: Element>(
    order: usize,
    count: usize,
    uplo: Uplo,
    diag: Diag,
    rng: &mut Rng,
) -> StdBatch<E> {
    let scale = 1.0 / order.max(1) as f64;
    StdBatch::from_fn(order, order, count, |_, i, j| {
        let stored = match uplo {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        };
        let (x, y) = (rng.symmetric(), rng.symmetric());
        if i == j {
            if diag == Diag::Unit {
                E::from_f64s(POISON, -POISON)
            } else {
                E::from_f64s(1.5 + 0.5 * x, 0.25 * y)
            }
        } else if stored {
            E::from_f64s(x * scale, y * scale)
        } else {
            E::from_f64s(POISON, POISON)
        }
    })
}

/// Diagonally dominant operators `A = D + R/n` for the block
/// Gauss–Seidel step (the shape of `examples/block_jacobi.rs`).
pub fn dominant<E: Element>(order: usize, count: usize, rng: &mut Rng) -> StdBatch<E> {
    let scale = 0.5 / order.max(1) as f64;
    StdBatch::from_fn(order, order, count, |_, i, j| {
        let x = rng.symmetric();
        if i == j {
            E::from_f64s(2.75 + 0.25 * x, 0.0)
        } else {
            E::from_f64s(x * scale, 0.0)
        }
    })
}

/// FNV-1a over 64-bit words: the identity of a generated cell list and
/// call order.
#[derive(Copy, Clone, Debug)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in.
    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.word(s.len() as u64);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_other_stream_other_values() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let x = r.symmetric();
            assert!((-1.0..1.0).contains(&x));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<_>>());
        assert_ne!(v, w);
    }

    #[test]
    fn triangles_are_poisoned_outside_and_dominant_inside() {
        let t = triangular::<f64>(4, 3, Uplo::Lower, Diag::NonUnit, &mut Rng::new(1, 1));
        for v in 0..3 {
            for i in 0..4 {
                for j in 0..4 {
                    let x = t.get(v, i, j);
                    if j > i {
                        assert_eq!(x, POISON);
                    } else if i == j {
                        assert!((1.0..=2.0).contains(&x));
                    } else {
                        assert!(x.abs() <= 0.25);
                    }
                }
            }
        }
        let u = triangular::<f64>(3, 1, Uplo::Upper, Diag::Unit, &mut Rng::new(1, 1));
        assert_eq!(u.get(0, 1, 1), POISON);
        assert_eq!(u.get(0, 2, 0), POISON);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::new();
        c.text("ab");
        let mut d = Digest::new();
        d.text("a");
        d.text("b");
        assert_ne!(c.value(), d.value());
    }
}
