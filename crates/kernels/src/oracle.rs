//! Scalar reference computations over the kernels' packed-panel formats.
//!
//! These oracles re-derive every kernel's expected output lane by lane with
//! plain scalar arithmetic. They are deliberately slow and obvious; kernel
//! unit tests (and `iatf-codegen`'s interpreter cross-tests) compare against
//! them.

use iatf_simd::Real;

/// Minimal deterministic generator for kernel tests (SplitMix64).
pub struct TestRng(u64);

#[allow(clippy::should_implement_trait)]
impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Uniform value in `[-0.5, 0.5)` — zero-mean keeps accumulations small.
    pub fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5
    }
}

/// Reference for [`crate::gemm_ukr`] on *packed* panels.
///
/// `pa` is `k` slivers of `mr` vector groups (`p` scalars each), `pb` is `k`
/// slivers of `nr` groups, `c0` the prior C tile (`mr × nr` groups,
/// column-major: group `(i, j)` at `(j·mr + i)·p`). Returns the expected C
/// tile in the same order, computed in f64.
pub fn real_gemm_tile<R: Real>(
    mr: usize,
    nr: usize,
    k: usize,
    p: usize,
    alpha: f64,
    beta: f64,
    pa: &[R],
    pb: &[R],
    c0: &[R],
) -> Vec<f64> {
    let mut out = vec![0.0; mr * nr * p];
    for i in 0..mr {
        for j in 0..nr {
            for l in 0..p {
                let mut dot = 0.0;
                for kk in 0..k {
                    let a = pa[(kk * mr + i) * p + l].to_f64();
                    let b = pb[(kk * nr + j) * p + l].to_f64();
                    dot += a * b;
                }
                let prior = c0[(j * mr + i) * p + l].to_f64();
                out[(j * mr + i) * p + l] = alpha * dot + beta * prior;
            }
        }
    }
    out
}

/// Reference for [`crate::cgemm_ukr`] on packed split-complex panels.
///
/// Element groups are `2·p` scalars (`p` reals then `p` imaginaries).
pub fn cplx_gemm_tile<R: Real>(
    mr: usize,
    nr: usize,
    k: usize,
    p: usize,
    alpha: [f64; 2],
    beta: [f64; 2],
    pa: &[R],
    pb: &[R],
    c0: &[R],
) -> Vec<f64> {
    let g = 2 * p;
    let mut out = vec![0.0; mr * nr * g];
    for i in 0..mr {
        for j in 0..nr {
            for l in 0..p {
                let mut dre = 0.0;
                let mut dim = 0.0;
                for kk in 0..k {
                    let ab = (kk * mr + i) * g;
                    let bb = (kk * nr + j) * g;
                    let (ar, ai) = (pa[ab + l].to_f64(), pa[ab + p + l].to_f64());
                    let (br, bi) = (pb[bb + l].to_f64(), pb[bb + p + l].to_f64());
                    dre += ar * br - ai * bi;
                    dim += ar * bi + ai * br;
                }
                let cb = (j * mr + i) * g;
                let (cr, ci) = (c0[cb + l].to_f64(), c0[cb + p + l].to_f64());
                out[cb + l] = alpha[0] * dre - alpha[1] * dim + beta[0] * cr - beta[1] * ci;
                out[cb + p + l] = alpha[0] * dim + alpha[1] * dre + beta[0] * ci + beta[1] * cr;
            }
        }
    }
    out
}

/// Random A operands of one TRSM/TRMM block kernel call in the kernels'
/// contract (see [`real_trsm_block`]), `g` scalars per group (`p` real,
/// `2·p` complex): `kk + mr` slivers of `mr` groups — strip entries scaled
/// by `1/(kk + mr)`, triangle entries by `1/mr` — and the block's `mr`
/// diagonal groups from `diag(i, lane)` as `(re, im)`. The groups no kernel
/// may read (on and above the triangle's diagonal) hold NaN.
pub fn block_operands(
    mr: usize,
    kk: usize,
    p: usize,
    g: usize,
    rng: &mut TestRng,
    diag: impl Fn(usize, usize) -> (f64, f64),
) -> (Vec<f64>, Vec<f64>) {
    let mut strip = vec![f64::NAN; (kk + mr) * mr * g];
    for k in 0..kk + mr {
        let scale = if k < kk { kk + mr } else { mr };
        for i in (k + 1).saturating_sub(kk)..mr {
            for x in &mut strip[(k * mr + i) * g..(k * mr + i + 1) * g] {
                *x = rng.next() / scale as f64;
            }
        }
    }
    let mut pa_diag = vec![0.0; mr * g];
    for i in 0..mr {
        for l in 0..p {
            let (re, im) = diag(i, l);
            pa_diag[i * g + l] = re;
            if g > p {
                pa_diag[i * g + p + l] = im;
            }
        }
    }
    (strip, pa_diag)
}

/// Reference for the fused TRSM block kernel (real).
///
/// Layouts (all per lane `l < p`):
/// * `pa_rect`: `kk + mr` slivers of `mr` vector groups, group `(k, i)` at
///   `(k·mr + i)·p` holding `A(row0+i, k)` — the rectangular strip for
///   `k < kk`, the block's strictly lower triangle for `k = kk + j`, `j < i`
///   (the other groups are never read);
/// * `pa_diag`: the block's `mr` diagonal groups, stored as reciprocals;
/// * `panel`: the B/X panel, row-major — row `r` at `r·row_stride`, column
///   `j` at `j·col_stride` (strides in scalars).
///
/// Returns the expected panel contents after
/// `X[row0..row0+mr] = Tri⁻¹ · (B[row0..] − Rect · X[0..kk])`.
#[allow(clippy::too_many_arguments)]
pub fn real_trsm_block(
    mr: usize,
    nr: usize,
    kk: usize,
    p: usize,
    pa_rect: &[f64],
    pa_diag: &[f64],
    panel: &[f64],
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) -> Vec<f64> {
    let mut out = panel.to_vec();
    for l in 0..p {
        for j in 0..nr {
            // gather the block's column j into a scratch vector
            let mut b: Vec<f64> = (0..mr)
                .map(|i| out[(row0 + i) * row_stride + j * col_stride + l])
                .collect();
            // rectangular elimination against already-solved rows
            for i in 0..mr {
                for k in 0..kk {
                    let a = pa_rect[(k * mr + i) * p + l];
                    let x = out[k * row_stride + j * col_stride + l];
                    b[i] -= a * x;
                }
            }
            // triangular solve with reciprocal diagonal
            for i in 0..mr {
                for jj in 0..i {
                    b[i] -= pa_rect[((kk + jj) * mr + i) * p + l] * b[jj];
                }
                b[i] *= pa_diag[i * p + l];
            }
            for i in 0..mr {
                out[(row0 + i) * row_stride + j * col_stride + l] = b[i];
            }
        }
    }
    out
}

/// Complex counterpart of [`real_trsm_block`]; element groups are `2·p`
/// scalars and the packed diagonal holds the complex reciprocal.
#[allow(clippy::too_many_arguments)]
pub fn cplx_trsm_block(
    mr: usize,
    nr: usize,
    kk: usize,
    p: usize,
    pa_rect: &[f64],
    pa_diag: &[f64],
    panel: &[f64],
    row0: usize,
    row_stride: usize,
    col_stride: usize,
) -> Vec<f64> {
    let g = 2 * p;
    let mut out = panel.to_vec();
    let cmul = |ar: f64, ai: f64, br: f64, bi: f64| (ar * br - ai * bi, ar * bi + ai * br);
    let at = |buf: &[f64], group: usize, l: usize| (buf[group * g + l], buf[group * g + p + l]);
    for l in 0..p {
        for j in 0..nr {
            let mut b: Vec<(f64, f64)> = (0..mr)
                .map(|i| {
                    let base = (row0 + i) * row_stride + j * col_stride;
                    (out[base + l], out[base + p + l])
                })
                .collect();
            for i in 0..mr {
                for k in 0..kk {
                    let (ar, ai) = at(pa_rect, k * mr + i, l);
                    let xb = k * row_stride + j * col_stride;
                    let (pr, pi) = cmul(ar, ai, out[xb + l], out[xb + p + l]);
                    b[i].0 -= pr;
                    b[i].1 -= pi;
                }
            }
            for i in 0..mr {
                for jj in 0..i {
                    let (ar, ai) = at(pa_rect, (kk + jj) * mr + i, l);
                    let (pr, pi) = cmul(ar, ai, b[jj].0, b[jj].1);
                    b[i].0 -= pr;
                    b[i].1 -= pi;
                }
                let (dr, di) = at(pa_diag, i, l);
                b[i] = cmul(b[i].0, b[i].1, dr, di);
            }
            for i in 0..mr {
                let base = (row0 + i) * row_stride + j * col_stride;
                out[base + l] = b[i].0;
                out[base + p + l] = b[i].1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_zero_mean() {
        let mut rng = TestRng::new(3);
        let mean: f64 = (0..10_000).map(|_| rng.next()).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.02);
    }

    #[test]
    fn real_tile_identity_case() {
        // mr=nr=k=1, p=2: out = alpha*a*b + beta*c per lane.
        let pa = [2.0f64, 3.0];
        let pb = [5.0f64, 7.0];
        let c0 = [1.0f64, 1.0];
        let out = real_gemm_tile(1, 1, 1, 2, 2.0, 0.5, &pa, &pb, &c0);
        assert_eq!(out, vec![2.0 * 10.0 + 0.5, 2.0 * 21.0 + 0.5]);
    }

    #[test]
    fn trsm_block_solves_lower_system() {
        // 2×2 lower triangle, p=1, one column, kk=0.
        // L = [[2, 0], [1, 4]]: the strip's sliver 0 holds L(1,0) below the
        // unread diagonal position, sliver 1 nothing; reciprocal diagonal.
        let strip = [f64::NAN, 1.0, f64::NAN, f64::NAN];
        let panel = [6.0, 7.0]; // b
        let out = real_trsm_block(2, 1, 0, 1, &strip, &[0.5, 0.25], &panel, 0, 1, 1);
        // x0 = 6/2 = 3; x1 = (7 - 1*3)/4 = 1
        assert_eq!(out, vec![3.0, 1.0]);
    }

    #[test]
    fn trsm_block_applies_rect_update() {
        // One solved row x=2 above; block is a single row with A(1,0)=3,
        // diag 5: x1 = (11 - 3*2)/5 = 1.
        let strip = [3.0, f64::NAN];
        let panel = [2.0, 11.0];
        let out = real_trsm_block(1, 1, 1, 1, &strip, &[0.2], &panel, 1, 1, 1);
        assert_eq!(out, vec![2.0, 1.0]);
    }

    #[test]
    fn cplx_block_matches_manual() {
        // 1×1 system: (2+i)·x = (3-i) → x = (3-i)/(2+i) = (1-i).
        let d = (2.0, 1.0);
        let n = d.0 * d.0 + d.1 * d.1;
        let pa_diag = [d.0 / n, -d.1 / n]; // reciprocal
        let panel = [3.0, -1.0];
        let out = cplx_trsm_block(1, 1, 0, 1, &[f64::NAN; 2], &pa_diag, &panel, 0, 2, 2);
        assert!((out[0] - 1.0).abs() < 1e-14);
        assert!((out[1] + 1.0).abs() < 1e-14);
    }
}
