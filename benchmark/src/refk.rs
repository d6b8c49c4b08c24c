//! Reference kernels — the benchmark's yardstick.
//!
//! Every timed slot is divided by the time of a neighbouring run of one of
//! these loops, so a host whose clock drifts between (or during) runs still
//! reports repeatable numbers. For that to mean anything the yardstick must
//! not move when the library does: this module uses raw `std::arch` and the
//! standard library only, and a unit test greps this file to keep it that
//! way.
//!
//! * `fma` — independent vector FMAs, throughput-bound: the peak flop rate
//!   at the vector width the library dispatched to.
//! * `chain` — one dependent FMA chain, latency-bound: tracks the core clock.
//! * `stream` — a copy over a buffer of the workload's footprint.
//!
//! A *unit* is one vector FMA (`fma`, `chain`) or one byte copied (`stream`).

use std::hint::black_box;

/// Instruction set the FMA loops run at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Plain `f64` arithmetic, one lane.
    Scalar,
    /// 128-bit vectors (SSE2 multiply + add on x86-64, NEON FMA on aarch64).
    V128,
    /// AVX2 + FMA.
    V256,
    /// AVX-512F.
    V512,
}

impl Isa {
    /// The widest ISA not wider than `bits` that this CPU can execute
    /// (`bits` is the library's dispatched width; 0 means scalar).
    pub fn for_width_bits(bits: usize) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if bits >= 512 && std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::V512;
            }
            if bits >= 256
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::V256;
            }
            if bits >= 128 {
                return Isa::V128;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if bits >= 128 {
                return Isa::V128;
            }
        }
        let _ = bits;
        Isa::Scalar
    }

    /// `f64` lanes per vector.
    pub fn lanes_f64(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::V128 => 2,
            Isa::V256 => 4,
            Isa::V512 => 8,
        }
    }

    /// Name for the identity stamp.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::V128 => "v128",
            Isa::V256 => "v256",
            Isa::V512 => "v512",
        }
    }
}

/// Independent accumulators in the throughput loop: enough to cover a
/// 4–5 cycle FMA latency on two issue ports with room to spare.
pub const FMA_ACCS: usize = 12;

const MUL: f64 = 0.999_999;
const ADD: f64 = 1.0e-6;

/// Runs `iters` rounds of [`FMA_ACCS`] independent vector FMAs
/// (`iters · FMA_ACCS` units). The recurrence `a ← a·MUL + ADD` converges to
/// 1, so values stay normal however long it runs.
pub fn fma(isa: Isa, iters: u64) {
    let iters = black_box(iters);
    let out = match isa {
        Isa::Scalar => fma_scalar::<FMA_ACCS>(iters),
        Isa::V128 => v128::fma::<FMA_ACCS>(iters),
        // SAFETY: `Isa::for_width_bits` hands out V256 only after detecting avx2 and fma.
        #[cfg(target_arch = "x86_64")]
        Isa::V256 => unsafe { x86::fma_256::<FMA_ACCS>(iters) },
        // SAFETY: `Isa::for_width_bits` hands out V512 only after detecting avx512f.
        #[cfg(target_arch = "x86_64")]
        Isa::V512 => unsafe { x86::fma_512::<FMA_ACCS>(iters) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::V256 | Isa::V512 => fma_scalar::<FMA_ACCS>(iters),
    };
    black_box(out);
}

/// Runs one dependent chain of `iters` vector FMAs (`iters` units).
pub fn chain(isa: Isa, iters: u64) {
    let iters = black_box(iters);
    let out = match isa {
        Isa::Scalar => fma_scalar::<1>(iters),
        Isa::V128 => v128::fma::<1>(iters),
        // SAFETY: as in `fma`.
        #[cfg(target_arch = "x86_64")]
        Isa::V256 => unsafe { x86::fma_256::<1>(iters) },
        // SAFETY: as in `fma`.
        #[cfg(target_arch = "x86_64")]
        Isa::V512 => unsafe { x86::fma_512::<1>(iters) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::V256 | Isa::V512 => fma_scalar::<1>(iters),
    };
    black_box(out);
}

/// Copies `src` over `dst` once (`src.len() · 8` units).
pub fn stream(dst: &mut [f64], src: &[f64]) {
    dst.copy_from_slice(black_box(src));
    black_box(dst);
}

/// Which loop a workload's per-call times are expressed in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// `ref.fma`
    Fma,
    /// `ref.chain`
    Chain,
    /// `ref.stream`
    Stream,
}

impl RefKind {
    /// Name as printed.
    pub fn name(self) -> &'static str {
        match self {
            RefKind::Fma => "ref.fma",
            RefKind::Chain => "ref.chain",
            RefKind::Stream => "ref.stream",
        }
    }
}

/// The reference loops sized for one workload: every burst runs for about
/// the same wall time, fixed once when the yardstick is made.
pub struct Yardstick {
    isa: Isa,
    kind: RefKind,
    fma_iters: u64,
    chain_iters: u64,
    /// `ref.chain` units per `ref.fma` unit at one clock: FMA latency times
    /// FMAs issued per cycle, a constant of the core.
    chain_per_fma: f64,
    src: Vec<f64>,
    dst: Vec<f64>,
}

/// Pieces a burst is timed in.
const PIECES: usize = 8;

/// Times the [`PIECES`] pieces of a burst and returns a low one (the third
/// fastest). On a shared host a piece is now and then stretched by an
/// interrupt or a stolen time slice; that says nothing about the clock, and
/// a burst timed whole would carry it into every slot it normalises.
fn low_piece(mut piece: impl FnMut(usize) -> f64) -> f64 {
    let mut ns = [0.0f64; PIECES];
    for (i, slot) in ns.iter_mut().enumerate() {
        *slot = piece(i);
    }
    ns.sort_by(f64::total_cmp);
    ns[2]
}

fn elapsed_ns(f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Iterations that fill `burst_ns`, from one timed trial of `trial` iterations.
fn calibrate(burst_ns: f64, trial: u64, run: impl Fn(u64)) -> u64 {
    run(trial); // warm the unit up before timing it
    let ns = elapsed_ns(|| run(trial)).max(1.0);
    ((burst_ns / ns * trial as f64) as u64).max(1)
}

impl Yardstick {
    /// Sizes the loops so one burst takes about `burst_ns`. `footprint`
    /// is the workload's working set in bytes: `ref.stream` copies half of
    /// it onto the other half.
    pub fn new(isa: Isa, kind: RefKind, footprint: usize, burst_ns: f64) -> Self {
        let words = if kind == RefKind::Stream {
            (footprint / 16).max(1024).next_multiple_of(PIECES)
        } else {
            0
        };
        let mut yard = Yardstick {
            isa,
            kind,
            fma_iters: calibrate(burst_ns, 20_000, |n| fma(isa, n)),
            chain_iters: calibrate(burst_ns, 50_000, |n| chain(isa, n)),
            chain_per_fma: 1.0,
            src: vec![1.0; words],
            dst: vec![0.0; words],
        };
        // Bursts back to back, with no lighter code between them, hold the
        // core at one clock; the first rounds, in which it settles, are left out.
        let mut ratios: Vec<f64> = (0..12).map(|_| yard.chain_ns() / yard.fma_ns()).collect();
        let settled = &mut ratios[3..];
        settled.sort_by(f64::total_cmp);
        yard.chain_per_fma = settled[settled.len() / 2];
        yard
    }

    /// The ISA the FMA loops run at.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// One `ref.fma` burst: nanoseconds per vector FMA.
    pub fn fma_ns(&self) -> f64 {
        let iters = (self.fma_iters / PIECES as u64).max(1);
        let units = (iters * FMA_ACCS as u64) as f64;
        low_piece(|_| elapsed_ns(|| fma(self.isa, iters)) / units)
    }

    /// One `ref.chain` burst: nanoseconds per dependent FMA.
    pub fn chain_ns(&self) -> f64 {
        let iters = (self.chain_iters / PIECES as u64).max(1);
        low_piece(|_| elapsed_ns(|| chain(self.isa, iters)) / iters as f64)
    }

    /// One `ref.stream` burst — one pass over the whole buffer:
    /// nanoseconds per byte copied.
    pub fn stream_ns(&mut self) -> f64 {
        let piece = self.src.len() / PIECES;
        let (dst, src) = (&mut self.dst, &self.src);
        low_piece(|i| {
            let at = i * piece..(i + 1) * piece;
            elapsed_ns(|| stream(&mut dst[at.clone()], &src[at])) / (piece * 8) as f64
        })
    }

    /// One reference slot: `(ref.fma, own kernel)` nanoseconds per unit.
    ///
    /// A chain workload's slots hold light code. A burst of back-to-back
    /// wide FMAs between them pulls the core down a frequency licence that
    /// lasts into the next slot and into the chain reading itself, so there
    /// the chain runs alone and `ref.fma` is derived from it.
    pub fn slot(&mut self) -> (f64, f64) {
        match self.kind {
            RefKind::Fma => {
                let fma_ns = self.fma_ns();
                (fma_ns, fma_ns)
            }
            RefKind::Chain => {
                let own = self.chain_ns();
                (own / self.chain_per_fma, own)
            }
            RefKind::Stream => (self.fma_ns(), self.stream_ns()),
        }
    }
}

fn fma_scalar<const N: usize>(iters: u64) -> f64 {
    let mut acc = [1.5f64; N];
    for _ in 0..iters {
        for a in &mut acc {
            // not `mul_add`: without the FMA target feature that is a libm call
            *a = *a * MUL + ADD;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod v128 {
    use super::{ADD, MUL};
    use std::arch::x86_64::{_mm_add_pd, _mm_cvtsd_f64, _mm_mul_pd, _mm_set1_pd};

    /// SSE2 is part of the x86-64 baseline, so this needs no detection.
    /// There is no 128-bit FMA below AVX: a unit is a multiply and an add.
    pub fn fma<const N: usize>(iters: u64) -> f64 {
        // SAFETY: SSE2 intrinsics on x86-64, where SSE2 is always present; no memory is touched.
        unsafe {
            let (m, c) = (_mm_set1_pd(MUL), _mm_set1_pd(ADD));
            let mut acc = [_mm_set1_pd(1.5); N];
            for _ in 0..iters {
                for a in &mut acc {
                    *a = _mm_add_pd(_mm_mul_pd(*a, m), c);
                }
            }
            let mut sum = acc[0];
            for a in &acc[1..] {
                sum = _mm_add_pd(sum, *a);
            }
            _mm_cvtsd_f64(sum)
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod v128 {
    use super::{ADD, MUL};
    use std::arch::aarch64::{vaddq_f64, vdupq_n_f64, vfmaq_f64, vgetq_lane_f64};

    pub fn fma<const N: usize>(iters: u64) -> f64 {
        // SAFETY: NEON is mandatory on aarch64; no memory is touched.
        unsafe {
            let (m, c) = (vdupq_n_f64(MUL), vdupq_n_f64(ADD));
            let mut acc = [vdupq_n_f64(1.5); N];
            for _ in 0..iters {
                for a in &mut acc {
                    *a = vfmaq_f64(c, *a, m);
                }
            }
            let mut sum = acc[0];
            for a in &acc[1..] {
                sum = vaddq_f64(sum, *a);
            }
            vgetq_lane_f64::<0>(sum)
        }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod v128 {
    pub fn fma<const N: usize>(iters: u64) -> f64 {
        super::fma_scalar::<N>(iters)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ADD, MUL};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_fmadd_pd, _mm256_set1_pd, _mm512_add_pd,
        _mm512_castpd512_pd128, _mm512_fmadd_pd, _mm512_set1_pd, _mm_cvtsd_f64,
    };

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_256<const N: usize>(iters: u64) -> f64 {
        let (m, c) = (_mm256_set1_pd(MUL), _mm256_set1_pd(ADD));
        let mut acc = [_mm256_set1_pd(1.5); N];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm256_fmadd_pd(*a, m, c);
            }
        }
        let mut sum = acc[0];
        for a in &acc[1..] {
            sum = _mm256_add_pd(sum, *a);
        }
        _mm_cvtsd_f64(_mm256_castpd256_pd128(sum))
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_512<const N: usize>(iters: u64) -> f64 {
        let (m, c) = (_mm512_set1_pd(MUL), _mm512_set1_pd(ADD));
        let mut acc = [_mm512_set1_pd(1.5); N];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm512_fmadd_pd(*a, m, c);
            }
        }
        let mut sum = acc[0];
        for a in &acc[1..] {
            sum = _mm512_add_pd(sum, *a);
        }
        _mm_cvtsd_f64(_mm512_castpd512_pd128(sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_isa_the_host_offers_runs() {
        for bits in [0, 128, 256, 512] {
            let isa = Isa::for_width_bits(bits);
            assert!(isa.lanes_f64() * 64 <= bits.max(64));
            fma(isa, 10);
            chain(isa, 10);
        }
        let src = vec![1.0f64; 64];
        let mut dst = vec![0.0f64; 64];
        stream(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    fn a_chain_slot_derives_the_fma_unit_from_the_chain() {
        let isa = Isa::for_width_bits(512);
        let mut yard = Yardstick::new(isa, RefKind::Chain, 0, 5.0e4);
        // a dependent chain issues one FMA per latency; independent ones overlap
        assert!(yard.chain_per_fma > 1.5, "{}", yard.chain_per_fma);
        let (fma_ns, own_ns) = yard.slot();
        assert!(fma_ns > 0.0 && (own_ns / fma_ns - yard.chain_per_fma).abs() < 1e-9);
    }

    /// The yardstick may not depend on the code it measures.
    #[test]
    fn imports_nothing_from_the_library() {
        let text = include_str!("refk.rs");
        let needle = ["ia", "tf"].concat();
        for (no, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            assert!(
                !code.contains(&needle),
                "refk.rs:{} names the library: {line}",
                no + 1
            );
        }
    }
}
