//! Public entry points.
//!
//! The one-shot functions plan and execute in a single call, through the
//! process-wide [plan cache](crate::plan::cache): repeated same-shape calls
//! reuse the plan built by the first one — the run-time stage "only
//! generates this execution plan at the beginning" (§5.3), amortized
//! across calls. Callers that manage plan lifetimes themselves build a
//! [`GemmPlan`](crate::GemmPlan) / [`TrsmPlan`](crate::TrsmPlan) /
//! [`TrmmPlan`](crate::TrmmPlan) directly and call `execute` repeatedly.
//! Either way a plan whose tuned entry measured parallel execution faster
//! runs on the rayon executor (with the `parallel` feature); both paths
//! produce bit-identical results.

use crate::autotune;
use crate::config::{TunePolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::cache;
use crate::plan::tri::{Multiply, Solve, TriOp};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, LayoutError, StdBatch, Trans, TrsmDims, TrsmMode};

/// Compact batched GEMM: `C = α·op(A)·op(B) + β·C` for every matrix in the
/// group.
///
/// Operands are compact batches of identical group size; `mode` selects
/// NN/NT/TN/TT. Dimensions are inferred from C and `mode`.
///
/// ```
/// use iatf_core::{compact_gemm, TuningConfig};
/// use iatf_layout::{CompactBatch, GemmMode, StdBatch};
///
/// let a = CompactBatch::from_std(&StdBatch::<f32>::random(4, 3, 100, 1));
/// let b = CompactBatch::from_std(&StdBatch::<f32>::random(3, 5, 100, 2));
/// let mut c = CompactBatch::<f32>::zeroed(4, 5, 100);
/// compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &TuningConfig::host()).unwrap();
/// ```
pub fn compact_gemm<E: CompactElement>(
    mode: GemmMode,
    alpha: E,
    a: &CompactBatch<E>,
    b: &CompactBatch<E>,
    beta: E,
    c: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    compact_gemm_ex(mode, false, false, alpha, a, b, beta, c, cfg)
}

/// [`compact_gemm`] with explicit conjugation flags (the BLAS `C` transpose
/// variants): `conj_a`/`conj_b` conjugate the respective operand *as
/// stored*, composing with the transpose flag to give `op(A) = conj(A)ᵀ`.
#[allow(clippy::too_many_arguments)]
pub fn compact_gemm_ex<E: CompactElement>(
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    alpha: E,
    a: &CompactBatch<E>,
    b: &CompactBatch<E>,
    beta: E,
    c: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    let k = match mode.transa {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    let dims = GemmDims::new(c.rows(), c.cols(), k);
    // First-touch tuning runs *before* the plan-cache key is computed, so
    // the key already reflects the post-sweep db generation and the tuned
    // plan is what gets cached. Drift remediation sits in the same spot
    // for the same reason — and both run *before* the watch span opens,
    // so sweep time is never recorded as warm-dispatch latency.
    if matches!(cfg.tune, TunePolicy::FirstTouch(_)) {
        autotune::ensure_tuned_gemm::<E>(dims, mode, conj_a, conj_b, c.count(), cfg);
    }
    autotune::maybe_retune_gemm::<E>(dims, mode, conj_a, conj_b, c.count(), cfg);
    let _watch = iatf_watch::dispatch_span(|| {
        (
            autotune::gemm_tune_key::<E>(dims, mode, conj_a, conj_b, c.count(), cfg.width),
            E::DTYPE.flops_per_mac() as f64 * dims.macs() as f64 * c.count() as f64,
        )
    });
    let plan = cache::cached_gemm_plan::<E>(dims, mode, conj_a, conj_b, c.count(), cfg)?;
    plan.execute_with(plan.use_parallel(), alpha, a, b, beta, c)
}

/// Compact batched TRSM: solves `op(A)·X = α·B` (left) or `X·op(A) = α·B`
/// (right) for every matrix in the group; B is overwritten by X.
///
/// `A` must be the full square compact batch of order M (left) or N
/// (right); only the triangle selected by `mode.uplo` is referenced, and
/// with `Diag::Unit` the diagonal is not referenced either.
pub fn compact_trsm<E: CompactElement>(
    mode: TrsmMode,
    alpha: E,
    a: &CompactBatch<E>,
    b: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    compact_trsm_ex(mode, false, alpha, a, b, cfg)
}

/// [`compact_trsm`] with a conjugation flag (conjugate-transpose modes).
pub fn compact_trsm_ex<E: CompactElement>(
    mode: TrsmMode,
    conj: bool,
    alpha: E,
    a: &CompactBatch<E>,
    b: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    compact_tri_ex::<E, Solve>(mode, conj, alpha, a, b, cfg)
}

/// Compact batched TRMM (extension): `B = α·op(A)·B` (left) or
/// `B = α·B·op(A)` (right) with triangular A, B overwritten in place.
///
/// Mode semantics mirror [`compact_trsm`]: only the selected triangle of A
/// is referenced and `Diag::Unit` skips the stored diagonal.
pub fn compact_trmm<E: CompactElement>(
    mode: TrsmMode,
    alpha: E,
    a: &CompactBatch<E>,
    b: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    compact_trmm_ex(mode, false, alpha, a, b, cfg)
}

/// [`compact_trmm`] with a conjugation flag.
pub fn compact_trmm_ex<E: CompactElement>(
    mode: TrsmMode,
    conj: bool,
    alpha: E,
    a: &CompactBatch<E>,
    b: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    compact_tri_ex::<E, Multiply>(mode, conj, alpha, a, b, cfg)
}

/// The one-shot path of both triangular ops: tuning and drift remediation
/// as in [`compact_gemm_ex`], then the cached plan.
fn compact_tri_ex<E: CompactElement, O: TriOp<E>>(
    mode: TrsmMode,
    conj: bool,
    alpha: E,
    a: &CompactBatch<E>,
    b: &mut CompactBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    let dims = TrsmDims::new(b.rows(), b.cols());
    if matches!(cfg.tune, TunePolicy::FirstTouch(_)) {
        autotune::ensure_tuned_tri::<E, O>(dims, mode, conj, b.count(), cfg);
    }
    autotune::maybe_retune_tri::<E, O>(dims, mode, conj, b.count(), cfg);
    let _watch = iatf_watch::dispatch_span(|| {
        (
            autotune::tri_tune_key::<E, O>(dims, mode, conj, b.count(), cfg.width),
            E::DTYPE.flops_per_mac() as f64 * dims.macs(mode) as f64 * b.count() as f64,
        )
    });
    let plan = cache::cached_tri_plan::<E, O>(dims, mode, conj, b.count(), cfg)?;
    plan.execute_with(plan.use_parallel(), alpha, a, b)
}

/// Convenience: GEMM on standard column-major batches, converting to the
/// compact layout and back around the computation (the MKL-compact usage
/// pattern: pack once, run many compact operations, unpack once — calling
/// this per operation pays the conversion every time and is intended for
/// ease of adoption, not peak performance).
pub fn std_gemm_via_compact<E: CompactElement>(
    mode: GemmMode,
    alpha: E,
    a: &StdBatch<E>,
    b: &StdBatch<E>,
    beta: E,
    c: &mut StdBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    iatf_obs::count_fallback();
    let ca = CompactBatch::from_std(a);
    let cb = CompactBatch::from_std(b);
    let mut cc = CompactBatch::from_std(c);
    compact_gemm(mode, alpha, &ca, &cb, beta, &mut cc, cfg)?;
    cc.unpack_into(c);
    Ok(())
}

/// Convenience: TRSM on standard column-major batches (see
/// [`std_gemm_via_compact`] for the conversion caveat).
pub fn std_trsm_via_compact<E: CompactElement>(
    mode: TrsmMode,
    alpha: E,
    a: &StdBatch<E>,
    b: &mut StdBatch<E>,
    cfg: &TuningConfig,
) -> Result<(), LayoutError> {
    iatf_obs::count_fallback();
    let ca = CompactBatch::from_std(a);
    let mut cb = CompactBatch::from_std(b);
    compact_trsm(mode, alpha, &ca, &mut cb, cfg)?;
    cb.unpack_into(b);
    Ok(())
}
