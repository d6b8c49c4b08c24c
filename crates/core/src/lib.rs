//! # IATF — Input-Aware Tuning Framework for compact batched BLAS
//!
//! A reproduction of *"IATF: An Input-Aware Tuning Framework for Compact
//! BLAS Based on ARMv8 CPUs"* (ICPP 2022): high-performance GEMM and TRSM
//! over large groups of fixed-size small matrices stored in the
//! SIMD-friendly compact layout.
//!
//! ## Architecture
//!
//! * **Install-time stage** — the generated kernel set lives in
//!   `iatf-kernels` (Table 1 sizes, ping-pong pipelined), the packing
//!   kernels in `iatf-pack`, and the assembly-generation model (templates,
//!   scheduling optimizer, pipeline model) in `iatf-codegen`. The
//!   [`analysis`] module derives the CMAR-optimal kernel sizes (Eqs. 2–3).
//! * **Run-time stage** — [`plan::GemmPlan`] and [`plan::TriPlan`]
//!   (TRSM/TRMM) implement the Batch Counter, Pack Selecter, and Execution
//!   Plan Generator (§5), keyed on the input matrix properties (size,
//!   transpose, side, uplo, diag) and the machine's L1 capacity.
//!
//! ## Quick start
//!
//! ```
//! use iatf_core::{compact_gemm, TuningConfig};
//! use iatf_layout::{CompactBatch, GemmMode, StdBatch};
//!
//! // 10,000 independent 8×8 sgemm problems.
//! let a = CompactBatch::from_std(&StdBatch::<f32>::random(8, 8, 10_000, 1));
//! let b = CompactBatch::from_std(&StdBatch::<f32>::random(8, 8, 10_000, 2));
//! let mut c = CompactBatch::<f32>::zeroed(8, 8, 10_000);
//! compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &TuningConfig::host()).unwrap();
//! ```

#![warn(missing_docs)]
// planner loops index tile tables; BLAS-style entry points are wide
#![allow(clippy::needless_range_loop, clippy::too_many_arguments, clippy::manual_is_multiple_of)]

pub mod analysis;
pub mod api;
pub mod autotune;
pub mod config;
pub mod elem;
pub mod machine;
pub mod plan;
pub(crate) mod sync;

/// Observability layer: plan explainers are always live; the counters and
/// phase timers wired through the planner/executor become real (atomic,
/// monotonic-clocked) only with the `obs` cargo feature — otherwise every
/// probe is an empty `#[inline(always)]` body.
pub use iatf_obs as obs;

/// Re-export of the flight-recorder / PMU / roofline instrumentation layer,
/// so downstream users can drain and export traces without naming the crate.
/// The span probes wired through the planner/executor record only with the
/// `trace` cargo feature — otherwise every guard is a zero-sized no-op.
pub use iatf_trace as trace;

/// Re-export of the always-on monitoring layer, `iatf-watch`: per
/// shape-class dispatch telemetry, performance envelopes, drift
/// detection, and retune remediation. The dispatch probes wired through
/// the one-shot API record only with the `watch` cargo feature —
/// otherwise the guard is a zero-sized no-op and the retune poll is a
/// constant `false`.
pub use iatf_watch as watch;

/// Re-export of the provenance journal, `iatf-journal`: the causal event
/// ledger linking plan builds, cache activity, autotune sweeps, recorded
/// winners, envelope seeds, drift events, and retune outcomes. The probe
/// sites wired through the planner cache, autotuner, and watch layer
/// publish only with the `journal` cargo feature — otherwise `publish()`
/// is a constant 0 and payload construction is skipped entirely.
pub use iatf_journal as journal;

pub use analysis::{cmar_complex, cmar_real, optimal_complex_kernel, optimal_real_kernel};
pub use api::{
    compact_gemm, compact_gemm_ex, compact_trmm, compact_trmm_ex, compact_trsm, compact_trsm_ex,
    std_gemm_via_compact, std_trsm_via_compact,
};
pub use autotune::{
    ensure_tuned_gemm, ensure_tuned_trmm, ensure_tuned_trsm, gemm_tune_key, maybe_retune_gemm,
    maybe_retune_trmm, maybe_retune_trsm, trmm_tune_key, trsm_tune_key,
};
pub use config::{BatchPolicy, PackPolicy, TunePolicy, TuningConfig};
pub use elem::CompactElement;
pub use machine::{host_profile, MachineProfile, KUNPENG_920, XEON_6240};
pub use plan::{Command, GemmPlan, PlanCacheStats, TrmmPlan, TrsmPlan};
