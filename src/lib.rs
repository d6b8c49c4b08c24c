//! # IATF — Input-Aware Tuning Framework for compact batched BLAS
//!
//! Facade crate re-exporting the public API of the workspace: high-
//! performance GEMM and TRSM over large groups of fixed-size small
//! matrices, using the SIMD-friendly compact data layout (a reproduction of
//! Wei et al., *IATF*, ICPP 2022).
//!
//! ```
//! use iatf::prelude::*;
//!
//! // 1,000 independent 6×6 double-precision multiplications.
//! let a = CompactBatch::from_std(&StdBatch::<f64>::random(6, 6, 1000, 1));
//! let b = CompactBatch::from_std(&StdBatch::<f64>::random(6, 6, 1000, 2));
//! let mut c = CompactBatch::<f64>::zeroed(6, 6, 1000);
//! compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &TuningConfig::host()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iatf_core as core;
pub use iatf_core::obs;
pub use iatf_core::trace;
pub use iatf_core::watch;
pub use iatf_core::journal;
pub use iatf_layout as layout;
pub use iatf_simd as simd;

pub use iatf_core::{
    compact_gemm, compact_gemm_ex, compact_trmm, compact_trmm_ex, compact_trsm, compact_trsm_ex,
    std_gemm_via_compact, std_trsm_via_compact, BatchPolicy, CompactElement, GemmPlan, PackPolicy,
    PlanCacheStats, TrmmPlan, TrsmPlan, TunePolicy, TuningConfig,
};
pub use iatf_tune::{Provenance, TunedEntry, TuningDb};
pub use iatf_layout::{
    CompactBatch, Diag, GemmDims, GemmMode, LayoutError, Side, StdBatch, Trans, TrsmDims,
    TrsmMode, Uplo,
};
pub use iatf_simd::{c32, c64, Complex, DType, Element};

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::{
        c32, c64, compact_gemm, compact_trmm, compact_trsm, CompactBatch, Complex, DType, Diag,
        Element, GemmDims, GemmMode, GemmPlan, Side, StdBatch, Trans, TrmmPlan,
        TrsmDims, TrsmMode, TrsmPlan, TunePolicy, TuningConfig, Uplo,
    };
}
