//! Data layouts for compact batched BLAS.
//!
//! Two batch containers, mirroring the paper's setting:
//!
//! * [`StdBatch`] — a group of column-major matrices stored back to back.
//!   This is what conventional BLAS libraries (and our baselines) consume.
//! * [`CompactBatch`] — the *SIMD-friendly data layout* (paper §4.1,
//!   following Kim et al. / Intel MKL compact): the same element `(i, j)` of
//!   `P` consecutive matrices is interleaved into one SIMD-vector-sized
//!   group, with zero padding when the group count is not a multiple of `P`.
//!   One 128-bit FMA then advances `P` matrices at once.
//!
//! Conversion in both directions is provided (the MKL compact interface's
//! `pack`/`unpack` equivalents), along with the BLAS matrix property types
//! the run-time stage keys its decisions on (paper: *Matrix Size,
//! Transposed/Non-Transposed, Left/Right, Lower/Upper, Unit/NonUnit*).
//! Compact storage is an [`AlignedVec`]: every batch starts on a 64-byte
//! cache line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligned;
pub mod compact;
pub mod dims;
pub mod props;
pub mod rng;
pub mod std_batch;

pub use aligned::{AlignedVec, LINE_BYTES};
pub use compact::CompactBatch;
pub use dims::{GemmDims, LayoutError, TrsmDims};
pub use props::{Diag, GemmMode, Side, Trans, TrsmMode, Uplo};
pub use rng::SplitMix64;
pub use std_batch::StdBatch;
