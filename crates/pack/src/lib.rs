//! Data packing kernels (paper §4.4).
//!
//! Packing serves one purpose in IATF: make the computing kernel's memory
//! accesses contiguous. Under the compact layout the unit of copying is an
//! *element group* (one or two SIMD vectors), so every copy is at least a
//! vector wide — the paper's "use the memcpy function to minimize the
//! overhead caused by data packing".
//!
//! Beyond contiguity, the packing kernels are where *all* input modes are
//! normalized (paper §5.2: "It matches appropriate data packing kernels for
//! different modes to pack matrices into the same order, so that only one
//! computational kernel is needed to handle all modes"):
//!
//! * GEMM: transpose (and conjugation) are folded into the gather order —
//!   the kernels always see an `m_r`-sliver A panel and an `n_r`-sliver B
//!   panel ([`gemm`]).
//! * TRSM: side, uplo, transpose and diagonal kind are folded into an index
//!   map ([`trsm::TrsmIndexMap`]) such that the computing kernel always
//!   solves *left–lower–non-transposed* systems; diagonal entries are stored
//!   as reciprocals so the kernel never divides ([`trsm`]).
//!
//! The *no-pack* strategy (§4.4) is pure stride geometry and lives here
//! beside the packers: [`gemm::DirectAccess`] for GEMM operands,
//! [`trsm::InPlaceAccess`] for the canonical B̂ panels and Â strips of every
//! triangular mode. Because the compute kernels take runtime (signed)
//! strides, any non-conjugated operand can be streamed straight out of the
//! compact layout; the run-time stage's Pack Selecter does so by default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod arena;
pub mod buffer;
pub mod gemm;
pub mod trsm;

pub use arena::ArenaLease;
pub use buffer::PackBuffer;
