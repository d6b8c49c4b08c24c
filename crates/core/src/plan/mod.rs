//! The run-time stage (paper §5).
//!
//! Planning turns input matrix properties into an execution plan:
//!
//! 1. **Batch Counter** ([`group_packs`]) — how many packs of `P` matrices
//!    are packed and computed per super-block, sized to the L1 budget.
//! 2. **Pack Selecter** — whether each operand is packed or streamed
//!    in place (the no-pack strategy, the default wherever the kernels can
//!    address the source), folded into the plan structs.
//! 3. **Execution Plan Generator** — the tile/panel decomposition, kernel
//!    selection, and the command queue binding everything together.
//!
//! Two plan types serve the three routines: [`GemmPlan`] and the triangular
//! [`TriPlan`](tri::TriPlan), whose op parameter makes it [`TrsmPlan`] or
//! [`TrmmPlan`]. Both run through one super-block loop
//! (`superblocks`), serial or parallel.
//!
//! Plans are immutable once built and reusable across executions with the
//! same shapes — the paper's point that "it only generates this execution
//! plan at the beginning", amortizing run-time overhead over the group.

pub mod cache;
pub(crate) mod explain;
pub mod gemm;
pub mod tri;

pub use cache::PlanCacheStats;
pub use gemm::GemmPlan;
pub use tri::{TriPlan, TrmmPlan, TrsmPlan};

use crate::config::BatchPolicy;
use crate::elem::CompactElement;
use iatf_layout::{CompactBatch, LayoutError};
use iatf_pack::{arena, PackBuffer};
use iatf_simd::{Real, VecWidth};

/// Greedy 1-D tile decomposition: `(start, len)` chunks of at most `step`.
/// Shared by every planner's M/N/panel tiling.
pub(crate) fn tiles(len: usize, step: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut i = 0;
    while i < len {
        let h = step.min(len - i);
        out.push((i, h));
        i += h;
    }
    out
}

/// The Batch Counter (paper §5.1): packs per super-block such that the
/// packed working set stays within the L1 budget. At least one pack is
/// always processed (a single small-matrix pack fits L1 by the paper's
/// problem statement).
pub fn group_packs(
    policy: BatchPolicy,
    budget_bytes: usize,
    bytes_per_pack: usize,
    total_packs: usize,
) -> usize {
    let g = match policy {
        BatchPolicy::Fixed(g) => g,
        BatchPolicy::Auto => budget_bytes
            .checked_div(bytes_per_pack)
            .unwrap_or(total_packs),
    };
    g.clamp(1, total_packs.max(1))
}

/// The super-block loop behind every `execute` / `execute_parallel`:
/// splits the output's scalar storage `out` into super-blocks of `gp`
/// packs (pack stride `ps`) and calls `body(chunk, first_pack, packs,
/// scratch)` on each — in order on this thread, or with `PARALLEL` across
/// the rayon pool (the paper's multicore future-work extension).
/// Parallelism is between super-blocks, never within one, so each task
/// keeps the Batch Counter's L1 sizing and runs the same body over the same
/// disjoint chunk as the serial loop: the result is bit-identical. With
/// `scratch`, each thread leases its buffer from the thread-local
/// [`arena`]; without, no lease is taken and `body` gets an empty buffer.
#[inline(always)]
pub(crate) fn superblocks<const PARALLEL: bool, R: Real, F>(
    out: &mut [R],
    ps: usize,
    gp: usize,
    scratch: bool,
    body: F,
) where
    F: Fn(&mut [R], usize, usize, &mut PackBuffer<R>) + Send + Sync,
{
    #[cfg(feature = "parallel")]
    if PARALLEL {
        use rayon::prelude::*;
        out.par_chunks_mut(ps * gp).enumerate().for_each_init(
            || (scratch.then(arena::lease::<R>), PackBuffer::new()),
            |(lease, unused), (sb_idx, chunk)| {
                let buf = lease.as_mut().map_or(unused, |l| l.buffer());
                body(chunk, sb_idx * gp, chunk.len() / ps, buf);
            },
        );
        return;
    }
    // A plain loop, not the closure above: sharing one per-chunk closure
    // with the parallel twin measured 5–7 % slower on warm GEMM.
    let mut lease = scratch.then(arena::lease::<R>);
    let mut unused = PackBuffer::new();
    for (sb_idx, chunk) in out.chunks_mut(ps * gp).enumerate() {
        let buf = lease.as_mut().map_or(&mut unused, |l| l.buffer());
        body(chunk, sb_idx * gp, chunk.len() / ps, buf);
    }
}

/// Checks one operand batch against the planned width, shape and count,
/// naming the operand in the error.
pub(crate) fn check_shape<E: CompactElement>(
    operand: &'static str,
    batch: &CompactBatch<E>,
    rows: usize,
    cols: usize,
    count: usize,
    width: VecWidth,
) -> Result<(), LayoutError> {
    if batch.width() != width {
        return Err(LayoutError::WidthMismatch {
            operand,
            expected: width,
            got: batch.width(),
        });
    }
    if (batch.rows(), batch.cols()) != (rows, cols) {
        return Err(LayoutError::ShapeMismatch {
            operand,
            expected: (rows, cols),
            got: (batch.rows(), batch.cols()),
        });
    }
    if batch.count() != count {
        return Err(LayoutError::BatchMismatch {
            operand,
            expected: count,
            got: batch.count(),
        });
    }
    Ok(())
}

/// One step of a rendered execution plan — the "command queue" view the
/// paper describes. Execution itself runs the equivalent structured loops;
/// the rendered queue exists for introspection and plan-invariant tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Pack operand A of one pack into the panel buffer.
    PackA {
        /// Pack index.
        pack: usize,
    },
    /// Pack operand B of one pack into the panel buffer.
    PackB {
        /// Pack index.
        pack: usize,
    },
    /// Run a GEMM microkernel on one C tile.
    Gemm {
        /// Pack index.
        pack: usize,
        /// Tile top row.
        i0: usize,
        /// Tile left column.
        j0: usize,
        /// Kernel rows.
        mr: usize,
        /// Kernel columns.
        nr: usize,
    },
    /// Pack one B column panel of a triangular op.
    PackPanel {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// Panel width.
        w: usize,
    },
    /// Run one fused TRSM / TRMM block kernel.
    TriBlock {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// First canonical row of the block.
        r0: usize,
        /// Block height.
        mb: usize,
        /// Rows eliminated by the rectangular phase.
        kk: usize,
    },
    /// Scatter a solved or multiplied panel back into B.
    UnpackPanel {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// Panel width.
        w: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counter_clamps() {
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 1024, 100), 32);
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 1 << 20, 100), 1);
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 16, 3), 3);
        assert_eq!(group_packs(BatchPolicy::Fixed(8), 0, 0, 100), 8);
        assert_eq!(group_packs(BatchPolicy::Fixed(800), 0, 0, 10), 10);
        assert_eq!(group_packs(BatchPolicy::Fixed(0), 0, 0, 10), 1);
    }
}
