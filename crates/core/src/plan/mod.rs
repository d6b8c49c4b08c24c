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
//! Plans are immutable once built and reusable across executions with the
//! same shapes — the paper's point that "it only generates this execution
//! plan at the beginning", amortizing run-time overhead over the group.

pub mod cache;
pub(crate) mod explain;
pub mod gemm;
pub(crate) mod tri;
pub mod trmm;
pub mod trsm;

pub use cache::PlanCacheStats;
pub use gemm::GemmPlan;
pub use trmm::TrmmPlan;
pub use trsm::TrsmPlan;

use crate::config::BatchPolicy;

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
    /// Pack one B column panel for TRSM (α applied here).
    PackPanel {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// Panel width.
        w: usize,
    },
    /// Run one fused TRSM block kernel.
    TrsmBlock {
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
    /// Scatter a solved panel back into B.
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
