//! Sums collected by the traced run, one field per thing measured at a
//! layer boundary. Ratios are formed once, when the metrics are printed,
//! so every cell weighs the same whatever order it was profiled in.

/// Accumulator for per-cell profile passes. Times are nanoseconds per
/// `execute` (or per build, per byte, … as named), summed over cells.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc {
    /// Σ library calls per round.
    pub calls: f64,
    /// Σ `Plan::execute` time per round.
    pub execute_ns: f64,
    /// Σ pack replay time per round.
    pub pack_ns: f64,
    /// Σ kernel replay time per round.
    pub kernel_ns: f64,
    /// Σ `Plan::new` time, and plans built.
    pub build_ns: f64,
    /// Plans behind the cells (a triangular cell holds two).
    pub plans: u64,
    /// Σ packs per super-block over those plans.
    pub group_packs: f64,

    /// GEMM pack replay: time and bytes written.
    pub pack_gemm_ns: f64,
    /// Bytes the GEMM pack replay wrote.
    pub pack_gemm_bytes: f64,
    /// Triangular pack replay (triangle, B panel in and out).
    pub pack_tri_ns: f64,
    /// Bytes the triangular pack replay wrote.
    pub pack_tri_bytes: f64,
    /// Σ `explain().predicted_packed_bytes` per round.
    pub packed_bytes: f64,
    /// Operands the plans touch, and how many of them are streamed unpacked.
    pub operands: u64,
    /// Operands streamed straight from the compact layout.
    pub operands_direct: u64,

    /// GEMM kernel replay: flops done and `ref.fma` units taken.
    pub kernel_gemm_flops: f64,
    /// `ref.fma` units the GEMM kernel replay took, times flops per unit.
    pub kernel_gemm_peak_flops: f64,
    /// Triangular kernel replay flops.
    pub kernel_tri_flops: f64,
    /// Peak flops in the time the triangular kernel replay took.
    pub kernel_tri_peak_flops: f64,
    /// Main-tile replay: time and flops.
    pub main_ns: f64,
    /// Flops of the main-tile replay.
    pub main_flops: f64,
    /// Edge-tile replay: time and flops.
    pub edge_ns: f64,
    /// Flops of the edge-tile replay.
    pub edge_flops: f64,

    /// Σ computed flops per round.
    pub flops: f64,
    /// Σ computed operand bytes per round (each operand once; C twice).
    pub bytes: f64,

    /// Per-cell `blasloop` time ÷ library time.
    pub loop_speedups: Vec<f64>,

    /// `from_std_at`: time and elements converted.
    pub from_std_ns: f64,
    /// Elements `from_std_at` converted.
    pub from_std_elems: f64,
    /// `unpack_into`: time and elements converted.
    pub unpack_ns: f64,
    /// Elements `unpack_into` converted.
    pub unpack_elems: f64,
    /// Bytes the conversions read and wrote.
    pub layout_bytes: f64,
    /// Σ time of one application step and of its conversions.
    pub step_ns: f64,
    /// Conversion part of `step_ns`.
    pub step_layout_ns: f64,
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(LayerAcc::default().plans, 0);
    }
}
