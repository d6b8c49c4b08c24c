//! Per-microarchitecture kernel registry.
//!
//! One row per (µarch, vector width) combination compiled into this build:
//! the lane counts that become the interleaving factor `P`, the k-loop
//! blocking depth the microkernels unroll to, whether the ping-pong
//! two-deep software pipeline is worth running there, and whether the
//! packers should issue software prefetch. The registry is the single
//! place this knowledge lives: the Batch Counter and Pack Selecter read
//! lane counts and prefetch policy from here, and the plan builders stamp
//! the row into their explain output.
//!
//! Rows describe *compiled-in* capability; [`rows`] filters them down to
//! what the running host can actually execute (via
//! [`iatf_simd::available_widths`]), and [`dispatched_row`] is the row the
//! process-wide width dispatch selected. A row handed out by [`rows`] or
//! [`dispatched_row`] is therefore always safe to execute through
//! [`KernelScalar::tables`](crate::table::KernelScalar::tables).

use iatf_simd::{available_widths, dispatched_width, VecWidth};

/// One registry row: everything the planning layers need to know about
/// running the kernel set at one width on one microarchitecture.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct KernelRegistryRow {
    /// Microarchitecture tag, e.g. `"x86_64-avx2"`. Stable across runs on
    /// the same build+host; recorded in benchmark metadata so baselines
    /// from a different µarch/width are detected instead of misread.
    pub uarch: &'static str,
    /// The vector width this row describes.
    pub width: VecWidth,
    /// `f32` lanes per vector — the interleaving factor `P` for `f32`/`c32`.
    pub lanes_f32: usize,
    /// `f64` lanes per vector — the interleaving factor `P` for `f64`/`c64`.
    pub lanes_f64: usize,
    /// k-loop blocking depth the microkernels are scheduled around. The
    /// pipelined kernels rotate two register sets, so the effective unroll
    /// is `2·kblock`; the scalar row runs the straight-line body.
    pub kblock: usize,
    /// Whether the ping-pong two-deep software pipeline is active at this
    /// width (the scalar reference row runs the no-pipeline bodies, so its
    /// flag is honest about what executes).
    pub pipeline: bool,
    /// Whether packing routines should issue software prefetch for the
    /// next panel. Wider vectors consume panels faster, so prefetch stays
    /// on everywhere except the scalar reference row.
    pub prefetch: bool,
}

/// µarch tag for the portable scalar reference backend.
pub const UARCH_SCALAR: &str = "portable-scalar";
/// µarch tag for the 128-bit backend on x86_64 (SSE2 baseline).
#[cfg(target_arch = "x86_64")]
pub const UARCH_W128: &str = "x86_64-sse2";
/// µarch tag for the 128-bit backend on aarch64 (NEON — the paper's
/// Kunpeng 920 configuration).
#[cfg(target_arch = "aarch64")]
pub const UARCH_W128: &str = "armv8-neon";
/// µarch tag for the 128-bit-equivalent scalar fallback on other arches.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub const UARCH_W128: &str = "portable-scalar";

/// Every row compiled into this build, narrowest first. Entries beyond
/// `W128` exist only on `x86_64`, matching the backends in `iatf-simd`.
pub const COMPILED_ROWS: &[KernelRegistryRow] = &[
    KernelRegistryRow {
        uarch: UARCH_SCALAR,
        width: VecWidth::Scalar,
        lanes_f32: 4,
        lanes_f64: 2,
        kblock: 1,
        pipeline: false,
        prefetch: false,
    },
    KernelRegistryRow {
        uarch: UARCH_W128,
        width: VecWidth::W128,
        lanes_f32: 4,
        lanes_f64: 2,
        kblock: 2,
        pipeline: true,
        prefetch: true,
    },
    #[cfg(target_arch = "x86_64")]
    KernelRegistryRow {
        uarch: "x86_64-avx2",
        width: VecWidth::W256,
        lanes_f32: 8,
        lanes_f64: 4,
        kblock: 2,
        pipeline: true,
        prefetch: true,
    },
    #[cfg(target_arch = "x86_64")]
    KernelRegistryRow {
        uarch: "x86_64-avx512",
        width: VecWidth::W512,
        lanes_f32: 16,
        lanes_f64: 8,
        kblock: 2,
        pipeline: true,
        prefetch: true,
    },
];

/// The registry rows the running host can execute, narrowest first.
/// Always contains the `Scalar` and `W128` rows.
pub fn rows() -> impl Iterator<Item = &'static KernelRegistryRow> {
    available_widths()
        .iter()
        .filter_map(|w| COMPILED_ROWS.iter().find(|r| r.width == *w))
}

/// The compiled-in row for `width`, independent of host capability.
/// Widths with no compiled backend (256/512-bit off `x86_64`) fall back to
/// the `W128` row, mirroring
/// [`KernelScalar::tables`](crate::table::KernelScalar::tables).
pub fn row_for(width: VecWidth) -> &'static KernelRegistryRow {
    COMPILED_ROWS
        .iter()
        .find(|r| r.width == width)
        .unwrap_or_else(|| {
            COMPILED_ROWS
                .iter()
                .find(|r| r.width == VecWidth::W128)
                .expect("W128 row is always compiled in")
        })
}

/// The registry row for the width the process-wide dispatch selected
/// (widest available, unless `IATF_FORCE_WIDTH` narrowed it).
pub fn dispatched_row() -> &'static KernelRegistryRow {
    row_for(dispatched_width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_simd::{width_available, DType};

    #[test]
    fn compiled_rows_are_sorted_and_unique() {
        for pair in COMPILED_ROWS.windows(2) {
            assert!(pair[0].width.bits() < pair[1].width.bits());
        }
    }

    #[test]
    fn lane_counts_match_width() {
        for row in COMPILED_ROWS {
            assert_eq!(row.lanes_f32, DType::F32.p_at(row.width), "{}", row.uarch);
            assert_eq!(row.lanes_f64, DType::F64.p_at(row.width), "{}", row.uarch);
        }
    }

    #[test]
    fn available_rows_are_executable() {
        let mut n = 0;
        for row in rows() {
            assert!(width_available(row.width), "{}", row.uarch);
            n += 1;
        }
        assert!(n >= 2, "Scalar and W128 rows must always be present");
    }

    #[test]
    fn dispatched_row_matches_dispatched_width() {
        assert_eq!(dispatched_row().width, dispatched_width());
    }

    #[test]
    fn fallback_rows_for_uncompiled_widths() {
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert_eq!(row_for(VecWidth::W256).width, VecWidth::W128);
            assert_eq!(row_for(VecWidth::W512).width, VecWidth::W128);
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(row_for(VecWidth::W256).lanes_f32, 8);
            assert_eq!(row_for(VecWidth::W512).lanes_f64, 8);
        }
        assert_eq!(row_for(VecWidth::Scalar).uarch, UARCH_SCALAR);
    }
}
