//! The five workloads. A workload's cell list is fixed by its definition
//! here; the seed drives only matrix values and visit order, so two seeds
//! measure the same mixture.

use crate::cells::{Cell, ChainCell, GemmCell, TriCell};
use crate::firsttouch::FirstTouch;
use crate::gen::Rng;
use crate::refk::{Isa, RefKind};
use crate::timeline::{CellWorkload, Visiting, Workload};
use iatf_core::{host_profile, TuningConfig};
use iatf_layout::{Diag, GemmDims, GemmMode, Side, Trans, TrsmDims, TrsmMode, Uplo};
use iatf_simd::{c32, c64, DType};

/// Name and reason of every workload, in the order `--workload all` runs
/// them. The reasons are repeated in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "gemm_resident",
        "warm GEMM over L2-resident batches (paper Fig. 7/8): kernels and pack do the work, dispatch is negligible",
    ),
    (
        "tri_resident",
        "warm TRSM/TRMM pairs over L2-resident batches (Fig. 9/10): triangle pack, B-panel pack and unpack, FMLS kernels",
    ),
    (
        "small_calls",
        "64 tiny L1-resident shapes in seeded order: dispatch, plan cache and arena lease are a large share of a call",
    ),
    (
        "first_touch",
        "stream of never-seen keys under FirstTouch(10): sweep, db record and cold plan build dominate",
    ),
    (
        "std_chain",
        "block Gauss-Seidel step from standard layout beyond L2: layout conversion carries real weight, bandwidth-leaning",
    ),
];

/// The five triangular modes the resident and small workloads cycle
/// through (side, trans, uplo), each met with unit and non-unit diagonals.
const TRI_MODES: [(Side, Trans, Uplo); 5] = [
    (Side::Left, Trans::No, Uplo::Lower),
    (Side::Left, Trans::No, Uplo::Upper),
    (Side::Left, Trans::Yes, Uplo::Lower),
    (Side::Right, Trans::No, Uplo::Lower),
    (Side::Right, Trans::Yes, Uplo::Upper),
];

fn tri_mode(i: usize, unit: bool) -> TrsmMode {
    let (side, trans, uplo) = TRI_MODES[i % TRI_MODES.len()];
    TrsmMode::new(
        side,
        trans,
        uplo,
        if unit { Diag::Unit } else { Diag::NonUnit },
    )
}

const DTYPES: [DType; 4] = [DType::F64, DType::F32, DType::C64, DType::C32];

fn gemm_cell(
    dtype: DType,
    dims: GemmDims,
    mode: GemmMode,
    count: usize,
    cfg: &TuningConfig,
    rng: &mut Rng,
) -> Box<dyn Cell> {
    match dtype {
        DType::F32 => Box::new(GemmCell::<f32>::new(dims, mode, count, cfg, rng)),
        DType::F64 => Box::new(GemmCell::<f64>::new(dims, mode, count, cfg, rng)),
        DType::C32 => Box::new(GemmCell::<c32>::new(dims, mode, count, cfg, rng)),
        DType::C64 => Box::new(GemmCell::<c64>::new(dims, mode, count, cfg, rng)),
    }
}

fn tri_cell(
    dtype: DType,
    dims: TrsmDims,
    mode: TrsmMode,
    count: usize,
    cfg: &TuningConfig,
    rng: &mut Rng,
) -> Box<dyn Cell> {
    match dtype {
        DType::F32 => Box::new(TriCell::<f32>::new(dims, mode, count, cfg, rng)),
        DType::F64 => Box::new(TriCell::<f64>::new(dims, mode, count, cfg, rng)),
        DType::C32 => Box::new(TriCell::<c32>::new(dims, mode, count, cfg, rng)),
        DType::C64 => Box::new(TriCell::<c64>::new(dims, mode, count, cfg, rng)),
    }
}

/// Matrices per call so that the operands fill about `bytes`, a whole
/// number of packs.
fn count_for(bytes: usize, per_matrix: usize, p: usize) -> usize {
    ((bytes / per_matrix.max(1)) / p).max(1) * p
}

fn gemm_resident(seed: u64, isa: Isa) -> Box<dyn Workload> {
    let cfg = TuningConfig::host();
    // beyond L1, inside L2
    let target = host_profile().l2_bytes / 4;
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    let mut add = |dtype: DType, dims: GemmDims, mode: GemmMode, ragged: bool| {
        let per = (dims.m * dims.k + dims.k * dims.n + dims.m * dims.n) * dtype.elem_bytes();
        let count = count_for(target, per, dtype.p_at(cfg.width)) + usize::from(ragged);
        let rng = &mut Rng::new(seed, 0x100 + cells.len() as u64);
        cells.push(gemm_cell(dtype, dims, mode, count, &cfg, rng));
    };
    // a Latin square: every dtype meets every mode, every size meets every mode
    for (di, &dtype) in DTYPES.iter().enumerate() {
        for (si, n) in [4, 8, 16, 32].into_iter().enumerate() {
            add(
                dtype,
                GemmDims::square(n),
                GemmMode::ALL[(di + si) % 4],
                false,
            );
        }
    }
    // rectangular shapes with edge tiles, and one count ≡ 1 (mod P)
    add(DType::F64, GemmDims::new(12, 4, 12), GemmMode::NN, false);
    add(DType::F32, GemmDims::new(5, 5, 5), GemmMode::TN, false);
    add(DType::C64, GemmDims::new(7, 3, 9), GemmMode::NT, false);
    add(DType::F64, GemmDims::square(8), GemmMode::NN, true);
    Box::new(CellWorkload::new(
        "gemm_resident",
        RefKind::Fma,
        Visiting::OneCellPerSlot,
        true,
        isa,
        cells,
        seed,
    ))
}

fn tri_resident(seed: u64, isa: Isa) -> Box<dyn Workload> {
    let cfg = TuningConfig::host();
    let target = host_profile().l2_bytes / 4;
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    // 4 and 5 are register-resident triangles (M ≤ 5); the rest are blocked
    for (si, n) in [4, 5, 8, 12, 16, 32].into_iter().enumerate() {
        for k in 0..3 {
            let i = si * 3 + k;
            let dtype = DTYPES[i % 4];
            let per = 2 * n * n * dtype.elem_bytes();
            let count = count_for(target, per, dtype.p_at(cfg.width));
            let rng = &mut Rng::new(seed, 0x200 + i as u64);
            cells.push(tri_cell(
                dtype,
                TrsmDims::square(n),
                tri_mode(i, i % 2 == 1),
                count,
                &cfg,
                rng,
            ));
        }
    }
    Box::new(CellWorkload::new(
        "tri_resident",
        RefKind::Fma,
        Visiting::OneCellPerSlot,
        true,
        isa,
        cells,
        seed,
    ))
}

fn small_calls(seed: u64, isa: Isa) -> Box<dyn Workload> {
    let cfg = TuningConfig::host();
    let shapes = [
        (1, 1, 1),
        (2, 2, 2),
        (3, 3, 3),
        (4, 4, 4),
        (5, 5, 5),
        (6, 6, 6),
        (8, 8, 8),
        (7, 3, 5),
    ];
    // (triangular?, dtype, mode offset): offsets keep same-dtype kinds on different modes
    let kinds = [
        (false, DType::F64, 0),
        (false, DType::F32, 1),
        (true, DType::F64, 0),
        (true, DType::F32, 1),
        (false, DType::C64, 2),
        (true, DType::C32, 3),
        (false, DType::F64, 2),
        (true, DType::F64, 2),
    ];
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for (si, &(m, n, k)) in shapes.iter().enumerate() {
        for (ki, &(tri, dtype, offset)) in kinds.iter().enumerate() {
            let p = dtype.p_at(cfg.width);
            // ragged counts around one pack expose whole-group padding
            let mut counts = vec![1, p.saturating_sub(1).max(1), p, p + 1, 8, 64];
            counts.sort_unstable();
            counts.dedup();
            let count = counts[(si + ki) % counts.len()];
            let rng = &mut Rng::new(seed, 0x300 + cells.len() as u64);
            let mode = si + offset;
            cells.push(if tri {
                tri_cell(
                    dtype,
                    TrsmDims::new(m, n),
                    tri_mode(mode, (si + ki) % 2 == 1),
                    count,
                    &cfg,
                    rng,
                )
            } else {
                gemm_cell(
                    dtype,
                    GemmDims::new(m, n, k),
                    GemmMode::ALL[mode % 4],
                    count,
                    &cfg,
                    rng,
                )
            });
        }
    }
    Box::new(CellWorkload::new(
        "small_calls",
        RefKind::Chain,
        Visiting::Mixed,
        false,
        isa,
        cells,
        seed,
    ))
}

fn std_chain(seed: u64, isa: Isa) -> Box<dyn Workload> {
    let cfg = TuningConfig::host();
    // each cell's step works on at least four times L2
    let target = 4 * host_profile().l2_bytes;
    let round_up = |bytes: usize, per: usize, p: usize| (bytes.div_ceil(per)).div_ceil(p) * p;
    let cells: Vec<Box<dyn Cell>> = vec![
        Box::new(ChainCell::<f64>::new(
            12,
            4,
            round_up(
                target,
                ChainCell::<f64>::bytes_per_system(12, 4),
                DType::F64.p_at(cfg.width),
            ),
            &cfg,
            &mut Rng::new(seed, 0x400),
        )),
        Box::new(ChainCell::<f32>::new(
            6,
            6,
            round_up(
                target,
                ChainCell::<f32>::bytes_per_system(6, 6),
                DType::F32.p_at(cfg.width),
            ),
            &cfg,
            &mut Rng::new(seed, 0x401),
        )),
    ];
    Box::new(CellWorkload::new(
        "std_chain",
        RefKind::Stream,
        Visiting::OneCellPerSlot,
        false,
        isa,
        cells,
        seed,
    ))
}

/// Builds a workload by name from a seed.
pub fn build(name: &str, seed: u64, isa: Isa) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gemm_resident" => gemm_resident(seed, isa),
        "tri_resident" => tri_resident(seed, isa),
        "small_calls" => small_calls(seed, isa),
        "first_touch" => Box::new(FirstTouch::new(seed, isa)),
        "std_chain" => std_chain(seed, isa),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_and_is_seeded() {
        let isa = Isa::for_width_bits(TuningConfig::host().width.bits());
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
            // std_chain allocates tens of MiB; its cells are covered in cells.rs
            if name == "std_chain" {
                continue;
            }
            let a = build(name, 11, isa).expect("listed workload").digest();
            let b = build(name, 11, isa).expect("listed workload").digest();
            let c = build(name, 12, isa).expect("listed workload").digest();
            assert_eq!(a, b, "{name}");
            assert_ne!(a, c, "{name}");
        }
        assert!(build("nope", 1, isa).is_none());
    }

    #[test]
    fn counts_are_whole_packs_of_about_the_target() {
        assert_eq!(count_for(1 << 20, 24 << 10, 8), 40);
        assert_eq!(count_for(100, 1000, 8), 8);
        assert_eq!(count_for(1 << 20, 192, 16) % 16, 0);
    }
}
