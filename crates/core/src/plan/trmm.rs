//! TRMM execution plans (extension: the paper's future-work "other BLAS
//! functions under the SIMD-friendly data layout").
//!
//! `B = α·op(A)·B` (left) / `B = α·B·op(A)` (right) with triangular A.
//! Mode canonicalization reuses the TRSM index maps verbatim — the algebra
//! is identical (`X·op(A) = (op(A)ᵀ·Xᵀ)ᵀ`, reversal turns effective-upper
//! into lower). The one structural difference: a canonical-lower *multiply*
//! consumes original rows at or **above** each row, so diagonal blocks are
//! processed **bottom-up** (TRSM solves top-down).

use crate::autotune;
use crate::config::TuningConfig;
use crate::elem::CompactElement;
use crate::plan::gemm::OperandPlan;
use crate::plan::tri::TriOperands;
use crate::plan::{explain as ex, group_packs, tiles};
use iatf_layout::{CompactBatch, LayoutError, TrsmDims, TrsmMode};
use iatf_simd::VecWidth;
use iatf_obs as obs;
use iatf_pack::trsm as pk;
use iatf_trace as trace;
use iatf_pack::{arena, PackBuffer};

/// A reusable execution plan for compact batched TRMM.
#[derive(Clone, Debug)]
pub struct TrmmPlan<E: CompactElement> {
    dims: TrsmDims,
    mode: TrsmMode,
    map: pk::TrsmIndexMap,
    count: usize,
    /// Vector width the plan was built for (from `cfg.width`).
    width: VecWidth,
    /// Interleaving factor at that width.
    p: usize,
    packs: usize,
    /// Packs per super-block (Batch Counter output).
    pub group_packs: usize,
    /// True under `PackPolicy::Always` or when the canonical mapping is not
    /// the identity on B — see [`TrsmPlan::pack_b_structural`](super::TrsmPlan);
    /// what this plan does is [`Self::b_plan`].
    pub pack_b_structural: bool,
    /// A access decision: `Direct` reads the strips and triangles in place
    /// and packs only the `t` diagonal groups.
    pub a_plan: OperandPlan,
    /// B access decision: `Direct` multiplies B in place, in every mode.
    pub b_plan: OperandPlan,
    blocks: Vec<(usize, usize)>,
    ops: TriOperands,
    panels: Vec<(usize, usize)>,
    /// Kernel handles resolved at build time, one per `(panel, block)`
    /// grid cell (row-major over `panels × blocks`), so the multiply loop
    /// does one indirect call per block with no table walk.
    block_kernels: Vec<E::TrmmK>,
    use_parallel: bool,
    _marker: core::marker::PhantomData<E>,
}

impl<E: CompactElement> TrmmPlan<E> {
    /// Builds a plan from the input matrix properties (B is `m × n`; A has
    /// the order of the selected side, exactly as in TRSM).
    pub fn new(
        dims: TrsmDims,
        mode: TrsmMode,
        conj: bool,
        count: usize,
        cfg: &TuningConfig,
    ) -> Result<Self, LayoutError> {
        let _span = obs::phase(obs::Phase::PlanBuild);
        let _trace = trace::span_arg(trace::SpanKind::PlanBuild, count as u64);
        dims.validate()?;
        if count == 0 {
            return Err(LayoutError::EmptyDimension("batch count"));
        }
        let width = cfg.width;
        let p = E::p_at(width);
        let map = pk::TrsmIndexMap::new(mode, conj, dims.m, dims.n);
        // TRMM has no register-capacity special case to exploit beyond the
        // block kernel size: block uniformly by the kernel height.
        let blocks = pk::block_decomposition(map.t, E::TRSM_TB, E::TRSM_TB);
        let panels = tiles(map.bn, E::TRSM_NR);
        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup_trmm::<E>(dims, mode, conj, count, cfg);
        let pack_policy = tuned.and_then(|t| t.pack).unwrap_or(cfg.pack);
        let ops = TriOperands::select::<E>(pack_policy, &map, p, &blocks, &panels);
        let g = p * E::SCALARS;
        let scalar_bytes = core::mem::size_of::<E::Real>();
        // same footprint whether the triangle is packed or read in place
        let bytes_per_pack = (map.t * (map.t + 1) / 2 + map.t * map.bn) * g * scalar_bytes;
        let packs = count.div_ceil(p);
        let gp = match tuned.and_then(|t| t.group_packs) {
            Some(tuned_gp) => tuned_gp.clamp(1, packs.max(1)),
            None => group_packs(cfg.batch, cfg.l1_budget_bytes(), bytes_per_pack, packs),
        };
        let block_kernels = panels
            .iter()
            .flat_map(|&(_, w)| {
                blocks
                    .iter()
                    .map(move |&(_, mb)| E::trmm_kernel_for(width, mb, w))
            })
            .collect();
        obs::count_plan_build(obs::Op::Trmm, count);
        Ok(Self {
            dims,
            mode,
            map,
            count,
            width,
            p,
            packs,
            group_packs: gp,
            pack_b_structural: ops.pack_b_structural,
            a_plan: ops.a_plan,
            b_plan: ops.b_plan,
            blocks,
            ops,
            panels,
            block_kernels,
            use_parallel: tuned.is_some_and(|t| t.parallel),
            _marker: core::marker::PhantomData,
        })
    }

    /// Problem dimensions.
    pub fn dims(&self) -> TrsmDims {
        self.dims
    }

    /// Mode.
    pub fn mode(&self) -> TrsmMode {
        self.mode
    }

    /// The diagonal-block decomposition (executed bottom-up).
    pub fn blocks(&self) -> &[(usize, usize)] {
        &self.blocks
    }

    /// Vector width the plan was built for.
    pub fn width(&self) -> VecWidth {
        self.width
    }

    /// Whether the tuned serial→parallel crossover picked parallel
    /// execution for this input (always `false` under pure heuristics).
    pub fn use_parallel(&self) -> bool {
        self.use_parallel
    }

    fn validate(&self, a: &CompactBatch<E>, b: &CompactBatch<E>) -> Result<(), LayoutError> {
        for (name, batch) in [("A", a), ("B", b)] {
            if batch.width() != self.width {
                return Err(LayoutError::WidthMismatch {
                    operand: name,
                    expected: self.width,
                    got: batch.width(),
                });
            }
        }
        let t = self.map.t;
        if (a.rows(), a.cols()) != (t, t) {
            return Err(LayoutError::ShapeMismatch {
                operand: "A",
                expected: (t, t),
                got: (a.rows(), a.cols()),
            });
        }
        if (b.rows(), b.cols()) != (self.dims.m, self.dims.n) {
            return Err(LayoutError::ShapeMismatch {
                operand: "B",
                expected: (self.dims.m, self.dims.n),
                got: (b.rows(), b.cols()),
            });
        }
        if a.count() != self.count || b.count() != self.count {
            return Err(LayoutError::BatchMismatch {
                operand: "A/B",
                expected: self.count,
                got: a.count().min(b.count()),
            });
        }
        Ok(())
    }

    /// Executes the plan: B is overwritten with `α·op(A)·B` (left) or
    /// `α·B·op(A)` (right).
    ///
    /// Scratch comes from the thread-local [`arena`], so repeated executes
    /// are allocation-free after the first call on a thread.
    pub fn execute(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.validate(a, b)?;
        obs::count_execute(obs::Op::Trmm);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let mut lease = arena::lease::<E::Real>();
        let bps = b.pack_stride();
        let gp = self.group_packs;
        for (sb_idx, b_chunk) in b.as_scalars_mut().chunks_mut(bps * gp).enumerate() {
            let sb_packs = b_chunk.len() / bps;
            self.run_superblock(
                alpha,
                a,
                b_chunk,
                bps,
                sb_idx * gp,
                sb_packs,
                lease.buffer(),
            );
        }
        Ok(())
    }

    /// Packs then multiplies one super-block of packs. `b_chunk` is the
    /// contiguous scalar storage of packs `sb..sb + sb_packs` (pack stride
    /// `bps`) — shared by the serial loop and the parallel executor, so
    /// both produce bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn run_superblock(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b_chunk: &mut [E::Real],
        bps: usize,
        sb: usize,
        sb_packs: usize,
        buf: &mut PackBuffer<E::Real>,
    ) {
        obs::count_superblock(obs::Op::Trmm, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let a_len = self.ops.a_len;
        let (buf_a, buf_panel) = buf.split_two(a_len * sb_packs, self.ops.panel_cap);
        for slot in 0..sb_packs {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, (sb + slot) as u64);
            let pack = sb + slot;
            let live = self.p.min(self.count - pack * self.p);
            // direct (non-reciprocal) diagonal for the multiply
            self.ops.pack_a::<E>(
                &mut buf_a[slot * a_len..(slot + 1) * a_len],
                a.pack_slice(pack),
                self.p,
                &self.map,
                live,
                false,
            );
            obs::count_packed_bytes_a(a_len * core::mem::size_of::<E::Real>());
        }
        for slot in 0..sb_packs {
            let ab = &buf_a[slot * a_len..(slot + 1) * a_len];
            let b_pack = &mut b_chunk[slot * bps..(slot + 1) * bps];
            self.multiply_pack(alpha, ab, a.pack_slice(sb + slot), buf_panel, b_pack);
        }
    }

    /// Multiplies one pack's B in place, given its packed A data `ab` and
    /// its stored A pack `a_pack`.
    fn multiply_pack(
        &self,
        alpha: E,
        ab: &[E::Real],
        a_pack: &[E::Real],
        buf_panel: &mut [E::Real],
        b_pack: &mut [E::Real],
    ) {
        let b_rows = self.dims.m;
        let pack_b = self.b_plan == OperandPlan::Packed;
        // strips and triangles come out of the packed buffer or the stored A
        let rect_src = match self.a_plan {
            OperandPlan::Packed => ab,
            OperandPlan::Direct => a_pack,
        };
        let block_count = self.blocks.len();
        for (pi, (&(j0, w), at)) in self.panels.iter().zip(&self.ops.panel).enumerate() {
            let len = pk::panel_b_len::<E>(self.p, self.map.t, w);
            let panel_src = if pack_b {
                let _span = obs::phase(obs::Phase::Scale);
                let _trace = trace::span_arg(trace::SpanKind::Scale, j0 as u64);
                pk::pack_b_panel::<E>(
                    &mut buf_panel[..len],
                    b_pack,
                    b_rows,
                    self.p,
                    &self.map,
                    j0,
                    w,
                    E::one(),
                );
                obs::count_packed_bytes_b(len * core::mem::size_of::<E::Real>());
                &mut *buf_panel
            } else {
                &mut *b_pack
            };
            // SAFETY: `at.base` is the panel's canonical (0, 0) inside `panel_src` — checked against its length, with the whole `t × w` extent, by `TriOperands::addresses_in_bounds` at plan build.
            let panel_ptr = unsafe { panel_src.as_mut_ptr().add(at.base) };
            {
                let _span = obs::phase(obs::Phase::Compute);
                let _trace = trace::span_arg(trace::SpanKind::Compute, j0 as u64);
                // bottom-up over diagonal blocks: rows above any
                // block stay original until that block consumes them
                let grid = self.ops.a_blocks.iter().zip(&self.ops.rect).enumerate();
                for (bi, (blk, rect)) in grid.rev() {
                    obs::count_dispatch(
                        obs::Op::Trmm,
                        blk.mb,
                        w,
                        blk.mb == E::TRSM_TB && w == E::TRSM_NR,
                    );
                    // SAFETY: identical operand coverage to the TRSM path — panel rows 0..t × w columns at `at`'s signed strides, the strip's `r0 + mb` columns (rectangle, then triangle) at `rect`'s, both inside their source slices (`TriOperands::addresses_in_bounds`), the block's `mb` packed diagonal groups at `tri_off` inside `ab`; the handle was resolved for this (block, panel) shape at build time.
                    unsafe {
                        E::trmm_kernel(
                            self.block_kernels[pi * block_count + bi],
                            blk.r0,
                            alpha,
                            rect_src.as_ptr().add(rect.base),
                            rect.row_stride(),
                            rect.col_stride(),
                            ab.as_ptr().add(blk.tri_off),
                            panel_ptr,
                            blk.r0,
                            at.row_stride(),
                            at.col_stride(),
                        );
                    }
                }
            }
            if pack_b {
                let _span = obs::phase(obs::Phase::Unpack);
                let _trace = trace::span_arg(trace::SpanKind::Unpack, j0 as u64);
                pk::unpack_b_panel::<E>(
                    &buf_panel[..len],
                    b_pack,
                    b_rows,
                    self.p,
                    &self.map,
                    j0,
                    w,
                );
            }
        }
    }

    /// Multi-threaded execution: *super-blocks* are distributed across the
    /// rayon pool, preserving the Batch Counter's L1 sizing per worker,
    /// with per-worker scratch leased from the thread-local [`arena`].
    /// Tasks run the same [`Self::run_superblock`] body over the same
    /// disjoint B chunks as the serial loop, so the result is bit-identical
    /// to [`Self::execute`].
    #[cfg(feature = "parallel")]
    pub fn execute_parallel(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        use rayon::prelude::*;
        self.validate(a, b)?;
        obs::count_execute(obs::Op::Trmm);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let gp = self.group_packs;
        let bps = b.pack_stride();
        b.as_scalars_mut()
            .par_chunks_mut(bps * gp)
            .enumerate()
            .for_each_init(arena::lease::<E::Real>, |lease, (sb_idx, b_chunk)| {
                let sb_packs = b_chunk.len() / bps;
                self.run_superblock(
                    alpha,
                    a,
                    b_chunk,
                    bps,
                    sb_idx * gp,
                    sb_packs,
                    lease.buffer(),
                );
            });
        Ok(())
    }

    /// Structured description of what one `execute()` will do. `k` is 0
    /// (triangular op); tile classes are diagonal blocks × column panels.
    /// No install-time generator exists for the TRMM kernels yet, so the
    /// kernel-stats list is empty.
    pub fn explain(&self) -> obs::PlanExplain {
        let main = (E::TRSM_TB, E::TRSM_NR);
        let classes = ex::tile_classes(
            self.blocks
                .iter()
                .flat_map(|&(_, mb)| self.panels.iter().map(move |&(_, w)| (mb, w))),
            main,
        );
        let scalar_bytes = core::mem::size_of::<E::Real>() as u64;
        let t = self.map.t;
        // triangular multiply: t(t+1)/2 MACs per B column
        let macs = (t * (t + 1) / 2 * self.map.bn * self.count) as u64;
        let packed_scalars = self.ops.packed_scalars::<E>(self.p, t, &self.panels);
        obs::PlanExplain {
            op: "trmm".into(),
            dtype: E::DTYPE.to_string(),
            m: self.dims.m,
            n: self.dims.n,
            k: 0,
            mode: self.mode.to_string(),
            count: self.count,
            p: self.p,
            width_bits: self.width.bits(),
            uarch: iatf_kernels::row_for(self.width).uarch.to_string(),
            packs: self.packs,
            group_packs: self.group_packs,
            main_kernel: main,
            main_area_fraction: ex::main_area_fraction(&classes, t * self.map.bn),
            pack_a: self.ops.pack_a_str().into(),
            pack_b: self.ops.pack_b_str().into(),
            predicted_flops: E::DTYPE.flops_per_mac() as u64 * macs,
            predicted_packed_bytes: (packed_scalars * self.packs) as u64 * scalar_bytes,
            predicted_dispatches: (self.blocks.len() * self.panels.len() * self.packs) as u64,
            kernels: Vec::new(),
            // No install-time kernel is dispatched, so there is nothing to
            // certify at plan time.
            verify: None,
            tile_classes: classes,
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_uniform_kernel_height() {
        let cfg = TuningConfig::default();
        let p = TrmmPlan::<f64>::new(TrsmDims::new(11, 4), TrsmMode::LNLN, false, 4, &cfg)
            .unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 3)]);
        let p = TrmmPlan::<iatf_simd::c32>::new(TrsmDims::new(5, 4), TrsmMode::LNLN, false, 4, &cfg)
            .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = TuningConfig::default();
        let plan =
            TrmmPlan::<f32>::new(TrsmDims::new(4, 6), TrsmMode::LNLN, false, 5, &cfg).unwrap();
        let a = CompactBatch::<f32>::zeroed(4, 4, 5);
        let mut b = CompactBatch::<f32>::zeroed(4, 6, 5);
        assert!(plan.execute(1.0, &a, &mut b).is_ok());
        let a_bad = CompactBatch::<f32>::zeroed(5, 5, 5);
        assert!(plan.execute(1.0, &a_bad, &mut b).is_err());
    }
}
