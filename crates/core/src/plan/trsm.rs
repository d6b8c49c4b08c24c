//! TRSM execution plans.

use crate::autotune;
use crate::config::TuningConfig;
use crate::elem::CompactElement;
use crate::plan::gemm::OperandPlan;
use crate::plan::tri::TriOperands;
use crate::plan::{explain as ex, group_packs, tiles, Command};
use iatf_layout::{CompactBatch, LayoutError, TrsmDims, TrsmMode};
use iatf_simd::VecWidth;
use iatf_obs as obs;
use iatf_pack::trsm as pk;
use iatf_trace as trace;
use iatf_pack::{arena, PackBuffer};
use std::sync::OnceLock;

/// A reusable execution plan for compact batched TRSM:
/// `op(A)·X = α·B` (left) or `X·op(A) = α·B` (right), X overwriting B.
#[derive(Clone, Debug)]
pub struct TrsmPlan<E: CompactElement> {
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
    /// the identity on B (right side or reversal) — the operands the
    /// 128-bit rule gathered. Not what this plan does: see [`Self::b_plan`].
    /// Consumers that address B in place themselves, left and unreversed
    /// only, key on this.
    pub pack_b_structural: bool,
    /// A access decision: `Direct` reads the strips and triangles in place
    /// and packs only the `t` diagonal groups.
    pub a_plan: OperandPlan,
    /// B access decision: `Direct` solves B in place, in every mode.
    pub b_plan: OperandPlan,
    blocks: Vec<(usize, usize)>,
    ops: TriOperands,
    panels: Vec<(usize, usize)>,
    /// Kernel handles resolved at build time, one per `(panel, block)`
    /// grid cell (row-major over `panels × blocks`), so the solve loop
    /// does one indirect call per block with no table walk.
    block_kernels: Vec<E::TrsmK>,
    use_parallel: bool,
    commands: OnceLock<Vec<Command>>,
    _marker: core::marker::PhantomData<E>,
}

impl<E: CompactElement> TrsmPlan<E> {
    /// Builds a plan from the input matrix properties.
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
        let blocks = pk::block_decomposition(map.t, E::TRSM_TB, E::TRSM_TMAX);
        let panels = tiles(map.bn, E::TRSM_NR);

        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup_trsm::<E>(dims, mode, conj, count, cfg);

        // Pack Selecter: stream both operands in place unless told to pack.
        let pack_policy = tuned.and_then(|t| t.pack).unwrap_or(cfg.pack);
        let ops = TriOperands::select::<E>(pack_policy, &map, p, &blocks, &panels);

        let g = p * E::SCALARS;
        let scalar_bytes = core::mem::size_of::<E::Real>();
        // Batch Counter (§5.1): the coefficient triangle — packed or read
        // where it is stored, the same footprint — plus B cycle L1.
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
                    .map(move |&(_, mb)| E::trsm_kernel_for(width, mb, w))
            })
            .collect();

        obs::count_plan_build(obs::Op::Trsm, count);
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
            commands: OnceLock::new(),
            _marker: core::marker::PhantomData,
        })
    }

    /// Problem dimensions.
    pub fn dims(&self) -> TrsmDims {
        self.dims
    }

    /// TRSM mode.
    pub fn mode(&self) -> TrsmMode {
        self.mode
    }

    /// The canonicalizing index map (exposed for tests/diagnostics).
    pub fn index_map(&self) -> &pk::TrsmIndexMap {
        &self.map
    }

    /// The diagonal-block decomposition.
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
        if a.count() != self.count {
            return Err(LayoutError::BatchMismatch {
                operand: "A",
                expected: self.count,
                got: a.count(),
            });
        }
        if b.count() != self.count {
            return Err(LayoutError::BatchMismatch {
                operand: "B",
                expected: self.count,
                got: b.count(),
            });
        }
        Ok(())
    }

    /// Executes the plan; B is overwritten with the solution X.
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
        obs::count_execute(obs::Op::Trsm);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let mut lease = arena::lease::<E::Real>();
        let gp = self.group_packs;
        let bps = b.pack_stride();
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

    /// Packs then solves one super-block of packs. `b_chunk` is the
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
        obs::count_superblock(obs::Op::Trsm, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let a_len = self.ops.a_len;
        let (buf_a, buf_panel) = buf.split_two(a_len * sb_packs, self.ops.panel_cap);
        // Packing phase: coefficient triangles for the whole super-block.
        for slot in 0..sb_packs {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, (sb + slot) as u64);
            let pack = sb + slot;
            let live = self.p.min(self.count - pack * self.p);
            self.ops.pack_a::<E>(
                &mut buf_a[slot * a_len..(slot + 1) * a_len],
                a.pack_slice(pack),
                self.p,
                &self.map,
                live,
                true,
            );
            obs::count_packed_bytes_a(a_len * core::mem::size_of::<E::Real>());
        }
        // Compute phase: per pack, per column panel, per diagonal block.
        for slot in 0..sb_packs {
            let ab = &buf_a[slot * a_len..(slot + 1) * a_len];
            let b_pack = &mut b_chunk[slot * bps..(slot + 1) * bps];
            self.solve_pack(alpha, ab, a.pack_slice(sb + slot), buf_panel, b_pack);
        }
    }

    /// Solves one pack's B in place, given its packed A data `ab` and its
    /// stored A pack `a_pack`.
    fn solve_pack(
        &self,
        alpha: E,
        ab: &[E::Real],
        a_pack: &[E::Real],
        buf_panel: &mut [E::Real],
        b_pack: &mut [E::Real],
    ) {
        let b_rows = self.dims.m;
        let pack_b = self.b_plan == OperandPlan::Packed;
        if !pack_b && alpha != E::one() {
            // In place there is no copy to fold α into: scale B where it
            // is, with the product the panel packer computes.
            let _span = obs::phase(obs::Phase::Scale);
            let _trace = trace::span_arg(trace::SpanKind::Scale, 0);
            pk::scale_b_in_place::<E>(self.p, b_pack, alpha);
        }
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
                    alpha,
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
                for (bi, (blk, rect)) in self.ops.a_blocks.iter().zip(&self.ops.rect).enumerate() {
                    obs::count_dispatch(
                        obs::Op::Trsm,
                        blk.mb,
                        w,
                        blk.mb == E::TRSM_TB && w == E::TRSM_NR,
                    );
                    // SAFETY: the panel covers canonical rows 0..t × w columns at `at`'s signed strides and the strip's `r0 + mb` columns of `mb` groups (rectangle, then triangle) at `rect`'s, all inside their source slices (`TriOperands::addresses_in_bounds`); `tri_off` addresses the block's `mb` packed diagonal groups inside `ab`; the handle was resolved for this (block, panel) shape at build time.
                    unsafe {
                        E::trsm_kernel(
                            self.block_kernels[pi * block_count + bi],
                            blk.r0,
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
    /// rayon pool (the paper's multicore future-work extension; parallelism
    /// is between packs, never within a solve). Partitioning at super-block
    /// granularity preserves the Batch Counter's L1 sizing per worker, and
    /// each worker leases its own scratch from the thread-local [`arena`].
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
        obs::count_execute(obs::Op::Trsm);
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

    /// The plan rendered as the paper's command-queue view (an in-place B
    /// has no Pack/Unpack panel commands). Rendered once on first call and
    /// cached in the plan.
    pub fn commands(&self) -> &[Command] {
        self.commands.get_or_init(|| self.render_commands())
    }

    fn render_commands(&self) -> Vec<Command> {
        let mut out = Vec::new();
        let mut sb = 0usize;
        while sb < self.packs {
            let sb_packs = self.group_packs.min(self.packs - sb);
            for slot in 0..sb_packs {
                out.push(Command::PackA { pack: sb + slot });
            }
            for slot in 0..sb_packs {
                let pack = sb + slot;
                for &(j0, w) in &self.panels {
                    if self.b_plan == OperandPlan::Packed {
                        out.push(Command::PackPanel { pack, j0, w });
                    }
                    for &(r0, mb) in &self.blocks {
                        out.push(Command::TrsmBlock {
                            pack,
                            j0,
                            r0,
                            mb,
                            kk: r0,
                        });
                    }
                    if self.b_plan == OperandPlan::Packed {
                        out.push(Command::UnpackPanel { pack, j0, w });
                    }
                }
            }
            sb += sb_packs;
        }
        obs::count_plan_commands(out.len());
        out
    }

    /// Structured description of what one `execute()` will do. `k` is 0
    /// (triangular op); tile classes are diagonal blocks × column panels.
    /// Predicted packed bytes are exactly what `execute` writes into
    /// scratch, whatever α is.
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
        // left-looking solve: t(t+1)/2 MACs (counting the diagonal
        // division as one) per B column
        let macs = (t * (t + 1) / 2 * self.map.bn * self.count) as u64;
        let packed_scalars = self.ops.packed_scalars::<E>(self.p, t, &self.panels);
        obs::PlanExplain {
            op: "trsm".into(),
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
            kernels: ex::trsm_kernel_stats(E::DTYPE, &self.blocks, &self.panels),
            verify: (!E::DTYPE.is_complex()).then(|| {
                ex::verify_summary(ex::trsm_contracts(E::DTYPE, &self.blocks, &self.panels))
            }),
            tile_classes: classes,
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use iatf_layout::{Diag, Side, Trans, Uplo};

    #[test]
    fn every_mode_streams_both_operands() {
        use crate::config::PackPolicy;
        let cfg = TuningConfig::default();
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Lower, Diag::NonUnit);
        // (mode, identity on B): the legacy flag still tells the modes apart
        for (mode, identity_b) in [
            (TrsmMode::LNLN, true),
            // trans flips upper to effective-lower — still identity on B
            (TrsmMode::LTUN, true),
            // reversed rows: solved from the stored last row downwards
            (TrsmMode::LNUN, false),
            // right side: row and column steps swap
            (right, false),
        ] {
            let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), mode, false, 4, &cfg).unwrap();
            assert_eq!(p.b_plan, OperandPlan::Direct, "{mode}");
            assert_eq!(p.a_plan, OperandPlan::Direct, "{mode}");
            assert_eq!(p.pack_b_structural, !identity_b, "{mode}");
            let ex = p.explain();
            assert_eq!(
                (ex.pack_a.as_str(), ex.pack_b.as_str()),
                ("diagonal-only", "in-place")
            );
        }
        // Always keeps the fully packed reference path.
        let always = TuningConfig {
            pack: PackPolicy::Always,
            ..cfg.clone()
        };
        let p =
            TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LNLN, false, 4, &always).unwrap();
        assert_eq!(
            (p.a_plan, p.b_plan),
            (OperandPlan::Packed, OperandPlan::Packed)
        );
        assert!(p.pack_b_structural);
        // Conjugation is not a stride: A packs its strips, B stays in place.
        let p = TrsmPlan::<iatf_simd::c64>::new(TrsmDims::new(4, 8), TrsmMode::LNUN, true, 4, &cfg)
            .unwrap();
        assert_eq!(
            (p.a_plan, p.b_plan),
            (OperandPlan::Packed, OperandPlan::Direct)
        );
        // ... and on a real element it is the identity.
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LNUN, true, 4, &cfg).unwrap();
        assert_eq!(p.a_plan, OperandPlan::Direct);
    }

    #[test]
    fn diagonal_only_pack_is_what_explain_predicts() {
        // 9 rows real: blocks 4+4+1 → 9 diagonal groups per pack (the
        // triangles continue the strips read in place), against
        // 16+4 + 32+4 + 9+1 = 66 for the full strips + diagonals.
        let cfg = TuningConfig {
            width: VecWidth::W128,
            ..TuningConfig::default()
        };
        let p = TrsmPlan::<f64>::new(TrsmDims::new(9, 4), TrsmMode::LNUN, false, 4, &cfg).unwrap();
        let group_bytes = 2 * 8;
        assert_eq!(p.explain().predicted_packed_bytes, 2 * 9 * group_bytes);
        let always = TuningConfig {
            pack: crate::config::PackPolicy::Always,
            ..cfg
        };
        let p =
            TrsmPlan::<f64>::new(TrsmDims::new(9, 4), TrsmMode::LNUN, false, 4, &always).unwrap();
        let panel_groups = 9 * 4;
        assert_eq!(
            p.explain().predicted_packed_bytes,
            2 * (66 + panel_groups) * group_bytes
        );
    }

    #[test]
    fn block_structure_matches_capacity() {
        let cfg = TuningConfig::default();
        // M = 5 real: single register-resident block.
        let p =
            TrsmPlan::<f32>::new(TrsmDims::new(5, 5), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 5)]);
        // M = 9: blocked 4+4+1.
        let p =
            TrsmPlan::<f32>::new(TrsmDims::new(9, 5), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 1)]);
        // complex: capacity 2.
        let p = TrsmPlan::<iatf_simd::c64>::new(
            TrsmDims::new(5, 5),
            TrsmMode::LNLN,
            false,
            4,
            &cfg,
        )
        .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn command_queue_solves_blocks_in_order() {
        // packed panels, so the queue shows the Pack/Unpack pairing too
        let cfg = TuningConfig {
            pack: crate::config::PackPolicy::Always,
            ..TuningConfig::default()
        };
        let p =
            TrsmPlan::<f64>::new(TrsmDims::new(9, 4), TrsmMode::LNUN, false, 2, &cfg).unwrap();
        let cmds = p.commands();
        // within each panel the blocks must appear with increasing r0 and
        // kk == r0 (rows solved so far)
        let mut last: Option<(usize, usize, usize)> = None;
        for c in cmds {
            if let Command::TrsmBlock {
                pack,
                j0,
                r0,
                kk,
                ..
            } = c
            {
                assert_eq!(r0, kk);
                if let Some((lp, lj, lr)) = last {
                    if lp == *pack && lj == *j0 {
                        assert!(*r0 > lr);
                    }
                }
                last = Some((*pack, *j0, *r0));
            }
        }
        // every panel is packed and unpacked exactly once per pack
        let packs = cmds
            .iter()
            .filter(|c| matches!(c, Command::PackPanel { .. }))
            .count();
        let unpacks = cmds
            .iter()
            .filter(|c| matches!(c, Command::UnpackPanel { .. }))
            .count();
        assert_eq!(packs, unpacks);
        assert_eq!(packs, 1); // one pack × one panel of width 4
                              // in place there is nothing to pack or scatter
        let p = TrsmPlan::<f64>::new(
            TrsmDims::new(9, 4),
            TrsmMode::LNUN,
            false,
            2,
            &TuningConfig::default(),
        )
        .unwrap();
        assert!(!p
            .commands()
            .iter()
            .any(|c| matches!(c, Command::PackPanel { .. } | Command::UnpackPanel { .. })));
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = TuningConfig::default();
        let plan =
            TrsmPlan::<f64>::new(TrsmDims::new(3, 4), TrsmMode::LNLN, false, 2, &cfg).unwrap();
        let a = CompactBatch::<f64>::zeroed(3, 3, 2);
        let mut b = CompactBatch::<f64>::zeroed(3, 4, 2);
        assert!(plan.execute(1.0, &a, &mut b).is_ok());
        let a_bad = CompactBatch::<f64>::zeroed(4, 4, 2);
        assert!(plan.execute(1.0, &a_bad, &mut b).is_err());
        let mut b_bad = CompactBatch::<f64>::zeroed(4, 3, 2);
        assert!(plan.execute(1.0, &a, &mut b_bad).is_err());
        // right side: triangle order is N
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit);
        let plan = TrsmPlan::<f64>::new(TrsmDims::new(3, 4), right, false, 2, &cfg).unwrap();
        let a4 = CompactBatch::<f64>::zeroed(4, 4, 2);
        let mut b34 = CompactBatch::<f64>::zeroed(3, 4, 2);
        assert!(plan.execute(1.0, &a4, &mut b34).is_ok());
    }
}
