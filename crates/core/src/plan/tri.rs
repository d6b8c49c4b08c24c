//! Triangular execution plans: TRSM and TRMM as one plan type.
//!
//! TRSM solves `op(A)·X = α·B` (left) or `X·op(A) = α·B` (right), X
//! overwriting B. TRMM (an extension: the paper's future-work "other BLAS
//! functions under the SIMD-friendly data layout") computes `B = α·op(A)·B`
//! or `B = α·B·op(A)` in place. Both canonicalize every mode through the
//! same index map — the algebra is identical (`X·op(A) = (op(A)ᵀ·Xᵀ)ᵀ`,
//! reversal turns effective-upper into lower) — and share the Batch
//! Counter, the Pack Selecter, the block/panel decomposition, the per-pack
//! loop and the executors. [`TriPlan`] holds that state once; its op
//! parameter, the zero-sized [`Solve`] or [`Multiply`], supplies through
//! [`TriOp`] only what differs, as constants and inlined calls, so each op
//! still compiles to its own loop:
//!
//! * the block cap: TRSM solves orders up to `TRSM_TMAX` in one
//!   register-resident block, TRMM blocks uniformly by `TRSM_TB`;
//! * the packed diagonal: reciprocal (TRSM) or direct (TRMM);
//! * the block order: a canonical-lower *multiply* consumes the original
//!   rows at or above each row, so TRMM walks the diagonal blocks
//!   bottom-up while TRSM solves top-down;
//! * where α goes: TRSM scales B in place or while packing a panel, TRMM
//!   hands it to the kernel;
//! * the kernel binding and call, the counter and tuning-db op tags, and
//!   what `explain()` reports.
//!
//! # Pack Selecter
//!
//! Every mode's canonical map is affine (`iatf_pack::trsm`), so under
//! `PackPolicy::Auto` both operands are streamed in place: B̂ is solved or
//! multiplied where it is stored, each diagonal block's strip — its
//! rectangular part and, continuing it, its strictly lower triangle — is
//! read where A is stored, and only the `t` diagonal groups are packed
//! (they carry the reciprocal or direct diagonal and the padded-lane ones).
//! `PackPolicy::Always` keeps the fully packed path as the ablation and the
//! bitwise reference; a conjugated complex A keeps the full strip pack too,
//! since conjugation is not a stride, while its B still runs in place.
//!
//! Whatever was decided, the executor addresses both operands the same way
//! — a base offset and two signed strides per block / panel, the same
//! kernels — so the hot loop differs only in *which slice* the base is
//! taken from.

use crate::autotune;
use crate::config::{PackPolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::gemm::OperandPlan;
use crate::plan::{check_shape, explain as ex, group_packs, superblocks, tiles, Command};
use iatf_layout::{CompactBatch, LayoutError, TrsmDims, TrsmMode};
use iatf_obs as obs;
use iatf_pack::trsm as pk;
use iatf_pack::PackBuffer;
use iatf_simd::VecWidth;
use iatf_trace as trace;
use iatf_tune::TuneOp;
use std::sync::OnceLock;

/// TRSM: solve with the triangle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Solve;

/// TRMM: multiply by the triangle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Multiply;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Solve {}
    impl Sealed for super::Multiply {}
}

/// What distinguishes one triangular op from the other; everything else
/// about a [`TriPlan`] is shared. Implemented by [`Solve`] and [`Multiply`]
/// only.
pub trait TriOp<E: CompactElement>:
    sealed::Sealed + Copy + Send + Sync + core::fmt::Debug + 'static
{
    /// Op name in `explain()`.
    const NAME: &'static str;
    /// Largest diagonal block.
    const BLOCK_CAP: usize;
    /// Whether the packed diagonal holds reciprocals (TRSM) or the
    /// diagonal itself (TRMM).
    const RECIP: bool;
    /// Whether the diagonal blocks run bottom-up (TRMM) or top-down (TRSM).
    const BOTTOM_UP: bool;
    /// Whether α is the kernel's (TRMM) or applied to B beforehand (TRSM).
    const ALPHA_IN_KERNEL: bool;
    /// Counter slot.
    const OBS: obs::Op;
    /// Tuning-db op, also the plan-cache op tag.
    const TUNE: TuneOp;
    /// Resolved block-kernel handle.
    type Kernel: Copy + Send + Sync + core::fmt::Debug + 'static;

    /// Looks up the `(mb, w)` fused block kernel.
    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> Self::Kernel;

    /// Invokes a resolved block kernel; `alpha` is ignored unless
    /// [`Self::ALPHA_IN_KERNEL`].
    ///
    /// # Safety
    /// The pointer/stride contract of [`CompactElement::trsm_kernel`];
    /// `kernel` must match the block shape.
    #[allow(clippy::too_many_arguments)]
    unsafe fn kernel(
        kernel: Self::Kernel,
        kk: usize,
        alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        row_stride: usize,
        col_stride: usize,
    );

    /// Install-time scheduling stats of the dispatched kernels.
    fn kernel_stats(blocks: &[(usize, usize)], panels: &[(usize, usize)]) -> Vec<obs::KernelStats>;

    /// Plan-time certification of the dispatched kernels, where a
    /// generator exists to certify them.
    fn verify(blocks: &[(usize, usize)], panels: &[(usize, usize)]) -> Option<obs::VerifySummary>;
}

impl<E: CompactElement> TriOp<E> for Solve {
    const NAME: &'static str = "trsm";
    const BLOCK_CAP: usize = E::TRSM_TMAX;
    const RECIP: bool = true;
    const BOTTOM_UP: bool = false;
    const ALPHA_IN_KERNEL: bool = false;
    const OBS: obs::Op = obs::Op::Trsm;
    const TUNE: TuneOp = TuneOp::Trsm;
    type Kernel = E::TrsmK;

    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> E::TrsmK {
        E::trsm_kernel_for(width, mb, w)
    }

    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's pointer/stride contract unchanged to the TRSM kernel shim.
    unsafe fn kernel(
        kernel: E::TrsmK,
        kk: usize,
        _alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        row_stride: usize,
        col_stride: usize,
    ) {
        E::trsm_kernel(
            kernel, kk, pa_rect, a_i, a_k, pa_tri, panel, row0, row_stride, col_stride,
        );
    }

    fn kernel_stats(blocks: &[(usize, usize)], panels: &[(usize, usize)]) -> Vec<obs::KernelStats> {
        ex::trsm_kernel_stats(E::DTYPE, blocks, panels)
    }

    fn verify(blocks: &[(usize, usize)], panels: &[(usize, usize)]) -> Option<obs::VerifySummary> {
        (!E::DTYPE.is_complex())
            .then(|| ex::verify_summary(ex::trsm_contracts(E::DTYPE, blocks, panels)))
    }
}

impl<E: CompactElement> TriOp<E> for Multiply {
    const NAME: &'static str = "trmm";
    const BLOCK_CAP: usize = E::TRSM_TB;
    const RECIP: bool = false;
    const BOTTOM_UP: bool = true;
    const ALPHA_IN_KERNEL: bool = true;
    const OBS: obs::Op = obs::Op::Trmm;
    const TUNE: TuneOp = TuneOp::Trmm;
    type Kernel = E::TrmmK;

    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> E::TrmmK {
        E::trmm_kernel_for(width, mb, w)
    }

    #[inline(always)]
    // SAFETY: unsafe fn — forwards the caller's pointer/stride contract unchanged to the TRMM kernel shim.
    unsafe fn kernel(
        kernel: E::TrmmK,
        kk: usize,
        alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        row_stride: usize,
        col_stride: usize,
    ) {
        E::trmm_kernel(
            kernel, kk, alpha, pa_rect, a_i, a_k, pa_tri, panel, row0, row_stride, col_stride,
        );
    }

    /// No install-time generator exists for the TRMM kernels yet.
    fn kernel_stats(_: &[(usize, usize)], _: &[(usize, usize)]) -> Vec<obs::KernelStats> {
        Vec::new()
    }

    /// No install-time kernel is dispatched, so there is nothing to
    /// certify at plan time.
    fn verify(_: &[(usize, usize)], _: &[(usize, usize)]) -> Option<obs::VerifySummary> {
        None
    }
}

/// A reusable execution plan for compact batched TRSM (`O = Solve`) or
/// TRMM (`O = Multiply`). B is `m × n`; A has the order of the selected
/// side.
#[derive(Clone, Debug)]
pub struct TriPlan<E: CompactElement, O: TriOp<E>> {
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
    /// B access decision: `Direct` solves or multiplies B in place, in
    /// every mode.
    pub b_plan: OperandPlan,
    blocks: Vec<(usize, usize)>,
    panels: Vec<(usize, usize)>,
    /// Packed-A layout: full strips + diagonals, or diagonals only.
    a_blocks: Vec<pk::ABlockLayout>,
    /// Scalars of packed A per pack.
    a_len: usize,
    /// Scalars of B-panel scratch (0 in place).
    panel_cap: usize,
    /// Per diagonal block: where its strip (rectangle, then triangle) is
    /// read — inside the stored A pack (`Direct`) or the packed-A buffer
    /// (`Packed`).
    rect: Vec<pk::InPlaceAccess>,
    /// Per column panel: where B̂ lives — inside the stored B pack
    /// (`Direct`) or the panel scratch (`Packed`).
    panel: Vec<pk::InPlaceAccess>,
    /// Kernel handles resolved at build time, one per `(panel, block)`
    /// grid cell (row-major over `panels × blocks`), so the hot loop does
    /// one indirect call per block with no table walk.
    block_kernels: Vec<O::Kernel>,
    use_parallel: bool,
    commands: OnceLock<Vec<Command>>,
    _marker: core::marker::PhantomData<(E, O)>,
}

/// A TRSM plan: `op(A)·X = α·B` or `X·op(A) = α·B`, X overwriting B.
pub type TrsmPlan<E> = TriPlan<E, Solve>;

/// A TRMM plan: `B = α·op(A)·B` or `B = α·B·op(A)`.
pub type TrmmPlan<E> = TriPlan<E, Multiply>;

impl<E: CompactElement, O: TriOp<E>> TriPlan<E, O> {
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
        let blocks = pk::block_decomposition(map.t, E::TRSM_TB, O::BLOCK_CAP);
        let panels = tiles(map.bn, E::TRSM_NR);

        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup_tri::<E, O>(dims, mode, conj, count, cfg);

        // Pack Selecter: stream both operands in place unless told to pack;
        // conjugation is not a stride, so a conjugated complex A packs.
        let always = tuned.map_or(cfg.pack, |t| t.pack) == PackPolicy::Always;
        let packed_if = |pack: bool| {
            if pack {
                OperandPlan::Packed
            } else {
                OperandPlan::Direct
            }
        };
        let a_plan = packed_if(always || (map.conj && E::IS_COMPLEX));
        let b_plan = packed_if(always);
        let g = p * E::SCALARS;
        let (a_blocks, a_len) = match a_plan {
            OperandPlan::Packed => pk::a_layout::<E>(p, &blocks),
            OperandPlan::Direct => pk::a_layout_diag::<E>(p, &blocks),
        };
        let rect = a_blocks
            .iter()
            .map(|blk| match a_plan {
                // packed strip: `r0 + mb` slivers of `mb` contiguous groups
                OperandPlan::Packed => pk::InPlaceAccess {
                    base: blk.rect_off,
                    row: g as isize,
                    col: (blk.mb * g) as isize,
                },
                OperandPlan::Direct => map.a_rect_in_place::<E>(p, blk.r0),
            })
            .collect();
        let panel = panels
            .iter()
            .map(|&(j0, w)| match b_plan {
                // packed panel: row-major, `w` groups per row
                OperandPlan::Packed => pk::InPlaceAccess {
                    base: 0,
                    row: (w * g) as isize,
                    col: g as isize,
                },
                OperandPlan::Direct => map.b_in_place::<E>(p, j0),
            })
            .collect();
        let panel_cap = match b_plan {
            OperandPlan::Packed => panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(p, map.t, w))
                .max()
                .unwrap_or(0),
            OperandPlan::Direct => 0,
        };

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
                    .map(move |&(_, mb)| O::kernel_for(width, mb, w))
            })
            .collect();

        obs::count_plan_build(O::OBS, count);
        let plan = Self {
            dims,
            mode,
            map,
            count,
            width,
            p,
            packs,
            group_packs: gp,
            pack_b_structural: always || map.reversed || map.side_right,
            a_plan,
            b_plan,
            blocks,
            panels,
            a_blocks,
            a_len,
            panel_cap,
            rect,
            panel,
            block_kernels,
            use_parallel: tuned.is_some_and(|t| t.parallel),
            commands: OnceLock::new(),
            _marker: core::marker::PhantomData,
        };
        debug_assert!(plan.addresses_in_bounds());
        Ok(plan)
    }

    /// Whether every group reachable through `rect` / `panel` over the
    /// kernels' extents lies inside the slice its base is taken from — the
    /// invariant the executor's pointer arithmetic rests on.
    fn addresses_in_bounds(&self) -> bool {
        let (map, p) = (&self.map, self.p);
        let g = (p * E::SCALARS) as isize;
        let inside = |acc: &pk::InPlaceAccess, rows: usize, cols: usize, len: usize| {
            let (lo, hi) = acc.envelope(rows, cols);
            lo >= 0 && hi + g <= len as isize
        };
        let a_src_len = match self.a_plan {
            OperandPlan::Packed => self.a_len,
            OperandPlan::Direct => map.t * map.t * g as usize,
        };
        // a block's strip runs on through its triangle: `r0 + mb` columns
        let rect_ok = self
            .a_blocks
            .iter()
            .zip(&self.rect)
            .all(|(blk, acc)| inside(acc, blk.mb, blk.r0 + blk.mb, a_src_len));
        let panel_ok = self.panels.iter().zip(&self.panel).all(|(&(_, w), acc)| {
            let len = match self.b_plan {
                OperandPlan::Packed => pk::panel_b_len::<E>(p, map.t, w),
                OperandPlan::Direct => map.t * map.bn * g as usize,
            };
            inside(acc, map.t, w, len)
        });
        rect_ok && panel_ok
    }

    /// Problem dimensions.
    pub fn dims(&self) -> TrsmDims {
        self.dims
    }

    /// Mode.
    pub fn mode(&self) -> TrsmMode {
        self.mode
    }

    /// The diagonal-block decomposition, top-down (TRMM executes it
    /// bottom-up).
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
        let t = self.map.t;
        check_shape("A", a, t, t, self.count, self.width)?;
        check_shape("B", b, self.dims.m, self.dims.n, self.count, self.width)
    }

    /// Executes the plan, overwriting B with the solution X (TRSM) or the
    /// product (TRMM).
    ///
    /// Scratch comes from the thread-local arena, so repeated executes are
    /// allocation-free after the first call on a thread.
    pub fn execute(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run::<false>(alpha, a, b)
    }

    /// [`Self::execute`] with the super-blocks distributed across the rayon
    /// pool (the shared super-block loop, `plan::superblocks`);
    /// bit-identical to the serial path.
    #[cfg(feature = "parallel")]
    pub fn execute_parallel(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run::<true>(alpha, a, b)
    }

    /// [`Self::execute`], or `execute_parallel` when `parallel` and the
    /// `parallel` feature are on (the tuned serial/parallel dispatch).
    pub(crate) fn execute_with(
        &self,
        parallel: bool,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        #[cfg(feature = "parallel")]
        if parallel {
            return self.run::<true>(alpha, a, b);
        }
        let _ = parallel;
        self.run::<false>(alpha, a, b)
    }

    fn run<const PARALLEL: bool>(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.validate(a, b)?;
        obs::count_execute(O::OBS);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let bps = b.pack_stride();
        let body = |b_chunk: &mut [E::Real], sb, sb_packs, buf: &mut PackBuffer<E::Real>| {
            self.run_superblock(alpha, a, b_chunk, bps, sb, sb_packs, buf);
        };
        superblocks::<PARALLEL, _, _>(b.as_scalars_mut(), bps, self.group_packs, true, body);
        Ok(())
    }

    /// Packs then applies one super-block of packs. `b_chunk` is the
    /// contiguous scalar storage of packs `sb..sb + sb_packs` (pack stride
    /// `bps`).
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
        obs::count_superblock(O::OBS, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let a_len = self.a_len;
        let (buf_a, buf_panel) = buf.split_two(a_len * sb_packs, self.panel_cap);
        // Packing phase: coefficient data for the whole super-block — full
        // strips + diagonals, or the `t` diagonal groups alone.
        for slot in 0..sb_packs {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, (sb + slot) as u64);
            let pack = sb + slot;
            let live = self.p.min(self.count - pack * self.p);
            let dst = &mut buf_a[slot * a_len..(slot + 1) * a_len];
            let (src, t, p, map, layout) = (
                a.pack_slice(pack),
                self.map.t,
                self.p,
                &self.map,
                &self.a_blocks,
            );
            match self.a_plan {
                OperandPlan::Packed => {
                    pk::pack_a_tri::<E>(dst, src, t, p, map, layout, live, O::RECIP);
                }
                OperandPlan::Direct => {
                    pk::pack_a_diag::<E>(dst, src, t, p, map, layout, live, O::RECIP);
                }
            }
            obs::count_packed_bytes_a(a_len * core::mem::size_of::<E::Real>());
        }
        // Compute phase: per pack, per column panel, per diagonal block.
        for slot in 0..sb_packs {
            let ab = &buf_a[slot * a_len..(slot + 1) * a_len];
            let b_pack = &mut b_chunk[slot * bps..(slot + 1) * bps];
            self.apply_pack(alpha, ab, a.pack_slice(sb + slot), buf_panel, b_pack);
        }
    }

    /// Solves or multiplies one pack's B in place, given its packed A data
    /// `ab` and its stored A pack `a_pack`.
    fn apply_pack(
        &self,
        alpha: E,
        ab: &[E::Real],
        a_pack: &[E::Real],
        buf_panel: &mut [E::Real],
        b_pack: &mut [E::Real],
    ) {
        let b_rows = self.dims.m;
        let pack_b = self.b_plan == OperandPlan::Packed;
        if !O::ALPHA_IN_KERNEL && !pack_b && alpha != E::one() {
            // In place there is no copy to fold α into: scale B where it
            // is, with the product the panel packer computes.
            let _span = obs::phase(obs::Phase::Scale);
            let _trace = trace::span_arg(trace::SpanKind::Scale, 0);
            pk::scale_b_in_place::<E>(self.p, b_pack, alpha);
        }
        let panel_alpha = if O::ALPHA_IN_KERNEL { E::one() } else { alpha };
        // strips and triangles come out of the packed buffer or the stored A
        let rect_src = match self.a_plan {
            OperandPlan::Packed => ab,
            OperandPlan::Direct => a_pack,
        };
        let block_count = self.blocks.len();
        for (pi, (&(j0, w), at)) in self.panels.iter().zip(&self.panel).enumerate() {
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
                    panel_alpha,
                );
                obs::count_packed_bytes_b(len * core::mem::size_of::<E::Real>());
                &mut *buf_panel
            } else {
                &mut *b_pack
            };
            // SAFETY: `at.base` is the panel's canonical (0, 0) inside `panel_src` — checked against its length, with the whole `t × w` extent, by `addresses_in_bounds` at plan build.
            let panel_ptr = unsafe { panel_src.as_mut_ptr().add(at.base) };
            {
                let _span = obs::phase(obs::Phase::Compute);
                let _trace = trace::span_arg(trace::SpanKind::Compute, j0 as u64);
                let block = |bi: usize, blk: &pk::ABlockLayout, rect: &pk::InPlaceAccess| {
                    obs::count_dispatch(O::OBS, blk.mb, w, blk.mb == E::TRSM_TB && w == E::TRSM_NR);
                    // SAFETY: the panel covers canonical rows 0..t × w columns at `at`'s signed strides and the strip's `r0 + mb` columns of `mb` groups (rectangle, then triangle) at `rect`'s, all inside their source slices (`addresses_in_bounds`); `tri_off` addresses the block's `mb` packed diagonal groups inside `ab`; the handle was resolved for this (block, panel) shape at build time.
                    unsafe {
                        O::kernel(
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
                };
                let grid = self.a_blocks.iter().zip(&self.rect).enumerate();
                if O::BOTTOM_UP {
                    // rows above any block stay original until that block
                    // consumes them
                    for (bi, (blk, rect)) in grid.rev() {
                        block(bi, blk, rect);
                    }
                } else {
                    for (bi, (blk, rect)) in grid {
                        block(bi, blk, rect);
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

    /// The plan rendered as the paper's command-queue view, blocks in the
    /// op's order (an in-place B has no Pack/Unpack panel commands).
    /// Rendered once on first call and cached in the plan.
    pub fn commands(&self) -> &[Command] {
        self.commands.get_or_init(|| self.render_commands())
    }

    fn render_commands(&self) -> Vec<Command> {
        let mut order = self.blocks.clone();
        if O::BOTTOM_UP {
            order.reverse();
        }
        let packed_b = self.b_plan == OperandPlan::Packed;
        let mut out = Vec::new();
        let mut sb = 0usize;
        while sb < self.packs {
            let sb_packs = self.group_packs.min(self.packs - sb);
            out.extend((sb..sb + sb_packs).map(|pack| Command::PackA { pack }));
            for pack in sb..sb + sb_packs {
                for &(j0, w) in &self.panels {
                    if packed_b {
                        out.push(Command::PackPanel { pack, j0, w });
                    }
                    for &(r0, mb) in &order {
                        out.push(Command::TriBlock {
                            pack,
                            j0,
                            r0,
                            mb,
                            kk: r0,
                        });
                    }
                    if packed_b {
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
        // t(t+1)/2 MACs per B column (a solve counts its diagonal division
        // as one)
        let macs = (t * (t + 1) / 2 * self.map.bn * self.count) as u64;
        // packed A plus, when B is packed, every panel once
        let panel_scalars: usize = match self.b_plan {
            OperandPlan::Packed => self
                .panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(self.p, t, w))
                .sum(),
            OperandPlan::Direct => 0,
        };
        let packed_scalars = self.a_len + panel_scalars;
        obs::PlanExplain {
            op: O::NAME.into(),
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
            pack_a: match self.a_plan {
                OperandPlan::Packed => "packed",
                OperandPlan::Direct => "diagonal-only",
            }
            .into(),
            pack_b: match self.b_plan {
                OperandPlan::Packed => "packed",
                OperandPlan::Direct => "in-place",
            }
            .into(),
            predicted_flops: E::DTYPE.flops_per_mac() as u64 * macs,
            predicted_packed_bytes: (packed_scalars * self.packs) as u64 * scalar_bytes,
            predicted_dispatches: (self.blocks.len() * self.panels.len() * self.packs) as u64,
            kernels: O::kernel_stats(&self.blocks, &self.panels),
            verify: O::verify(&self.blocks, &self.panels),
            tile_classes: classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_layout::{Diag, Side, Trans, Uplo};

    fn always(cfg: &TuningConfig) -> TuningConfig {
        TuningConfig {
            pack: PackPolicy::Always,
            ..cfg.clone()
        }
    }

    #[test]
    fn every_mode_streams_both_operands() {
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
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LNLN, false, 4, &always(&cfg))
            .unwrap();
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
        let dims = TrsmDims::new(9, 4);
        let group_bytes = 2 * 8;
        for explain in [
            TrsmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 4, &cfg)
                .unwrap()
                .explain(),
            TrmmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 4, &cfg)
                .unwrap()
                .explain(),
        ] {
            assert_eq!(
                explain.predicted_packed_bytes,
                2 * 9 * group_bytes,
                "{}",
                explain.op
            );
        }
        let p = TrsmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 4, &always(&cfg)).unwrap();
        let panel_groups = 9 * 4;
        assert_eq!(
            p.explain().predicted_packed_bytes,
            2 * (66 + panel_groups) * group_bytes
        );
    }

    #[test]
    fn block_structure_matches_capacity() {
        let cfg = TuningConfig::default();
        let trsm = |m: usize| {
            TrsmPlan::<f32>::new(TrsmDims::new(m, 5), TrsmMode::LNLN, false, 4, &cfg).unwrap()
        };
        // M = 5 real: single register-resident block.
        assert_eq!(trsm(5).blocks(), &[(0, 5)]);
        // M = 9: blocked 4+4+1.
        assert_eq!(trsm(9).blocks(), &[(0, 4), (4, 4), (8, 1)]);
        // complex: capacity 2.
        let p =
            TrsmPlan::<iatf_simd::c64>::new(TrsmDims::new(5, 5), TrsmMode::LNLN, false, 4, &cfg)
                .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn trmm_blocks_are_uniform_kernel_height() {
        let cfg = TuningConfig::default();
        let p = TrmmPlan::<f64>::new(TrsmDims::new(11, 4), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 3)]);
        // no register-resident special case: M = 5 still blocks by 4
        let p = TrmmPlan::<f32>::new(TrsmDims::new(5, 4), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 1)]);
        let p =
            TrmmPlan::<iatf_simd::c32>::new(TrsmDims::new(5, 4), TrsmMode::LNLN, false, 4, &cfg)
                .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    /// `(pack, j0, r0)` of every block command, and the panel pack /
    /// unpack counts.
    fn block_queue(cmds: &[Command]) -> (Vec<(usize, usize, usize)>, usize, usize) {
        let mut blocks = Vec::new();
        for c in cmds {
            if let Command::TriBlock {
                pack, j0, r0, kk, ..
            } = c
            {
                assert_eq!(r0, kk);
                blocks.push((*pack, *j0, *r0));
            }
        }
        let count = |f: fn(&Command) -> bool| cmds.iter().filter(|c| f(c)).count();
        (
            blocks,
            count(|c| matches!(c, Command::PackPanel { .. })),
            count(|c| matches!(c, Command::UnpackPanel { .. })),
        )
    }

    #[test]
    fn command_queue_visits_blocks_in_op_order() {
        // packed panels, so the queue shows the Pack/Unpack pairing too
        let cfg = always(&TuningConfig::default());
        let dims = TrsmDims::new(9, 4);
        let solve = TrsmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 2, &cfg).unwrap();
        let multiply = TrmmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 2, &cfg).unwrap();
        for (cmds, bottom_up) in [(solve.commands(), false), (multiply.commands(), true)] {
            let (blocks, packs, unpacks) = block_queue(cmds);
            // within each panel TRSM solves with increasing r0 (kk == r0
            // rows solved so far), TRMM multiplies with decreasing r0
            for pair in blocks.windows(2) {
                let ((lp, lj, lr), (p, j, r)) = (pair[0], pair[1]);
                if (lp, lj) == (p, j) {
                    assert_eq!(r < lr, bottom_up, "{blocks:?}");
                }
            }
            // every panel is packed and unpacked exactly once per pack:
            // one pack × one panel of width 4
            assert_eq!((packs, unpacks), (1, 1));
        }
        // in place there is nothing to pack or scatter
        let p =
            TrmmPlan::<f64>::new(dims, TrsmMode::LNUN, false, 2, &TuningConfig::default()).unwrap();
        let (_, packs, unpacks) = block_queue(p.commands());
        assert_eq!((packs, unpacks), (0, 0));
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
        // TRMM: the same validation
        let plan =
            TrmmPlan::<f32>::new(TrsmDims::new(4, 6), TrsmMode::LNLN, false, 5, &cfg).unwrap();
        let a = CompactBatch::<f32>::zeroed(4, 4, 5);
        let mut b = CompactBatch::<f32>::zeroed(4, 6, 5);
        assert!(plan.execute(1.0, &a, &mut b).is_ok());
        let a_bad = CompactBatch::<f32>::zeroed(5, 5, 5);
        assert!(plan.execute(1.0, &a_bad, &mut b).is_err());
    }
}
