//! GEMM execution plans.

use crate::autotune;
use crate::config::{PackPolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::{check_shape, explain as ex, group_packs, superblocks, tiles, Command};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, LayoutError};
use iatf_simd::VecWidth;
use iatf_obs as obs;
use iatf_pack::gemm as pk;
use iatf_trace as trace;
use iatf_pack::PackBuffer;
use std::sync::OnceLock;

/// How one GEMM operand is accessed (Pack Selecter output).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OperandPlan {
    /// Gather into a unit-stride panel before computing.
    Packed,
    /// Stream in place from the compact layout (no-pack, §4.4).
    Direct,
}

/// A reusable execution plan for compact batched GEMM:
/// `C = α·op(A)·op(B) + β·C` over a group of `count` matrices.
#[derive(Clone, Debug)]
pub struct GemmPlan<E: CompactElement> {
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    /// Vector width the plan was built for (from `cfg.width`); operand
    /// batches must be laid out at the same width.
    width: VecWidth,
    /// Interleaving factor at that width (matrices per pack).
    p: usize,
    packs: usize,
    /// Packs per super-block (Batch Counter output).
    pub group_packs: usize,
    /// A access decision.
    pub a_plan: OperandPlan,
    /// B access decision.
    pub b_plan: OperandPlan,
    m_tiles: Vec<(usize, usize)>,
    n_tiles: Vec<(usize, usize)>,
    /// Kernel handles resolved at build time, one per `(n_tile, m_tile)`
    /// grid cell (row-major over `n_tiles × m_tiles`), so the hot loop
    /// does one indirect call per tile with no table walk.
    tile_kernels: Vec<E::GemmK>,
    use_parallel: bool,
    a_panel_len: usize,
    b_panel_len: usize,
    commands: OnceLock<Vec<Command>>,
    _marker: core::marker::PhantomData<E>,
}

impl<E: CompactElement> GemmPlan<E> {
    /// Builds a plan from the input matrix properties.
    pub fn new(
        dims: GemmDims,
        mode: GemmMode,
        conj_a: bool,
        conj_b: bool,
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
        let g = p * E::SCALARS;
        let m_tiles = tiles(dims.m, E::MR);
        let n_tiles = tiles(dims.n, E::NR);

        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup_gemm::<E>(dims, mode, conj_a, conj_b, count, cfg);

        let a_panel_len = pk::panel_a_len::<E>(p, dims.m, dims.k);
        let b_panel_len = pk::panel_b_len::<E>(p, dims.k, dims.n);
        let scalar_bytes = core::mem::size_of::<E::Real>();

        // Pack Selecter (§5.2): the kernels take the compact layout's native
        // strides, so an operand is streamed in place while one pack of it
        // fits the L2 bound; above that the paper's rule packs whatever
        // spans more than one tile row/column. Conjugation must happen
        // during a copy. Policy overrides support the ablations.
        let pack_policy = tuned.map_or(cfg.pack, |t| t.pack);
        let limit = crate::machine::direct_limit_bytes();
        let a_spills = a_panel_len * scalar_bytes > limit && dims.m > E::MR;
        let b_spills = b_panel_len * scalar_bytes > limit && dims.n > E::NR;
        let a_plan = decide(pack_policy, conj_a && E::IS_COMPLEX, a_spills);
        let b_plan = decide(pack_policy, conj_b && E::IS_COMPLEX, b_spills);

        // Batch Counter: packed A and B panels (or their directly-streamed
        // sources, same footprint) plus the C pack must cycle through L1.
        let bytes_per_pack =
            (a_panel_len + b_panel_len + dims.m * dims.n * g) * scalar_bytes;
        let packs = count.div_ceil(p);
        let gp = match tuned.and_then(|t| t.group_packs) {
            Some(tuned_gp) => tuned_gp.clamp(1, packs.max(1)),
            None => group_packs(cfg.batch, cfg.l1_budget_bytes(), bytes_per_pack, packs),
        };

        let tile_kernels = n_tiles
            .iter()
            .flat_map(|&(_, w)| {
                m_tiles
                    .iter()
                    .map(move |&(_, h)| E::gemm_kernel_for(width, h, w))
            })
            .collect();

        obs::count_plan_build(obs::Op::Gemm, count);
        Ok(Self {
            dims,
            mode,
            conj_a,
            conj_b,
            count,
            width,
            p,
            packs,
            group_packs: gp,
            a_plan,
            b_plan,
            m_tiles,
            n_tiles,
            tile_kernels,
            use_parallel: tuned.is_some_and(|t| t.parallel),
            a_panel_len,
            b_panel_len,
            commands: OnceLock::new(),
            _marker: core::marker::PhantomData,
        })
    }

    /// Problem dimensions.
    pub fn dims(&self) -> GemmDims {
        self.dims
    }

    /// Transpose mode.
    pub fn mode(&self) -> GemmMode {
        self.mode
    }

    /// Group size the plan was built for.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Vector width the plan was built for.
    pub fn width(&self) -> VecWidth {
        self.width
    }

    /// Whether the tuned serial→parallel crossover picked parallel
    /// execution for this input (always `false` under pure heuristics).
    /// The one-shot API dispatches on this; plan holders may too.
    pub fn use_parallel(&self) -> bool {
        self.use_parallel
    }

    /// Validates operand batches against the planned shapes.
    fn validate(
        &self,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        c: &CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        let (ar, ac) = self.dims.a_shape(self.mode);
        check_shape("A", a, ar, ac, self.count, self.width)?;
        let (br, bc) = self.dims.b_shape(self.mode);
        check_shape("B", b, br, bc, self.count, self.width)?;
        let (cr, cc) = self.dims.c_shape();
        check_shape("C", c, cr, cc, self.count, self.width)?;
        Ok(())
    }

    /// Executes the plan: `C = α·op(A)·op(B) + β·C`.
    ///
    /// Scratch, when an operand is packed, comes from the thread-local
    /// arena, so repeated executes are allocation-free after the first call
    /// on a thread; with both operands streamed in place there is no scratch
    /// and no lease is taken.
    pub fn execute(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        beta: E,
        c: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run::<false>(alpha, a, b, beta, c)
    }

    /// [`Self::execute`] with the super-blocks distributed across the rayon
    /// pool (the shared super-block loop, `plan::superblocks`);
    /// bit-identical to the serial path.
    #[cfg(feature = "parallel")]
    pub fn execute_parallel(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        beta: E,
        c: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run::<true>(alpha, a, b, beta, c)
    }

    /// [`Self::execute`], or `execute_parallel` when `parallel` and the
    /// `parallel` feature are on (the tuned serial/parallel dispatch).
    pub(crate) fn execute_with(
        &self,
        parallel: bool,
        alpha: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        beta: E,
        c: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        #[cfg(feature = "parallel")]
        if parallel {
            return self.run::<true>(alpha, a, b, beta, c);
        }
        let _ = parallel;
        self.run::<false>(alpha, a, b, beta, c)
    }

    fn run<const PARALLEL: bool>(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        beta: E,
        c: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.validate(a, b, c)?;
        obs::count_execute(obs::Op::Gemm);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let ps = c.pack_stride();
        let body = |c_chunk: &mut [E::Real], sb, sb_packs, buf: &mut PackBuffer<E::Real>| {
            self.run_superblock(alpha, a, b, beta, c_chunk, ps, sb, sb_packs, buf);
        };
        let scratch = self.needs_scratch();
        superblocks::<PARALLEL, _, _>(c.as_scalars_mut(), ps, self.group_packs, scratch, body);
        Ok(())
    }

    /// Whether any operand is packed (and `execute` therefore needs
    /// scratch).
    fn needs_scratch(&self) -> bool {
        self.a_plan == OperandPlan::Packed || self.b_plan == OperandPlan::Packed
    }

    /// Scalar lengths of the packed A and B panels (0 when streamed).
    fn panel_lens(&self) -> (usize, usize) {
        let a_len = if self.a_plan == OperandPlan::Packed {
            self.a_panel_len
        } else {
            0
        };
        let b_len = if self.b_plan == OperandPlan::Packed {
            self.b_panel_len
        } else {
            0
        };
        (a_len, b_len)
    }

    /// Packs one pack's operands into the given buffer slots (no-ops for
    /// streamed operands, whose slots are empty).
    fn pack_one(
        &self,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        pk_idx: usize,
        buf_a: &mut [E::Real],
        buf_b: &mut [E::Real],
    ) {
        if !buf_a.is_empty() {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, pk_idx as u64);
            pk::pack_a(
                buf_a,
                a,
                pk_idx,
                self.mode.transa,
                self.conj_a,
                E::MR,
                self.dims.m,
                self.dims.k,
            );
            obs::count_packed_bytes_a(core::mem::size_of_val(buf_a));
        }
        if !buf_b.is_empty() {
            let _span = obs::phase(obs::Phase::PackB);
            let _trace = trace::span_arg(trace::SpanKind::PackB, pk_idx as u64);
            pk::pack_b(
                buf_b,
                b,
                pk_idx,
                self.mode.transb,
                self.conj_b,
                E::NR,
                self.dims.k,
                self.dims.n,
            );
            obs::count_packed_bytes_b(core::mem::size_of_val(buf_b));
        }
    }

    /// Computes one pack's C tiles. `cp` is the pack's base scalar pointer.
    #[allow(clippy::too_many_arguments)]
    fn compute_one(
        &self,
        alpha: E,
        beta: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        pk_idx: usize,
        buf_a: &[E::Real],
        buf_b: &[E::Real],
        cp: *mut E::Real,
    ) {
        let _span = obs::phase(obs::Phase::Compute);
        let _trace = trace::span_arg(trace::SpanKind::Compute, pk_idx as u64);
        let g = self.p * E::SCALARS;
        let dims = self.dims;
        let da = pk::direct_a::<E>(self.p, self.mode.transa, a.rows());
        let db = pk::direct_b::<E>(self.p, self.mode.transb, b.rows());
        let c_rows = dims.m;
        let ap_direct = a.pack_ptr(pk_idx);
        let bp_direct = b.pack_ptr(pk_idx);
        let m_count = self.m_tiles.len();
        for (jj, &(j0, w)) in self.n_tiles.iter().enumerate() {
            let (pb, b_j, b_k) = if !buf_b.is_empty() {
                // SAFETY: `b_tile_offset` indexes inside `buf_b`, which was sized for the full packed B at plan build (tiles validated against the batch shape).
                let base = unsafe { buf_b.as_ptr().add(pk::b_tile_offset::<E>(self.p, j0, dims.k)) };
                (base, g, w * g)
            } else {
                (
                    // SAFETY: `j0` is a validated n-tile origin, so the direct-B offset stays inside the compact matrix.
                    unsafe { bp_direct.add(j0 * db.tile_scale) },
                    db.minor,
                    db.step_k,
                )
            };
            for (ii, &(i0, h)) in self.m_tiles.iter().enumerate() {
                let (pa, a_i, a_k) = if !buf_a.is_empty() {
                    // SAFETY: `a_tile_offset` indexes inside `buf_a`, which was sized for the full packed A at plan build.
                    let base =
                        unsafe { buf_a.as_ptr().add(pk::a_tile_offset::<E>(self.p, i0, dims.k)) };
                    (base, g, h * g)
                } else {
                    (
                        // SAFETY: `i0` is a validated m-tile origin, so the direct-A offset stays inside the compact matrix.
                        unsafe { ap_direct.add(i0 * da.tile_scale) },
                        da.minor,
                        da.step_k,
                    )
                };
                // SAFETY: `(j0, i0)` is a validated tile origin of the m×n grid, so the C offset stays inside the compact output.
                let ct = unsafe { cp.add((j0 * c_rows + i0) * g) };
                obs::count_dispatch(obs::Op::Gemm, h, w, h == E::MR && w == E::NR);
                // Safety: pointers/strides cover exactly the tile regions
                // validated against the batch shapes above; the handle was
                // resolved for this grid cell's (h, w) at build time.
                unsafe {
                    E::gemm_kernel(
                        self.tile_kernels[jj * m_count + ii],
                        dims.k,
                        alpha,
                        beta,
                        pa,
                        a_i,
                        a_k,
                        pb,
                        b_j,
                        b_k,
                        ct,
                        g,
                        c_rows * g,
                    );
                }
            }
        }
    }

    /// Packs then computes one super-block of packs. `c_chunk` is the
    /// contiguous scalar storage of packs `sb..sb + sb_packs` (pack stride
    /// `ps`).
    #[allow(clippy::too_many_arguments)]
    fn run_superblock(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        beta: E,
        c_chunk: &mut [E::Real],
        ps: usize,
        sb: usize,
        sb_packs: usize,
        buf: &mut PackBuffer<E::Real>,
    ) {
        obs::count_superblock(obs::Op::Gemm, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let (a_len, b_len) = self.panel_lens();
        let (buf_a, buf_b) = buf.split_two(a_len * sb_packs, b_len * sb_packs);

        // Packing phase: the whole super-block's panels land in L1 together.
        for slot in 0..sb_packs {
            self.pack_one(
                a,
                b,
                sb + slot,
                &mut buf_a[slot * a_len..(slot + 1) * a_len],
                &mut buf_b[slot * b_len..(slot + 1) * b_len],
            );
        }

        // Compute phase.
        for slot in 0..sb_packs {
            let pk_idx = sb + slot;
            let cp = c_chunk[slot * ps..(slot + 1) * ps].as_mut_ptr();
            self.compute_one(
                alpha,
                beta,
                a,
                b,
                pk_idx,
                &buf_a[slot * a_len..(slot + 1) * a_len],
                &buf_b[slot * b_len..(slot + 1) * b_len],
                cp,
            );
        }
    }

    /// The plan rendered as the paper's command-queue view. Rendered once
    /// on first call and cached in the plan; subsequent calls return the
    /// same slice.
    pub fn commands(&self) -> &[Command] {
        self.commands.get_or_init(|| self.render_commands())
    }

    fn render_commands(&self) -> Vec<Command> {
        let mut out = Vec::new();
        let mut sb = 0usize;
        while sb < self.packs {
            let sb_packs = self.group_packs.min(self.packs - sb);
            for slot in 0..sb_packs {
                let pack = sb + slot;
                if self.a_plan == OperandPlan::Packed {
                    out.push(Command::PackA { pack });
                }
                if self.b_plan == OperandPlan::Packed {
                    out.push(Command::PackB { pack });
                }
            }
            for slot in 0..sb_packs {
                let pack = sb + slot;
                for &(j0, w) in &self.n_tiles {
                    for &(i0, h) in &self.m_tiles {
                        out.push(Command::Gemm {
                            pack,
                            i0,
                            j0,
                            mr: h,
                            nr: w,
                        });
                    }
                }
            }
            sb += sb_packs;
        }
        obs::count_plan_commands(out.len());
        out
    }

    /// Structured description of what one `execute()` will do: kernel
    /// sizes, tile grid, pack strategy, predicted work, and install-time
    /// scheduling stats for every dispatchable kernel.
    pub fn explain(&self) -> obs::PlanExplain {
        let d = self.dims;
        let main = (E::MR, E::NR);
        let classes = ex::tile_classes(
            self.n_tiles
                .iter()
                .flat_map(|&(_, w)| self.m_tiles.iter().map(move |&(_, h)| (h, w))),
            main,
        );
        let tiles_per_matrix: usize = classes.iter().map(|t| t.tiles).sum();
        let (a_len, b_len) = self.panel_lens();
        let scalar_bytes = core::mem::size_of::<E::Real>() as u64;
        let macs = (d.m * d.n * d.k * self.count) as u64;
        obs::PlanExplain {
            op: "gemm".into(),
            dtype: E::DTYPE.to_string(),
            m: d.m,
            n: d.n,
            k: d.k,
            mode: self.mode.to_string(),
            count: self.count,
            p: self.p,
            width_bits: self.width.bits(),
            uarch: iatf_kernels::row_for(self.width).uarch.to_string(),
            packs: self.packs,
            group_packs: self.group_packs,
            main_kernel: main,
            main_area_fraction: ex::main_area_fraction(&classes, d.m * d.n),
            pack_a: ex::operand_str(self.a_plan).into(),
            pack_b: ex::operand_str(self.b_plan).into(),
            predicted_flops: E::DTYPE.flops_per_mac() as u64 * macs,
            predicted_packed_bytes: ((a_len + b_len) * self.packs) as u64 * scalar_bytes,
            predicted_dispatches: (tiles_per_matrix * self.packs) as u64,
            kernels: ex::gemm_kernel_stats(E::DTYPE, &classes, d.k, d.m),
            verify: (d.k > 0).then(|| {
                ex::verify_summary(ex::gemm_contracts(E::DTYPE, &classes, d.k, d.m))
            }),
            tile_classes: classes,
        }
    }
}

/// `spills`: one pack of the operand exceeds the in-place bound *and* spans
/// more than one tile row/column (the paper's rule).
fn decide(policy: PackPolicy, conj: bool, spills: bool) -> OperandPlan {
    if policy == PackPolicy::Always || conj || spills {
        OperandPlan::Packed
    } else {
        OperandPlan::Direct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_selection_streams_what_fits_and_packs_what_spills() {
        // Pinned to W128 so a group is 16 B (f64) / 32 B (c32) on any host.
        let cfg = TuningConfig {
            width: VecWidth::W128,
            ..TuningConfig::default()
        };
        let plans = |cfg: &TuningConfig, m, n, k| {
            let p =
                GemmPlan::<f64>::new(GemmDims::new(m, n, k), GemmMode::NN, false, false, 10, cfg)
                    .unwrap();
            (p.a_plan, p.b_plan, p.needs_scratch())
        };
        use OperandPlan::{Direct, Packed};
        // Inside the L2 bound everything streams, one tile or many, and no
        // scratch is leased.
        assert_eq!(plans(&cfg, 4, 4, 9), (Direct, Direct, false));
        assert_eq!(plans(&cfg, 5, 4, 9), (Direct, Direct, false));
        assert_eq!(plans(&cfg, 33, 17, 9), (Direct, Direct, false));
        // Above it the paper's rule decides: more than one tile row /
        // column packs, a single sliver still streams. `k` is the first
        // depth at which a 9-row f64 operand (16 B groups) outgrows the
        // bound; a 4-row one of that depth still fits.
        let k = crate::machine::direct_limit_bytes() / (9 * 16) + 1;
        assert_eq!(plans(&cfg, 9, 4, k), (Packed, Direct, true));
        assert_eq!(plans(&cfg, 4, 9, k), (Direct, Packed, true));
        assert_eq!(plans(&cfg, 9, 9, k), (Packed, Packed, true));
        assert_eq!(plans(&cfg, 9, 9, k - 1), (Direct, Direct, false));
        // complex kernels are 3×2: at a depth where three c32 rows
        // (32 B groups) spill, A is one tile row and B is two tile columns
        let p = GemmPlan::<iatf_simd::c32>::new(
            GemmDims::new(3, 3, crate::machine::direct_limit_bytes() / (3 * 32) + 1),
            GemmMode::NN,
            false,
            false,
            4,
            &cfg,
        )
        .unwrap();
        assert_eq!(p.a_plan, Direct);
        assert_eq!(p.b_plan, Packed); // 3 > NR = 2
    }

    #[test]
    fn spilled_plans_match_the_packed_path_bitwise() {
        // Beyond the L2 bound is the only place a real-dtype `Auto` plan
        // mixes a packed with a streamed operand; run one of each.
        use iatf_layout::StdBatch;
        use OperandPlan::{Direct, Packed};
        let w = VecWidth::W128;
        let auto = TuningConfig {
            width: w,
            ..TuningConfig::default()
        };
        let always = TuningConfig {
            pack: PackPolicy::Always,
            ..auto.clone()
        };
        let k = crate::machine::direct_limit_bytes() / (9 * 16) + 1;
        for (m, n, expect) in [(9, 4, (Packed, Direct)), (4, 9, (Direct, Packed))] {
            let a = CompactBatch::<f64>::from_std_at(&StdBatch::random(m, k, 3, 1), w);
            let b = CompactBatch::<f64>::from_std_at(&StdBatch::random(k, n, 3, 2), w);
            let run = |cfg: &TuningConfig| {
                let plan =
                    GemmPlan::<f64>::new(GemmDims::new(m, n, k), GemmMode::NN, false, false, 3, cfg)
                        .unwrap();
                let mut c = CompactBatch::<f64>::zeroed_at(m, n, 3, w);
                plan.execute(1.0, &a, &b, 0.0, &mut c).unwrap();
                ((plan.a_plan, plan.b_plan), c)
            };
            let (plans, c_auto) = run(&auto);
            assert_eq!(plans, expect);
            let (plans, c_always) = run(&always);
            assert_eq!(plans, (Packed, Packed));
            assert_eq!(c_auto.as_scalars(), c_always.as_scalars());
        }
    }

    #[test]
    fn conjugation_forces_packing() {
        let cfg = TuningConfig::default();
        let p = GemmPlan::<iatf_simd::c64>::new(
            GemmDims::new(2, 2, 2),
            GemmMode::NN,
            true,
            true,
            4,
            &cfg,
        )
        .unwrap();
        assert_eq!(p.a_plan, OperandPlan::Packed);
        assert_eq!(p.b_plan, OperandPlan::Packed);
    }

    #[test]
    fn policy_overrides() {
        let mut cfg = TuningConfig {
            pack: PackPolicy::Always,
            ..TuningConfig::default()
        };
        let p = GemmPlan::<f32>::new(GemmDims::new(2, 2, 2), GemmMode::NN, false, false, 4, &cfg)
            .unwrap();
        assert_eq!(p.a_plan, OperandPlan::Packed);
        // Auto streams whatever fits the direct bound
        cfg.pack = PackPolicy::Auto;
        let p = GemmPlan::<f32>::new(
            GemmDims::new(20, 20, 20),
            GemmMode::TT,
            false,
            false,
            4,
            &cfg,
        )
        .unwrap();
        assert_eq!(p.a_plan, OperandPlan::Direct);
        assert_eq!(p.b_plan, OperandPlan::Direct);
    }

    #[test]
    fn batch_counter_scales_with_size() {
        let cfg = TuningConfig::default();
        let small =
            GemmPlan::<f32>::new(GemmDims::square(2), GemmMode::NN, false, false, 4096, &cfg)
                .unwrap();
        let large =
            GemmPlan::<f32>::new(GemmDims::square(32), GemmMode::NN, false, false, 4096, &cfg)
                .unwrap();
        assert!(small.group_packs > large.group_packs);
        assert!(large.group_packs >= 1);
    }

    #[test]
    fn command_queue_covers_every_tile_once() {
        // Pinned to W128 (P=2 for f64): count 5 → 3 packs.
        let cfg = TuningConfig {
            width: VecWidth::W128,
            ..TuningConfig::default()
        };
        let plan =
            GemmPlan::<f64>::new(GemmDims::new(7, 6, 5), GemmMode::NN, false, false, 5, &cfg)
                .unwrap();
        let cmds = plan.commands();
        let mut tiles_seen = std::collections::HashSet::new();
        let mut area_by_pack = vec![0usize; 3];
        for c in cmds {
            if let Command::Gemm {
                pack,
                i0,
                j0,
                mr,
                nr,
            } = c
            {
                assert!(tiles_seen.insert((*pack, *i0, *j0)), "duplicate tile");
                area_by_pack[*pack] += mr * nr;
            }
        }
        for area in area_by_pack {
            assert_eq!(area, 42);
        }
    }

    #[test]
    fn pack_commands_precede_compute_within_superblock() {
        let cfg = TuningConfig {
            pack: PackPolicy::Always,
            batch: crate::config::BatchPolicy::Fixed(2),
            width: VecWidth::W128,
            ..TuningConfig::default()
        };
        let plan =
            GemmPlan::<f64>::new(GemmDims::square(4), GemmMode::NN, false, false, 8, &cfg).unwrap();
        let cmds = plan.commands();
        // with P=2 → 4 packs → 2 super-blocks of 2
        let pack_positions: Vec<usize> = cmds
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Command::PackA { .. } | Command::PackB { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pack_positions.len(), 8);
        // first superblock: packs 0,1 packed before any Gemm command
        let first_gemm = cmds
            .iter()
            .position(|c| matches!(c, Command::Gemm { .. }))
            .unwrap();
        assert!(pack_positions.iter().filter(|&&p| p < first_gemm).count() == 4);
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = TuningConfig::default();
        let plan =
            GemmPlan::<f64>::new(GemmDims::new(3, 4, 5), GemmMode::NN, false, false, 2, &cfg)
                .unwrap();
        let a = CompactBatch::<f64>::zeroed(3, 5, 2);
        let b = CompactBatch::<f64>::zeroed(5, 4, 2);
        let mut c_bad = CompactBatch::<f64>::zeroed(4, 3, 2);
        assert!(plan.execute(1.0, &a, &b, 1.0, &mut c_bad).is_err());
        let b_bad = CompactBatch::<f64>::zeroed(4, 5, 2);
        let mut c = CompactBatch::<f64>::zeroed(3, 4, 2);
        assert!(plan.execute(1.0, &a, &b_bad, 1.0, &mut c).is_err());
        let a_badcount = CompactBatch::<f64>::zeroed(3, 5, 3);
        assert!(plan.execute(1.0, &a_badcount, &b, 1.0, &mut c).is_err());
        assert!(plan.execute(1.0, &a, &b, 1.0, &mut c).is_ok());
    }

    #[test]
    fn rejects_width_mismatched_operands() {
        // A plan built for one width must refuse batches laid out at
        // another — their group geometry differs element-by-element.
        let cfg = TuningConfig {
            width: VecWidth::W128,
            ..TuningConfig::default()
        };
        let plan =
            GemmPlan::<f64>::new(GemmDims::new(3, 4, 5), GemmMode::NN, false, false, 2, &cfg)
                .unwrap();
        assert_eq!(plan.width(), VecWidth::W128);
        let a = CompactBatch::<f64>::zeroed_at(3, 5, 2, VecWidth::W128);
        let b = CompactBatch::<f64>::zeroed_at(5, 4, 2, VecWidth::W128);
        let mut c = CompactBatch::<f64>::zeroed_at(3, 4, 2, VecWidth::Scalar);
        match plan.execute(1.0, &a, &b, 1.0, &mut c) {
            Err(LayoutError::WidthMismatch {
                operand,
                expected,
                got,
            }) => {
                assert_eq!(operand, "C");
                assert_eq!(expected, VecWidth::W128);
                assert_eq!(got, VecWidth::Scalar);
            }
            other => panic!("expected WidthMismatch, got {other:?}"),
        }
        let mut c_ok = CompactBatch::<f64>::zeroed_at(3, 4, 2, VecWidth::W128);
        assert!(plan.execute(1.0, &a, &b, 1.0, &mut c_ok).is_ok());
    }

    #[test]
    fn zero_dims_rejected_at_planning() {
        let cfg = TuningConfig::default();
        assert!(
            GemmPlan::<f32>::new(GemmDims::new(0, 1, 1), GemmMode::NN, false, false, 1, &cfg)
                .is_err()
        );
        assert!(
            GemmPlan::<f32>::new(GemmDims::new(1, 1, 1), GemmMode::NN, false, false, 0, &cfg)
                .is_err()
        );
    }
}
