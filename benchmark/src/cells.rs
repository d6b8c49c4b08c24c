//! Cells: one fixed (op, dtype, shape, mode, count) problem with its
//! operands, driven only through the library's public functions.
//!
//! A cell can make the one-shot public call (what the end-to-end metrics
//! time), check itself against `iatf_baselines::naive`, and — in the traced
//! run — take the same call apart from outside: plan lookup, `execute` on a
//! held plan, and a replay of the plan's packing and of its kernel grid on
//! scratch buffers.

use crate::gen::{self, Rng};
use crate::layers::LayerAcc;
use crate::refk::{Isa, Yardstick};
use crate::spans::Recorder;
use iatf_baselines::blasloop::{self, BaselineElement};
use iatf_baselines::naive;
use iatf_core::plan::cache;
use iatf_core::plan::gemm::OperandPlan;
use iatf_core::{
    compact_gemm, compact_trmm, compact_trsm, CompactElement, GemmPlan, TrmmPlan, TrsmPlan,
    TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch, TrsmDims, TrsmMode};
use iatf_pack::gemm as pkg;
use iatf_pack::trsm as pkt;
use iatf_simd::{Element, Real};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the scheduler and the printed metrics need to know about a cell.
#[derive(Clone, Debug)]
pub struct CellDesc {
    /// Human-readable identity; also folded into the run digest.
    pub label: String,
    /// Useful flops of one round.
    pub flops_per_round: f64,
    /// Library calls in one round (a triangular round is a solve and the
    /// multiply that undoes it).
    pub calls_per_round: u64,
    /// Bytes of one real scalar (sets the peak a flop is compared with).
    pub scalar_bytes: usize,
    /// Bytes of the operands (each once).
    pub footprint: usize,
}

/// State handed to [`Cell::profile`].
pub struct Profile<'a> {
    /// Span sink.
    pub rec: &'a mut Recorder,
    /// Sums across cells.
    pub acc: &'a mut LayerAcc,
    /// Reference loops, for normalising kernel replays.
    pub yard: &'a mut Yardstick,
    /// Wall time one measurement may take.
    pub budget: Duration,
    /// Call id for the spans (the cell's index).
    pub call: u32,
    /// Whether to time the `blasloop` baseline on this cell.
    pub baseline: bool,
}

impl Profile<'_> {
    /// Mean nanoseconds per run of `f` over about one budget, recorded as
    /// one span. The first, untimed run warms caches and sizes the loop.
    fn timed(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_nanos().max(1) as f64;
        let reps = ((self.budget.as_nanos() as f64 / once) as u64).clamp(2, 1 << 20);
        let token = self.rec.open(name, self.call);
        for _ in 0..reps {
            f();
        }
        self.rec.close(token, reps) as f64 / reps as f64
    }
}

/// Flops one vector FMA does at `isa` on scalars of `scalar_bytes` bytes.
pub fn peak_flops_per_unit(isa: Isa, scalar_bytes: usize) -> f64 {
    let lanes = match isa {
        Isa::Scalar => 1,
        _ => isa.lanes_f64() * 8 / scalar_bytes,
    };
    2.0 * lanes as f64
}

/// What a traced slot measured, in nanoseconds.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TracedOut {
    /// Calls that returned `Err`.
    pub failed: u64,
    /// The calls made the way a user makes them.
    pub oneshot_ns: u64,
    /// The same calls as the sum of their layer spans.
    pub attributed_ns: u64,
    /// The part of `attributed_ns` spent in `execute`.
    pub execute_ns: u64,
}

/// One benchmark cell.
pub trait Cell {
    /// Static facts.
    fn desc(&self) -> &CellDesc;
    /// `rounds` rounds of one-shot public calls; returns calls that failed.
    fn run(&mut self, rounds: u64) -> u64;
    /// The plan-cache lookups `rounds` rounds of one-shot calls would make.
    fn lookup(&mut self, rounds: u64);
    /// `rounds` rounds of `execute` on held plans; returns calls that failed.
    fn execute(&mut self, rounds: u64) -> u64;
    /// The traced form of [`Cell::run`]: the one-shot calls, then the same
    /// calls taken apart — lookups only, then `execute` on held plans —
    /// each phase a span under the caller's open slot span. The phases run
    /// back to back, so their difference is not blurred by clock drift.
    fn traced(&mut self, rounds: u64, rec: &mut Recorder, call: u32) -> TracedOut {
        let calls = rounds * self.desc().calls_per_round;
        let t = rec.open("core.api.oneshot", call);
        let failed = self.run(rounds);
        let oneshot_ns = rec.close(t, calls);
        let t = rec.open("core.cache.lookup", call);
        self.lookup(rounds);
        let lookup_ns = rec.close(t, calls);
        let t = rec.open("core.plan.execute", call);
        let failed = failed + self.execute(rounds);
        let execute_ns = rec.close(t, calls);
        TracedOut {
            failed,
            oneshot_ns,
            attributed_ns: lookup_ns + execute_ns,
            execute_ns,
        }
    }
    /// One checked round against the naive oracle on a seeded sample of
    /// matrices; `inject` corrupts one result first. True when it agrees.
    fn check(&mut self, rng: &mut Rng, inject: bool) -> bool;
    /// Whether every stored value is still finite and normal (or zero).
    fn healthy(&self) -> bool;
    /// Per-layer replays (traced run only).
    fn profile(&mut self, p: &mut Profile<'_>);
}

// ---------------------------------------------------------------- helpers

/// Greedy 1-D tiling, as the planners do it.
pub fn tiles(len: usize, step: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < len {
        let h = step.min(len - at);
        out.push((at, h));
        at += h;
    }
    out
}

/// Up to four distinct matrix indices: both ends (the last one sits next
/// to the padding lanes) and two seeded picks.
pub(crate) fn sample_indices(count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut idx = vec![0, count - 1, rng.below(count), rng.below(count)];
    idx.sort_unstable();
    idx.dedup();
    idx
}

fn gather_std<E: Element>(src: &StdBatch<E>, idx: &[usize]) -> StdBatch<E> {
    StdBatch::from_fn(src.rows(), src.cols(), idx.len(), |v, i, j| {
        src.get(idx[v], i, j)
    })
}

pub(crate) fn gather_compact<E: Element>(src: &CompactBatch<E>, idx: &[usize]) -> StdBatch<E> {
    StdBatch::from_fn(src.rows(), src.cols(), idx.len(), |v, i, j| {
        src.get(idx[v], i, j)
    })
}

/// Whether `got` matches `want` to the rounding a depth-`depth` recurrence
/// in `E`'s precision allows, relative to the largest reference magnitude.
pub(crate) fn agrees<E: Element>(got: &StdBatch<E>, want: &StdBatch<E>, depth: usize) -> bool {
    let scale = want
        .as_slice()
        .iter()
        .fold(1.0f64, |m, x| m.max(x.abs_f64()));
    let tol = 32.0 * (depth + 4) as f64 * E::Real::EPSILON.to_f64() * scale;
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .all(|(g, w)| g.is_finite() && g.sub(*w).abs_f64() <= tol)
}

pub(crate) fn corrupt<E: Element>(batch: &mut StdBatch<E>) {
    let x = batch.get(0, 0, 0);
    batch.set(0, 0, 0, x.add(E::from_f64s(1.0 + 0.01 * x.abs_f64(), 0.0)));
}

pub(crate) fn scalars_healthy<R: Real>(data: &[R]) -> bool {
    data.iter().all(|x| {
        let v = x.to_f64();
        v == 0.0 || (v.is_finite() && v.abs() >= f64::from(f32::MIN_POSITIVE))
    })
}

fn elem_bytes<E: Element>() -> usize {
    E::DTYPE.elem_bytes()
}

// ------------------------------------------------------------------- GEMM

/// `C = α·op(A)·op(B) + β·C` with α = β = 1.
pub struct GemmCell<E: CompactElement + BaselineElement> {
    desc: CellDesc,
    dims: GemmDims,
    mode: GemmMode,
    count: usize,
    cfg: TuningConfig,
    a_std: StdBatch<E>,
    b_std: StdBatch<E>,
    a: CompactBatch<E>,
    b: CompactBatch<E>,
    c: CompactBatch<E>,
    plan: Arc<GemmPlan<E>>,
}

impl<E: CompactElement + BaselineElement> GemmCell<E> {
    /// Generates operands from `rng` and takes hold of the shared plan.
    pub fn new(
        dims: GemmDims,
        mode: GemmMode,
        count: usize,
        cfg: &TuningConfig,
        rng: &mut Rng,
    ) -> Self {
        let (ar, ac) = dims.a_shape(mode);
        let (br, bc) = dims.b_shape(mode);
        let a_std = gen::dense::<E>(ar, ac, count, rng);
        let b_std = gen::dense::<E>(br, bc, count, rng);
        let a = CompactBatch::from_std_at(&a_std, cfg.width);
        let b = CompactBatch::from_std_at(&b_std, cfg.width);
        let c = CompactBatch::from_std_at(&gen::dense::<E>(dims.m, dims.n, count, rng), cfg.width);
        let plan = cache::cached_gemm_plan::<E>(dims, mode, false, false, count, cfg)
            .expect("benchmark GEMM cells have valid shapes");
        let per_matrix = (dims.m * dims.k + dims.k * dims.n + dims.m * dims.n) * elem_bytes::<E>();
        let desc = CellDesc {
            label: format!(
                "gemm {} {} {}x{}x{} count={}",
                E::DTYPE,
                mode,
                dims.m,
                dims.n,
                dims.k,
                count
            ),
            flops_per_round: gemm_flops::<E>(dims, count),
            calls_per_round: 1,
            scalar_bytes: E::DTYPE.scalar_bytes(),
            footprint: per_matrix * count,
        };
        GemmCell {
            desc,
            dims,
            mode,
            count,
            cfg: cfg.clone(),
            a_std,
            b_std,
            a,
            b,
            c,
            plan,
        }
    }

    fn one() -> E {
        E::one()
    }

    /// Replays the plan's packing: every packed operand of every pack,
    /// into a super-block-sized scratch as `execute` cycles through it.
    fn replay_pack(&self, scratch: &mut [E::Real], a_len: usize, b_len: usize) {
        let gp = self.plan.group_packs;
        let d = self.dims;
        for pack in 0..self.a.packs() {
            let at = (pack % gp) * (a_len + b_len);
            if a_len > 0 {
                pkg::pack_a(
                    &mut scratch[at..at + a_len],
                    &self.a,
                    pack,
                    self.mode.transa,
                    false,
                    E::MR,
                    d.m,
                    d.k,
                );
            }
            if b_len > 0 {
                pkg::pack_b(
                    &mut scratch[at + a_len..at + a_len + b_len],
                    &self.b,
                    pack,
                    self.mode.transb,
                    false,
                    E::NR,
                    d.k,
                    d.n,
                );
            }
        }
        black_box(scratch);
    }

    /// The plan's tile grid with its kernels resolved, in the order
    /// `execute` walks it — resolved once, as a plan does at build time.
    fn grid(&self) -> Vec<GemmTile<E>> {
        let d = self.dims;
        let mut out = Vec::new();
        for (j0, w) in tiles(d.n, E::NR) {
            for (i0, h) in tiles(d.m, E::MR) {
                out.push(GemmTile {
                    i0,
                    h,
                    j0,
                    w,
                    kernel: E::gemm_kernel_for(self.cfg.width, h, w),
                });
            }
        }
        out
    }

    /// Replays (part of) the plan's tile grid over pre-packed panels.
    fn replay_kernels(&self, grid: &[GemmTile<E>], panels: &[E::Real], out: &mut CompactBatch<E>) {
        let d = self.dims;
        let p = self.a.p();
        let g = p * E::SCALARS;
        let (a_len, b_len) = (
            pkg::panel_a_len::<E>(p, d.m, d.k),
            pkg::panel_b_len::<E>(p, d.k, d.n),
        );
        let gp = self.plan.group_packs;
        for pack in 0..out.packs() {
            let at = (pack % gp) * (a_len + b_len);
            let pa = &panels[at..at + a_len];
            let pb = &panels[at + a_len..at + a_len + b_len];
            let cp = out.pack_ptr_mut(pack);
            for t in grid {
                // SAFETY: `pa`/`pb` are whole packed panels of an m×k / k×n operand
                // (lengths `panel_a_len`/`panel_b_len`), so the tile at row `i0` /
                // column `j0` with the packed strides (g, h·g) / (g, w·g) lies inside
                // them; `cp` is one pack of an m×n batch, so tile (i0, j0) with
                // strides (g, m·g) lies inside it; the handle was resolved for (h, w).
                unsafe {
                    E::gemm_kernel(
                        t.kernel,
                        d.k,
                        Self::one(),
                        Self::one(),
                        pa.as_ptr().add(pkg::a_tile_offset::<E>(p, t.i0, d.k)),
                        g,
                        t.h * g,
                        pb.as_ptr().add(pkg::b_tile_offset::<E>(p, t.j0, d.k)),
                        g,
                        t.w * g,
                        cp.add((t.j0 * d.m + t.i0) * g),
                        g,
                        d.m * g,
                    );
                }
            }
        }
    }
}

/// One register tile of a GEMM plan's grid.
struct GemmTile<E: CompactElement> {
    i0: usize,
    h: usize,
    j0: usize,
    w: usize,
    kernel: E::GemmK,
}

impl<E: CompactElement> GemmTile<E> {
    fn is_main(&self) -> bool {
        self.h == E::MR && self.w == E::NR
    }
}

/// Flops of one GEMM call over the batch.
pub fn gemm_flops<E: Element>(dims: GemmDims, count: usize) -> f64 {
    E::DTYPE.flops_per_mac() as f64 * dims.macs() as f64 * count as f64
}

/// Flops of one triangular solve or multiply over the batch.
pub fn tri_flops<E: Element>(dims: TrsmDims, mode: TrsmMode, count: usize) -> f64 {
    E::DTYPE.flops_per_mac() as f64 * dims.macs(mode) as f64 * count as f64
}

impl<E: CompactElement + BaselineElement> Cell for GemmCell<E> {
    fn desc(&self) -> &CellDesc {
        &self.desc
    }

    fn run(&mut self, rounds: u64) -> u64 {
        let mut failed = 0;
        for _ in 0..rounds {
            let r = compact_gemm(
                self.mode,
                Self::one(),
                &self.a,
                &self.b,
                Self::one(),
                &mut self.c,
                &self.cfg,
            );
            failed += u64::from(r.is_err());
        }
        failed
    }

    fn lookup(&mut self, rounds: u64) {
        for _ in 0..rounds {
            let plan = cache::cached_gemm_plan::<E>(
                self.dims, self.mode, false, false, self.count, &self.cfg,
            );
            let _ = black_box(plan);
        }
    }

    fn execute(&mut self, rounds: u64) -> u64 {
        let mut failed = 0;
        for _ in 0..rounds {
            let r = self
                .plan
                .execute(Self::one(), &self.a, &self.b, Self::one(), &mut self.c);
            failed += u64::from(r.is_err());
        }
        failed
    }

    fn check(&mut self, rng: &mut Rng, inject: bool) -> bool {
        let idx = sample_indices(self.count, rng);
        let mut want = gather_compact(&self.c, &idx);
        naive::gemm_ref(
            self.mode,
            false,
            false,
            Self::one(),
            &gather_std(&self.a_std, &idx),
            &gather_std(&self.b_std, &idx),
            Self::one(),
            &mut want,
        );
        if self.run(1) != 0 {
            return false;
        }
        let mut got = gather_compact(&self.c, &idx);
        if inject {
            corrupt(&mut got);
        }
        agrees(&got, &want, self.dims.k)
    }

    fn healthy(&self) -> bool {
        scalars_healthy(self.c.as_scalars())
    }

    fn profile(&mut self, p: &mut Profile<'_>) {
        let d = self.dims;
        let lanes = self.a.p();
        let plan = Arc::clone(&self.plan);
        let one = Self::one();
        let exec_ns = {
            let (a, b, c) = (&self.a, &self.b, &mut self.c);
            p.timed("core.plan.execute", || {
                let _ = plan.execute(one, a, b, one, c);
            })
        };
        let build_ns = {
            let (mode, count, cfg) = (self.mode, self.count, &self.cfg);
            p.timed("core.plan.build", || {
                let _ = black_box(GemmPlan::<E>::new(d, mode, false, false, count, cfg));
            })
        };

        let a_packed = plan.a_plan == OperandPlan::Packed;
        let b_packed = plan.b_plan == OperandPlan::Packed;
        let a_len = pkg::panel_a_len::<E>(lanes, d.m, d.k);
        let b_len = pkg::panel_b_len::<E>(lanes, d.k, d.n);
        let gp = plan.group_packs;
        let half: E::Real = Real::from_f64(0.5);
        let scratch = vec![half; gp * (a_len + b_len)];
        let pack_ns = if a_packed || b_packed {
            let (la, lb) = (
                if a_packed { a_len } else { 0 },
                if b_packed { b_len } else { 0 },
            );
            let mut part = vec![half; gp * (la + lb)];
            let cell = &*self;
            p.timed("pack.replay", || cell.replay_pack(&mut part, la, lb))
        } else {
            0.0
        };

        let mut out = CompactBatch::<E>::zeroed_at(d.m, d.n, self.count, self.cfg.width);
        let grid = self.grid();
        let fma_before = p.yard.fma_ns();
        let kernel_ns = {
            let cell = &*self;
            p.timed("kernels.replay", || {
                cell.replay_kernels(&grid, &scratch, &mut out)
            })
        };
        let fma_ns = 0.5 * (fma_before + p.yard.fma_ns());

        let (main, edge): (Vec<_>, Vec<_>) = grid.into_iter().partition(GemmTile::is_main);
        if !main.is_empty() && !edge.is_empty() {
            let cell = &*self;
            let main_ns = p.timed("kernels.replay.main", || {
                cell.replay_kernels(&main, &scratch, &mut out)
            });
            let edge_ns = p.timed("kernels.replay.edge", || {
                cell.replay_kernels(&edge, &scratch, &mut out)
            });
            let main_area: usize = main.iter().map(|t| t.h * t.w).sum();
            let share = main_area as f64 / (d.m * d.n) as f64;
            p.acc.main_ns += main_ns;
            p.acc.main_flops += self.desc.flops_per_round * share;
            p.acc.edge_ns += edge_ns;
            p.acc.edge_flops += self.desc.flops_per_round * (1.0 - share);
        }

        if p.baseline {
            let mut c_std = StdBatch::<E>::zeroed(d.m, d.n, self.count);
            let (mode, a_std, b_std) = (self.mode, &self.a_std, &self.b_std);
            let loop_ns = p.timed("baselines.blasloop", || {
                blasloop::gemm(mode, one, a_std, b_std, one, &mut c_std);
            });
            p.acc.loop_speedups.push(loop_ns / exec_ns);
        }

        let explain = plan.explain();
        let acc = &mut *p.acc;
        acc.calls += self.desc.calls_per_round as f64;
        acc.execute_ns += exec_ns;
        acc.pack_ns += pack_ns;
        acc.kernel_ns += kernel_ns;
        acc.build_ns += build_ns;
        acc.plans += 1;
        acc.group_packs += gp as f64;
        acc.pack_gemm_ns += pack_ns;
        acc.pack_gemm_bytes += explain.predicted_packed_bytes as f64;
        acc.packed_bytes += explain.predicted_packed_bytes as f64;
        acc.operands += 2;
        acc.operands_direct += u64::from(!a_packed) + u64::from(!b_packed);
        acc.kernel_gemm_flops += self.desc.flops_per_round;
        acc.kernel_gemm_peak_flops +=
            kernel_ns / fma_ns * peak_flops_per_unit(p.yard.isa(), self.desc.scalar_bytes);
        acc.flops += self.desc.flops_per_round;
        acc.bytes += (self.desc.footprint + d.m * d.n * self.count * elem_bytes::<E>()) as f64;
    }
}

// ------------------------------------------------------------- triangular

/// `op(A)·X = B` then `B = op(A)·X`: a solve and the multiply that undoes
/// it, so B returns to its starting values to rounding and the pair can run
/// back to back for ever without the values decaying.
pub struct TriCell<E: CompactElement> {
    desc: CellDesc,
    dims: TrsmDims,
    mode: TrsmMode,
    count: usize,
    cfg: TuningConfig,
    a_std: StdBatch<E>,
    a: CompactBatch<E>,
    b: CompactBatch<E>,
    trsm: Arc<TrsmPlan<E>>,
    trmm: Arc<TrmmPlan<E>>,
}

/// Block kernels of a triangular plan, one per (panel, block) grid cell,
/// row-major over panels × blocks — resolved once, as a plan does at build
/// time.
enum TriKernels<E: CompactElement> {
    /// TRSM: reciprocal diagonal, blocks top-down.
    Solve(Vec<E::TrsmK>),
    /// TRMM: direct diagonal, blocks bottom-up.
    Multiply(Vec<E::TrmmK>),
}

/// What a triangular replay needs to know about one of the two plans.
struct TriShape<E: CompactElement> {
    map: pkt::TrsmIndexMap,
    layout: Vec<pkt::ABlockLayout>,
    a_len: usize,
    panels: Vec<(usize, usize)>,
    pack_b: bool,
    kernels: TriKernels<E>,
}

impl<E: CompactElement> TriShape<E> {
    /// Whether the packed diagonal holds reciprocals (a solve).
    fn recip(&self) -> bool {
        matches!(self.kernels, TriKernels::Solve(_))
    }
}

impl<E: CompactElement> TriCell<E> {
    /// Generates operands from `rng` and takes hold of the shared plans.
    pub fn new(
        dims: TrsmDims,
        mode: TrsmMode,
        count: usize,
        cfg: &TuningConfig,
        rng: &mut Rng,
    ) -> Self {
        let t = dims.triangle_order(mode);
        let a_std = gen::triangular::<E>(t, count, mode.uplo, mode.diag, rng);
        let a = CompactBatch::from_std_at(&a_std, cfg.width);
        let b = CompactBatch::from_std_at(&gen::dense::<E>(dims.m, dims.n, count, rng), cfg.width);
        let trsm = cache::cached_trsm_plan::<E>(dims, mode, false, count, cfg)
            .expect("benchmark TRSM cells have valid shapes");
        let trmm = cache::cached_trmm_plan::<E>(dims, mode, false, count, cfg)
            .expect("benchmark TRMM cells have valid shapes");
        let desc = CellDesc {
            label: format!(
                "trsm+trmm {} {} {}x{} count={}",
                E::DTYPE,
                mode,
                dims.m,
                dims.n,
                count
            ),
            flops_per_round: 2.0 * tri_flops::<E>(dims, mode, count),
            calls_per_round: 2,
            scalar_bytes: E::DTYPE.scalar_bytes(),
            footprint: (t * t + dims.m * dims.n) * count * elem_bytes::<E>(),
        };
        TriCell {
            desc,
            dims,
            mode,
            count,
            cfg: cfg.clone(),
            a_std,
            a,
            b,
            trsm,
            trmm,
        }
    }

    fn shape(&self, blocks: &[(usize, usize)], pack_b: bool, solve: bool) -> TriShape<E> {
        let map = pkt::TrsmIndexMap::new(self.mode, false, self.dims.m, self.dims.n);
        let (layout, a_len) = pkt::a_layout::<E>(self.a.p(), blocks);
        let panels = tiles(map.bn, E::TRSM_NR);
        let width = self.cfg.width;
        let grid = panels
            .iter()
            .flat_map(|&(_, w)| blocks.iter().map(move |&(_, mb)| (mb, w)));
        let kernels = if solve {
            TriKernels::Solve(
                grid.map(|(mb, w)| E::trsm_kernel_for(width, mb, w))
                    .collect(),
            )
        } else {
            TriKernels::Multiply(
                grid.map(|(mb, w)| E::trmm_kernel_for(width, mb, w))
                    .collect(),
            )
        };
        TriShape {
            map,
            layout,
            a_len,
            panels,
            pack_b,
            kernels,
        }
    }

    fn shapes(&self) -> [TriShape<E>; 2] {
        [
            self.shape(self.trsm.blocks(), self.trsm.pack_b_structural, true),
            self.shape(self.trmm.blocks(), self.trmm.pack_b_structural, false),
        ]
    }

    /// Replays one plan's packing: the coefficient triangle of every pack
    /// and, where the mode needs it, every B panel in and back out.
    /// Returns the bytes written.
    fn replay_pack(
        &mut self,
        s: &TriShape<E>,
        buf_a: &mut [E::Real],
        panel: &mut [E::Real],
    ) -> usize {
        let p = self.a.p();
        let (a_rows, b_rows) = (self.a.rows(), self.b.rows());
        let mut scalars = 0;
        for pack in 0..self.a.packs() {
            let live = p.min(self.count - pack * p);
            pkt::pack_a_tri::<E>(
                buf_a,
                self.a.pack_slice(pack),
                a_rows,
                p,
                &s.map,
                &s.layout,
                live,
                s.recip(),
            );
            scalars += s.a_len;
            if !s.pack_b {
                continue;
            }
            for &(j0, w) in &s.panels {
                let len = pkt::panel_b_len::<E>(p, s.map.t, w);
                pkt::pack_b_panel::<E>(
                    &mut panel[..len],
                    self.b.pack_slice(pack),
                    b_rows,
                    p,
                    &s.map,
                    j0,
                    w,
                    E::one(),
                );
                // scattering a panel that was only gathered writes B's own values back
                pkt::unpack_b_panel::<E>(
                    &panel[..len],
                    self.b.pack_slice_mut(pack),
                    b_rows,
                    p,
                    &s.map,
                    j0,
                    w,
                );
                scalars += 2 * len;
            }
        }
        black_box(&*buf_a);
        scalars * core::mem::size_of::<E::Real>()
    }

    /// Replays one plan's block-kernel grid. `ab` is the packed triangle
    /// of an identity matrix, so `out` is a fixed point of every call.
    fn replay_kernels(
        &self,
        s: &TriShape<E>,
        ab: &[E::Real],
        panel: &mut [E::Real],
        out: &mut CompactBatch<E>,
    ) {
        let g = out.p() * E::SCALARS;
        let b_rows = out.rows();
        let blocks = s.layout.len();
        for pack in 0..out.packs() {
            let base = out.pack_ptr_mut(pack);
            for (pi, &(j0, w)) in s.panels.iter().enumerate() {
                let (ptr, row_stride, col_stride) = if s.pack_b {
                    (panel.as_mut_ptr(), w * g, g)
                } else {
                    // SAFETY: `j0` is a panel origin below `map.bn`, which for an
                    // in-place (left, unreversed) mode is the column count of `out`.
                    (unsafe { base.add(j0 * b_rows * g) }, g, b_rows * g)
                };
                let visit = |bi: usize| {
                    let blk = &s.layout[bi];
                    // SAFETY: `ab` was packed with this layout (`a_len` scalars), so the
                    // rect and triangle offsets lie inside it; the panel covers rows 0..t
                    // and `w` columns either in `panel` (`panel_b_len` scalars) or in one
                    // pack of `out`; handle `pi·blocks + bi` was resolved for this (mb, w).
                    unsafe {
                        let (rect, tri) =
                            (ab.as_ptr().add(blk.rect_off), ab.as_ptr().add(blk.tri_off));
                        match &s.kernels {
                            TriKernels::Solve(k) => E::trsm_kernel(
                                k[pi * blocks + bi],
                                blk.r0,
                                rect,
                                g,
                                blk.mb * g,
                                tri,
                                ptr,
                                blk.r0,
                                row_stride,
                                col_stride,
                            ),
                            TriKernels::Multiply(k) => E::trmm_kernel(
                                k[pi * blocks + bi],
                                blk.r0,
                                E::one(),
                                rect,
                                g,
                                blk.mb * g,
                                tri,
                                ptr,
                                blk.r0,
                                row_stride,
                                col_stride,
                            ),
                        }
                    }
                };
                // a solve runs top-down, a multiply bottom-up
                if s.recip() {
                    (0..blocks).for_each(visit);
                } else {
                    (0..blocks).rev().for_each(visit);
                }
            }
        }
    }
}

impl<E: CompactElement> Cell for TriCell<E> {
    fn desc(&self) -> &CellDesc {
        &self.desc
    }

    fn run(&mut self, rounds: u64) -> u64 {
        let mut failed = 0;
        for _ in 0..rounds {
            let r = compact_trsm(self.mode, E::one(), &self.a, &mut self.b, &self.cfg);
            failed += u64::from(r.is_err());
            let r = compact_trmm(self.mode, E::one(), &self.a, &mut self.b, &self.cfg);
            failed += u64::from(r.is_err());
        }
        failed
    }

    fn lookup(&mut self, rounds: u64) {
        for _ in 0..rounds {
            let plan =
                cache::cached_trsm_plan::<E>(self.dims, self.mode, false, self.count, &self.cfg);
            let _ = black_box(plan);
            let plan =
                cache::cached_trmm_plan::<E>(self.dims, self.mode, false, self.count, &self.cfg);
            let _ = black_box(plan);
        }
    }

    fn execute(&mut self, rounds: u64) -> u64 {
        let mut failed = 0;
        for _ in 0..rounds {
            failed += u64::from(self.trsm.execute(E::one(), &self.a, &mut self.b).is_err());
            failed += u64::from(self.trmm.execute(E::one(), &self.a, &mut self.b).is_err());
        }
        failed
    }

    fn check(&mut self, rng: &mut Rng, inject: bool) -> bool {
        let idx = sample_indices(self.count, rng);
        let a_s = gather_std(&self.a_std, &idx);
        let t = self.dims.triangle_order(self.mode);

        let mut want = gather_compact(&self.b, &idx);
        naive::trsm_ref(self.mode, false, E::one(), &a_s, &mut want);
        if compact_trsm(self.mode, E::one(), &self.a, &mut self.b, &self.cfg).is_err() {
            return false;
        }
        let mut solved = gather_compact(&self.b, &idx);
        if inject {
            corrupt(&mut solved);
        }
        let solve_ok = agrees(&solved, &want, t);

        // the multiply is checked on what the library's solve actually left in B
        let mut want = gather_compact(&self.b, &idx);
        naive::trmm_ref(self.mode, false, E::one(), &a_s, &mut want);
        if compact_trmm(self.mode, E::one(), &self.a, &mut self.b, &self.cfg).is_err() {
            return false;
        }
        solve_ok && agrees(&gather_compact(&self.b, &idx), &want, t)
    }

    fn healthy(&self) -> bool {
        scalars_healthy(self.b.as_scalars())
    }

    fn profile(&mut self, p: &mut Profile<'_>) {
        let one = E::one();
        let lanes = self.a.p();
        let (trsm, trmm) = (Arc::clone(&self.trsm), Arc::clone(&self.trmm));
        let exec_ns = {
            let (a, b) = (&self.a, &mut self.b);
            p.timed("core.plan.execute", || {
                let _ = trsm.execute(one, a, b);
                let _ = trmm.execute(one, a, b);
            })
        };
        let build_ns = {
            let (dims, mode, count, cfg) = (self.dims, self.mode, self.count, &self.cfg);
            p.timed("core.plan.build", || {
                let _ = black_box(TrsmPlan::<E>::new(dims, mode, false, count, cfg));
                let _ = black_box(TrmmPlan::<E>::new(dims, mode, false, count, cfg));
            })
        };

        let shapes = self.shapes();
        let t = shapes[0].map.t;
        let panel_len = pkt::panel_b_len::<E>(lanes, t, E::TRSM_NR);
        let mut panel = vec![E::Real::ZERO; panel_len];
        let mut buf_a = vec![E::Real::ZERO; shapes[0].a_len.max(shapes[1].a_len)];
        let mut packed_bytes = 0;
        let pack_ns = {
            let cell = &mut *self;
            p.timed("pack.replay", || {
                packed_bytes = 0;
                for s in &shapes {
                    packed_bytes += cell.replay_pack(s, &mut buf_a[..s.a_len], &mut panel);
                }
            })
        };

        // identity coefficients: every replayed solve and multiply leaves `out` as it was
        let ident = CompactBatch::from_std_at(
            &StdBatch::<E>::from_fn(
                t,
                t,
                lanes,
                |_, i, j| if i == j { E::one() } else { E::zero() },
            ),
            self.cfg.width,
        );
        let packed: Vec<Vec<E::Real>> = shapes
            .iter()
            .map(|s| {
                let mut ab = vec![E::Real::ZERO; s.a_len];
                pkt::pack_a_tri::<E>(
                    &mut ab,
                    ident.pack_slice(0),
                    t,
                    lanes,
                    &s.map,
                    &s.layout,
                    lanes,
                    s.recip(),
                );
                ab
            })
            .collect();
        let mut out = self.b.clone();
        let fma_before = p.yard.fma_ns();
        let kernel_ns = {
            let cell = &*self;
            p.timed("kernels.replay", || {
                for (s, ab) in shapes.iter().zip(&packed) {
                    cell.replay_kernels(s, ab, &mut panel, &mut out);
                }
            })
        };
        let fma_ns = 0.5 * (fma_before + p.yard.fma_ns());

        if p.baseline {
            // solve only: `blasloop` has no multiply. B is restored before every solve.
            let pristine = self.b.clone();
            let mut iatf_ns = f64::MAX;
            for _ in 0..5 {
                self.b
                    .as_scalars_mut()
                    .copy_from_slice(pristine.as_scalars());
                let t0 = Instant::now();
                let _ = trsm.execute(one, &self.a, &mut self.b);
                iatf_ns = iatf_ns.min(t0.elapsed().as_nanos() as f64);
            }
            self.b = pristine;
            let b_pristine = self.b.to_std();
            let mut b_std = b_pristine.clone();
            let mut loop_ns = f64::MAX;
            let token = p.rec.open("baselines.blasloop", p.call);
            for _ in 0..3 {
                b_std.as_mut_slice().copy_from_slice(b_pristine.as_slice());
                let t0 = Instant::now();
                blasloop::trsm(self.mode, one, &self.a_std, &mut b_std);
                loop_ns = loop_ns.min(t0.elapsed().as_nanos() as f64);
            }
            p.rec.close(token, 3);
            p.acc.loop_speedups.push(loop_ns / iatf_ns.max(1.0));
        }

        let predicted =
            (trsm.explain().predicted_packed_bytes + trmm.explain().predicted_packed_bytes) as f64;
        let peak = peak_flops_per_unit(p.yard.isa(), self.desc.scalar_bytes);
        let acc = &mut *p.acc;
        acc.calls += self.desc.calls_per_round as f64;
        acc.execute_ns += exec_ns;
        acc.pack_ns += pack_ns;
        acc.kernel_ns += kernel_ns;
        acc.build_ns += build_ns;
        acc.plans += 2;
        acc.group_packs += (trsm.group_packs + trmm.group_packs) as f64;
        acc.pack_tri_ns += pack_ns;
        acc.pack_tri_bytes += packed_bytes as f64;
        acc.packed_bytes += predicted;
        acc.operands += 4;
        acc.operands_direct += u64::from(!shapes[0].pack_b) + u64::from(!shapes[1].pack_b);
        acc.kernel_tri_flops += self.desc.flops_per_round;
        acc.kernel_tri_peak_flops += kernel_ns / fma_ns * peak;
        acc.flops += self.desc.flops_per_round;
        acc.bytes += 2.0
            * (self.desc.footprint + self.dims.m * self.dims.n * self.count * elem_bytes::<E>())
                as f64;
    }
}

// ------------------------------------------------------------------ chain

/// One block Gauss–Seidel step from standard layout, as
/// `examples/block_jacobi.rs` does it: convert the right-hand side and the
/// iterate, `r = b − A·x`, solve `(L + D)·dx = r`, convert `dx` back.
pub struct ChainCell<E: CompactElement> {
    desc: CellDesc,
    n: usize,
    nrhs: usize,
    count: usize,
    cfg: TuningConfig,
    a_std: StdBatch<E>,
    a: CompactBatch<E>,
    b_std: StdBatch<E>,
    x_std: StdBatch<E>,
    dx_std: StdBatch<E>,
}

impl<E: CompactElement> ChainCell<E> {
    /// Generates the operators (converted once, here) and the step's
    /// standard-layout inputs.
    pub fn new(n: usize, nrhs: usize, count: usize, cfg: &TuningConfig, rng: &mut Rng) -> Self {
        let a_std = gen::dominant::<E>(n, count, rng);
        let a = CompactBatch::from_std_at(&a_std, cfg.width);
        let b_std = gen::dense::<E>(n, nrhs, count, rng);
        let x_std = gen::dense::<E>(n, nrhs, count, rng);
        let dims = GemmDims::new(n, nrhs, n);
        let tdims = TrsmDims::new(n, nrhs);
        let desc = CellDesc {
            label: format!("gs-step {} n={} nrhs={} count={}", E::DTYPE, n, nrhs, count),
            flops_per_round: gemm_flops::<E>(dims, count)
                + tri_flops::<E>(tdims, TrsmMode::LNLN, count),
            calls_per_round: 1,
            scalar_bytes: E::DTYPE.scalar_bytes(),
            footprint: Self::bytes_per_system(n, nrhs) * count,
        };
        ChainCell {
            desc,
            n,
            nrhs,
            count,
            cfg: cfg.clone(),
            a_std,
            a,
            b_std,
            x_std,
            dx_std: StdBatch::zeroed(n, nrhs, count),
        }
    }

    /// Working set of one system across a step: the operator, three
    /// standard-layout vectors (b, x, dx) and two compact ones (r, x).
    pub fn bytes_per_system(n: usize, nrhs: usize) -> usize {
        (n * n + 5 * n * nrhs) * E::DTYPE.elem_bytes()
    }

    fn minus_one() -> E {
        E::one().neg()
    }

    fn step(&mut self) -> u64 {
        let width = self.cfg.width;
        let mut r = CompactBatch::from_std_at(&self.b_std, width);
        let x = CompactBatch::from_std_at(&self.x_std, width);
        let gemm = compact_gemm(
            GemmMode::NN,
            Self::minus_one(),
            &self.a,
            &x,
            E::one(),
            &mut r,
            &self.cfg,
        );
        let trsm = compact_trsm(TrsmMode::LNLN, E::one(), &self.a, &mut r, &self.cfg);
        r.unpack_into(&mut self.dx_std);
        u64::from(gemm.is_err()) + u64::from(trsm.is_err())
    }
}

impl<E: CompactElement> Cell for ChainCell<E> {
    fn desc(&self) -> &CellDesc {
        &self.desc
    }

    fn run(&mut self, rounds: u64) -> u64 {
        (0..rounds).map(|_| self.step()).sum()
    }

    fn lookup(&mut self, _rounds: u64) {}

    fn execute(&mut self, rounds: u64) -> u64 {
        self.run(rounds)
    }

    /// A step's calls are long enough to time one by one, so the traced
    /// step *is* the step, with a span around each call.
    fn traced(&mut self, rounds: u64, rec: &mut Recorder, call: u32) -> TracedOut {
        let mut out = TracedOut::default();
        let whole = rec.open("step", call);
        for _ in 0..rounds {
            let width = self.cfg.width;
            let t = rec.open("layout.from_std", call);
            let mut r = CompactBatch::from_std_at(&self.b_std, width);
            let x = CompactBatch::from_std_at(&self.x_std, width);
            out.attributed_ns += rec.close(t, 2);
            let t = rec.open("core.api.gemm", call);
            let g = compact_gemm(
                GemmMode::NN,
                Self::minus_one(),
                &self.a,
                &x,
                E::one(),
                &mut r,
                &self.cfg,
            );
            let gemm_ns = rec.close(t, 1);
            let t = rec.open("core.api.trsm", call);
            let s = compact_trsm(TrsmMode::LNLN, E::one(), &self.a, &mut r, &self.cfg);
            let trsm_ns = rec.close(t, 1);
            let t = rec.open("layout.unpack", call);
            r.unpack_into(&mut self.dx_std);
            out.attributed_ns += rec.close(t, 1) + gemm_ns + trsm_ns;
            out.failed += u64::from(g.is_err()) + u64::from(s.is_err());
        }
        out.oneshot_ns = rec.close(whole, rounds);
        // nothing of a step is dispatch in the sense of a one-shot call: all of it is work
        out.execute_ns = out.attributed_ns;
        out
    }

    fn check(&mut self, rng: &mut Rng, inject: bool) -> bool {
        let idx = sample_indices(self.count, rng);
        let a_s = gather_std(&self.a_std, &idx);
        let mut want = gather_std(&self.b_std, &idx);
        naive::gemm_ref(
            GemmMode::NN,
            false,
            false,
            Self::minus_one(),
            &a_s,
            &gather_std(&self.x_std, &idx),
            E::one(),
            &mut want,
        );
        naive::trsm_ref(TrsmMode::LNLN, false, E::one(), &a_s, &mut want);
        if self.run(1) != 0 {
            return false;
        }
        let mut got = gather_std(&self.dx_std, &idx);
        if inject {
            corrupt(&mut got);
        }
        agrees(&got, &want, 2 * self.n)
    }

    fn healthy(&self) -> bool {
        self.dx_std.as_slice().iter().all(|x| x.is_finite())
    }

    fn profile(&mut self, p: &mut Profile<'_>) {
        let width = self.cfg.width;
        let elems = (self.n * self.nrhs * self.count) as f64;
        let (b_std, x_std) = (&self.b_std, &self.x_std);
        let from_ns = p.timed("layout.from_std", || {
            black_box(CompactBatch::from_std_at(b_std, width));
            black_box(CompactBatch::from_std_at(x_std, width));
        });
        let r = CompactBatch::from_std_at(&self.b_std, width);
        let dx = &mut self.dx_std;
        let unpack_ns = p.timed("layout.unpack", || r.unpack_into(dx));
        let step_ns = {
            let cell = &mut *self;
            p.timed("step", || {
                cell.run(1);
            })
        };
        let acc = &mut *p.acc;
        acc.calls += 1.0;
        acc.from_std_ns += from_ns;
        acc.from_std_elems += 2.0 * elems;
        acc.unpack_ns += unpack_ns;
        acc.unpack_elems += elems;
        // every converted element is read once and written once
        acc.layout_bytes += 2.0 * 3.0 * elems * elem_bytes::<E>() as f64;
        acc.step_ns += step_ns;
        acc.step_layout_ns += from_ns + unpack_ns;
        acc.flops += self.desc.flops_per_round;
        acc.bytes += self.desc.footprint as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_layout::Side;

    #[test]
    fn flop_formulas_follow_the_layout_crate() {
        let d = GemmDims::new(7, 3, 9);
        assert_eq!(gemm_flops::<f64>(d, 5), 2.0 * d.macs() as f64 * 5.0);
        assert_eq!(
            gemm_flops::<iatf_simd::c32>(d, 5),
            8.0 * d.macs() as f64 * 5.0
        );
        assert_eq!(d.macs(), 7 * 3 * 9);
        let t = TrsmDims::new(6, 4);
        for mode in TrsmMode::all() {
            let order = if mode.side == Side::Left { 6 } else { 4 };
            assert_eq!(t.triangle_order(mode), order);
            assert_eq!(
                tri_flops::<f32>(t, mode, 3),
                2.0 * t.macs(mode) as f64 * 3.0
            );
        }
    }

    #[test]
    fn peak_flops_follow_lanes() {
        assert_eq!(peak_flops_per_unit(Isa::V512, 8), 16.0);
        assert_eq!(peak_flops_per_unit(Isa::V512, 4), 32.0);
        assert_eq!(peak_flops_per_unit(Isa::V128, 8), 4.0);
        assert_eq!(peak_flops_per_unit(Isa::Scalar, 4), 2.0);
    }

    #[test]
    fn tiles_cover_the_range_once() {
        assert_eq!(tiles(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(tiles(4, 4), vec![(0, 4)]);
        assert!(tiles(0, 4).is_empty());
    }

    fn cfg() -> TuningConfig {
        TuningConfig::host()
    }

    #[test]
    fn gemm_cell_checks_and_detects_an_injected_fault() {
        let mut cell = GemmCell::<f64>::new(
            GemmDims::new(5, 6, 7),
            GemmMode::TN,
            11,
            &cfg(),
            &mut Rng::new(1, 1),
        );
        let mut rng = Rng::new(2, 0);
        assert!(cell.check(&mut rng, false));
        assert_eq!(cell.run(3), 0);
        assert_eq!(cell.execute(2), 0);
        assert!(cell.check(&mut rng, false));
        assert!(!cell.check(&mut rng, true));
        assert!(cell.healthy());
    }

    #[test]
    fn tri_pair_returns_to_its_start_and_checks() {
        for mode in [
            TrsmMode::LNLN,
            TrsmMode::LNUN,
            TrsmMode::new(
                Side::Right,
                iatf_layout::Trans::Yes,
                iatf_layout::Uplo::Upper,
                iatf_layout::Diag::Unit,
            ),
        ] {
            let mut cell =
                TriCell::<f32>::new(TrsmDims::new(9, 5), mode, 19, &cfg(), &mut Rng::new(4, 2));
            let start = cell.b.clone();
            assert_eq!(cell.run(200), 0);
            assert!(cell.b.max_abs_diff(&start) < 1e-3, "{mode}");
            let mut rng = Rng::new(5, 0);
            assert!(cell.check(&mut rng, false), "{mode}");
            assert!(!cell.check(&mut rng, true), "{mode}");
            assert!(cell.healthy());
        }
    }

    #[test]
    fn chain_cell_matches_the_oracle_traced_or_not() {
        let mut cell = ChainCell::<f64>::new(12, 4, 37, &cfg(), &mut Rng::new(6, 3));
        let mut rng = Rng::new(7, 0);
        assert!(cell.check(&mut rng, false));
        let mut rec = Recorder::new();
        let slot = rec.open("slot", 0);
        let out = cell.traced(2, &mut rec, 0);
        assert_eq!(out.failed, 0);
        assert!(out.attributed_ns <= out.oneshot_ns && out.execute_ns == out.attributed_ns);
        rec.close(slot, 2);
        assert_eq!(rec.total("layout.from_std").count, 4);
        assert!(cell.check(&mut rng, false));
        assert!(!cell.check(&mut rng, true));
    }

    #[test]
    fn replays_run_inside_their_buffers() {
        let mut yard = Yardstick::new(
            Isa::for_width_bits(cfg().width.bits()),
            crate::refk::RefKind::Fma,
            0,
            2.0e4,
        );
        let mut rec = Recorder::new();
        let mut acc = LayerAcc::default();
        let mut cells: Vec<Box<dyn Cell>> = vec![
            Box::new(GemmCell::<f32>::new(
                GemmDims::new(7, 3, 9),
                GemmMode::TT,
                21,
                &cfg(),
                &mut Rng::new(8, 1),
            )),
            Box::new(GemmCell::<iatf_simd::c64>::new(
                GemmDims::square(5),
                GemmMode::NT,
                9,
                &cfg(),
                &mut Rng::new(8, 2),
            )),
            Box::new(TriCell::<f64>::new(
                TrsmDims::square(12),
                TrsmMode::LTLN,
                17,
                &cfg(),
                &mut Rng::new(8, 3),
            )),
            Box::new(TriCell::<iatf_simd::c32>::new(
                TrsmDims::new(4, 6),
                TrsmMode::LNUN,
                5,
                &cfg(),
                &mut Rng::new(8, 4),
            )),
        ];
        for (i, cell) in cells.iter_mut().enumerate() {
            let slot = rec.open("profile", i as u32);
            cell.profile(&mut Profile {
                rec: &mut rec,
                acc: &mut acc,
                yard: &mut yard,
                budget: Duration::from_micros(200),
                call: i as u32,
                baseline: true,
            });
            rec.close(slot, 1);
            // profiling must leave the cell's operands usable and correct
            assert!(cell.check(&mut Rng::new(9, i as u64), false));
        }
        assert_eq!(acc.plans, 6);
        assert!(acc.kernel_ns > 0.0 && acc.pack_ns > 0.0 && acc.execute_ns > 0.0);
        assert_eq!(acc.loop_speedups.len(), 4);
        assert!(acc.edge_flops > 0.0 && acc.main_flops > 0.0);
    }
}
