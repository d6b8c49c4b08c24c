//! The computing-kernel generators: Algorithm 3 (GEMM), Algorithm 4
//! (TRSM triangular), and the fused blocked TRSM/TRMM kernels, emitting
//! complete straight-line kernels.
//!
//! Every generator has a `*_traced` variant returning a [`TracedProgram`]:
//! the same instruction stream plus a [`Span`] per emitted template. The
//! trace is the hook `iatf-verify` uses to check Algorithm-3 sequencing and
//! the ping-pong invariant (each template issues the loads its successor
//! consumes) without re-deriving template boundaries from the raw IR.

use crate::ir::{DataType, Program};
use crate::templates::{
    prefetch_c, template_e, template_e0, template_i, template_m1, template_m2, template_save,
    template_sub, trsm_load_column, trsm_load_triangle, trsm_solve_column, RegMap, Set,
    TrsmRegMap,
};

/// Specification of a GEMM kernel to generate.
#[derive(Copy, Clone, Debug)]
pub struct GemmKernelSpec {
    /// Tile rows `m_c` (1..=4).
    pub mc: usize,
    /// Tile columns `n_c` (1..=4).
    pub nc: usize,
    /// Depth K (the group's inner dimension; small-matrix regime, so the
    /// kernel is fully unrolled).
    pub k: usize,
    /// Element type.
    pub dtype: DataType,
    /// `alpha` folded into the SAVE template (`C += alpha · A·B`).
    pub alpha: f64,
    /// C leading dimension in element groups.
    pub ldc: usize,
}

/// Which template (or kernel phase) emitted a span of instructions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TemplateId {
    /// C-tile prefetch prologue (§4.3).
    PrefetchC,
    /// `TEMPLATE_I`: loads both sets, computes step 0.
    I,
    /// `TEMPLATE_M1`: loads set 1, computes set 0.
    M1,
    /// `TEMPLATE_M2`: loads set 0, computes set 1.
    M2,
    /// `TEMPLATE_E`: compute-only exit on set 1.
    E,
    /// Compute-only exit on set 0 (corrected odd-K tail).
    E0,
    /// `TEMPLATE_SUB`: the K = 1 single-sliver arm.
    Sub,
    /// `TEMPLATE_SAVE`.
    Save,
    /// Algorithm 4: whole-triangle load.
    TrsmLoadTriangle,
    /// Algorithm 4: load of B column `l` into the idle set.
    TrsmLoadColumn(usize),
    /// Algorithm 4: in-register solve + store of column `l`.
    TrsmSolveColumn(usize),
    /// Blocked kernels: prologue (prefetch + accumulator loads).
    BlockProlog,
    /// Blocked kernels: rect-sliver load for elimination step `k`.
    BlockRectLoad(usize),
    /// Blocked kernels: rect elimination compute for step `k`.
    BlockRectCompute(usize),
    /// Blocked TRSM: the in-register triangular solve phase.
    BlockTri,
    /// Blocked kernels: scale (TRMM) and store of the finished block.
    BlockStore,
    /// TRMM: load of L column `j`'s slivers and the B block row `j`.
    TrmmTriLoad(usize),
    /// TRMM: triangular multiply step `j` (consumes `TrmmTriLoad(j)`).
    TrmmTriCompute(usize),
}

/// One traced span: instructions `start..end` were emitted by `id`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The emitting template.
    pub id: TemplateId,
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

/// A generated program plus its template trace (spans cover
/// `0..program.len()` contiguously, in order).
#[derive(Clone, Debug)]
pub struct TracedProgram {
    /// The generated kernel.
    pub program: Program,
    /// Template spans in emission order.
    pub spans: Vec<Span>,
}

fn span<F: FnOnce(&mut Program)>(
    p: &mut Program,
    spans: &mut Vec<Span>,
    id: TemplateId,
    f: F,
) {
    let start = p.len();
    f(p);
    spans.push(Span {
        id,
        start,
        end: p.len(),
    });
}

/// Generates a complete GEMM microkernel per Algorithm 3.
///
/// Template sequence (with the printed algorithm's odd-K tail corrected so
/// no load runs past the panel):
///
/// * `K = 1` → `SUB` on an implicitly-zero accumulator — here the
///   accumulator is produced by the first `FMUL`, so `SUB`'s compute uses
///   `FMUL` semantics via `TEMPLATE_I`'s single-sliver variant;
/// * `K = 2` → `I; E`;
/// * `K = 3` → `I; M2; E0`;
/// * even `K ≥ 4` → `I; M2; (M1; M2)×; M1; E`;
/// * odd `K ≥ 5` → `I; M2; (M1; M2)×; E0`.
pub fn generate_gemm_kernel(spec: &GemmKernelSpec) -> Program {
    generate_gemm_kernel_traced(spec).program
}

/// [`generate_gemm_kernel`] with the template trace attached.
pub fn generate_gemm_kernel_traced(spec: &GemmKernelSpec) -> TracedProgram {
    assert!(spec.mc >= 1 && spec.nc >= 1 && spec.k >= 1);
    let r = RegMap {
        mc: spec.mc,
        nc: spec.nc,
    };
    assert!(r.high_water() < 32, "kernel does not fit the register file");
    let mut p = Program::new(spec.dtype);
    let mut spans = Vec::new();
    span(&mut p, &mut spans, TemplateId::PrefetchC, |p| {
        prefetch_c(p, &r, spec.ldc);
    });

    if spec.k == 1 {
        // single sliver: load set 0 and FMUL (SUB with empty accumulator)
        span(&mut p, &mut spans, TemplateId::Sub, |p| sub_first(p, &r));
    } else {
        span(&mut p, &mut spans, TemplateId::I, |p| template_i(p, &r));
        // steps remaining after I computed step 0; set 1 holds step 1
        let mut remaining = spec.k - 1;
        // M2 computes set 1 / loads set 0; M1 the reverse.
        let mut next_is_m2 = true;
        while remaining >= 2 {
            if next_is_m2 {
                span(&mut p, &mut spans, TemplateId::M2, |p| template_m2(p, &r));
            } else {
                span(&mut p, &mut spans, TemplateId::M1, |p| template_m1(p, &r));
            }
            next_is_m2 = !next_is_m2;
            remaining -= 1;
        }
        // one compute left, operands already in registers
        if next_is_m2 {
            span(&mut p, &mut spans, TemplateId::E, |p| template_e(p, &r));
        } else {
            span(&mut p, &mut spans, TemplateId::E0, |p| template_e0(p, &r));
        }
    }

    span(&mut p, &mut spans, TemplateId::Save, |p| {
        template_save(p, &r, spec.alpha, spec.ldc);
    });
    TracedProgram { program: p, spans }
}

/// Generates a complete *complex* GEMM microkernel (split representation)
/// with the same Algorithm-3 template sequencing as
/// [`generate_gemm_kernel`]. `alpha` is restricted to a real scalar (the
/// benchmark convention); `ldc` is in complex element groups.
pub fn generate_cgemm_kernel(spec: &GemmKernelSpec) -> Program {
    generate_cgemm_kernel_traced(spec).program
}

/// [`generate_cgemm_kernel`] with the template trace attached.
pub fn generate_cgemm_kernel_traced(spec: &GemmKernelSpec) -> TracedProgram {
    use crate::ctemplates::*;
    assert!(spec.mc >= 1 && spec.nc >= 1 && spec.k >= 1);
    let r = CRegMap {
        mc: spec.mc,
        nc: spec.nc,
    };
    assert!(r.high_water() < 32, "kernel does not fit the register file");
    let mut p = Program::new(spec.dtype);
    let mut spans = Vec::new();
    span(&mut p, &mut spans, TemplateId::PrefetchC, |p| {
        p.push(crate::ir::Inst::Prfm {
            base: crate::ir::XReg::Pc,
            offset: 0,
        });
    });

    if spec.k == 1 {
        span(&mut p, &mut spans, TemplateId::Sub, |p| {
            ctemplate_sub(p, &r, true);
        });
    } else {
        span(&mut p, &mut spans, TemplateId::I, |p| ctemplate_i(p, &r));
        let mut remaining = spec.k - 1;
        let mut next_is_m2 = true;
        while remaining >= 2 {
            if next_is_m2 {
                span(&mut p, &mut spans, TemplateId::M2, |p| ctemplate_m2(p, &r));
            } else {
                span(&mut p, &mut spans, TemplateId::M1, |p| ctemplate_m1(p, &r));
            }
            next_is_m2 = !next_is_m2;
            remaining -= 1;
        }
        if next_is_m2 {
            span(&mut p, &mut spans, TemplateId::E, |p| ctemplate_e(p, &r));
        } else {
            span(&mut p, &mut spans, TemplateId::E0, |p| ctemplate_e0(p, &r));
        }
    }
    span(&mut p, &mut spans, TemplateId::Save, |p| {
        ctemplate_save(p, &r, spec.alpha, spec.ldc);
    });
    TracedProgram { program: p, spans }
}

/// `TEMPLATE_SUB` variant whose compute is the accumulator-initializing
/// `FMUL` (the K = 1 arm of Algorithm 3, lines 7–8).
fn sub_first(p: &mut Program, r: &RegMap) {
    // identical loads to template_sub, FMUL compute
    let before = p.len();
    template_sub(p, r);
    // rewrite the FMLAs into FMULs (SUB emitted FMLA; on the zeroed
    // accumulator the paper's "empty" accumulator is an FMUL)
    for inst in &mut p.insts[before..] {
        if let crate::ir::Inst::Fmla { vd, vn, vm } = *inst {
            *inst = crate::ir::Inst::Fmul { vd, vn, vm };
        }
    }
}

/// Generates the register-resident TRSM triangular kernel per Algorithm 4:
/// the whole packed triangle (reciprocal diagonal) is loaded once, then each
/// of the `n` B columns is loaded, solved in registers, and stored back,
/// ping-ponging between the two column register sets.
pub fn generate_trsm_tri_kernel(m: usize, n: usize, dtype: DataType) -> Program {
    generate_trsm_tri_kernel_traced(m, n, dtype).program
}

/// [`generate_trsm_tri_kernel`] with the template trace attached.
pub fn generate_trsm_tri_kernel_traced(m: usize, n: usize, dtype: DataType) -> TracedProgram {
    assert!((1..=5).contains(&m), "register capacity is M ≤ 5 (§4.2.2)");
    assert!(n >= 1);
    let r = TrsmRegMap { m };
    assert!(r.high_water() < 32);
    let mut p = Program::new(dtype);
    let mut spans = Vec::new();
    span(&mut p, &mut spans, TemplateId::TrsmLoadTriangle, |p| {
        trsm_load_triangle(p, &r);
    });
    // ping-pong: load column l+1 into the idle set before solving column l
    let set_of = |l: usize| if l % 2 == 0 { Set::Zero } else { Set::One };
    span(&mut p, &mut spans, TemplateId::TrsmLoadColumn(0), |p| {
        trsm_load_column(p, &r, set_of(0), 0);
    });
    for l in 0..n {
        if l + 1 < n {
            span(&mut p, &mut spans, TemplateId::TrsmLoadColumn(l + 1), |p| {
                trsm_load_column(p, &r, set_of(l + 1), l + 1);
            });
        }
        span(&mut p, &mut spans, TemplateId::TrsmSolveColumn(l), |p| {
            trsm_solve_column(p, &r, set_of(l), l);
        });
    }
    TracedProgram { program: p, spans }
}

/// Generates a fused blocked-TRSM kernel: the rectangular FMLS elimination
/// of `kk` already-solved rows (paper Eq. 4 / Table 1's rectangular
/// kernels) followed by the register triangular solve of an `mb`-row
/// diagonal block, over an `nr`-wide B panel.
///
/// Memory layout: the packed rectangular strip at offset 0 of `Ptri`, the
/// block's triangle after it at `kk·mb·16` bytes (row `r` holds `r+1`
/// groups, reciprocal diagonal last), and the row-major panel behind `Pb`
/// (`row_stride = nr` groups); the block solves rows `kk .. kk+mb`. This is
/// the paper's §4.4 row-packed triangle, not the operand contract of
/// `iatf_kernels::trsm_ukr`, whose strip continues into the strictly lower
/// triangle and whose diagonal is a separate run of `mb` groups; the
/// equivalence tests convert one layout into the other.
///
/// Register budget: `mb·nr` accumulators + `2·mb` A-sliver + `2·nr` X
/// ping-pong registers — for the main 4×4 block exactly the 32-register
/// file, like the GEMM kernel.
pub fn generate_trsm_block_kernel(mb: usize, nr: usize, kk: usize, dtype: DataType) -> Program {
    generate_trsm_block_kernel_traced(mb, nr, kk, dtype).program
}

/// [`generate_trsm_block_kernel`] with the template trace attached.
pub fn generate_trsm_block_kernel_traced(
    mb: usize,
    nr: usize,
    kk: usize,
    dtype: DataType,
) -> TracedProgram {
    use crate::ir::{Inst, VReg, XReg};
    assert!((1..=4).contains(&mb) && (1..=4).contains(&nr));
    let acc = |i: usize, j: usize| VReg((i * nr + j) as u8);
    let a_reg = |set: usize, i: usize| VReg((mb * nr + set * mb + i) as u8);
    let x_reg = |set: usize, j: usize| VReg((mb * nr + 2 * mb + set * nr + j) as u8);
    assert!(mb * nr + 2 * mb + 2 * nr <= 32);

    let row_bytes = (nr * 16) as i32; // panel row stride
    let mut p = Program::new(dtype);
    let mut spans = Vec::new();

    span(&mut p, &mut spans, TemplateId::BlockProlog, |p| {
        p.push(Inst::Prfm {
            base: XReg::Pb,
            offset: (kk as i32) * row_bytes,
        });
        // load the target block into the accumulators
        for i in 0..mb {
            for j in 0..nr {
                p.push(Inst::Ldr {
                    dst: acc(i, j),
                    base: XReg::Pb,
                    offset: ((kk + i) as i32) * row_bytes + (j * 16) as i32,
                });
            }
        }
    });

    // rectangular elimination, ping-pong over the solved rows
    let rect_off = |k: usize, i: usize| ((k * mb + i) * 16) as i32;
    let load_sliver = |p: &mut Program, set: usize, k: usize| {
        for i in 0..mb {
            p.push(Inst::Ldr {
                dst: a_reg(set, i),
                base: XReg::Ptri,
                offset: rect_off(k, i),
            });
        }
        for j in 0..nr {
            p.push(Inst::Ldr {
                dst: x_reg(set, j),
                base: XReg::Pb,
                offset: (k as i32) * row_bytes + (j * 16) as i32,
            });
        }
    };
    let compute = |p: &mut Program, set: usize| {
        for i in 0..mb {
            for j in 0..nr {
                p.push(Inst::Fmls {
                    vd: acc(i, j),
                    vn: a_reg(set, i),
                    vm: x_reg(set, j),
                });
            }
        }
    };
    if kk > 0 {
        span(&mut p, &mut spans, TemplateId::BlockRectLoad(0), |p| {
            load_sliver(p, 0, 0);
        });
        if kk > 1 {
            span(&mut p, &mut spans, TemplateId::BlockRectLoad(1), |p| {
                load_sliver(p, 1, 1);
            });
        }
        for k in 0..kk {
            // double-buffering: compute with set k%2, then refill that set
            // with the sliver after next
            let set = k % 2;
            span(&mut p, &mut spans, TemplateId::BlockRectCompute(k), |p| {
                compute(p, set);
            });
            if k + 2 < kk {
                span(&mut p, &mut spans, TemplateId::BlockRectLoad(k + 2), |p| {
                    load_sliver(p, set, k + 2);
                });
            }
        }
    }

    // triangular solve with reciprocal diagonal; lij loaded into a dead
    // A-sliver register
    let tri_base = (kk * mb * 16) as i32;
    let scratch = a_reg(0, 0);
    span(&mut p, &mut spans, TemplateId::BlockTri, |p| {
        for i in 0..mb {
            let row = i * (i + 1) / 2;
            for j in 0..i {
                p.push(Inst::Ldr {
                    dst: scratch,
                    base: XReg::Ptri,
                    offset: tri_base + ((row + j) * 16) as i32,
                });
                for col in 0..nr {
                    p.push(Inst::Fmls {
                        vd: acc(i, col),
                        vn: scratch,
                        vm: acc(j, col),
                    });
                }
            }
            p.push(Inst::Ldr {
                dst: scratch,
                base: XReg::Ptri,
                offset: tri_base + ((row + i) * 16) as i32,
            });
            for col in 0..nr {
                p.push(Inst::Fmul {
                    vd: acc(i, col),
                    vn: acc(i, col),
                    vm: scratch,
                });
            }
        }
    });

    // store the solved block
    span(&mut p, &mut spans, TemplateId::BlockStore, |p| {
        for i in 0..mb {
            for j in 0..nr {
                p.push(Inst::Str {
                    src: acc(i, j),
                    base: XReg::Pb,
                    offset: ((kk + i) as i32) * row_bytes + (j * 16) as i32,
                });
            }
        }
    });
    TracedProgram { program: p, spans }
}

/// Generates a fused blocked-TRMM kernel mirroring
/// `iatf_kernels::trmm_ukr`: the triangular multiply of the diagonal block
/// (direct diagonal — multiplied, never divided), then the rectangular FMLA
/// accumulation of the `kk` rows above, then an `alpha` scale and store.
///
/// Memory layout matches the generated TRSM block kernel: rect strip at
/// offset 0 of `Ptri`, the row-packed triangle at `kk·mb·16` bytes (with a
/// *direct* diagonal), and the row-major panel behind `Pb` (`row_stride =
/// nr` groups); the block computes rows `kk .. kk+mb` from the *original*
/// panel values (the bottom-up driver guarantees rows ≤ kk+mb are still
/// original).
///
/// Register budget: identical to the TRSM block kernel, `mb·nr + 2·mb +
/// 2·nr ≤ 32`.
pub fn generate_trmm_block_kernel(
    mb: usize,
    nr: usize,
    kk: usize,
    alpha: f64,
    dtype: DataType,
) -> Program {
    generate_trmm_block_kernel_traced(mb, nr, kk, alpha, dtype).program
}

/// [`generate_trmm_block_kernel`] with the template trace attached.
pub fn generate_trmm_block_kernel_traced(
    mb: usize,
    nr: usize,
    kk: usize,
    alpha: f64,
    dtype: DataType,
) -> TracedProgram {
    use crate::ir::{Inst, VReg, XReg};
    assert!((1..=4).contains(&mb) && (1..=4).contains(&nr));
    let acc = |i: usize, j: usize| VReg((i * nr + j) as u8);
    let a_reg = |set: usize, i: usize| VReg((mb * nr + set * mb + i) as u8);
    let x_reg = |set: usize, j: usize| VReg((mb * nr + 2 * mb + set * nr + j) as u8);
    assert!(mb * nr + 2 * mb + 2 * nr <= 32);

    let row_bytes = (nr * 16) as i32; // panel row stride
    let tri_base = (kk * mb * 16) as i32;
    let mut p = Program::new(dtype);
    let mut spans = Vec::new();

    span(&mut p, &mut spans, TemplateId::BlockProlog, |p| {
        p.push(Inst::Prfm {
            base: XReg::Pb,
            offset: (kk as i32) * row_bytes,
        });
    });

    // triangular part, ping-ponging over L columns j: load L(j..mb, j) and
    // the original B block row j, multiply into the accumulators (FMUL at
    // j = 0 initializes them — acc(i,·) is first touched by its L(i,0)
    // term, which exists for every i).
    let tri_load = |p: &mut Program, j: usize| {
        let set = j % 2;
        for i in j..mb {
            p.push(Inst::Ldr {
                dst: a_reg(set, i),
                base: XReg::Ptri,
                offset: tri_base + ((i * (i + 1) / 2 + j) * 16) as i32,
            });
        }
        for col in 0..nr {
            p.push(Inst::Ldr {
                dst: x_reg(set, col),
                base: XReg::Pb,
                offset: ((kk + j) as i32) * row_bytes + (col * 16) as i32,
            });
        }
    };
    let tri_compute = |p: &mut Program, j: usize| {
        let set = j % 2;
        for i in j..mb {
            for col in 0..nr {
                let (vd, vn, vm) = (acc(i, col), a_reg(set, i), x_reg(set, col));
                p.push(if j == 0 {
                    Inst::Fmul { vd, vn, vm }
                } else {
                    Inst::Fmla { vd, vn, vm }
                });
            }
        }
    };
    span(&mut p, &mut spans, TemplateId::TrmmTriLoad(0), |p| {
        tri_load(p, 0);
    });
    for j in 0..mb {
        if j + 1 < mb {
            span(&mut p, &mut spans, TemplateId::TrmmTriLoad(j + 1), |p| {
                tri_load(p, j + 1);
            });
        }
        span(&mut p, &mut spans, TemplateId::TrmmTriCompute(j), |p| {
            tri_compute(p, j);
        });
    }

    // rectangular accumulation over the rows above the block,
    // double-buffered exactly like the TRSM elimination but with FMLA
    let rect_off = |k: usize, i: usize| ((k * mb + i) * 16) as i32;
    let load_sliver = |p: &mut Program, set: usize, k: usize| {
        for i in 0..mb {
            p.push(Inst::Ldr {
                dst: a_reg(set, i),
                base: XReg::Ptri,
                offset: rect_off(k, i),
            });
        }
        for j in 0..nr {
            p.push(Inst::Ldr {
                dst: x_reg(set, j),
                base: XReg::Pb,
                offset: (k as i32) * row_bytes + (j * 16) as i32,
            });
        }
    };
    let compute = |p: &mut Program, set: usize| {
        for i in 0..mb {
            for j in 0..nr {
                p.push(Inst::Fmla {
                    vd: acc(i, j),
                    vn: a_reg(set, i),
                    vm: x_reg(set, j),
                });
            }
        }
    };
    if kk > 0 {
        span(&mut p, &mut spans, TemplateId::BlockRectLoad(0), |p| {
            load_sliver(p, 0, 0);
        });
        if kk > 1 {
            span(&mut p, &mut spans, TemplateId::BlockRectLoad(1), |p| {
                load_sliver(p, 1, 1);
            });
        }
        for k in 0..kk {
            let set = k % 2;
            span(&mut p, &mut spans, TemplateId::BlockRectCompute(k), |p| {
                compute(p, set);
            });
            if k + 2 < kk {
                span(&mut p, &mut spans, TemplateId::BlockRectLoad(k + 2), |p| {
                    load_sliver(p, set, k + 2);
                });
            }
        }
    }

    // alpha scale and store
    span(&mut p, &mut spans, TemplateId::BlockStore, |p| {
        for i in 0..mb {
            for j in 0..nr {
                p.push(Inst::FmulScalar {
                    vd: acc(i, j),
                    vn: acc(i, j),
                    alpha,
                });
                p.push(Inst::Str {
                    src: acc(i, j),
                    base: XReg::Pb,
                    offset: ((kk + i) as i32) * row_bytes + (j * 16) as i32,
                });
            }
        }
    });
    TracedProgram { program: p, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Inst;

    fn count_fp(p: &Program) -> usize {
        p.insts.iter().filter(|i| i.is_fp()).count()
    }

    fn count_loads(p: &Program) -> usize {
        p.insts
            .iter()
            .map(|i| match i {
                Inst::Ldr { .. } => 1,
                Inst::Ldp { .. } => 2,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn gemm_kernel_instruction_budget() {
        // For a 4×4 kernel at depth K: K·16 compute FMLAs + 16 SAVE FMAs,
        // K·8 panel loads + 16 C loads.
        for k in 1..=9 {
            let p = generate_gemm_kernel(&GemmKernelSpec {
                mc: 4,
                nc: 4,
                k,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: 4,
            });
            assert_eq!(count_fp(&p), k * 16 + 16, "k={k}");
            assert_eq!(count_loads(&p), k * 8 + 16, "k={k}");
            let stores = p.insts.iter().filter(|i| i.is_store()).count();
            assert_eq!(stores, 16);
        }
    }

    #[test]
    fn gemm_kernel_small_sizes() {
        for (mc, nc) in [(1, 1), (2, 3), (4, 1), (3, 4)] {
            for k in [1usize, 2, 3, 4, 5, 8, 11] {
                let p = generate_gemm_kernel(&GemmKernelSpec {
                    mc,
                    nc,
                    k,
                    dtype: DataType::F32,
                    alpha: 2.0,
                    ldc: mc,
                });
                assert_eq!(count_fp(&p), k * mc * nc + mc * nc, "({mc},{nc}) k={k}");
                assert_eq!(count_loads(&p), k * (mc + nc) + mc * nc);
            }
        }
    }

    #[test]
    fn generated_code_renders() {
        let p = generate_gemm_kernel(&GemmKernelSpec {
            mc: 4,
            nc: 4,
            k: 2,
            dtype: DataType::F64,
            alpha: 1.0,
            ldc: 4,
        });
        let text = p.render();
        assert!(text.contains("fmul    v16.2d, v0.2d, v8.2d"));
        assert!(text.contains("prfm"));
        assert!(text.contains("fmla"));
    }

    #[test]
    fn traced_spans_cover_program() {
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            let t = generate_gemm_kernel_traced(&GemmKernelSpec {
                mc: 3,
                nc: 2,
                k,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: 3,
            });
            let mut pos = 0;
            for s in &t.spans {
                assert_eq!(s.start, pos, "k={k}: spans must be contiguous");
                assert!(s.end >= s.start);
                pos = s.end;
            }
            assert_eq!(pos, t.program.len(), "k={k}: spans must cover program");
            assert_eq!(t.spans.first().map(|s| s.id), Some(TemplateId::PrefetchC));
            assert_eq!(t.spans.last().map(|s| s.id), Some(TemplateId::Save));
        }
    }

    #[test]
    fn traced_sequence_matches_algorithm3() {
        let ids = |k: usize| -> Vec<TemplateId> {
            generate_gemm_kernel_traced(&GemmKernelSpec {
                mc: 4,
                nc: 4,
                k,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: 4,
            })
            .spans
            .iter()
            .map(|s| s.id)
            .collect()
        };
        use TemplateId::*;
        assert_eq!(ids(1), vec![PrefetchC, Sub, Save]);
        assert_eq!(ids(2), vec![PrefetchC, I, E, Save]);
        assert_eq!(ids(3), vec![PrefetchC, I, M2, E0, Save]);
        assert_eq!(ids(4), vec![PrefetchC, I, M2, M1, E, Save]);
        assert_eq!(ids(5), vec![PrefetchC, I, M2, M1, M2, E0, Save]);
    }

    #[test]
    fn trsm_kernel_budget() {
        // triangle loads: M(M+1)/2; per column: M loads, M(M−1)/2 FMLS +
        // M FMUL, M stores.
        for m in 1..=5 {
            for n in [1usize, 2, 5] {
                let p = generate_trsm_tri_kernel(m, n, DataType::F64);
                let tri = m * (m + 1) / 2;
                assert_eq!(count_loads(&p), tri + n * m, "m={m} n={n}");
                assert_eq!(count_fp(&p), n * (m * (m - 1) / 2 + m));
                let stores = p.insts.iter().filter(|i| i.is_store()).count();
                assert_eq!(stores, n * m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "register capacity")]
    fn trsm_kernel_rejects_m6() {
        let _ = generate_trsm_tri_kernel(6, 1, DataType::F64);
    }

    #[test]
    fn trmm_kernel_instruction_budget() {
        // tri: mb(mb+1)/2 L loads + mb·nr x loads + Σ_i (i+1)·nr FMAs;
        // rect: kk·(mb+nr) loads + kk·mb·nr FMLAs; store: mb·nr FMUL-scalar
        // + mb·nr stores.
        for kk in [0usize, 1, 2, 3, 5] {
            for (mb, nr) in [(4usize, 4usize), (2, 3), (1, 1), (3, 4)] {
                let p = generate_trmm_block_kernel(mb, nr, kk, 1.5, DataType::F64);
                let tri = mb * (mb + 1) / 2;
                let tri_fma: usize = (0..mb).map(|i| (i + 1) * nr).sum();
                assert_eq!(
                    count_loads(&p),
                    tri + mb * nr + kk * (mb + nr),
                    "mb={mb} nr={nr} kk={kk}"
                );
                assert_eq!(count_fp(&p), tri_fma + kk * mb * nr + mb * nr);
                let stores = p.insts.iter().filter(|i| i.is_store()).count();
                assert_eq!(stores, mb * nr);
            }
        }
    }

    #[test]
    fn register_file_never_exceeded() {
        for (mc, nc) in [(4usize, 4usize), (3, 4), (4, 3), (2, 2), (1, 1)] {
            let p = generate_gemm_kernel(&GemmKernelSpec {
                mc,
                nc,
                k: 6,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: mc,
            });
            for inst in &p.insts {
                for r in inst.vwrites().into_iter().chain(inst.vreads()) {
                    assert!(r.idx() < 32);
                }
            }
        }
    }
}
