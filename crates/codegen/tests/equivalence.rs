//! Install-time-stage validation: generated IR kernels, interpreted, must
//! agree with the `iatf-kernels` Rust kernels on identical packed inputs —
//! before *and* after the scheduling optimizer runs. This is the proof that
//! the codegen path (templates → Algorithm 3 → Figure 5 optimizer) emits
//! semantically correct kernels.

use iatf_codegen::{
    generate_gemm_kernel, generate_trsm_tri_kernel, interp, optimize, schedule_stats, DataType,
    GemmKernelSpec, PipelineModel,
};
use iatf_kernels::{gemm_ukr, trsm_ukr};
use iatf_simd::{F64x2, SimdReal};

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5
    }
}

/// The Rust kernels' A operands for a generated kernel's packed A: `rect`
/// (`kk` slivers of `m` groups) and the row-packed triangle `tri` (row `r`
/// holds `r+1` groups, diagonal last) become the strip continued by `m`
/// slivers holding the strictly lower triangle (sliver `kk + j`, row
/// `i > j`) and the `m` diagonal groups.
fn kernel_operands(rect: &[f64], tri: &[f64], m: usize, p: usize) -> (Vec<f64>, Vec<f64>) {
    let mut strip = rect.to_vec();
    strip.resize(rect.len() + m * m * p, 0.0);
    let mut diag = vec![0.0; m * p];
    for i in 0..m {
        let row = i * (i + 1) / 2 * p;
        for j in 0..i {
            let at = rect.len() + (j * m + i) * p;
            strip[at..at + p].copy_from_slice(&tri[row + j * p..row + (j + 1) * p]);
        }
        diag[i * p..(i + 1) * p].copy_from_slice(&tri[row + i * p..row + (i + 1) * p]);
    }
    (strip, diag)
}

/// Runs one (mc, nc, k) comparison for DGEMM: the interpreted IR kernel and
/// the Rust kernel must agree bit-for-bit (both use fused f64 arithmetic in
/// the same order).
fn check_gemm_equiv(mc: usize, nc: usize, k: usize, alpha: f64, optimized: bool) {
    let p2 = F64x2::LANES;
    let mut rng = Rng((mc * 100 + nc * 10 + k) as u64);
    let pa: Vec<f64> = (0..k * mc * p2).map(|_| rng.next()).collect();
    let pb: Vec<f64> = (0..k * nc * p2).map(|_| rng.next()).collect();
    let c0: Vec<f64> = (0..mc * nc * p2).map(|_| rng.next()).collect();

    // Rust kernel (beta = 1 to match the generated SAVE template)
    let mut c_rust = c0.clone();
    let mut run_rust = |mc: usize, nc: usize| {
        macro_rules! call {
            ($m:literal, $n:literal) => {
                // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these dimensions, and the strides passed match that sizing (same layout the generated-assembly side uses).
                unsafe {
                    gemm_ukr::<F64x2, $m, $n>(
                        k,
                        alpha,
                        1.0,
                        pa.as_ptr(),
                        p2,
                        mc * p2,
                        pb.as_ptr(),
                        p2,
                        nc * p2,
                        c_rust.as_mut_ptr(),
                        p2,
                        mc * p2,
                    )
                }
            };
        }
        match (mc, nc) {
            (4, 4) => call!(4, 4),
            (4, 3) => call!(4, 3),
            (3, 4) => call!(3, 4),
            (3, 3) => call!(3, 3),
            (2, 2) => call!(2, 2),
            (1, 1) => call!(1, 1),
            (1, 4) => call!(1, 4),
            (4, 1) => call!(4, 1),
            (2, 3) => call!(2, 3),
            _ => panic!("size not wired in test"),
        }
    };
    run_rust(mc, nc);

    // generated IR kernel
    let spec = GemmKernelSpec {
        mc,
        nc,
        k,
        dtype: DataType::F64,
        alpha,
        ldc: mc, // tile-sized C buffer: column stride = mc groups
    };
    let mut prog = generate_gemm_kernel(&spec);
    if optimized {
        prog = optimize(&prog, &PipelineModel::default());
    }
    let c_ir = interp::run_gemm(&prog, pa.clone(), pb.clone(), c0.clone());

    for (idx, (a, b)) in c_rust.iter().zip(c_ir.iter()).enumerate() {
        assert_eq!(
            a, b,
            "({mc}x{nc}) k={k} alpha={alpha} optimized={optimized} idx={idx}"
        );
    }
}

#[test]
fn generated_dgemm_matches_rust_kernels() {
    for k in 1..=9 {
        check_gemm_equiv(4, 4, k, 1.0, false);
        check_gemm_equiv(3, 3, k, 1.0, false);
        check_gemm_equiv(2, 2, k, 1.0, false);
        check_gemm_equiv(1, 1, k, 1.0, false);
    }
    check_gemm_equiv(4, 4, 33, 1.0, false);
    check_gemm_equiv(4, 3, 7, 1.0, false);
    check_gemm_equiv(3, 4, 6, 1.0, false);
    check_gemm_equiv(1, 4, 5, 1.0, false);
    check_gemm_equiv(4, 1, 5, 1.0, false);
    check_gemm_equiv(2, 3, 4, 1.0, false);
}

#[test]
fn scheduling_preserves_semantics_exactly() {
    // The optimizer may only reorder independent instructions, so results
    // must be bit-identical.
    for k in [1usize, 2, 3, 4, 5, 8, 16, 33] {
        check_gemm_equiv(4, 4, k, 1.0, true);
        check_gemm_equiv(3, 3, k, 1.0, true);
    }
    check_gemm_equiv(4, 4, 8, 2.5, true);
    check_gemm_equiv(2, 2, 9, -0.75, true);
}

#[test]
fn alpha_is_honored() {
    check_gemm_equiv(4, 4, 5, 3.0, false);
    check_gemm_equiv(4, 4, 5, -1.0, true);
    check_gemm_equiv(3, 3, 2, 0.5, false);
}

#[test]
fn generated_trsm_matches_rust_kernel() {
    let p2 = F64x2::LANES;
    for m in 1..=5usize {
        for n in [1usize, 2, 4, 7] {
            let mut rng = Rng((m * 37 + n) as u64);
            // packed triangle with reciprocal diag in (0.4, 1.0]
            let tri_groups = m * (m + 1) / 2;
            let mut tri = vec![0.0f64; tri_groups * p2];
            for r in 0..m {
                let base = r * (r + 1) / 2;
                for c in 0..=r {
                    for l in 0..p2 {
                        tri[(base + c) * p2 + l] = if c == r {
                            1.0 / (1.0 + 0.3 * ((r + l) % 4) as f64)
                        } else {
                            rng.next() / m as f64
                        };
                    }
                }
            }
            // column-major panel m×n (column stride = m groups)
            let panel0: Vec<f64> = (0..m * n * p2).map(|_| rng.next()).collect();

            // Rust fused kernel on the same panel: rows are groups (row
            // stride = GROUP), columns m groups apart; A in its contract.
            let (strip, diag) = kernel_operands(&[], &tri, m, p2);
            let mut panel_rust = panel0.clone();
            macro_rules! call {
                ($m:literal, $col:expr) => {
                    // SAFETY: `strip` holds the m slivers of m groups and `diag` the m groups kk = 0 addresses; the panel column is m groups at the row stride passed.
                    unsafe {
                        trsm_ukr::<F64x2, $m, 1>(
                            0,
                            strip.as_ptr(),
                            p2,
                            m * p2,
                            diag.as_ptr(),
                            panel_rust.as_mut_ptr().add($col * m * p2),
                            0,
                            p2, // row stride: consecutive groups
                            p2, // unused (nr = 1)
                        )
                    }
                };
            }
            for col in 0..n {
                match m {
                    1 => call!(1, col),
                    2 => call!(2, col),
                    3 => call!(3, col),
                    4 => call!(4, col),
                    5 => call!(5, col),
                    _ => unreachable!(),
                }
            }

            let prog = generate_trsm_tri_kernel(m, n, DataType::F64);
            let panel_ir = interp::run_trsm(&prog, tri.clone(), panel0.clone());
            for (idx, (a, b)) in panel_rust.iter().zip(panel_ir.iter()).enumerate() {
                assert_eq!(a, b, "m={m} n={n} idx={idx}");
            }

            // optimized variant too
            let opt = optimize(&prog, &PipelineModel::default());
            let panel_opt = interp::run_trsm(&opt, tri.clone(), panel0.clone());
            assert_eq!(panel_ir, panel_opt, "m={m} n={n} optimized");
        }
    }
}

#[test]
fn figure5_stall_reduction_holds_across_kernels() {
    let model = PipelineModel::default();
    let mut improved = 0;
    let mut total = 0;
    for (mc, nc) in [(4usize, 4usize), (4, 3), (3, 4), (3, 3), (2, 2)] {
        for k in [4usize, 8, 16, 33] {
            let p = generate_gemm_kernel(&GemmKernelSpec {
                mc,
                nc,
                k,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: mc,
            });
            let stats = schedule_stats(&p, &model);
            total += 1;
            if stats.cycles_after < stats.cycles_before {
                improved += 1;
            }
            assert!(
                stats.cycles_after <= stats.cycles_before,
                "optimizer must never regress"
            );
        }
    }
    // the optimizer should win on the vast majority of kernels
    assert!(improved * 10 >= total * 8, "improved {improved}/{total}");
}

#[test]
fn generated_zgemm_matches_rust_kernel() {
    use iatf_codegen::generate_cgemm_kernel;
    use iatf_kernels::cgemm_ukr;
    let p2 = F64x2::LANES;
    let g = 2 * p2; // split-complex element group
    for (mc, nc) in [(3usize, 2usize), (2, 2), (1, 1), (1, 2), (3, 1), (2, 1)] {
        for k in [1usize, 2, 3, 4, 5, 8, 13] {
            let mut rng = Rng((mc * 1000 + nc * 100 + k) as u64);
            let pa: Vec<f64> = (0..k * mc * g).map(|_| rng.next()).collect();
            let pb: Vec<f64> = (0..k * nc * g).map(|_| rng.next()).collect();
            let c0: Vec<f64> = (0..mc * nc * g).map(|_| rng.next()).collect();

            let mut c_rust = c0.clone();
            macro_rules! call {
                ($m:literal, $n:literal) => {
                    // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these dimensions, and the strides passed match that sizing (same layout the generated-assembly side uses).
                    unsafe {
                        cgemm_ukr::<F64x2, $m, $n>(
                            k,
                            [1.0, 0.0],
                            [1.0, 0.0],
                            pa.as_ptr(),
                            g,
                            mc * g,
                            pb.as_ptr(),
                            g,
                            nc * g,
                            c_rust.as_mut_ptr(),
                            g,
                            mc * g,
                        )
                    }
                };
            }
            match (mc, nc) {
                (3, 2) => call!(3, 2),
                (2, 2) => call!(2, 2),
                (1, 1) => call!(1, 1),
                (1, 2) => call!(1, 2),
                (3, 1) => call!(3, 1),
                (2, 1) => call!(2, 1),
                _ => unreachable!(),
            }

            let spec = GemmKernelSpec {
                mc,
                nc,
                k,
                dtype: DataType::F64,
                alpha: 1.0,
                ldc: mc,
            };
            let prog = generate_cgemm_kernel(&spec);
            let c_ir = interp::run_gemm(&prog, pa.clone(), pb.clone(), c0.clone());
            for (idx, (a, b)) in c_rust.iter().zip(c_ir.iter()).enumerate() {
                assert_eq!(a, b, "cplx ({mc}x{nc}) k={k} idx={idx}");
            }

            // scheduling must also preserve complex semantics exactly
            let opt = optimize(&prog, &PipelineModel::default());
            let c_opt = interp::run_gemm(&opt, pa.clone(), pb.clone(), c0.clone());
            assert_eq!(c_ir, c_opt, "cplx ({mc}x{nc}) k={k} optimized");
        }
    }
}

#[test]
fn complex_scheduler_gains() {
    use iatf_codegen::generate_cgemm_kernel;
    let model = PipelineModel::default();
    let p = generate_cgemm_kernel(&GemmKernelSpec {
        mc: 3,
        nc: 2,
        k: 16,
        dtype: DataType::F64,
        alpha: 1.0,
        ldc: 3,
    });
    let stats = schedule_stats(&p, &model);
    assert!(
        stats.cycles_after < stats.cycles_before,
        "{} -> {}",
        stats.cycles_before,
        stats.cycles_after,
    );
}

#[test]
fn generated_blocked_trsm_matches_rust_kernel() {
    use iatf_codegen::generate_trsm_block_kernel;
    let p2 = F64x2::LANES;
    for (mb, nr) in [(4usize, 4usize), (3, 4), (2, 2), (1, 4), (4, 1)] {
        for kk in [0usize, 1, 2, 3, 4, 7, 12] {
            let mut rng = Rng((mb * 71 + nr * 13 + kk) as u64);
            // packed A buffer: rect strip then triangle (reciprocal diag)
            let rect_len = kk * mb * p2;
            let tri_len = mb * (mb + 1) / 2 * p2;
            let mut abuf = vec![0.0f64; rect_len + tri_len];
            for x in &mut abuf[..rect_len] {
                *x = rng.next() / (kk + mb) as f64;
            }
            for r in 0..mb {
                let base = rect_len + r * (r + 1) / 2 * p2;
                for c in 0..=r {
                    for l in 0..p2 {
                        abuf[base + c * p2 + l] = if c == r {
                            1.0 / (1.0 + 0.4 * ((r + l) % 3) as f64)
                        } else {
                            rng.next() / mb as f64
                        };
                    }
                }
            }
            // row-major panel (kk + mb rows × nr groups)
            let panel0: Vec<f64> = (0..(kk + mb) * nr * p2).map(|_| rng.next()).collect();

            // Rust fused kernel, A converted to its contract
            let (strip, diag) = kernel_operands(&abuf[..rect_len], &abuf[rect_len..], mb, p2);
            let mut panel_rust = panel0.clone();
            macro_rules! call {
                ($m:literal, $n:literal) => {
                    // SAFETY: `strip` holds the `kk + mb` slivers of mb groups and `diag` the mb groups the kernel addresses; the panel is `(kk + mb) × nr` groups at the strides passed.
                    unsafe {
                        trsm_ukr::<F64x2, $m, $n>(
                            kk,
                            strip.as_ptr(),
                            p2,
                            mb * p2,
                            diag.as_ptr(),
                            panel_rust.as_mut_ptr(),
                            kk,
                            nr * p2,
                            p2,
                        )
                    }
                };
            }
            match (mb, nr) {
                (4, 4) => call!(4, 4),
                (3, 4) => call!(3, 4),
                (2, 2) => call!(2, 2),
                (1, 4) => call!(1, 4),
                (4, 1) => call!(4, 1),
                _ => unreachable!(),
            }

            let prog = generate_trsm_block_kernel(mb, nr, kk, DataType::F64);
            let panel_ir = interp::run_trsm(&prog, abuf.clone(), panel0.clone());
            for (idx, (a, b)) in panel_rust.iter().zip(panel_ir.iter()).enumerate() {
                assert_eq!(a, b, "blocked mb={mb} nr={nr} kk={kk} idx={idx}");
            }

            // scheduler must preserve semantics here too
            let opt = optimize(&prog, &PipelineModel::default());
            let panel_opt = interp::run_trsm(&opt, abuf.clone(), panel0.clone());
            assert_eq!(panel_ir, panel_opt, "blocked optimized mb={mb} nr={nr} kk={kk}");
        }
    }
}

#[test]
fn figure5_rendering_is_wellformed_aarch64() {
    // Structural golden test on the rendered assembly: every line must be a
    // recognized AArch64 mnemonic in the Figure-5 notation, with the dtype's
    // arrangement suffix on FP ops.
    use iatf_codegen::generate_gemm_kernel;
    let prog = generate_gemm_kernel(&GemmKernelSpec {
        mc: 4,
        nc: 4,
        k: 4,
        dtype: DataType::F64,
        alpha: 1.0,
        ldc: 4,
    });
    let opt = optimize(&prog, &PipelineModel::default());
    for text in [prog.render(), opt.render()] {
        for line in text.lines() {
            let mnemonic = line.split_whitespace().next().unwrap();
            assert!(
                ["ldr", "ldp", "str", "add", "fmul", "fmla", "fmls", "prfm"]
                    .contains(&mnemonic),
                "unexpected mnemonic in {line:?}"
            );
            if mnemonic.starts_with("fm") {
                assert!(line.contains(".2d"), "missing arrangement in {line:?}");
            }
            if mnemonic == "ldp" || mnemonic == "ldr" {
                assert!(line.contains("[p"), "missing base register in {line:?}");
            }
        }
        // instruction count is preserved by rendering
        assert_eq!(text.lines().count(), prog.len());
    }
}
