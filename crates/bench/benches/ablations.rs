//! Ablation benches for the design choices DESIGN.md calls out: the pack
//! selecter's no-pack strategy, the batch counter's L1 fitting, and the
//! FMLS rectangular TRSM kernel vs a general GEMM update (Eq. 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iatf_bench::workloads::gemm_workload;
use iatf_core::{BatchPolicy, GemmPlan, PackPolicy, TuningConfig};
use iatf_kernels::table::{real_gemm_kernel, real_trsm_rect_kernel};
use iatf_layout::{GemmDims, GemmMode};
use iatf_simd::{F64x2, SimdReal};
use std::time::Duration;

const BATCH: usize = 512;

fn pack_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/pack_policy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    for n in [3usize, 4, 8, 16] {
        for (policy, name) in [
            (PackPolicy::Auto, "auto"),
            (PackPolicy::Always, "always"),
        ] {
            let cfg = TuningConfig {
                pack: policy,
                ..TuningConfig::default()
            };
            let mut w = gemm_workload::<f32>(n, GemmMode::NN, BATCH, n as u64);
            let plan =
                GemmPlan::<f32>::new(GemmDims::square(n), GemmMode::NN, false, false, BATCH, &cfg)
                    .unwrap();
            group.bench_with_input(
                BenchmarkId::new(name, n),
                &n,
                |b, _| {
                    b.iter(|| plan.execute(1.0, &w.a_c, &w.b_c, 1.0, &mut w.c_c).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn batch_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/batch_policy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    for n in [4usize, 16, 32] {
        for (policy, name) in [
            (BatchPolicy::Auto, "l1_fitted"),
            (BatchPolicy::Fixed(1), "one_pack"),
            (BatchPolicy::Fixed(1 << 20), "whole_group"),
        ] {
            let cfg = TuningConfig {
                batch: policy,
                ..TuningConfig::default()
            };
            let mut w = gemm_workload::<f64>(n, GemmMode::NN, BATCH, n as u64);
            let plan =
                GemmPlan::<f64>::new(GemmDims::square(n), GemmMode::NN, false, false, BATCH, &cfg)
                    .unwrap();
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| plan.execute(1.0, &w.a_c, &w.b_c, 1.0, &mut w.c_c).unwrap());
            });
        }
    }
    group.finish();
}

fn fmls_vs_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/fmls_vs_gemm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(250));
    let p = <F64x2 as SimdReal>::LANES;
    const MR: usize = 4;
    const NR: usize = 4;
    for kk in [4usize, 8, 16, 32] {
        let pa = vec![0.01f64; kk * MR * p];
        let mut panel = vec![0.5f64; (kk + MR) * NR * p];
        let rect = real_trsm_rect_kernel::<f64>(iatf_simd::VecWidth::W128, MR, NR);
        group.bench_with_input(BenchmarkId::new("fmls_rect", kk), &kk, |b, _| {
            // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these dimensions, and the strides passed match that sizing.
            b.iter(|| unsafe {
                rect(
                    kk,
                    pa.as_ptr(),
                    p,
                    MR * p,
                    core::ptr::null(),
                    panel.as_mut_ptr(),
                    kk,
                    NR * p,
                    p,
                );
                std::hint::black_box(&panel);
            });
        });
        let kern = real_gemm_kernel::<f64>(iatf_simd::VecWidth::W128, MR, NR);
        let pb = vec![0.5f64; kk * NR * p];
        let mut cbuf = vec![0.5f64; MR * NR * p];
        group.bench_with_input(BenchmarkId::new("gemm_update", kk), &kk, |b, _| {
            // SAFETY: the buffers above are sized exactly to the kernel's packed extents for these dimensions, and the strides passed match that sizing.
            b.iter(|| unsafe {
                kern(
                    kk,
                    -1.0,
                    1.0,
                    pa.as_ptr(),
                    p,
                    MR * p,
                    pb.as_ptr(),
                    p,
                    NR * p,
                    cbuf.as_mut_ptr(),
                    p,
                    MR * p,
                );
                std::hint::black_box(&cbuf);
            });
        });
    }
    group.finish();
}

criterion_group!(ablations, pack_policy, batch_policy, fmls_vs_gemm);
criterion_main!(ablations);
