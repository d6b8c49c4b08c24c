//! Plan-cache ablation: per-call cost of the cached one-shot entry point
//! vs building a fresh plan per call, against the prebuilt-plan floor. At
//! small sizes the run-time stage is comparable to the compute itself, so
//! this isolates exactly the overhead the cache amortizes away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iatf_bench::workloads::gemm_workload;
use iatf_core::plan::cache;
use iatf_core::{compact_gemm, GemmPlan, TuningConfig};
use iatf_layout::{GemmDims, GemmMode};
use std::time::Duration;

const BATCH: usize = 32;

fn plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/plan_cache");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));
    let cfg = TuningConfig::default();
    for n in [2usize, 4, 8] {
        let mut w = gemm_workload::<f64>(n, GemmMode::NN, BATCH, n as u64);
        let dims = GemmDims::square(n);
        let plan = GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, BATCH, &cfg).unwrap();
        group.bench_with_input(BenchmarkId::new("prebuilt_execute", n), &n, |b, _| {
            b.iter(|| plan.execute(1.0, &w.a_c, &w.b_c, 0.0, &mut w.c_c).unwrap());
        });
        cache::clear();
        group.bench_with_input(BenchmarkId::new("oneshot_cached", n), &n, |b, _| {
            b.iter(|| {
                compact_gemm(GemmMode::NN, 1.0, &w.a_c, &w.b_c, 0.0, &mut w.c_c, &cfg).unwrap();
            });
        });
        group.bench_with_input(BenchmarkId::new("fresh_plan", n), &n, |b, _| {
            b.iter(|| {
                let plan =
                    GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, BATCH, &cfg).unwrap();
                plan.execute(1.0, &w.a_c, &w.b_c, 0.0, &mut w.c_c).unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, plan_cache);
criterion_main!(benches);
