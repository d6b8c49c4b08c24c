//! Plan-cache behaviour: hit/miss accounting, plans built outside it, the
//! eviction bound, and a concurrent mixed-shape stress run.
//!
//! The cache and its counters are process-global, so every test serializes
//! on one mutex and starts from `cache::clear()`.

use iatf_core::plan::cache;
use iatf_core::{compact_gemm, compact_trmm, compact_trsm, GemmPlan, TuningConfig};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch, TrsmMode};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE.get_or_init(|| Mutex::new(())).lock().unwrap();
    cache::clear();
    guard
}

fn operands(m: usize, n: usize, k: usize, count: usize) -> [CompactBatch<f64>; 3] {
    [
        CompactBatch::from_std(&StdBatch::<f64>::random(m, k, count, 1)),
        CompactBatch::from_std(&StdBatch::<f64>::random(k, n, count, 2)),
        CompactBatch::<f64>::zeroed(m, n, count),
    ]
}

fn gemm_once(m: usize, n: usize, k: usize, count: usize, cfg: &TuningConfig) -> CompactBatch<f64> {
    let [a, b, mut c] = operands(m, n, k, count);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, cfg).unwrap();
    c
}

/// The same product through a plan built directly, outside the cache.
fn gemm_fresh(m: usize, n: usize, k: usize, count: usize) -> CompactBatch<f64> {
    let [a, b, mut c] = operands(m, n, k, count);
    let dims = GemmDims::new(m, n, k);
    let plan = GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, count, &TuningConfig::default());
    plan.unwrap().execute(1.0, &a, &b, 0.0, &mut c).unwrap();
    c
}

#[test]
fn repeat_calls_hit_the_cache() {
    let _g = lock();
    let cfg = TuningConfig::default();
    let first = gemm_once(4, 4, 4, 32, &cfg);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
    for _ in 0..5 {
        let again = gemm_once(4, 4, 4, 32, &cfg);
        assert_eq!(first.as_scalars(), again.as_scalars());
    }
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (5, 1, 1));

    // a different shape is a different plan
    gemm_once(5, 4, 4, 32, &cfg);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (5, 2, 2));
}

#[test]
fn distinct_ops_and_configs_do_not_collide() {
    let _g = lock();
    let cfg = TuningConfig::default();
    // TRSM and TRMM of the same (m, n, count) must key separately from each
    // other (op tag) even though both use TrsmDims.
    let a = CompactBatch::from_std(&StdBatch::<f64>::random_triangular(
        4,
        8,
        iatf_layout::Uplo::Lower,
        iatf_layout::Diag::NonUnit,
        3,
    ));
    let mut b = CompactBatch::from_std(&StdBatch::<f64>::random(4, 6, 8, 4));
    compact_trsm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg).unwrap();
    compact_trmm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg).unwrap();
    assert_eq!(cache::stats().misses, 2);

    // a config that plans differently fingerprints differently
    let small_l1 = TuningConfig {
        l1d_bytes: 1024,
        ..TuningConfig::default()
    };
    compact_trsm(TrsmMode::LNLN, 1.0, &a, &mut b, &small_l1).unwrap();
    let s = cache::stats();
    assert_eq!((s.misses, s.entries), (3, 3));
}

#[test]
fn directly_built_plans_skip_the_cache() {
    let _g = lock();
    let shared = gemm_once(6, 5, 4, 16, &TuningConfig::default());
    let fresh = gemm_fresh(6, 5, 4, 16);
    // same plan either way — where it lives changes, not the results
    assert_eq!(shared.as_scalars(), fresh.as_scalars());
    gemm_fresh(6, 5, 4, 16);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
}

#[test]
fn capacity_is_bounded_by_eviction() {
    let _g = lock();
    let cfg = TuningConfig::default();
    let distinct = cache::capacity() + 40;
    for count in 1..=distinct {
        gemm_once(2, 2, 2, count, &cfg);
    }
    let s = cache::stats();
    assert_eq!(s.misses, distinct as u64);
    assert!(s.entries <= cache::capacity(), "{} entries", s.entries);
    assert!(s.evictions > 0);
    // evicted plans are rebuilt transparently
    let c = gemm_once(2, 2, 2, 1, &cfg);
    assert_eq!(c.rows(), 2);
}

#[test]
fn concurrent_mixed_shapes_stress() {
    let _g = lock();
    let cfg = TuningConfig::default();
    // More live shapes than one shard holds, hammered from many threads;
    // every cached result must be bit-identical to a fresh plan's, and
    // the bound must hold under concurrency.
    let shapes: Vec<(usize, usize, usize, usize)> = (0..24)
        .map(|i| (2 + i % 5, 2 + (i / 5) % 4, 2 + i % 3, 8 + i))
        .collect();
    let expected: Vec<CompactBatch<f64>> = shapes
        .iter()
        .map(|&(m, n, k, count)| gemm_fresh(m, n, k, count))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let shapes = &shapes;
            let expected = &expected;
            let cfg = &cfg;
            scope.spawn(move || {
                for round in 0..20 {
                    let i = (t * 7 + round * 3) % shapes.len();
                    let (m, n, k, count) = shapes[i];
                    let c = gemm_once(m, n, k, count, cfg);
                    assert_eq!(c.as_scalars(), expected[i].as_scalars());
                }
            });
        }
    });
    let s = cache::stats();
    assert_eq!(s.hits + s.misses, 8 * 20);
    assert!(s.entries <= cache::capacity());
    assert!(s.hits > 0);
}
