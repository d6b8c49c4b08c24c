//! End-to-end watch loop through the real one-shot API: tune → steady
//! traffic → injected slowdown → drift event → retune (db eviction +
//! generation bump + plan-cache invalidation) → recovery.
//!
//! Meaningful only with `--features watch`; without it the test degrades
//! to asserting the probes are inert.

use iatf_core::watch;
use iatf_core::{
    compact_gemm, ensure_tuned_gemm, gemm_tune_key, TunePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch};
use iatf_tune::{TuningDb, TuneKey};

fn isolate() {
    // Keep the global dbs off the developer's real cache files. One
    // process per integration-test binary, so set-once is safe.
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("IATF_TUNE_DB").is_none() {
            std::env::set_var("IATF_TUNE_DB", "");
        }
        if std::env::var_os("IATF_WATCH_ENVELOPES").is_none() {
            std::env::set_var("IATF_WATCH_ENVELOPES", "");
        }
    });
}

const M: usize = 8;
const COUNT: usize = 256;

fn operands() -> (CompactBatch<f32>, CompactBatch<f32>, CompactBatch<f32>) {
    let a = CompactBatch::from_std(&StdBatch::<f32>::random(M, M, COUNT, 11));
    let b = CompactBatch::from_std(&StdBatch::<f32>::random(M, M, COUNT, 22));
    let c = CompactBatch::<f32>::zeroed(M, M, COUNT);
    (a, b, c)
}

fn the_key() -> TuneKey {
    gemm_tune_key::<f32>(
        GemmDims::new(M, M, M),
        GemmMode::NN,
        false,
        false,
        COUNT,
        iatf_simd::dispatched_width(),
    )
}

#[test]
fn drift_triggers_retune_and_generation_bump() {
    isolate();
    let cfg = TuningConfig {
        tune: TunePolicy::FirstTouch(20),
        ..TuningConfig::host()
    };
    let (a, b, mut c) = operands();
    let key = the_key();

    if !watch::is_enabled() {
        compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
        assert!(!watch::snapshot().enabled);
        assert_eq!(watch::events_total(), 0);
        assert!(!watch::take_retune(&key));
        return;
    }

    // Tune + enough warm traffic to calibrate and settle the chart.
    assert!(ensure_tuned_gemm::<f32>(
        GemmDims::new(M, M, M),
        GemmMode::NN,
        false,
        false,
        COUNT,
        &cfg
    ));
    for _ in 0..64 {
        compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
    }
    let before = watch::events_total();
    let gen_before = TuningDb::global().generation();

    // Telemetry-side 3x slowdown on this class only.
    watch::inject_latency_skew(Some((key, 3.0)));
    let mut fired = false;
    for _ in 0..400 {
        compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
        if watch::events_total() > before {
            fired = true;
            break;
        }
    }
    watch::inject_latency_skew(None);
    assert!(fired, "no drift event under sustained injected slowdown");
    let ev = watch::drain_events()
        .into_iter()
        .find(|e| e.key == key)
        .expect("drift event for the injected class");
    assert!(ev.ratio > 1.5, "ratio {}", ev.ratio);
    assert!(watch::retune_pending(&key));

    // The next dispatch remediates: evicts the entry (generation bump ⇒
    // plan-cache invalidation), re-sweeps, re-arms.
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
    assert!(!watch::retune_pending(&key), "retune flag not consumed");
    let gen_after = TuningDb::global().generation();
    assert!(
        gen_after > gen_before,
        "db generation did not advance across retune ({gen_before} -> {gen_after})"
    );
    assert!(
        TuningDb::global().lookup(&key).is_some(),
        "retune did not re-record a winner"
    );
    let snap = watch::snapshot();
    let class = snap.classes.iter().find(|c| c.key == key).unwrap();
    assert!(!class.drifting, "class still latched after retune");
    assert_eq!(snap.retunes_done, 1);

    // Recovered traffic must not re-trip at the fresh expectation.
    let total_after_retune = watch::events_total();
    for _ in 0..64 {
        compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
    }
    assert_eq!(
        watch::events_total(),
        total_after_retune,
        "chart re-tripped on healthy post-retune traffic"
    );
}
