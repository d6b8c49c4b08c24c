//! Flight-recorder integration: executing real plans must record spans for
//! every phase the plan goes through. Only meaningful with the `trace`
//! feature; without it the recorder is compiled out and drain is empty.

#![cfg(feature = "trace")]

use iatf_core::trace::{self, SpanKind};
use iatf_core::{GemmPlan, PackPolicy, TrsmPlan, TuningConfig};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch, TrsmDims, TrsmMode};

#[test]
fn plan_lifecycle_records_every_phase() {
    trace::reset();
    // The fully packed path is the one that goes through every phase; the
    // default streams operands in place and has no pack_b / unpack to span.
    let cfg = TuningConfig {
        pack: PackPolicy::Always,
        ..TuningConfig::default()
    };

    // n=16 GEMM: A and B pack.
    let dims = GemmDims::square(16);
    let plan = GemmPlan::<f64>::new(dims, GemmMode::NN, false, false, 64, &cfg).unwrap();
    let a = CompactBatch::from_std(&StdBatch::<f64>::random(16, 16, 64, 1));
    let b = CompactBatch::from_std(&StdBatch::<f64>::random(16, 16, 64, 2));
    let mut c = CompactBatch::<f64>::zeroed(16, 16, 64);
    plan.execute(1.0, &a, &b, 0.0, &mut c).unwrap();

    // TRSM panels are gathered (Scale) and scattered back (Unpack).
    let tplan =
        TrsmPlan::<f64>::new(TrsmDims::new(8, 8), TrsmMode::LNUN, false, 32, &cfg).unwrap();
    let ta = {
        let mut std = StdBatch::<f64>::random(8, 8, 32, 3);
        // dominant diagonal keeps the solve well-conditioned
        for m in 0..32 {
            for i in 0..8 {
                let v = std.get(m, i, i);
                std.set(m, i, i, v + 8.0);
            }
        }
        CompactBatch::from_std(&std)
    };
    let mut tb = CompactBatch::from_std(&StdBatch::<f64>::random(8, 8, 32, 4));
    tplan.execute(1.0, &ta, &mut tb).unwrap();

    let events = trace::drain();
    for kind in [
        SpanKind::PlanBuild,
        SpanKind::PackA,
        SpanKind::PackB,
        SpanKind::Compute,
        SpanKind::Scale,
        SpanKind::Unpack,
        SpanKind::Superblock,
        SpanKind::Execute,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no {} span recorded (got {} events)",
            kind.name(),
            events.len()
        );
    }
    // Phase spans nest inside an Execute span on the same thread.
    let exec = events
        .iter()
        .find(|e| e.kind == SpanKind::Execute)
        .unwrap();
    let compute = events
        .iter()
        .find(|e| e.kind == SpanKind::Compute && e.tid == exec.tid)
        .unwrap();
    assert!(compute.start_ns >= exec.start_ns);
    assert!(compute.start_ns + compute.dur_ns <= exec.start_ns + exec.dur_ns);
}
