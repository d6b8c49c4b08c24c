//! Integration test for the observability layer: the plan explainer's
//! static predictions must agree exactly with the runtime counters after
//! one `execute()`. Compiled only with `--features obs` (without it the
//! counters are no-ops and there is nothing to observe).
//!
//! Everything lives in ONE test function: the metrics registry is global
//! and the harness runs test functions concurrently.

#![cfg(feature = "obs")]

use iatf_core::obs;
use iatf_core::{GemmPlan, PackPolicy, TrmmPlan, TrsmPlan, TuningConfig};
use iatf_layout::{CompactBatch, Diag, GemmDims, GemmMode, Side, Trans, TrsmDims, TrsmMode, Uplo};

fn dispatch_total(snap: &obs::MetricsSnapshot, op: obs::Op) -> u64 {
    snap.dispatch
        .iter()
        .filter(|d| d.op == op)
        .map(|d| d.count)
        .sum()
}

#[test]
fn explainer_predictions_match_observed_counters() {
    let cfg = TuningConfig::default();
    let always = TuningConfig {
        pack: PackPolicy::Always,
        ..cfg.clone()
    };

    // --- GEMM: 7×6×5 f64, batch of 5 (edge tiles in both dimensions) ---
    // Both operands stream in place by default; `Always` is the packed
    // reference. Either way the explainer's bytes are the counters', exactly.
    for (cfg, packed) in [(&cfg, false), (&always, true)] {
        obs::reset();
        let plan = GemmPlan::<f64>::new(GemmDims::new(7, 6, 5), GemmMode::NN, false, false, 5, cfg)
            .unwrap();
        let ex = plan.explain();
        let a = CompactBatch::<f64>::zeroed(7, 5, 5);
        let b = CompactBatch::<f64>::zeroed(5, 6, 5);
        let mut c = CompactBatch::<f64>::zeroed(7, 6, 5);
        plan.execute(1.0, &a, &b, 1.0, &mut c).unwrap();

        let snap = obs::snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.plan_builds, [1, 0, 0]);
        assert_eq!(snap.executes, [1, 0, 0]);
        assert_eq!(
            dispatch_total(&snap, obs::Op::Gemm),
            ex.predicted_dispatches
        );
        // per-tile-class: explainer multiplicity × packs == observed slot count
        for t in &ex.tile_classes {
            assert_eq!(
                obs::dispatch_count(obs::Op::Gemm, t.mr, t.nr),
                (t.tiles * ex.packs) as u64,
                "tile class {}x{}",
                t.mr,
                t.nr
            );
        }
        assert_eq!(
            snap.packed_bytes_a + snap.packed_bytes_b,
            ex.predicted_packed_bytes
        );
        // 7×6 over a 4×4 main kernel: main tile hits exist, edges exist
        assert!(snap.main_tile_hits > 0);
        assert!(snap.edge_tile_hits > 0);
        assert!(snap.edge_rate() > 0.0 && snap.edge_rate() < 1.0);
        // phases: compute always; packing — and the arena lease that
        // backs it — only when something is packed
        let packs = ex.packs as u64;
        assert_eq!(phase_calls_of(&snap, obs::Phase::PlanBuild), 1);
        assert_eq!(phase_calls_of(&snap, obs::Phase::Compute), packs);
        if packed {
            assert_eq!(
                (ex.pack_a.as_str(), ex.pack_b.as_str()),
                ("packed", "packed")
            );
            assert!(ex.predicted_packed_bytes > 0);
            assert_eq!(phase_calls_of(&snap, obs::Phase::PackA), packs);
            assert_eq!(phase_calls_of(&snap, obs::Phase::PackB), packs);
            assert_eq!(snap.arena_leases, 1);
        } else {
            assert_eq!(
                (ex.pack_a.as_str(), ex.pack_b.as_str()),
                ("direct", "direct")
            );
            assert_eq!(ex.predicted_packed_bytes, 0);
            assert_eq!(phase_calls_of(&snap, obs::Phase::PackA), 0);
            assert_eq!(phase_calls_of(&snap, obs::Phase::PackB), 0);
            assert_eq!(
                snap.arena_leases, 0,
                "a scratch-free execute takes no lease"
            );
        }

        // the command-queue rendering counts its commands
        let n_cmds = plan.commands().len();
        assert_eq!(obs::snapshot().plan_commands, n_cmds as u64);
    }

    // --- TRSM: 9×4 f64 LNUN (reversed: solved in place from the stored
    // last row down; `Always` gathers and scatters every panel) ---
    let diag_groups = 9; // blocks 4+4+1: their diagonals only
    for (cfg, packed, alpha) in [(&cfg, false, 1.0), (&cfg, false, 2.5), (&always, true, 2.5)] {
        obs::reset();
        let plan =
            TrsmPlan::<f64>::new(TrsmDims::new(9, 4), TrsmMode::LNUN, false, 3, cfg).unwrap();
        let ex = plan.explain();
        let a = CompactBatch::<f64>::zeroed(9, 9, 3);
        let mut bb = CompactBatch::<f64>::zeroed(9, 4, 3);
        plan.execute(alpha, &a, &mut bb).unwrap();

        let snap = obs::snapshot();
        assert_eq!(snap.plan_builds, [0, 1, 0]);
        assert_eq!(snap.executes, [0, 1, 0]);
        assert_eq!(
            dispatch_total(&snap, obs::Op::Trsm),
            ex.predicted_dispatches
        );
        for t in &ex.tile_classes {
            assert_eq!(
                obs::dispatch_count(obs::Op::Trsm, t.mr, t.nr),
                (t.tiles * ex.packs) as u64
            );
        }
        // exact whatever α is: in place, α ≠ 1 scales B where it is
        assert_eq!(
            snap.packed_bytes_a + snap.packed_bytes_b,
            ex.predicted_packed_bytes
        );
        let packs = ex.packs as u64;
        if packed {
            assert_eq!(
                (ex.pack_a.as_str(), ex.pack_b.as_str()),
                ("packed", "packed")
            );
            // structural packing stages panels (Scale) and scatters them back
            assert!(phase_calls_of(&snap, obs::Phase::Scale) > 0);
            assert_eq!(
                phase_calls_of(&snap, obs::Phase::Scale),
                phase_calls_of(&snap, obs::Phase::Unpack)
            );
        } else {
            assert_eq!(
                (ex.pack_a.as_str(), ex.pack_b.as_str()),
                ("diagonal-only", "in-place")
            );
            let group_bytes = (ex.p * core::mem::size_of::<f64>()) as u64;
            assert_eq!(ex.predicted_packed_bytes, packs * diag_groups * group_bytes);
            assert_eq!(snap.packed_bytes_b, 0);
            assert_eq!(phase_calls_of(&snap, obs::Phase::Unpack), 0);
            // one in-place scaling pass per pack, and only when α ≠ 1
            let scales = if alpha == 1.0 { 0 } else { packs };
            assert_eq!(phase_calls_of(&snap, obs::Phase::Scale), scales);
        }
        // real TRSM has install-time kernel stats
        assert!(!ex.kernels.is_empty());
        for ks in &ex.kernels {
            assert!(ks.insts > 0);
            assert!(ks.cycles_after <= ks.cycles_before);
            assert!(ks.port_bound <= ks.cycles_after);
        }
    }

    // --- TRMM: 5×4 c32 (complex path; right side, in place) ---
    obs::reset();
    let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit);
    let plan = TrmmPlan::<iatf_simd::c32>::new(TrsmDims::new(5, 4), right, false, 4, &cfg).unwrap();
    let ex = plan.explain();
    let a = CompactBatch::<iatf_simd::c32>::zeroed(4, 4, 4);
    let mut bb = CompactBatch::<iatf_simd::c32>::zeroed(5, 4, 4);
    plan.execute(iatf_simd::Element::from_f64s(1.0, 0.0), &a, &mut bb)
        .unwrap();

    let snap = obs::snapshot();
    assert_eq!(snap.plan_builds, [0, 0, 1]);
    assert_eq!(snap.executes, [0, 0, 1]);
    assert_eq!(
        dispatch_total(&snap, obs::Op::Trmm),
        ex.predicted_dispatches
    );
    assert_eq!(ex.pack_a, "diagonal-only");
    assert_eq!(ex.pack_b, "in-place");
    assert_eq!(snap.packed_bytes_b, 0);
    assert_eq!(snap.packed_bytes_a, ex.predicted_packed_bytes);
    // no complex TRMM generator: explainer reports no kernel stats
    assert!(ex.kernels.is_empty());
}

fn phase_calls_of(snap: &obs::MetricsSnapshot, p: obs::Phase) -> u64 {
    snap.phases
        .iter()
        .find(|s| s.phase == p)
        .map_or(0, |s| s.calls)
}
