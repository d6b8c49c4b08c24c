//! Zero-cost instrumentation for the IATF runtime.
//!
//! Three facilities, one crate, no dependencies:
//!
//! * [`metrics`] — a global registry of relaxed atomic counters and log2
//!   histograms: plan builds, command counts, kernel dispatches keyed by
//!   `(op, mr, nr)`, packed bytes, and main/edge/fallback hit rates.
//! * [`timer`] — scoped monotonic phase timers ([`timer::phase`] returns a
//!   guard that records on drop) covering plan build, pack-A, pack-B,
//!   compute, scale, and unpack phases.
//! * [`explain`] — the schema of the plan explainers (`*Plan::explain()`
//!   in `iatf-core`): structured, JSON-exportable descriptions of what a
//!   plan will do, including install-time kernel scheduling stats.
//!
//! The counters and timers are compile-time no-ops unless the `enabled`
//! cargo feature is on (`--features obs` at the workspace level): probe
//! functions are empty `#[inline(always)]` bodies and the timing guard is
//! a zero-sized type without a `Drop` impl. The explainers and the
//! [`json`] serializer/parser are *not* gated — explaining a plan is a
//! cold-path operation and always available. The [`env`] helpers give
//! every `IATF_*` knob the same reject-garbage-loudly fallback policy.

#![forbid(unsafe_code)]

pub mod env;
pub mod explain;
pub mod json;
pub mod metrics;
pub mod timer;

pub use explain::{KernelStats, PlanExplain, TileClass, VerifySummary};
pub use json::{parse as parse_json, Json, ParseError};
pub use metrics::{
    count_arena_bytes_grown, count_arena_lease, count_dispatch, count_execute, count_fallback,
    count_packed_bytes_a, count_packed_bytes_b, count_plan_build, count_plan_cache,
    count_plan_commands, count_pmu, count_superblock, count_tune, dispatch_count, is_enabled,
    pmu_count, reset, snapshot, tune_count, CacheEvent, DispatchCount, MetricsSnapshot, Op,
    PhaseSnapshot, PmuEvent, ThreadPhaseSnapshot, TuneEvent,
};
pub use timer::{phase, Phase, PhaseGuard};

#[cfg(test)]
mod tests {
    use super::*;

    /// All counter-dependent assertions live in one test: the registry is
    /// global and the test harness runs tests concurrently.
    #[test]
    fn counters_roundtrip_or_noop() {
        reset();
        count_plan_build(Op::Gemm, 12);
        count_plan_build(Op::Gemm, 3);
        count_plan_build(Op::Trsm, 5);
        count_plan_commands(7);
        count_execute(Op::Gemm);
        count_dispatch(Op::Gemm, 4, 4, true);
        count_dispatch(Op::Gemm, 4, 4, true);
        count_dispatch(Op::Gemm, 2, 4, false);
        count_fallback();
        count_packed_bytes_a(1024);
        count_packed_bytes_b(2048);
        count_plan_cache(CacheEvent::Hit);
        count_plan_cache(CacheEvent::Hit);
        count_plan_cache(CacheEvent::Miss);
        count_plan_cache(CacheEvent::Eviction);
        count_arena_lease(0);
        count_arena_lease(4096);
        count_arena_bytes_grown(512);
        count_superblock(Op::Gemm, 6);
        count_superblock(Op::Trsm, 1);
        count_tune(TuneEvent::Sweep);
        count_tune(TuneEvent::Apply);
        count_tune(TuneEvent::Apply);
        count_tune(TuneEvent::Miss);
        count_tune(TuneEvent::DbCorrupt);
        count_tune(TuneEvent::Persist);
        count_tune(TuneEvent::Retune);
        count_pmu(PmuEvent::Opened);
        count_pmu(PmuEvent::Permission);
        {
            let _guard = phase(Phase::Unpack);
            std::hint::black_box(0u64);
        }
        let s = snapshot();
        if is_enabled() {
            assert!(s.enabled);
            assert_eq!(s.plan_builds, [2, 1, 0]);
            assert_eq!(s.plan_commands, 7);
            assert_eq!(s.executes, [1, 0, 0]);
            assert_eq!(dispatch_count(Op::Gemm, 4, 4), 2);
            assert_eq!(dispatch_count(Op::Gemm, 2, 4), 1);
            assert_eq!(s.main_tile_hits, 2);
            assert_eq!(s.edge_tile_hits, 1);
            assert_eq!(s.fallback_hits, 1);
            assert_eq!(s.packed_bytes_a, 1024);
            assert_eq!(s.packed_bytes_b, 2048);
            assert!((s.edge_rate() - 1.0 / 3.0).abs() < 1e-12);
            // batch counts 12, 3, 5 land in log2 buckets 4, 2, 3
            assert_eq!(s.batch_counts[4], 1);
            assert_eq!(s.batch_counts[2], 1);
            assert_eq!(s.batch_counts[3], 1);
            assert_eq!(s.plan_cache, [2, 1, 1]);
            assert_eq!(s.arena_leases, 2);
            assert_eq!(s.arena_reuses, 1);
            assert_eq!(s.arena_bytes_reused, 4096);
            assert_eq!(s.arena_bytes_grown, 512);
            assert_eq!(s.superblock_tasks, [1, 1, 0]);
            // superblock sizes 6 and 1 land in log2 buckets 3 and 1
            assert_eq!(s.superblock_packs[3], 1);
            assert_eq!(s.superblock_packs[1], 1);
            assert_eq!(s.tune, [1, 2, 1, 1, 1, 1]);
            assert_eq!(tune_count(TuneEvent::Apply), 2);
            assert_eq!(s.pmu, [1, 0, 1, 0, 0]);
            assert_eq!(pmu_count(PmuEvent::Permission), 1);
            let unpack = &s.phases[Phase::Unpack as usize];
            assert_eq!(unpack.phase, Phase::Unpack);
            assert_eq!(unpack.calls, 1);
            assert_eq!(unpack.hist.iter().sum::<u64>(), 1);
            // per-thread attribution: the span landed on exactly one thread,
            // and the phase totals are the sum of the thread breakdowns.
            assert!(!s.threads.is_empty());
            let thread_calls: u64 = s
                .threads
                .iter()
                .map(|t| t.calls[Phase::Unpack as usize])
                .sum();
            assert_eq!(thread_calls, unpack.calls);
            let thread_ns: u64 = s
                .threads
                .iter()
                .map(|t| t.total_ns[Phase::Unpack as usize])
                .sum();
            assert_eq!(thread_ns, unpack.total_ns);
            reset();
            let z = snapshot();
            assert_eq!(z.plan_builds, [0, 0, 0]);
            assert!(z.dispatch.is_empty());
        } else {
            // Feature off: every probe is a no-op and snapshots are zeroed.
            assert!(!s.enabled);
            assert_eq!(s.plan_builds, [0, 0, 0]);
            assert_eq!(s.plan_commands, 0);
            assert_eq!(dispatch_count(Op::Gemm, 4, 4), 0);
            assert_eq!(s.tune, [0, 0, 0, 0, 0, 0]);
            assert_eq!(tune_count(TuneEvent::Sweep), 0);
            assert!(s.dispatch.is_empty());
            assert!(s.phases.is_empty());
            assert_eq!(s.edge_rate(), 0.0);
        }
    }

    #[test]
    fn snapshot_serializes_to_valid_shaped_json() {
        let s = snapshot().to_json().to_pretty();
        assert!(s.starts_with('{') && s.ends_with('}'));
        for key in [
            "\"enabled\"",
            "\"plan_builds\"",
            "\"kernel_dispatches\"",
            "\"packed_bytes\"",
            "\"plan_cache\"",
            "\"arena\"",
            "\"superblocks\"",
            "\"tune\"",
            "\"phases\"",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
