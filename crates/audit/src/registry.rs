//! The audited registries: which paths may hold `unsafe`, which modules
//! may touch atomics (and in what role), and the sanctioned homes of the
//! single-implementation utilities the hygiene rules protect.
//!
//! Every entry is a conscious decision with a documented reason. Adding
//! one is cheap but deliberate: the audit will name this file in its fix
//! hint, and DESIGN.md §13 mirrors the policy in prose.

/// How a registered concurrency module uses atomics, which decides how
/// strict the `ATOMIC_RELAXED` rule is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleClass {
    /// Monotonic counters / advisory flags only: no ordering edge is ever
    /// required, so `Relaxed` is the expected default.
    Counter,
    /// A synchronization protocol (seqlock, epoch scheme, publish chain):
    /// `Relaxed` is permitted but its justification must acknowledge the
    /// relaxation explicitly.
    Protocol,
}

/// The audit's registries, path-keyed by workspace-relative prefixes.
pub struct Registry {
    /// Prefixes where `unsafe` is sanctioned (ported from the former
    /// `scripts/verify.sh` grep gate; DESIGN.md "Unsafe policy").
    pub unsafe_paths: &'static [&'static str],
    /// Files allowed to use atomic `Ordering`, with their class.
    pub concurrency_modules: &'static [(&'static str, ModuleClass)],
    /// Files allowed to hand-roll string-escaping tables.
    pub escape_exempt: &'static [(&'static str, &'static str)],
    /// Files allowed to read `IATF_*` environment variables directly.
    pub env_exempt: &'static [&'static str],
    /// Crate src prefixes whose feature-gated `pub fn`s must have
    /// `#[cfg(not(feature))]` fallbacks (the always-compiled facades).
    pub fallback_crates: &'static [&'static str],
}

impl Registry {
    /// The workspace policy.
    pub fn workspace() -> &'static Registry {
        &WORKSPACE
    }
}

static WORKSPACE: Registry = Registry {
    unsafe_paths: &[
        // SIMD backends: the sanctioned home of intrinsics (iatf-simd
        // exemption in DESIGN.md). Covers the per-width backend modules —
        // backend/x86.rs (SSE2), backend/avx.rs (AVX2+FMA), backend/
        // avx512.rs (AVX-512F), backend/neon.rs — whose every intrinsic
        // call carries a SAFETY comment naming the target feature the
        // runtime probe guarantees.
        "crates/simd/src/",
        // Raw-pointer microkernels and their property tests; includes
        // wide.rs, the #[target_feature] wrapper modules that re-bind the
        // kernel bodies at 256/512-bit widths.
        "crates/kernels/src/",
        "crates/kernels/tests/proptests.rs",
        // Vendored-reference baselines used for benchmarking only.
        "crates/baselines/src/",
        // Element-type punning confined to one audited module.
        "crates/core/src/elem.rs",
        // perf_event_open syscall surface.
        "crates/trace/src/pmu/sys.rs",
        // Plan executors calling the unsafe kernel entry points.
        "crates/core/src/plan/gemm.rs",
        "crates/core/src/plan/tri.rs",
        // Codegen equivalence harness drives raw kernel pointers.
        "crates/codegen/tests/equivalence.rs",
        // Bench runners call kernels directly to time them.
        "crates/bench/src/runners.rs",
        "crates/bench/benches/",
    ],
    concurrency_modules: &[
        // Protocol modules: each is covered by a loom model (see the
        // `loom_models` module in the file) run by scripts/verify.sh.
        ("crates/core/src/plan/cache.rs", ModuleClass::Protocol),
        ("crates/watch/src/stats.rs", ModuleClass::Protocol),
        ("crates/trace/src/ring.rs", ModuleClass::Protocol),
        // Counter modules: monotonic telemetry and id allocators.
        ("crates/obs/src/metrics.rs", ModuleClass::Counter),
        ("crates/trace/src/recorder.rs", ModuleClass::Counter),
        ("crates/watch/src/drift.rs", ModuleClass::Counter),
        ("crates/tune/src/db.rs", ModuleClass::Counter),
        ("crates/tune/src/envelope.rs", ModuleClass::Counter),
        ("crates/journal/src/ledger.rs", ModuleClass::Counter),
    ],
    escape_exempt: &[
        ("crates/obs/src/json.rs", "the single JSON implementation itself"),
        (
            "crates/watch/src/prom.rs",
            "Prometheus exposition-format label escaping (spec-mandated, not JSON)",
        ),
    ],
    env_exempt: &[
        "crates/obs/src/env.rs",
        // IATF_FORCE_WIDTH is read before any higher layer exists:
        // iatf-simd sits below iatf-obs in the crate DAG, so it cannot
        // use the env helpers without inverting the layering. The read
        // follows the same hygiene contract (unset silent, invalid warns
        // once and falls back) and is tested by the force_width_*
        // integration tests.
        "crates/simd/src/width.rs",
    ],
    fallback_crates: &[
        "crates/obs/src/",
        "crates/trace/src/",
        "crates/watch/src/",
        "crates/journal/src/",
    ],
};

/// What kind of source a file is, by path convention; rules use this to
/// scope themselves (e.g. `LIB_PANIC` only fires in `Lib` files).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/`.
    Lib,
    /// Integration tests, benches, examples.
    Test,
    /// Binary targets (`src/bin/`, `src/main.rs`).
    Bin,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/") {
        FileKind::Test
    } else if rel.contains("/src/bin/") || rel.ends_with("/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Prefix match against a registry path list.
pub fn matches_prefix(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}
