//! Global metrics registry: relaxed atomic counters and log2 histograms.
//!
//! Every probe in this module is `#[inline(always)]` and compiles to an
//! empty body unless the `enabled` cargo feature is on, so instrumented
//! call sites in the planner/executor hot paths cost nothing by default.
//! With the feature on, counters are relaxed atomics — safe under the
//! `parallel` execution path, imprecise only in ordering, never in totals.

use crate::json::Json;
use crate::timer::Phase;
#[cfg(feature = "enabled")]
use crate::timer::PHASES;

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::{Arc, Mutex, OnceLock};

/// Which BLAS-3 routine a probe refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Batched compact GEMM.
    Gemm = 0,
    /// Batched compact TRSM.
    Trsm = 1,
    /// Batched compact TRMM.
    Trmm = 2,
}

/// All ops, in counter-slot order.
pub const OPS: [Op; 3] = [Op::Gemm, Op::Trsm, Op::Trmm];

impl Op {
    /// Lower-case routine name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Gemm => "gemm",
            Op::Trsm => "trsm",
            Op::Trmm => "trmm",
        }
    }
}

/// Kernel register-tile sides never exceed 5 (`TRSM_TMAX`); 8 leaves slack.
pub const MAX_TILE_SIDE: usize = 8;

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `bit_length(v) == i`, i.e. bucket 0 is `v == 0`, bucket 1 is `v == 1`,
/// bucket `i` is `2^(i-1) <= v < 2^i`.
pub const HIST_BUCKETS: usize = 65;

#[cfg(feature = "enabled")]
struct Histogram {
    buckets: Vec<AtomicU64>,
}

#[cfg(feature = "enabled")]
impl Histogram {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        // ordering: Relaxed — monotonic telemetry counter.
        self.buckets[bucket].fetch_add(1, Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        // ordering: Relaxed — advisory snapshot read.
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            // ordering: Relaxed — test-isolation reset; callers quiesce first.
            b.store(0, Relaxed);
        }
    }
}

#[cfg(feature = "enabled")]
struct Registry {
    plan_builds: [AtomicU64; 3],
    plan_commands: AtomicU64,
    executes: [AtomicU64; 3],
    dispatch: Vec<AtomicU64>, // [op][mr][nr] flattened
    main_tile_hits: AtomicU64,
    edge_tile_hits: AtomicU64,
    fallback_hits: AtomicU64,
    packed_bytes_a: AtomicU64,
    packed_bytes_b: AtomicU64,
    batch_counts: Histogram,
    plan_cache: [AtomicU64; 3], // hits, misses, evictions
    arena_leases: AtomicU64,
    arena_reuses: AtomicU64,
    arena_bytes_reused: AtomicU64,
    arena_bytes_grown: AtomicU64,
    superblock_tasks: [AtomicU64; 3],
    superblock_packs: Histogram,
    tune: [AtomicU64; 6], // sweeps, applies, misses, db_corrupt, persists, retunes
    pmu: [AtomicU64; 5],  // opened, unsupported, permission, no_pmu, open_failed
    phase_hist: Vec<Histogram>,
}

/// Per-thread phase accumulators. Worker threads in the parallel executors
/// each own one slot, so phase time is attributed to the thread that spent
/// it — a single global accumulator would report per-phase sums that
/// exceed wall time with no way to tell how the work was distributed.
/// Totals across threads are exact either way.
#[cfg(feature = "enabled")]
struct ThreadPhaseSlot {
    tid: u64,
    phase_ns: [AtomicU64; PHASES.len()],
    phase_calls: [AtomicU64; PHASES.len()],
}

#[cfg(feature = "enabled")]
fn phase_slots() -> &'static Mutex<Vec<Arc<ThreadPhaseSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<ThreadPhaseSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(feature = "enabled")]
thread_local! {
    static PHASE_SLOT: Arc<ThreadPhaseSlot> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let slot = Arc::new(ThreadPhaseSlot {
            // ordering: Relaxed — thread-id allocator; uniqueness needs only atomicity.
            tid: NEXT_TID.fetch_add(1, Relaxed),
            phase_ns: Default::default(),
            phase_calls: Default::default(),
        });
        phase_slots().lock().unwrap().push(Arc::clone(&slot));
        slot
    };
}

#[cfg(feature = "enabled")]
impl Registry {
    fn new() -> Self {
        Self {
            plan_builds: Default::default(),
            plan_commands: AtomicU64::new(0),
            executes: Default::default(),
            dispatch: (0..3 * MAX_TILE_SIDE * MAX_TILE_SIDE)
                .map(|_| AtomicU64::new(0))
                .collect(),
            main_tile_hits: AtomicU64::new(0),
            edge_tile_hits: AtomicU64::new(0),
            fallback_hits: AtomicU64::new(0),
            packed_bytes_a: AtomicU64::new(0),
            packed_bytes_b: AtomicU64::new(0),
            batch_counts: Histogram::new(),
            plan_cache: Default::default(),
            arena_leases: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
            arena_bytes_reused: AtomicU64::new(0),
            arena_bytes_grown: AtomicU64::new(0),
            superblock_tasks: Default::default(),
            superblock_packs: Histogram::new(),
            tune: Default::default(),
            pmu: Default::default(),
            phase_hist: (0..PHASES.len()).map(|_| Histogram::new()).collect(),
        }
    }

    fn dispatch_slot(&self, op: Op, mr: usize, nr: usize) -> &AtomicU64 {
        let mr = mr.min(MAX_TILE_SIDE - 1);
        let nr = nr.min(MAX_TILE_SIDE - 1);
        &self.dispatch[(op as usize * MAX_TILE_SIDE + mr) * MAX_TILE_SIDE + nr]
    }
}

#[cfg(feature = "enabled")]
fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// One plan was built for `op` over a batch of `count` matrices.
#[inline(always)]
pub fn count_plan_build(op: Op, count: usize) {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        // ordering: Relaxed — monotonic telemetry counters; no payload is published through them (readers treat every snapshot as advisory).
        r.plan_builds[op as usize].fetch_add(1, Relaxed);
        r.batch_counts.record(count as u64);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (op, count);
}

/// A plan rendered `n` commands in its command-queue view.
#[inline(always)]
pub fn count_plan_commands(n: usize) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().plan_commands.fetch_add(n as u64, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = n;
}

/// One `execute()` call ran for `op`.
#[inline(always)]
pub fn count_execute(op: Op) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().executes[op as usize].fetch_add(1, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = op;
}

/// One register-tile kernel dispatch of size `mr × nr`; `main` says whether
/// it was the plan's main kernel (vs an edge kernel).
#[inline(always)]
pub fn count_dispatch(op: Op, mr: usize, nr: usize, main: bool) {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        // ordering: Relaxed — monotonic telemetry counters.
        r.dispatch_slot(op, mr, nr).fetch_add(1, Relaxed);
        if main {
            r.main_tile_hits.fetch_add(1, Relaxed);
        } else {
            r.edge_tile_hits.fetch_add(1, Relaxed);
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (op, mr, nr, main);
}

/// A call was served through a non-compact fallback route (convert to the
/// compact layout, run, convert back) instead of natively on compact
/// operands.
#[inline(always)]
pub fn count_fallback() {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().fallback_hits.fetch_add(1, Relaxed);
}

/// `bytes` of operand-A data were written into a packing buffer.
#[inline(always)]
pub fn count_packed_bytes_a(bytes: usize) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().packed_bytes_a.fetch_add(bytes as u64, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = bytes;
}

/// `bytes` of operand-B data were written into a packing buffer.
#[inline(always)]
pub fn count_packed_bytes_b(bytes: usize) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().packed_bytes_b.fetch_add(bytes as u64, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = bytes;
}

/// Outcome of one plan-cache lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheEvent {
    /// A matching plan was found and returned.
    Hit = 0,
    /// No matching plan; one was built and inserted.
    Miss = 1,
    /// An entry was discarded to make room (accompanies some misses).
    Eviction = 2,
}

/// One plan-cache event occurred.
#[inline(always)]
pub fn count_plan_cache(event: CacheEvent) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().plan_cache[event as usize].fetch_add(1, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = event;
}

/// One pack-arena lease was taken; `reused_bytes > 0` means a warm buffer of
/// that many initialized bytes was recycled instead of allocating.
#[inline(always)]
pub fn count_arena_lease(reused_bytes: usize) {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        // ordering: Relaxed — monotonic telemetry counters.
        r.arena_leases.fetch_add(1, Relaxed);
        if reused_bytes > 0 {
            r.arena_reuses.fetch_add(1, Relaxed);
            r.arena_bytes_reused.fetch_add(reused_bytes as u64, Relaxed);
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = reused_bytes;
}

/// A pack buffer grew (first-touch zero fill) by `bytes`.
#[inline(always)]
pub fn count_arena_bytes_grown(bytes: usize) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().arena_bytes_grown.fetch_add(bytes as u64, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = bytes;
}

/// One super-block of `packs` packs was dispatched as a unit of work (the
/// executor's pack-then-compute granularity, serial or parallel).
#[inline(always)]
pub fn count_superblock(op: Op, packs: usize) {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        // ordering: Relaxed — monotonic telemetry counters.
        r.superblock_tasks[op as usize].fetch_add(1, Relaxed);
        r.superblock_packs.record(packs as u64);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (op, packs);
}

/// One autotuner event occurred (see `crates/tune`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TuneEvent {
    /// A micro-benchmark sweep ran for one input fingerprint.
    Sweep = 0,
    /// A planner consulted the tuning db and applied a tuned entry.
    Apply = 1,
    /// A planner consulted the tuning db and found no entry.
    Miss = 2,
    /// A persisted db file was rejected (unreadable, bad schema, or
    /// corrupt) and the process fell back to heuristics.
    DbCorrupt = 3,
    /// The db was persisted to disk (atomic temp-file + rename).
    Persist = 4,
    /// A drift-flagged entry was evicted and re-swept (watch remediation).
    Retune = 5,
}

/// One autotuner event occurred.
#[inline(always)]
pub fn count_tune(event: TuneEvent) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().tune[event as usize].fetch_add(1, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = event;
}

/// Outcome of opening the PMU sampling source (see `crates/trace`). The
/// degraded categories record *why* hardware counters were unavailable, so
/// a roofline report with empty measurement columns is diagnosable from
/// telemetry alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PmuEvent {
    /// A live counter group opened.
    Opened = 0,
    /// Not a Linux host (or no syscall number for the architecture).
    Unsupported = 1,
    /// The kernel refused (`perf_event_paranoid`, container policy).
    Permission = 2,
    /// No PMU driver / syscall filtered out.
    NoPmu = 3,
    /// Any other open failure.
    OpenFailed = 4,
}

/// One PMU source open was attempted with this outcome.
#[inline(always)]
pub fn count_pmu(event: PmuEvent) {
    #[cfg(feature = "enabled")]
    // ordering: Relaxed — monotonic telemetry counter.
    registry().pmu[event as usize].fetch_add(1, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = event;
}

/// Current count for one PMU event slot. Always 0 with the feature off.
pub fn pmu_count(event: PmuEvent) -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ordering: Relaxed — advisory read of a monotonic counter.
        registry().pmu[event as usize].load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = event;
        0
    }
}

/// Current count for one autotuner event slot. Always 0 with the feature
/// off.
pub fn tune_count(event: TuneEvent) -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ordering: Relaxed — advisory read of a monotonic counter.
        registry().tune[event as usize].load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = event;
        0
    }
}

/// One timed span of `phase` took `ns` nanoseconds (called by the guard in
/// [`crate::timer`], not by instrumented code directly). Time and call
/// counts land in the *calling thread's* slot; the duration histogram
/// stays global.
#[inline(always)]
pub fn record_phase(phase: Phase, ns: u64) {
    #[cfg(feature = "enabled")]
    {
        PHASE_SLOT.with(|s| {
            // ordering: Relaxed — per-thread monotonic accumulators; totals are read at quiescence.
            s.phase_ns[phase as usize].fetch_add(ns, Relaxed);
            s.phase_calls[phase as usize].fetch_add(1, Relaxed);
        });
        registry().phase_hist[phase as usize].record(ns);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (phase, ns);
}

/// Current dispatch count for one `(op, mr, nr)` kernel slot. Always 0 with
/// the feature off.
pub fn dispatch_count(op: Op, mr: usize, nr: usize) -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ordering: Relaxed — advisory read of a monotonic counter.
        registry().dispatch_slot(op, mr, nr).load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (op, mr, nr);
        0
    }
}

/// Zeroes every counter and histogram (test isolation; with the feature off
/// there is nothing to zero).
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        // ordering: Relaxed — test-isolation reset; callers quiesce first.
        for c in &r.plan_builds {
            c.store(0, Relaxed);
        }
        r.plan_commands.store(0, Relaxed);
        for c in &r.executes {
            c.store(0, Relaxed);
        }
        for c in &r.dispatch {
            c.store(0, Relaxed);
        }
        r.main_tile_hits.store(0, Relaxed);
        r.edge_tile_hits.store(0, Relaxed);
        r.fallback_hits.store(0, Relaxed);
        r.packed_bytes_a.store(0, Relaxed);
        r.packed_bytes_b.store(0, Relaxed);
        r.batch_counts.reset();
        for c in &r.plan_cache {
            c.store(0, Relaxed);
        }
        r.arena_leases.store(0, Relaxed);
        r.arena_reuses.store(0, Relaxed);
        r.arena_bytes_reused.store(0, Relaxed);
        r.arena_bytes_grown.store(0, Relaxed);
        for c in &r.superblock_tasks {
            c.store(0, Relaxed);
        }
        r.superblock_packs.reset();
        for c in &r.tune {
            c.store(0, Relaxed);
        }
        for c in &r.pmu {
            c.store(0, Relaxed);
        }
        for h in &r.phase_hist {
            h.reset();
        }
        // ordering: Relaxed — continuing the quiesced-reset stores above.
        for slot in phase_slots().lock().unwrap().iter() {
            for c in &slot.phase_ns {
                c.store(0, Relaxed);
            }
            for c in &slot.phase_calls {
                c.store(0, Relaxed);
            }
        }
    }
}

/// Whether the `enabled` feature was compiled in.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Point-in-time copy of every metric (all zeros with the feature off).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Whether counters were compiled in (`false` ⇒ all fields are zero).
    pub enabled: bool,
    /// Plans built, per op (`OPS` order).
    pub plan_builds: [u64; 3],
    /// Total commands across all `commands()` renderings.
    pub plan_commands: u64,
    /// `execute()` calls, per op.
    pub executes: [u64; 3],
    /// Non-zero kernel-dispatch slots.
    pub dispatch: Vec<DispatchCount>,
    /// Dispatches that used the plan's main kernel.
    pub main_tile_hits: u64,
    /// Dispatches that used an edge kernel.
    pub edge_tile_hits: u64,
    /// Calls routed to a non-compact fallback.
    pub fallback_hits: u64,
    /// Bytes packed into A-panel buffers.
    pub packed_bytes_a: u64,
    /// Bytes packed into B-panel buffers.
    pub packed_bytes_b: u64,
    /// log2 histogram of batch counts seen at plan build.
    pub batch_counts: Vec<u64>,
    /// Plan-cache lookups, in `CacheEvent` order: hits, misses, evictions.
    pub plan_cache: [u64; 3],
    /// Pack-arena leases taken.
    pub arena_leases: u64,
    /// Leases that recycled a warm buffer (no allocation, no zero fill).
    pub arena_reuses: u64,
    /// Initialized bytes handed back to executes without re-zeroing.
    pub arena_bytes_reused: u64,
    /// Bytes first-touch zero-filled by buffer growth.
    pub arena_bytes_grown: u64,
    /// Super-block work units dispatched, per op.
    pub superblock_tasks: [u64; 3],
    /// log2 histogram of packs per super-block task.
    pub superblock_packs: Vec<u64>,
    /// Autotuner events, in `TuneEvent` order: sweeps, applies, misses,
    /// db-corruptions, persists, retunes.
    pub tune: [u64; 6],
    /// PMU source opens, in `PmuEvent` order: opened, unsupported,
    /// permission, no-pmu, open-failed.
    pub pmu: [u64; 5],
    /// Per-phase timing totals (summed across threads).
    pub phases: Vec<PhaseSnapshot>,
    /// Per-thread phase breakdown (threads that recorded at least one
    /// span). `phases` above is exactly the element-wise sum of these.
    pub threads: Vec<ThreadPhaseSnapshot>,
}

/// Phase timing recorded by one thread.
#[derive(Clone, Debug)]
pub struct ThreadPhaseSnapshot {
    /// Recorder-assigned thread id (registration order, from 1).
    pub tid: u64,
    /// Spans recorded by this thread, in `PHASES` order.
    pub calls: [u64; 6],
    /// Nanoseconds this thread spent, in `PHASES` order.
    pub total_ns: [u64; 6],
}

/// One non-zero kernel-dispatch counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchCount {
    /// Routine.
    pub op: Op,
    /// Tile rows.
    pub mr: usize,
    /// Tile columns.
    pub nr: usize,
    /// Dispatches observed.
    pub count: u64,
}

/// Timing totals for one phase.
#[derive(Clone, Debug)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Spans recorded.
    pub calls: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
    /// log2 histogram of span durations (ns).
    pub hist: Vec<u64>,
}

/// Snapshot of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(feature = "enabled")]
    {
        let r = registry();
        let mut dispatch = Vec::new();
        for op in OPS {
            for mr in 0..MAX_TILE_SIDE {
                for nr in 0..MAX_TILE_SIDE {
                    // ordering: Relaxed — advisory snapshot read of an independent counter.
                    let count = r.dispatch_slot(op, mr, nr).load(Relaxed);
                    if count > 0 {
                        dispatch.push(DispatchCount { op, mr, nr, count });
                    }
                }
            }
        }
        let mut threads: Vec<ThreadPhaseSnapshot> = phase_slots()
            .lock()
            .unwrap()
            .iter()
            .map(|s| ThreadPhaseSnapshot {
                tid: s.tid,
                // ordering: Relaxed — advisory snapshot of per-thread accumulators.
                calls: std::array::from_fn(|i| s.phase_calls[i].load(Relaxed)),
                total_ns: std::array::from_fn(|i| s.phase_ns[i].load(Relaxed)),
            })
            .filter(|t| t.calls.iter().any(|&c| c > 0))
            .collect();
        threads.sort_by_key(|t| t.tid);
        MetricsSnapshot {
            enabled: true,
            // ordering: Relaxed — advisory snapshot; counters are read independently, not as a consistent cut.
            plan_builds: std::array::from_fn(|i| r.plan_builds[i].load(Relaxed)),
            plan_commands: r.plan_commands.load(Relaxed),
            executes: std::array::from_fn(|i| r.executes[i].load(Relaxed)),
            dispatch,
            main_tile_hits: r.main_tile_hits.load(Relaxed),
            edge_tile_hits: r.edge_tile_hits.load(Relaxed),
            fallback_hits: r.fallback_hits.load(Relaxed),
            packed_bytes_a: r.packed_bytes_a.load(Relaxed),
            packed_bytes_b: r.packed_bytes_b.load(Relaxed),
            batch_counts: r.batch_counts.snapshot(),
            plan_cache: std::array::from_fn(|i| r.plan_cache[i].load(Relaxed)),
            arena_leases: r.arena_leases.load(Relaxed),
            arena_reuses: r.arena_reuses.load(Relaxed),
            arena_bytes_reused: r.arena_bytes_reused.load(Relaxed),
            arena_bytes_grown: r.arena_bytes_grown.load(Relaxed),
            superblock_tasks: std::array::from_fn(|i| r.superblock_tasks[i].load(Relaxed)),
            superblock_packs: r.superblock_packs.snapshot(),
            tune: std::array::from_fn(|i| r.tune[i].load(Relaxed)),
            pmu: std::array::from_fn(|i| r.pmu[i].load(Relaxed)),
            phases: PHASES
                .iter()
                .map(|&p| PhaseSnapshot {
                    phase: p,
                    calls: threads
                        .iter()
                        .map(|t| t.calls[p as usize])
                        .sum(),
                    total_ns: threads
                        .iter()
                        .map(|t| t.total_ns[p as usize])
                        .sum(),
                    hist: r.phase_hist[p as usize].snapshot(),
                })
                .collect(),
            threads,
        }
    }
    #[cfg(not(feature = "enabled"))]
    MetricsSnapshot::default()
}

impl MetricsSnapshot {
    /// Fraction of dispatches that hit an edge kernel (0 when none ran).
    pub fn edge_rate(&self) -> f64 {
        let total = self.main_tile_hits + self.edge_tile_hits;
        if total == 0 {
            0.0
        } else {
            self.edge_tile_hits as f64 / total as f64
        }
    }

    /// JSON document for telemetry export.
    pub fn to_json(&self) -> Json {
        let dispatch = self
            .dispatch
            .iter()
            .map(|d| {
                Json::object()
                    .set("op", d.op.name())
                    .set("mr", d.mr)
                    .set("nr", d.nr)
                    .set("count", d.count)
            })
            .collect::<Vec<_>>();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::object()
                    .set("phase", p.phase.name())
                    .set("calls", p.calls)
                    .set("total_ns", p.total_ns)
                    .set("hist_log2_ns", hist_json(&p.hist))
            })
            .collect::<Vec<_>>();
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let per_phase = crate::timer::PHASES
                    .iter()
                    .filter(|&&p| t.calls[p as usize] > 0)
                    .map(|&p| {
                        Json::object()
                            .set("phase", p.name())
                            .set("calls", t.calls[p as usize])
                            .set("total_ns", t.total_ns[p as usize])
                    })
                    .collect::<Vec<_>>();
                Json::object().set("tid", t.tid).set("phases", per_phase)
            })
            .collect::<Vec<_>>();
        Json::object()
            .set("enabled", self.enabled)
            .set(
                "plan_builds",
                Json::object()
                    .set("gemm", self.plan_builds[0])
                    .set("trsm", self.plan_builds[1])
                    .set("trmm", self.plan_builds[2]),
            )
            .set("plan_commands", self.plan_commands)
            .set(
                "executes",
                Json::object()
                    .set("gemm", self.executes[0])
                    .set("trsm", self.executes[1])
                    .set("trmm", self.executes[2]),
            )
            .set("kernel_dispatches", dispatch)
            .set("main_tile_hits", self.main_tile_hits)
            .set("edge_tile_hits", self.edge_tile_hits)
            .set("edge_rate", self.edge_rate())
            .set("fallback_hits", self.fallback_hits)
            .set(
                "packed_bytes",
                Json::object()
                    .set("a", self.packed_bytes_a)
                    .set("b", self.packed_bytes_b),
            )
            .set("batch_counts_log2", hist_json(&self.batch_counts))
            .set(
                "plan_cache",
                Json::object()
                    .set("hits", self.plan_cache[0])
                    .set("misses", self.plan_cache[1])
                    .set("evictions", self.plan_cache[2]),
            )
            .set(
                "arena",
                Json::object()
                    .set("leases", self.arena_leases)
                    .set("reuses", self.arena_reuses)
                    .set("bytes_reused", self.arena_bytes_reused)
                    .set("bytes_grown", self.arena_bytes_grown),
            )
            .set(
                "superblocks",
                Json::object()
                    .set("gemm", self.superblock_tasks[0])
                    .set("trsm", self.superblock_tasks[1])
                    .set("trmm", self.superblock_tasks[2])
                    .set("packs_log2", hist_json(&self.superblock_packs)),
            )
            .set(
                "tune",
                Json::object()
                    .set("sweeps", self.tune[0])
                    .set("applies", self.tune[1])
                    .set("misses", self.tune[2])
                    .set("db_corrupt", self.tune[3])
                    .set("persists", self.tune[4])
                    .set("retunes", self.tune[5]),
            )
            .set(
                "pmu",
                Json::object()
                    .set("opened", self.pmu[0])
                    .set("unsupported", self.pmu[1])
                    .set("permission_denied", self.pmu[2])
                    .set("no_pmu", self.pmu[3])
                    .set("open_failed", self.pmu[4]),
            )
            .set("phases", phases)
            .set("threads", threads)
    }
}

/// Renders a log2 histogram as `[{bucket, lo, hi, count}]`, dropping empty
/// buckets. Bucket `i` covers `[2^(i-1), 2^i)`; bucket 0 is exactly 0.
fn hist_json(buckets: &[u64]) -> Vec<Json> {
    buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| {
            let lo: u64 = if i <= 1 { i as u64 } else { 1u64 << (i - 1) };
            let hi: u64 = if i == 0 {
                0
            } else if i >= 64 {
                u64::MAX
            } else {
                (1u64 << i) - 1
            };
            Json::object()
                .set("bucket", i)
                .set("lo", lo)
                .set("hi", hi)
                .set("count", c)
        })
        .collect()
}
