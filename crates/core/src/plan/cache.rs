//! Process-wide execution-plan cache.
//!
//! The paper's run-time stage is amortized by design: it "only generates
//! this execution plan at the beginning" and reuses it for the whole group
//! (§5.3). The one-shot entry points in [`crate::api`] extend that
//! amortization **across calls**: plans are keyed by every input property
//! the planner consumes — routine, element type, dimensions, mode,
//! conjugation flags, group count, and a fingerprint of the tuning config —
//! so steady-state traffic over repeated shapes skips the Batch Counter,
//! Pack Selecter, and tile decomposition entirely and pays only per-call
//! validation.
//!
//! Plan construction here is tens of nanoseconds, so the lookup has to be
//! almost free to be worth anything. Two layers keep it that way:
//!
//! 1. A **thread-local front cache** of the last few plans this thread
//!    dispatched: no lock, no allocation, a linear scan of a handful of
//!    keys. Steady-state same-shape traffic never leaves this layer.
//! 2. A **sharded shared cache** behind it (a `Mutex`-guarded flat vector
//!    per shard, shard picked by a cheap multiply-rotate hash — no
//!    `SipHash` on the dispatch path). It is bounded: each shard holds at
//!    most [`SHARD_CAP`] plans and evicts the least-recently-used entry
//!    when full. Plans are `Arc`s, so eviction never invalidates a plan a
//!    caller (or a front cache) still holds.
//!
//! [`clear`] bumps a global epoch that invalidates every thread's front
//! cache on its next lookup.
//!
//! Callers that manage plan lifetimes themselves build plans directly and
//! never touch the cache.

use crate::config::{fx_mix, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::tri::{Multiply, Solve, TriOp, TriPlan};
use crate::plan::{GemmPlan, TrmmPlan, TrsmPlan};
use crate::sync::{AtomicU64, Ordering::Relaxed};
use iatf_layout::{GemmDims, GemmMode, LayoutError, TrsmDims, TrsmMode};
use iatf_obs as obs;
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 8;

/// Plans held per shard before LRU eviction kicks in.
pub const SHARD_CAP: usize = 16;

/// Plans remembered per thread in the lock-free front cache.
const FRONT_SLOTS: usize = 8;

/// Everything the planners key their decisions on, flattened to primitives.
#[derive(Copy, Clone, PartialEq, Eq)]
struct Key {
    /// 0 = GEMM, 1 = TRSM, 2 = TRMM.
    op: u8,
    /// `DType` discriminant.
    dtype: u8,
    m: usize,
    n: usize,
    k: usize,
    /// GEMM: transa/transb bits. TRSM/TRMM: side/trans/uplo/diag bits.
    mode: u8,
    /// GEMM: conj_a | conj_b << 1. TRSM/TRMM: conj.
    conj: u8,
    count: usize,
    cfg: u64,
}

impl Key {
    /// Stable journal-key rendering (tune-key style, minus the width —
    /// the cfg fingerprint folds it in and travels in the event payload).
    fn journal_key(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}",
            self.op, self.dtype, self.m, self.n, self.k, self.mode, self.conj, self.count
        )
    }

    fn hash64(&self) -> u64 {
        let tags = ((self.op as u64) << 48)
            | ((self.dtype as u64) << 32)
            | ((self.mode as u64) << 16)
            | (self.conj as u64);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fx_mix(h, tags);
        h = fx_mix(h, self.m as u64);
        h = fx_mix(h, self.n as u64);
        h = fx_mix(h, self.k as u64);
        h = fx_mix(h, self.count as u64);
        h = fx_mix(h, self.cfg);
        h
    }
}

type AnyPlan = Arc<dyn Any + Send + Sync>;

struct Entry {
    hash: u64,
    key: Key,
    plan: AnyPlan,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Flat storage: at most [`SHARD_CAP`] entries, scanned linearly
    /// (hash compared first). Cheaper than a `HashMap` at this size and
    /// avoids a second hashing pass.
    entries: Vec<Entry>,
    tick: u64,
}

struct PlanCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Bumped by [`clear`]; front caches self-invalidate on mismatch.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

fn cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| PlanCache {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        epoch: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        evictions: AtomicU64::new(0),
    })
}

/// The per-thread front of the plan cache. It holds no lock and no
/// atomics of its own; its correctness contract is the *epoch protocol*
/// against [`PlanCache::epoch`]:
///
/// 1. a dispatch loads the global epoch exactly once, at entry;
/// 2. [`revalidate`](FrontCache::revalidate) runs against that observed
///    epoch before any lookup, dropping everything remembered under an
///    older epoch;
/// 3. [`remember`](FrontCache::remember) re-checks the same observed
///    epoch, so a plan is never stored into a front that has since moved
///    on.
///
/// Together these guarantee that a dispatch observing epoch `E` never
/// serves (or stores) a plan remembered under an epoch `< E` — the
/// invariant the `loom_models` module at the bottom of this file drives
/// through every bounded interleaving with a concurrent [`clear`].
struct FrontCache {
    epoch: u64,
    /// Round-robin replacement cursor.
    next: usize,
    entries: Vec<(Key, AnyPlan)>,
}

impl FrontCache {
    const fn new() -> Self {
        FrontCache {
            epoch: 0,
            next: 0,
            entries: Vec::new(),
        }
    }

    /// Step 2 of the epoch protocol: drops every remembered plan unless
    /// it was remembered under `epoch` (the value this dispatch observed
    /// in [`PlanCache::epoch`]).
    fn revalidate(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.entries.clear();
            self.next = 0;
            self.epoch = epoch;
        }
    }

    /// Linear scan over the (few) remembered plans. Only meaningful after
    /// [`revalidate`](Self::revalidate) in the same dispatch.
    fn lookup(&self, key: &Key) -> Option<AnyPlan> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, plan)| Arc::clone(plan))
    }

    /// Step 3 of the epoch protocol: stores `plan` round-robin, unless a
    /// newer epoch was installed since this dispatch observed `epoch` (a
    /// concurrent [`clear`] raced us — the plan is then dropped rather
    /// than remembered under an epoch it does not belong to).
    fn remember(&mut self, epoch: u64, key: Key, plan: &AnyPlan) {
        if self.epoch != epoch {
            return;
        }
        let slot = self.next;
        if self.entries.len() < FRONT_SLOTS {
            self.entries.push((key, Arc::clone(plan)));
        } else {
            self.entries[slot] = (key, Arc::clone(plan));
        }
        self.next = (slot + 1) % FRONT_SLOTS;
    }
}

thread_local! {
    static FRONT: RefCell<FrontCache> = const { RefCell::new(FrontCache::new()) };
}

/// Journal probe for a freshly planned shape (runs only on the shared-
/// cache miss path, so sweep-built and directly built plans stay silent):
/// the chosen pack/tile/width decisions plus a digest of the full explain
/// document. Returns the event id for the cache-insert probe to cite, 0
/// when the journal is off (`explain` is then never called).
fn journal_plan_build(key: &Key, explain: impl FnOnce() -> obs::PlanExplain) -> u64 {
    if !iatf_journal::is_enabled() {
        return 0;
    }
    let x = explain();
    iatf_journal::publish(
        iatf_journal::EventKind::PlanBuild,
        &key.journal_key(),
        0,
        obs::Json::object()
            .set("op", x.op.as_str())
            .set("dtype", x.dtype.as_str())
            .set("mode", x.mode.as_str())
            .set("p", x.p)
            .set("width_bits", x.width_bits)
            .set("uarch", x.uarch.as_str())
            .set("group_packs", x.group_packs)
            .set("pack_a", x.pack_a.as_str())
            .set("pack_b", x.pack_b.as_str())
            .set("main_mr", x.main_kernel.0)
            .set("main_nr", x.main_kernel.1)
            .set("tiles", x.tiles_per_matrix())
            .set(
                "explain_digest",
                format!("{:016x}", iatf_journal::digest64(&x.to_json().to_compact())).as_str(),
            ),
    )
}

/// Looks `key` up in the front cache, then its shard; on a miss, builds
/// the plan (outside the shard lock — concurrent same-shape misses may
/// build twice, and the first insert wins) and caches it in both layers.
/// `explain` describes the freshly built plan for the journal.
fn get_or_build<P, F, D>(key: Key, build: F, explain: D) -> Result<Arc<P>, LayoutError>
where
    P: Send + Sync + 'static,
    F: FnOnce() -> Result<P, LayoutError>,
    D: FnOnce(&P) -> obs::PlanExplain,
{
    let c = cache();
    // ordering: Relaxed — the epoch is the only shared word of the front
    // protocol and carries no payload of its own: observing a stale value
    // only delays invalidation by one dispatch (the stale front still
    // serves plans remembered under the epoch it observed, which is the
    // invariant; see FrontCache). Plans themselves are published by the
    // shard Mutex, never through this load.
    let epoch = c.epoch.load(Relaxed);

    // Fast path: this thread dispatched the same shape recently.
    let front_hit = FRONT.with(|front| {
        let mut f = front.borrow_mut();
        f.revalidate(epoch);
        f.lookup(&key)
    });
    if let Some(plan) = front_hit {
        // ordering: Relaxed — monotonic statistics counter; no reader
        // infers anything from it about other memory.
        c.hits.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Hit);
        return Ok(plan
            .downcast::<P>()
            .expect("plan cache keys encode the concrete plan type"));
    }

    let hash = key.hash64();
    let shard = &c.shards[(hash % SHARDS as u64) as usize];
    let shared: Option<AnyPlan> = {
        let mut s = shard.lock().expect("plan cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        s.entries
            .iter_mut()
            .find(|e| e.hash == hash && e.key == key)
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.plan)
            })
    };
    let (plan, hit) = match shared {
        Some(plan) => (plan, true),
        None => {
            // build without holding the shard lock — planning allocates
            let planned = build()?;
            let build_event = journal_plan_build(&key, || explain(&planned));
            let built: AnyPlan = Arc::new(planned);
            // Journaled outside the shard lock below; `Some` only when
            // this thread actually inserted (the race loser stays quiet).
            let mut evicted: Option<Key> = None;
            let mut inserted = false;
            let mut s = shard.lock().expect("plan cache shard poisoned");
            s.tick += 1;
            let tick = s.tick;
            let plan = match s.entries.iter_mut().find(|e| e.hash == hash && e.key == key) {
                // another thread inserted while we built: keep its plan
                Some(e) => {
                    e.last_used = tick;
                    Arc::clone(&e.plan)
                }
                None => {
                    if s.entries.len() >= SHARD_CAP {
                        let oldest = s
                            .entries
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(i, _)| i)
                            .expect("shard at capacity is non-empty");
                        evicted = Some(s.entries[oldest].key);
                        s.entries.swap_remove(oldest);
                        // ordering: Relaxed — monotonic statistics
                        // counter (shard state is guarded by its Mutex).
                        c.evictions.fetch_add(1, Relaxed);
                        obs::count_plan_cache(obs::CacheEvent::Eviction);
                    }
                    s.entries.push(Entry {
                        hash,
                        key,
                        plan: Arc::clone(&built),
                        last_used: tick,
                    });
                    inserted = true;
                    built
                }
            };
            drop(s);
            if iatf_journal::is_enabled() && inserted {
                if let Some(old) = evicted {
                    iatf_journal::publish(
                        iatf_journal::EventKind::CacheEvict,
                        &old.journal_key(),
                        build_event,
                        obs::Json::object()
                            .set("cfg", format!("{:016x}", old.cfg).as_str())
                            .set("shard", (hash % SHARDS as u64) as usize),
                    );
                }
                iatf_journal::publish(
                    iatf_journal::EventKind::CacheInsert,
                    &key.journal_key(),
                    build_event,
                    obs::Json::object()
                        .set("cfg", format!("{:016x}", key.cfg).as_str())
                        .set("shard", (hash % SHARDS as u64) as usize),
                );
            }
            (plan, false)
        }
    };
    // ordering: Relaxed — monotonic statistics counters; no reader infers
    // anything from them about other memory.
    if hit {
        c.hits.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Hit);
    } else {
        c.misses.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Miss);
    }

    // Remember in the front cache (round-robin over a few slots).
    FRONT.with(|front| front.borrow_mut().remember(epoch, key, &plan));

    Ok(plan
        .downcast::<P>()
        .expect("plan cache keys encode the concrete plan type"))
}

pub(crate) fn gemm_mode_bits(mode: GemmMode) -> u8 {
    (mode.transa.is_trans() as u8) | ((mode.transb.is_trans() as u8) << 1)
}

pub(crate) fn trsm_mode_bits(mode: TrsmMode) -> u8 {
    ((mode.side == iatf_layout::Side::Right) as u8)
        | ((mode.trans.is_trans() as u8) << 1)
        | ((mode.uplo == iatf_layout::Uplo::Upper) as u8) << 2
        | ((mode.diag == iatf_layout::Diag::Unit) as u8) << 3
}

/// Returns the shared GEMM plan for this shape, building it on first use.
pub fn cached_gemm_plan<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<GemmPlan<E>>, LayoutError> {
    let key = Key {
        op: 0,
        dtype: E::DTYPE as u8,
        m: dims.m,
        n: dims.n,
        k: dims.k,
        mode: gemm_mode_bits(mode),
        conj: (conj_a as u8) | ((conj_b as u8) << 1),
        count,
        cfg: cfg.fingerprint(),
    };
    get_or_build(
        key,
        || GemmPlan::<E>::new(dims, mode, conj_a, conj_b, count, cfg),
        GemmPlan::explain,
    )
}

/// Returns the shared triangular plan for this shape, building it on
/// first use.
pub(crate) fn cached_tri_plan<E: CompactElement, O: TriOp<E>>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<TriPlan<E, O>>, LayoutError> {
    let key = Key {
        op: O::TUNE as u8,
        dtype: E::DTYPE as u8,
        m: dims.m,
        n: dims.n,
        k: 0,
        mode: trsm_mode_bits(mode),
        conj: conj as u8,
        count,
        cfg: cfg.fingerprint(),
    };
    get_or_build(
        key,
        || TriPlan::<E, O>::new(dims, mode, conj, count, cfg),
        TriPlan::explain,
    )
}

/// Returns the shared TRSM plan for this shape, building it on first use.
pub fn cached_trsm_plan<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<TrsmPlan<E>>, LayoutError> {
    cached_tri_plan::<E, Solve>(dims, mode, conj, count, cfg)
}

/// Returns the shared TRMM plan for this shape, building it on first use.
pub fn cached_trmm_plan<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<TrmmPlan<E>>, LayoutError> {
    cached_tri_plan::<E, Multiply>(dims, mode, conj, count, cfg)
}

/// Point-in-time plan-cache statistics. Always live (plain atomics,
/// independent of the `obs` feature). Hits count both front-cache and
/// shared-cache hits; every lookup is exactly one hit or one miss.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (either layer).
    pub hits: u64,
    /// Lookups that built and inserted a plan.
    pub misses: u64,
    /// Entries discarded by the LRU bound.
    pub evictions: u64,
    /// Plans resident in the shared cache (front caches not counted).
    pub entries: usize,
}

/// Snapshot of the cache counters and current occupancy.
pub fn stats() -> PlanCacheStats {
    let c = cache();
    // ordering: Relaxed — point-in-time reads of independent monotonic
    // counters; the snapshot is advisory, not a consistent cut.
    PlanCacheStats {
        hits: c.hits.load(Relaxed),
        misses: c.misses.load(Relaxed),
        evictions: c.evictions.load(Relaxed),
        entries: c
            .shards
            .iter()
            .map(|s| s.lock().expect("plan cache shard poisoned").entries.len())
            .sum(),
    }
}

/// Drops every cached plan (outstanding `Arc`s stay valid), invalidates
/// all front caches via the epoch, and zeroes the counters. Intended for
/// tests and long-lived processes that change tuning configs wholesale.
pub fn clear() {
    let c = cache();
    // ordering: Relaxed — the bump needs no release fence because it
    // publishes nothing: fronts that observe the new value drop their
    // entries and rebuild through the shard Mutex (which is the real
    // synchronization point), and fronts that observe the old value keep
    // serving plans remembered under it, which is the documented
    // transient-staleness window of `clear`. The bump-before-clear order
    // below is still load-bearing for the *shared* cache: a thread that
    // finds a shard empty after this line can only remember the rebuilt
    // plan under the epoch it observed at entry.
    let epoch = c.epoch.fetch_add(1, Relaxed) + 1;
    if iatf_journal::is_enabled() {
        iatf_journal::publish(
            iatf_journal::EventKind::CacheGenerationBump,
            "*",
            0,
            obs::Json::object().set("epoch", epoch),
        );
    }
    for shard in &c.shards {
        let mut s = shard.lock().expect("plan cache shard poisoned");
        s.entries.clear();
        s.tick = 0;
    }
    // ordering: Relaxed — statistics counters reset; racing dispatches
    // may re-add a count, which the stats snapshot tolerates.
    c.hits.store(0, Relaxed);
    c.misses.store(0, Relaxed);
    c.evictions.store(0, Relaxed);
}

/// Total capacity of the shared cache in plans.
pub const fn capacity() -> usize {
    SHARDS * SHARD_CAP
}

/// Bounded model checking of the front-cache epoch protocol (run with
/// `RUSTFLAGS="--cfg loom" cargo test -p iatf-core --lib loom`): every
/// interleaving of a dispatching thread against a concurrent `clear()`
/// epoch bump, within the model checker's preemption bound.
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use crate::sync::AtomicU64;
    use loom::thread;

    fn model_key() -> Key {
        Key {
            op: 0,
            dtype: 1,
            m: 4,
            n: 4,
            k: 4,
            mode: 0,
            conj: 0,
            count: 32,
            cfg: 7,
        }
    }

    /// Plans in the model are `Arc<u64>` tagged with the epoch they were
    /// remembered under, so a served plan can testify which generation it
    /// belongs to.
    fn tagged(epoch: u64) -> AnyPlan {
        Arc::new(epoch) as AnyPlan
    }

    fn tag_of(plan: &AnyPlan) -> u64 {
        *plan.downcast_ref::<u64>().expect("model plans are epoch tags")
    }

    /// Invariant: a dispatch that observes epoch `E` never serves a plan
    /// remembered under an epoch `< E`, no matter how a concurrent
    /// `clear()` bump interleaves with it.
    #[test]
    fn front_never_serves_plan_from_dead_epoch() {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let key = model_key();
            let mut front = FrontCache::new();

            // Dispatch 1 (pre-race): remember a plan under the epoch it
            // observed.
            let e1 = epoch.load(Relaxed);
            front.revalidate(e1);
            front.remember(e1, key, &tagged(e1));

            // Concurrent clear(): the epoch bump, as clear() issues it.
            let writer = {
                let epoch = Arc::clone(&epoch);
                thread::spawn(move || {
                    epoch.fetch_add(1, Relaxed);
                })
            };

            // Dispatch 2 races the bump: whatever epoch it observes, any
            // plan it serves must carry exactly that epoch.
            let e2 = epoch.load(Relaxed);
            front.revalidate(e2);
            if let Some(plan) = front.lookup(&key) {
                assert_eq!(
                    tag_of(&plan),
                    e2,
                    "front served a plan remembered under a dead epoch"
                );
            }

            writer.join().unwrap();

            // Dispatch 3 (post-race): the bump is now visible; the plan
            // remembered under epoch 0 must be gone.
            let e3 = epoch.load(Relaxed);
            assert_eq!(e3, 1);
            front.revalidate(e3);
            assert!(
                front.lookup(&key).is_none(),
                "plan from generation 0 survived the generation bump"
            );
        });
    }

    /// Invariant: `remember` never stores a plan into a front that has
    /// already revalidated against a newer epoch — a build that straddles
    /// a `clear()` is dropped, not cached under the wrong generation.
    #[test]
    fn front_remember_refuses_stale_epoch() {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let key = model_key();
            let mut front = FrontCache::new();

            // A dispatch observes epoch 0 and starts building.
            let e1 = epoch.load(Relaxed);
            front.revalidate(e1);

            let writer = {
                let epoch = Arc::clone(&epoch);
                thread::spawn(move || {
                    epoch.fetch_add(1, Relaxed);
                })
            };

            // Another dispatch on the same thread may interleave and
            // observe the bumped epoch before the first one's remember
            // runs (thread-local fronts serialize dispatches, but the
            // remember of a long build can follow a fresher revalidate).
            let e2 = epoch.load(Relaxed);
            front.revalidate(e2);
            front.remember(e1, key, &tagged(e1));

            // If the front moved on to epoch 1, the stale remember must
            // have been dropped; if it is still on epoch 0, the entry is
            // legitimately epoch-0 and dispatch 3 below clears it.
            if e2 > e1 {
                assert!(
                    front.lookup(&key).is_none(),
                    "remember stored a plan under a dead epoch"
                );
            }

            writer.join().unwrap();

            let e3 = epoch.load(Relaxed);
            front.revalidate(e3);
            if let Some(plan) = front.lookup(&key) {
                assert_eq!(tag_of(&plan), e3);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cache behaviour tests live in `tests/plan_cache.rs`, serialized
    // against the global state; here the pure key helpers plus a real-
    // thread stress probe of the front-cache epoch protocol (the loom
    // models above prove the same invariant exhaustively but only within
    // the checker's preemption bound).
    #[test]
    fn mode_bits_are_injective() {
        let mut seen = std::collections::HashSet::new();
        for mode in GemmMode::ALL {
            assert!(seen.insert(gemm_mode_bits(mode)));
        }
        let mut seen = std::collections::HashSet::new();
        for mode in TrsmMode::all() {
            assert!(seen.insert(trsm_mode_bits(mode)));
        }
    }

    #[test]
    fn key_hash_separates_nearby_keys() {
        let base = Key {
            op: 0,
            dtype: 1,
            m: 4,
            n: 4,
            k: 4,
            mode: 0,
            conj: 0,
            count: 32,
            cfg: 7,
        };
        let mut hashes = std::collections::HashSet::new();
        hashes.insert(base.hash64());
        for (i, variant) in [
            Key { op: 1, ..base },
            Key { dtype: 2, ..base },
            Key { m: 5, ..base },
            Key { n: 5, ..base },
            Key { k: 5, ..base },
            Key { mode: 1, ..base },
            Key { conj: 1, ..base },
            Key { count: 33, ..base },
            Key { cfg: 8, ..base },
        ]
        .into_iter()
        .enumerate()
        {
            assert!(hashes.insert(variant.hash64()), "collision at field {i}");
        }
    }

    /// Real-thread stress test of the invariant the loom model proves in
    /// the bounded case: a dispatch that observed epoch `E` never serves
    /// a plan remembered under an epoch `< E` (a "dead generation").
    /// Plans are tagged with the epoch they were remembered under, a
    /// bumper thread races `clear()`-style epoch advances against worker
    /// dispatch loops, and every front hit must carry the tag of the
    /// epoch the serving dispatch observed.
    #[test]
    #[cfg(not(loom))]
    fn stress_front_never_serves_dead_generation() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        use std::sync::Arc;

        const WORKERS: usize = 4;
        const DISPATCHES: usize = 100_000;

        let epoch = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let bumper = {
            let (epoch, stop) = (Arc::clone(&epoch), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Relaxed) {
                    epoch.fetch_add(1, Relaxed);
                    std::thread::yield_now();
                }
            })
        };

        let key = Key {
            op: 0,
            dtype: 1,
            m: 8,
            n: 8,
            k: 8,
            mode: 0,
            conj: 0,
            count: 1,
            cfg: 42,
        };
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                std::thread::spawn(move || {
                    let mut front = FrontCache::new();
                    for _ in 0..DISPATCHES {
                        // The epoch protocol: observe once, revalidate,
                        // lookup, remember under the observed value.
                        let e = epoch.load(Relaxed);
                        front.revalidate(e);
                        if let Some(plan) = front.lookup(&key) {
                            let tag = *plan
                                .downcast::<u64>()
                                .expect("stress plans are epoch tags");
                            assert_eq!(
                                tag, e,
                                "front served a plan remembered under a dead generation"
                            );
                        }
                        let plan: AnyPlan = Arc::new(e);
                        front.remember(e, key, &plan);
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().expect("stress worker panicked");
        }
        stop.store(true, Relaxed);
        bumper.join().expect("epoch bumper panicked");
    }
}
