//! The slot scheduler: a closed loop on one thread that alternates
//! reference slots with groups of cell slots and keeps every slot's time.

use crate::cells::{peak_flops_per_unit, Cell, Profile, TracedOut};
use crate::gen::{Digest, Rng};
use crate::layers::LayerAcc;
use crate::refk::{Isa, RefKind, Yardstick};
use crate::spans::Recorder;
use crate::stats::{CellSlot, RefSlot};
use std::time::{Duration, Instant};

/// Wall time one cell slot aims for: long enough that the single clock
/// read is noise, short enough that the clock seldom moves inside it.
pub const SLOT_NS: f64 = 1.5e6;

/// Wall time of one reference-kernel burst.
pub const REF_BURST_NS: f64 = 2.0e5;

/// What one cell slot did.
#[derive(Copy, Clone, Debug, Default)]
pub struct SlotOut {
    /// Cell the slot belongs to; groups share the time equally.
    pub group: u32,
    /// Kind of call within the group; slots of one stratum measure the
    /// same thing.
    pub stratum: u32,
    /// Wall time of the one-shot calls.
    pub ns: f64,
    /// The part of `ns` set by a wall-clock budget rather than the clock.
    pub budget_ns: f64,
    /// The same calls as the sum of their layer spans (traced slots only).
    pub attributed_ns: f64,
    /// The part of `attributed_ns` spent in `execute` (traced slots only).
    pub execute_ns: f64,
    /// Library calls made.
    pub calls: u64,
    /// `ref.fma` units the useful flops would take at peak.
    pub peak_units: f64,
    /// Calls that returned `Err`.
    pub failed: u64,
}

impl From<TracedOut> for SlotOut {
    fn from(t: TracedOut) -> Self {
        SlotOut {
            ns: t.oneshot_ns as f64,
            attributed_ns: t.attributed_ns as f64,
            execute_ns: t.execute_ns as f64,
            failed: t.failed,
            ..SlotOut::default()
        }
    }
}

/// A workload as the scheduler and `main` see it.
pub trait Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// The reference kernel per-call times are expressed in.
    fn reference(&self) -> RefKind;
    /// Bytes the workload's operands occupy (sizes `ref.stream`).
    fn footprint(&self) -> usize;
    /// Identity of the generated cell list and call order.
    fn digest(&self) -> u64;
    /// One-line description of the cells, for the run header.
    fn describe(&self) -> String;
    /// The library's cold pass: plan cache cleared, then one call of
    /// everything. Only the time inside library calls is reported.
    fn cold_pass(&mut self) -> SlotOut;
    /// Sizes the slots; called once, after the cold passes.
    fn calibrate(&mut self);
    /// Runs the next slot, taken apart into spans when `rec` is given.
    fn slot(&mut self, rec: Option<&mut Recorder>, id: u32) -> SlotOut;
    /// Oracle checks: `(attempted, failed)` checked calls.
    fn check(&mut self, rng: &mut Rng, inject: bool) -> (u64, u64);
    /// Finite/normal-value check over everything the library wrote.
    fn healthy(&self) -> bool;
    /// Per-cell layer replays, within about `budget` in all.
    fn profile(
        &mut self,
        rec: &mut Recorder,
        acc: &mut LayerAcc,
        yard: &mut Yardstick,
        budget: Duration,
    );
    /// Workload-specific per-layer metrics, as `(name, value)`.
    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything one pass over the timed region recorded.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Reference slots, in order.
    pub refs: Vec<RefSlot>,
    /// Cell slots, in order.
    pub cells: Vec<CellSlot>,
    /// Calls made.
    pub calls: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
    /// Per traced slot, the share of its one-shot time that its layer spans
    /// account for. Kept per slot so that a median can discard the slots in
    /// which the clock moved between the phases.
    pub attributed_shares: Vec<f64>,
    /// Per traced slot, `execute` time as a share of its one-shot time.
    pub execute_shares: Vec<f64>,
    /// Wall time of the whole pass, reference slots included.
    pub wall_s: f64,
}

fn ref_slot(yard: &mut Yardstick) -> RefSlot {
    let (fma_ns, own_ns) = yard.slot();
    RefSlot { fma_ns, own_ns }
}

impl Timeline {
    fn push(&mut self, out: SlotOut) {
        self.cells.push(CellSlot {
            ref_before: self.refs.len() - 1,
            group: out.group,
            stratum: out.stratum,
            ns: out.ns,
            budget_ns: out.budget_ns,
            calls: out.calls,
            peak_units: out.peak_units,
        });
        self.calls += out.calls;
        self.failed += out.failed;
    }
}

/// Runs slots for `seconds`: R C R C R … Every cell slot has a reference
/// slot on both sides.
pub fn run(
    w: &mut dyn Workload,
    yard: &mut Yardstick,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Timeline {
    // Room for a slot a millisecond, allocated and touched before the first
    // slot: the harness's own records then add the same to the resident set
    // however many slots the clock lets the run make, and never grow mid-run.
    let room = (seconds * 1e3) as usize + 1;
    let mut tl = Timeline {
        refs: vec![RefSlot::default(); room + 1],
        cells: vec![CellSlot::default(); room],
        ..Timeline::default()
    };
    tl.refs.clear();
    tl.cells.clear();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut id = 0u32;
    tl.refs.push(ref_slot(yard));
    while start.elapsed() < limit {
        let out = w.slot(rec.as_deref_mut(), id);
        id = id.wrapping_add(1);
        tl.push(out);
        if rec.is_some() && out.ns > 0.0 {
            tl.attributed_shares.push(out.attributed_ns / out.ns);
            tl.execute_shares.push(out.execute_ns / out.ns);
        }
        tl.refs.push(ref_slot(yard));
    }
    tl.wall_s = start.elapsed().as_secs_f64();
    tl
}

/// How a [`CellWorkload`] visits its cells.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Visiting {
    /// A slot is back-to-back rounds of one cell, sized to [`SLOT_NS`];
    /// cells take turns in seeded shuffled order, so each gets an equal
    /// share of the time.
    OneCellPerSlot,
    /// A slot is a run of visits to different cells in seeded shuffled
    /// order, two rounds per visit: the first call of a visit finds its
    /// plan in the shared cache, the second in the thread's front cache.
    /// Each cell gets an equal share of the calls.
    Mixed,
}

/// Rounds a mixed visit makes of its cell.
const ROUNDS_PER_VISIT: u64 = 2;

/// A workload made of [`Cell`]s.
pub struct CellWorkload {
    name: &'static str,
    reference: RefKind,
    visiting: Visiting,
    baseline: bool,
    isa: Isa,
    cells: Vec<Box<dyn Cell>>,
    /// Rounds per slot of each cell (`OneCellPerSlot`).
    rounds: Vec<u64>,
    /// Visits per slot (`Mixed`).
    visits: usize,
    order: Vec<u32>,
    at: usize,
    order_rng: Rng,
    digest: u64,
}

impl CellWorkload {
    /// A workload over `cells`; `seed` drives only the visit order here
    /// (the cells were generated from it by the caller).
    pub fn new(
        name: &'static str,
        reference: RefKind,
        visiting: Visiting,
        baseline: bool,
        isa: Isa,
        cells: Vec<Box<dyn Cell>>,
        seed: u64,
    ) -> Self {
        assert!(!cells.is_empty(), "a workload needs cells");
        let n = cells.len();
        let mut w = CellWorkload {
            name,
            reference,
            visiting,
            baseline,
            isa,
            cells,
            rounds: vec![1; n],
            visits: 1,
            order: Vec::new(),
            at: 0,
            order_rng: Rng::new(seed, 0x0bde),
            digest: 0,
        };
        // the digest covers the cell list and these first passes of the order
        for _ in 0..4 {
            w.extend_order();
        }
        let mut d = Digest::new();
        d.text(name);
        for c in &w.cells {
            d.text(&c.desc().label);
        }
        for &i in &w.order {
            d.word(u64::from(i));
        }
        w.digest = d.value();
        w
    }

    fn extend_order(&mut self) {
        let mut pass: Vec<u32> = (0..self.cells.len() as u32).collect();
        self.order_rng.shuffle(&mut pass);
        self.order.extend(pass);
    }

    fn next_cell(&mut self) -> usize {
        if self.at == self.order.len() {
            // keep memory bounded on long runs: the consumed order is not needed again
            self.order.clear();
            self.at = 0;
            self.extend_order();
        }
        let i = self.order[self.at] as usize;
        self.at += 1;
        i
    }

    fn peak_units(&self, cell: usize, rounds: u64) -> f64 {
        let d = self.cells[cell].desc();
        rounds as f64 * d.flops_per_round / peak_flops_per_unit(self.isa, d.scalar_bytes)
    }
}

fn time_ns(f: impl FnOnce() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let failed = f();
    (t0.elapsed().as_nanos() as f64, failed)
}

impl Workload for CellWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reference(&self) -> RefKind {
        self.reference
    }

    fn footprint(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.desc().footprint)
            .max()
            .unwrap_or(0)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        let n = self.cells.len();
        let mut s = format!("{n} cells:");
        for c in self.cells.iter().take(3) {
            s.push_str(&format!(" [{}]", c.desc().label));
        }
        if n > 3 {
            s.push_str(&format!(" … [{}]", self.cells[n - 1].desc().label));
        }
        s
    }

    fn cold_pass(&mut self) -> SlotOut {
        iatf_core::plan::cache::clear();
        let (ns, failed) = time_ns(|| self.cells.iter_mut().map(|c| c.run(1)).sum());
        SlotOut {
            ns,
            failed,
            calls: self.cells.iter().map(|c| c.desc().calls_per_round).sum(),
            ..SlotOut::default()
        }
    }

    fn calibrate(&mut self) {
        let mut per_round = Vec::with_capacity(self.cells.len());
        for c in &mut self.cells {
            c.run(1);
            let (once, _) = time_ns(|| c.run(1));
            let trial = ((2.0e5 / once.max(1.0)) as u64).clamp(1, 10_000);
            let (ns, _) = time_ns(|| c.run(trial));
            per_round.push(ns / trial as f64);
        }
        match self.visiting {
            Visiting::OneCellPerSlot => {
                self.rounds = per_round
                    .iter()
                    .map(|ns| ((SLOT_NS / ns.max(1.0)).round() as u64).max(1))
                    .collect();
            }
            Visiting::Mixed => {
                let visit = ROUNDS_PER_VISIT as f64 * per_round.iter().sum::<f64>()
                    / per_round.len() as f64;
                self.visits = ((SLOT_NS / visit.max(1.0)).round() as usize).max(1);
            }
        }
    }

    fn slot(&mut self, rec: Option<&mut Recorder>, id: u32) -> SlotOut {
        match self.visiting {
            Visiting::OneCellPerSlot => {
                let i = self.next_cell();
                let rounds = self.rounds[i];
                let cell = &mut self.cells[i];
                // The cells together exceed L2: an untimed round brings this one's
                // operands back, so the slot times warm calls from its first one.
                let warmup_failed = cell.run(1);
                let mut out = match rec {
                    None => {
                        let (ns, failed) = time_ns(|| cell.run(rounds));
                        SlotOut {
                            ns,
                            failed,
                            ..SlotOut::default()
                        }
                    }
                    Some(rec) => {
                        let slot = rec.open("slot", id);
                        let traced = cell.traced(rounds, rec, id);
                        rec.close(slot, rounds);
                        SlotOut::from(traced)
                    }
                };
                out.failed += warmup_failed;
                out.group = i as u32;
                out.calls = rounds * self.cells[i].desc().calls_per_round;
                out.peak_units = self.peak_units(i, rounds);
                out
            }
            Visiting::Mixed => {
                let picks: Vec<usize> = (0..self.visits).map(|_| self.next_cell()).collect();
                let cells = &mut self.cells;
                let mut out = match rec {
                    None => {
                        let (ns, failed) =
                            time_ns(|| picks.iter().map(|&i| cells[i].run(ROUNDS_PER_VISIT)).sum());
                        SlotOut {
                            ns,
                            failed,
                            ..SlotOut::default()
                        }
                    }
                    Some(rec) => {
                        // the three phases of `Cell::traced`, each over the whole run of
                        // visits, so every phase meets the plan caches in the same order
                        let calls: u64 = picks
                            .iter()
                            .map(|&i| ROUNDS_PER_VISIT * cells[i].desc().calls_per_round)
                            .sum();
                        let slot = rec.open("slot", id);
                        let t = rec.open("core.api.oneshot", id);
                        let mut failed: u64 =
                            picks.iter().map(|&i| cells[i].run(ROUNDS_PER_VISIT)).sum();
                        let oneshot_ns = rec.close(t, calls);
                        let t = rec.open("core.cache.lookup", id);
                        for &i in &picks {
                            cells[i].lookup(ROUNDS_PER_VISIT);
                        }
                        let lookup_ns = rec.close(t, calls);
                        let t = rec.open("core.plan.execute", id);
                        failed += picks
                            .iter()
                            .map(|&i| cells[i].execute(ROUNDS_PER_VISIT))
                            .sum::<u64>();
                        let execute_ns = rec.close(t, calls);
                        rec.close(slot, calls);
                        SlotOut::from(TracedOut {
                            failed,
                            oneshot_ns,
                            attributed_ns: lookup_ns + execute_ns,
                            execute_ns,
                        })
                    }
                };
                for &i in &picks {
                    out.calls += ROUNDS_PER_VISIT * self.cells[i].desc().calls_per_round;
                    out.peak_units += self.peak_units(i, ROUNDS_PER_VISIT);
                }
                out
            }
        }
    }

    fn check(&mut self, rng: &mut Rng, inject: bool) -> (u64, u64) {
        let mut failed = 0;
        for (i, c) in self.cells.iter_mut().enumerate() {
            failed += u64::from(!c.check(rng, inject && i == 0));
        }
        (self.cells.len() as u64, failed)
    }

    fn healthy(&self) -> bool {
        self.cells.iter().all(|c| c.healthy())
    }

    fn profile(
        &mut self,
        rec: &mut Recorder,
        acc: &mut LayerAcc,
        yard: &mut Yardstick,
        budget: Duration,
    ) {
        // a cell makes up to eight timed measurements
        let per = budget / (8 * self.cells.len() as u32);
        for (i, c) in self.cells.iter_mut().enumerate() {
            let t = rec.open("profile", i as u32);
            c.profile(&mut Profile {
                rec,
                acc,
                yard,
                budget: per,
                call: i as u32,
                baseline: self.baseline,
            });
            rec.close(t, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::GemmCell;
    use crate::stats;
    use iatf_core::TuningConfig;
    use iatf_layout::{GemmDims, GemmMode};

    fn workload(visiting: Visiting, seed: u64) -> CellWorkload {
        let cfg = TuningConfig::host();
        let cells: Vec<Box<dyn Cell>> = (2..6)
            .map(|n| {
                Box::new(GemmCell::<f64>::new(
                    GemmDims::square(n),
                    GemmMode::NN,
                    16,
                    &cfg,
                    &mut Rng::new(seed, n as u64),
                )) as Box<dyn Cell>
            })
            .collect();
        let isa = Isa::for_width_bits(cfg.width.bits());
        CellWorkload::new("test", RefKind::Chain, visiting, false, isa, cells, seed)
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_order() {
        let a = workload(Visiting::Mixed, 5).digest();
        assert_eq!(a, workload(Visiting::Mixed, 5).digest());
        assert_ne!(a, workload(Visiting::Mixed, 6).digest());
    }

    #[test]
    fn every_cell_slot_sits_between_two_reference_slots() {
        for visiting in [Visiting::OneCellPerSlot, Visiting::Mixed] {
            let mut w = workload(visiting, 1);
            let isa = w.isa;
            let mut yard = Yardstick::new(isa, RefKind::Chain, 0, 1.0e5);
            let cold = w.cold_pass();
            assert!(cold.ns > 0.0 && cold.calls == 4 && cold.failed == 0);
            w.calibrate();
            let tl = run(&mut w, &mut yard, 0.05, None);
            assert!(tl.cells.len() >= 3 && tl.refs.len() >= 2);
            assert!(tl.cells.iter().all(|c| c.ref_before + 1 < tl.refs.len()));
            assert_eq!(tl.failed, 0);
            assert_eq!(tl.calls, tl.cells.iter().map(|c| c.calls).sum::<u64>());
            let n = stats::normalise(&tl.refs, &tl.cells);
            assert_eq!(n.kept.len() + n.dropped, tl.cells.len());
            let (attempted, failed) = w.check(&mut Rng::new(1, 9), false);
            assert_eq!((attempted, failed), (4, 0));
            assert_eq!(w.check(&mut Rng::new(1, 9), true).1, 1);
        }
    }

    #[test]
    fn traced_slots_record_lookup_and_execute_under_a_slot_span() {
        let mut w = workload(Visiting::Mixed, 2);
        w.calibrate();
        let mut rec = Recorder::new();
        let out = w.slot(Some(&mut rec), 3);
        assert_eq!(rec.total("slot").spans, 1);
        for phase in ["core.api.oneshot", "core.cache.lookup", "core.plan.execute"] {
            assert_eq!(rec.total(phase).count, out.calls, "{phase}");
        }
        assert_eq!(out.ns, rec.total("core.api.oneshot").ns as f64);
        assert_eq!(
            out.attributed_ns,
            (rec.total("core.cache.lookup").ns + rec.total("core.plan.execute").ns) as f64
        );
        assert!(
            rec.total("slot").ns >= rec.total("core.api.oneshot").ns + out.attributed_ns as u64
        );
    }
}
