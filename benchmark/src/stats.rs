//! Order statistics and the slot arithmetic of the timing protocol.
//!
//! The timed region is a sequence of *slots*. A reference slot times the
//! reference kernels; a cell slot times back-to-back library calls with one
//! clock read. Each cell slot is divided by the mean of the reference slots
//! on either side of it, which cancels clock drift slower than a few
//! milliseconds; where the two sides disagree the clock moved *during* the
//! slot and the slot is dropped and counted.
//!
//! Slots belong to *groups* (a cell; the whole key stream), and within a
//! group to *strata* (a class of keys, first call or warm calls). Figures
//! are formed per stratum first and put together with the weights the
//! scheduler gave them — calls attempted within a group, equal time across
//! groups — so the mixture behind a figure is the same whichever slots were
//! dropped.

use std::collections::BTreeMap;

/// Reference slots that disagree by more than this drop the cell slots
/// between them. Wider than one step between adjacent P-states (8–13 % on
/// the reference host, whose governor dithers between two of them every few
/// milliseconds under light code): a slot that saw one such step is off by
/// at most half of it either way once divided by the mean of its
/// neighbours. A gate at 10 % dropped up to 30 % of `small_calls`, 23 % of
/// `first_touch` and a third of the cold passes, and moved no figure by
/// more than 1 %.
pub const NEIGHBOUR_TOLERANCE: f64 = 0.15;

/// A run that drops more than this share of its slots is `unresolved`.
pub const MAX_DROPPED_SHARE: f64 = 0.25;

/// Value at quantile `q ∈ [0, 1]` of an ascending slice, interpolating
/// linearly between ranks. Empty input gives 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts ascending (NaNs last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median; sorts its argument.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile_sorted(values, 0.5)
}

/// Geometric mean of positive values (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0 && v.is_finite())
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The highest percentile with at least ten samples beyond it (0.99 needs
/// a thousand samples); falls back towards the median for short runs.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples >= 1000 {
        0.99
    } else if samples >= 100 {
        0.90
    } else {
        0.5
    }
}

/// One reference slot: nanoseconds per unit of each reference kernel.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct RefSlot {
    /// `ref.fma`: ns per independent vector FMA.
    pub fma_ns: f64,
    /// The workload's own reference kernel: ns per unit.
    pub own_ns: f64,
}

/// One cell slot as timed.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CellSlot {
    /// Index of the reference slot that ran before it; the one after is
    /// `ref_before + 1`.
    pub ref_before: usize,
    /// Cell the slot belongs to; groups share the time equally.
    pub group: u32,
    /// Kind of call within the group; slots of one stratum measure the
    /// same thing.
    pub stratum: u32,
    /// Wall time of the slot.
    pub ns: f64,
    /// The part of `ns` that is set by a wall-clock budget, not by the
    /// clock rate (an autotune sweep runs for its budget however fast the
    /// core is): it is converted at the run's mean clock, not the slot's.
    pub budget_ns: f64,
    /// Library calls made in the slot.
    pub calls: u64,
    /// `ref.fma` units the slot's useful flops would take at peak: Σ over
    /// its calls of flops ÷ (2 × lanes at the call's precision).
    pub peak_units: f64,
}

/// A kept cell slot in reference units.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NormSlot {
    /// Copied from the cell slot.
    pub group: u32,
    /// Copied from the cell slot.
    pub stratum: u32,
    /// Slot time in units of the workload's own reference kernel.
    pub own_units: f64,
    /// Copied from the cell slot.
    pub calls: u64,
    /// Copied from the cell slot.
    pub peak_units: f64,
}

/// Sums over the slots of one stratum.
#[derive(Clone, Debug, Default)]
struct Stratum {
    /// Slots and calls attempted, kept or not.
    slots: usize,
    calls: u64,
    /// Σ over the kept slots.
    kept_calls: u64,
    kept_units: f64,
    kept_peak_units: f64,
    /// Per-call time of each kept slot.
    per_call: Vec<f64>,
}

/// Result of normalising a timeline.
#[derive(Clone, Debug, Default)]
pub struct Normalised {
    /// Slots whose neighbouring reference slots agreed.
    pub kept: Vec<NormSlot>,
    /// Slots dropped because their neighbours disagreed or were missing.
    pub dropped: usize,
    /// Mean over the run's reference slots of the own kernel's unit time,
    /// in nanoseconds: turns own units back into time at the run's mean clock.
    pub own_ns: f64,
    /// The same for `ref.fma`. `own_ns / fma_ns` converts own units into
    /// `ref.fma` units. The two are run means, not per-slot readings: a
    /// bandwidth-bound slot does not follow the core clock, and dividing it
    /// by a clock-bound loop slot by slot would put the clock's noise into it.
    pub fma_ns: f64,
    strata: BTreeMap<(u32, u32), Stratum>,
}

impl Normalised {
    /// Share of slots dropped.
    pub fn dropped_share(&self) -> f64 {
        let total = self.kept.len() + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// Whether the run kept enough slots to report a number.
    pub fn resolved(&self) -> bool {
        !self.kept.is_empty() && self.dropped_share() <= MAX_DROPPED_SHARE
    }

    /// `ref.fma` units per unit of the workload's own reference kernel.
    pub fn fma_per_own(&self) -> f64 {
        if self.fma_ns > 0.0 {
            self.own_ns / self.fma_ns
        } else {
            0.0
        }
    }

    /// Share of the `ref.fma` peak, in percent: Σ time the useful flops
    /// would take at peak ÷ Σ normalised time. Sums, not medians, so every
    /// expensive call counts in full. Within a group a dropped slot counts
    /// as the mean of its stratum (the sums of each stratum's kept slots are
    /// scaled to the calls it attempted); the groups, which the scheduler
    /// means to give equal time, are averaged — which is Σ ÷ Σ over
    /// everything when the shares are exactly equal, and does not move when
    /// the rounding of slot sizes makes them a little unequal.
    pub fn pct_peak(&self) -> f64 {
        let to_fma = self.fma_per_own();
        let mut groups: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for (&(group, _), s) in &self.strata {
            if s.kept_calls > 0 {
                let scale = s.calls as f64 / s.kept_calls as f64;
                let sums = groups.entry(group).or_default();
                sums.0 += scale * s.kept_peak_units;
                sums.1 += scale * s.kept_units * to_fma;
            }
        }
        let rates: Vec<f64> = groups
            .values()
            .filter(|(_, units)| *units > 0.0)
            .map(|(peak, units)| peak / units)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        100.0 * rates.iter().sum::<f64>() / rates.len() as f64
    }

    /// Typical time per call in units of the workload's reference kernel:
    /// the median per-call time of each stratum, averaged geometrically
    /// (cells differ in size by an order of magnitude) with the slots each
    /// attempted as weights. A pooled median over such strata would jump
    /// from one cluster of cells to the next.
    pub fn call_ref_p50(&self) -> f64 {
        let (mut logs, mut weight) = (0.0, 0.0);
        for s in self.strata.values() {
            let typical = median(&mut s.per_call.clone());
            if typical > 0.0 {
                logs += s.slots as f64 * typical.ln();
                weight += s.slots as f64;
            }
        }
        if weight > 0.0 {
            (logs / weight).exp()
        } else {
            0.0
        }
    }

    /// Per-call times in reference units, ascending.
    pub fn per_call_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .kept
            .iter()
            .map(|s| s.own_units / s.calls as f64)
            .collect();
        sort(&mut v);
        v
    }
}

fn disagree(a: f64, b: f64) -> bool {
    let lo = a.min(b);
    lo <= 0.0 || (a - b).abs() / lo > NEIGHBOUR_TOLERANCE
}

/// Divides every cell slot by the mean of its two neighbouring reference
/// slots (the workload's own kernel), dropping slots whose neighbours
/// disagree.
pub fn normalise(refs: &[RefSlot], cells: &[CellSlot]) -> Normalised {
    let mean = |f: fn(&RefSlot) -> f64| refs.iter().map(f).sum::<f64>() / refs.len().max(1) as f64;
    let mut out = Normalised {
        own_ns: mean(|r| r.own_ns),
        fma_ns: mean(|r| r.fma_ns),
        ..Normalised::default()
    };
    for slot in cells {
        let stratum = out.strata.entry((slot.group, slot.stratum)).or_default();
        stratum.slots += 1;
        stratum.calls += slot.calls;
        let neighbours = refs.get(slot.ref_before).zip(refs.get(slot.ref_before + 1));
        let Some((before, after)) =
            neighbours.filter(|(b, a)| slot.calls > 0 && !disagree(b.own_ns, a.own_ns))
        else {
            out.dropped += 1;
            continue;
        };
        let local = 0.5 * (before.own_ns + after.own_ns);
        let own_units = (slot.ns - slot.budget_ns) / local + slot.budget_ns / out.own_ns;
        stratum.kept_calls += slot.calls;
        stratum.kept_units += own_units;
        stratum.kept_peak_units += slot.peak_units;
        stratum.per_call.push(own_units / slot.calls as f64);
        out.kept.push(NormSlot {
            group: slot.group,
            stratum: slot.stratum,
            own_units,
            calls: slot.calls,
            peak_units: slot.peak_units,
        });
    }
    out
}

/// Largest reference-unit time over the smallest, minus one, in percent:
/// how far the clock moved over the run.
pub fn ref_drift_pct(refs: &[RefSlot]) -> f64 {
    let mut v: Vec<f64> = refs.iter().map(|r| r.fma_ns).collect();
    if v.is_empty() {
        return 0.0;
    }
    sort(&mut v);
    // 5th..95th percentile, so one pre-empted slot does not set the figure
    let (lo, hi) = (quantile_sorted(&v, 0.05), quantile_sorted(&v, 0.95));
    if lo > 0.0 {
        100.0 * (hi / lo - 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        let mut w = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut w), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(999), 0.90);
        assert_eq!(tail_quantile(50), 0.5);
    }

    #[test]
    fn geomean_ignores_non_positive() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0, f64::NAN]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    fn r(fma: f64, own: f64) -> RefSlot {
        RefSlot {
            fma_ns: fma,
            own_ns: own,
        }
    }

    /// A slot of `flops` double-precision flops at 8 lanes (16 per unit).
    fn c(ref_before: usize, ns: f64, calls: u64, flops: f64) -> CellSlot {
        CellSlot {
            ref_before,
            group: 0,
            stratum: 0,
            ns,
            budget_ns: 0.0,
            calls,
            peak_units: flops / 16.0,
        }
    }

    #[test]
    fn slots_are_divided_by_the_mean_of_their_neighbours() {
        let refs = [r(1.0, 2.0), r(1.0, 2.0), r(2.0, 4.0)];
        // a slow clock doubles both the slot and its reference
        let cells = [c(0, 100.0, 10, 800.0), c(1, 150.0, 10, 800.0)];
        let n = normalise(&refs, &cells);
        // second slot straddles a 2x clock change: dropped
        assert_eq!((n.kept.len(), n.dropped), (1, 1));
        assert_eq!(n.kept[0].own_units, 50.0);
        assert!((n.call_ref_p50() - 5.0).abs() < 1e-12);
        // run means: own 8/3 ns, fma 4/3 ns → 2 fma units per own unit;
        // 50 own units = 100 fma units, in which 800 flops at 16 a unit is half of peak
        assert!((n.fma_per_own() - 2.0).abs() < 1e-12);
        assert!((n.pct_peak() - 50.0).abs() < 1e-9);
        assert!((n.dropped_share() - 0.5).abs() < 1e-12);
        assert!(!n.resolved());
    }

    #[test]
    fn small_disagreement_is_kept_and_averaged() {
        let refs = [r(1.0, 1.0), r(1.0, 1.08)];
        let n = normalise(&refs, &[c(0, 104.0, 1, 0.0)]);
        assert_eq!(n.dropped, 0);
        assert!((n.kept[0].own_units - 100.0).abs() < 1e-9);
        assert!(n.resolved());
    }

    #[test]
    fn only_the_own_kernel_decides_what_is_dropped() {
        // ref.fma jumps, the workload's own kernel does not: kept
        let n = normalise(&[r(1.0, 1.0), r(2.0, 1.0)], &[c(0, 10.0, 1, 0.0)]);
        assert_eq!((n.kept.len(), n.dropped), (1, 0));
    }

    #[test]
    fn budgeted_time_is_converted_at_the_mean_clock() {
        // the run's mean unit is 2 ns; this slot ran where a unit took 1 ns
        let refs = [r(1.0, 1.0), r(1.0, 1.0), r(4.0, 4.0)];
        let slot = CellSlot {
            budget_ns: 60.0,
            ..c(0, 100.0, 1, 0.0)
        };
        let n = normalise(&refs, &[slot]);
        assert!((n.kept[0].own_units - (40.0 / 1.0 + 60.0 / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn a_slot_without_a_closing_reference_is_dropped() {
        let n = normalise(&[r(1.0, 1.0)], &[c(0, 10.0, 1, 0.0)]);
        assert_eq!((n.kept.len(), n.dropped), (0, 1));
    }

    #[test]
    fn groups_are_summed_within_and_averaged_across() {
        let refs = vec![r(1.0, 1.0); 8];
        let slot = |group, i, ns, calls| CellSlot {
            group,
            ..c(i, ns, calls, 160.0)
        };
        // group 0: three slots, one of them nine times as expensive; group 1: one slot
        let cells = [
            slot(0, 0, 10.0, 1),
            slot(0, 1, 10.0, 1),
            slot(0, 2, 90.0, 1),
            slot(1, 3, 40.0, 2),
        ];
        let n = normalise(&refs, &cells);
        // sums: 30 units at peak in 110 units, 10 in 40; mean of the two groups
        assert!((n.pct_peak() - 50.0 * (30.0 / 110.0 + 0.25)).abs() < 1e-9);
        // per call: medians 10 (three slots) and 20 (one slot)
        assert!((n.call_ref_p50() - 10.0 * 2.0f64.powf(0.25)).abs() < 1e-9);
        assert_eq!(n.per_call_sorted(), vec![10.0, 10.0, 20.0, 90.0]);
        assert_eq!(Normalised::default().pct_peak(), 0.0);
        assert_eq!(Normalised::default().call_ref_p50(), 0.0);
    }

    #[test]
    fn a_dropped_slot_counts_as_the_mean_of_its_stratum() {
        // the clock doubles between the last two reference slots
        let refs = [
            r(1.0, 1.0),
            r(1.0, 1.0),
            r(1.0, 1.0),
            r(1.0, 1.0),
            r(2.0, 2.0),
        ];
        let slot = |stratum, i, ns, calls, flops| CellSlot {
            stratum,
            ..c(i, ns, calls, flops)
        };
        let cells = [
            // first calls: no useful flops to speak of, one of the two dropped
            slot(0, 0, 90.0, 1, 0.0),
            slot(0, 3, 500.0, 1, 0.0),
            // warm calls
            slot(1, 1, 10.0, 10, 80.0),
            slot(1, 2, 30.0, 10, 80.0),
        ];
        let n = normalise(&refs, &cells);
        assert_eq!((n.kept.len(), n.dropped), (3, 1));
        // two first calls at 90 units each, twenty warm calls in 40 units;
        // 160 flops are 10 units at peak
        assert!((n.pct_peak() - 100.0 * 10.0 / 220.0).abs() < 1e-9);
        // medians 90 and 2 units a call, two slots attempted each
        assert!((n.call_ref_p50() - 180.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn drift_ignores_a_single_outlier() {
        let mut refs = vec![r(1.0, 1.0); 99];
        refs.push(r(50.0, 1.0));
        assert!(ref_drift_pct(&refs) < 1.0);
        assert_eq!(ref_drift_pct(&[]), 0.0);
    }
}
