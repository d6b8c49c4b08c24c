//! The calibrated micro-benchmark sweep.
//!
//! The caller hands over one closure per candidate configuration (the
//! first is, by convention, the heuristic baseline) and a wall-clock
//! budget. The harness calibrates an iteration count off one warm-up round
//! over *all* candidates (and charges that round to the budget), then
//! times every candidate in *interleaved rounds* — candidate order
//! repeats each round, so slow drift (frequency scaling, background
//! load) hits all candidates roughly equally instead of biasing whoever
//! ran last. Per candidate the best round wins (min-of-rounds discards
//! one-sided noise: an interrupt can only make a run slower), and the
//! spread across rounds yields a relative noise estimate the caller can
//! use for "within noise" comparisons.

use std::time::{Duration, Instant};

/// Number of interleaved timing rounds per sweep.
pub const ROUNDS: usize = 3;

/// Outcome of one sweep over a candidate set.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Index of the fastest candidate (min of per-candidate best times).
    pub winner: usize,
    /// Best (minimum over rounds) seconds per invocation, per candidate.
    pub secs: Vec<f64>,
    /// Relative measurement noise: mean over candidates of
    /// `(worst − best) / worst` across rounds. 0 when only one round ran.
    pub noise: f64,
    /// Calibrated invocations per timing slot (provenance: rep counts the
    /// measurement actually ran, published with sweep winners).
    pub iters: usize,
    /// Interleaved rounds run ([`ROUNDS`]; carried so consumers need not
    /// reach back for the constant).
    pub rounds: usize,
}

impl SweepReport {
    /// Whether candidate `i` was strictly faster than candidate `j`
    /// beyond the observed noise floor.
    pub fn strictly_faster(&self, i: usize, j: usize) -> bool {
        self.secs[i] < self.secs[j] * (1.0 - self.noise)
    }
}

/// Runs every candidate closure in interleaved rounds within roughly
/// `budget` of wall clock and reports per-candidate best times.
///
/// One warm-up invocation of every candidate doubles as calibration: the
/// round's total is what one timed round costs per iteration, so the
/// per-slot iteration count is sized for `ROUNDS` such rounds to fit what
/// the warm-up left of the budget. (Sizing from candidate 0 alone overruns
/// as soon as the baseline is the fastest plan — the slower candidates
/// then run the same count at several times the cost.) Every candidate
/// gets at least one invocation per round regardless of budget, so even a
/// tiny budget yields a ranking — just a noisier one.
///
/// # Panics
/// Panics if `runners` is empty.
pub fn sweep(budget: Duration, runners: &mut [Box<dyn FnMut() + '_>]) -> SweepReport {
    assert!(!runners.is_empty(), "sweep needs at least one candidate");
    let n = runners.len();

    // Warm-up pass doubles as calibration: how long does one invocation of
    // every candidate take, cold paths exercised on the way?
    let t0 = Instant::now();
    for r in runners.iter_mut() {
        r();
    }
    let iters = calibrated_iters(budget.as_secs_f64(), t0.elapsed().as_secs_f64());

    let mut best = vec![f64::MAX; n];
    let mut worst = vec![0.0f64; n];
    for _ in 0..ROUNDS {
        for (i, r) in runners.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                r();
            }
            let per = t0.elapsed().as_secs_f64() / iters as f64;
            best[i] = best[i].min(per);
            worst[i] = worst[i].max(per);
        }
    }

    let noise = best
        .iter()
        .zip(&worst)
        .map(|(&b, &w)| if w > 0.0 { (w - b) / w } else { 0.0 })
        .sum::<f64>()
        / n as f64;
    let winner = best
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    SweepReport {
        winner,
        secs: best,
        noise,
        iters,
        rounds: ROUNDS,
    }
}

/// Invocations per timing slot, given what one invocation of every
/// candidate cost (`round`, the warm-up): `ROUNDS` timed rounds of
/// `iters × round` each must fit what the warm-up left of the budget.
/// Never fewer than one.
fn calibrated_iters(budget: f64, round: f64) -> usize {
    let left = (budget - round).max(0.0);
    (left / (ROUNDS as f64 * round.max(1e-9)))
        .floor()
        .clamp(1.0, 1e6) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(units: usize) {
        let mut acc = 0u64;
        for i in 0..units * 2_000 {
            acc = acc.wrapping_add(black_box(i as u64).wrapping_mul(0x9e37_79b9));
        }
        black_box(acc);
    }

    #[test]
    fn sweep_ranks_a_clearly_faster_candidate_first() {
        let mut runners: Vec<Box<dyn FnMut()>> = vec![
            Box::new(|| spin(40)), // "heuristic" baseline: 40x the work
            Box::new(|| spin(40)),
            Box::new(|| spin(1)), // the obvious winner
        ];
        let report = sweep(Duration::from_millis(30), &mut runners);
        assert_eq!(report.winner, 2);
        assert_eq!(report.secs.len(), 3);
        assert!(report.secs.iter().all(|&s| s.is_finite() && s > 0.0));
        assert!(report.noise >= 0.0 && report.noise < 1.0);
        assert!(report.strictly_faster(2, 0));
    }

    #[test]
    fn slower_candidates_stay_inside_the_budget() {
        // Injected costs, so nothing here depends on the host's clock: a
        // 1 ms baseline and a candidate 3× slower under a 42 ms budget.
        // Iterations sized from the baseline alone (42 / (3 × 1) = 14)
        // would spend 4 + 14 × 3 × 4 = 172 ms.
        let (baseline, slower, budget) = (1e-3, 3e-3, 42e-3);
        let round = baseline + slower;
        let iters = calibrated_iters(budget, round);
        assert!(iters > 1, "the budget leaves room to iterate");
        let spent = |iters: usize| round + (iters * ROUNDS) as f64 * round;
        assert!(spent(iters) <= budget, "{} s of {budget} s", spent(iters));
        assert!(spent(iters + 1) > budget, "the budget is used, not just respected");
        // A warm-up that already ate the budget still times one invocation.
        assert_eq!(calibrated_iters(budget, 2.0 * budget), 1);
    }

    #[test]
    fn sweep_survives_a_tiny_budget() {
        let mut runners: Vec<Box<dyn FnMut()>> =
            vec![Box::new(|| spin(2)), Box::new(|| spin(2))];
        let report = sweep(Duration::from_micros(1), &mut runners);
        assert!(report.winner < 2);
        assert!(report.secs.iter().all(|&s| s > 0.0));
    }
}
