//! The racing micro-benchmark sweep.
//!
//! The caller hands over one closure per candidate configuration (the
//! first is, by convention, the heuristic baseline) and a wall-clock
//! budget, which is a ceiling, not a target. One warm-up invocation of
//! every candidate sizes the timed slots; the candidates are then timed in
//! *interleaved rounds* — candidate order repeats each round, so slow
//! drift (frequency scaling, background load) hits all candidates roughly
//! equally instead of biasing whoever ran last. Per candidate the best
//! round counts (min-of-rounds discards one-sided noise: an interrupt can
//! only make a run slower), and the spread across rounds yields a relative
//! noise estimate.
//!
//! The sweep is a *race*: from the second round on, every candidate
//! slower than the leader beyond `max(noise, FLOOR)` is dropped and never
//! timed again, and the sweep stops as soon as one candidate is left,
//! after [`ROUNDS`], or when the next round would overrun the budget. A
//! candidate replaces candidate 0 only when it is faster by more than
//! that same margin; a tie records the heuristic.

use std::time::{Duration, Instant};

/// Most interleaved timing rounds one sweep runs.
pub const ROUNDS: usize = 3;

/// The least relative margin the race acts on: a candidate is dropped, or
/// replaces candidate 0, only beyond `max(noise, FLOOR)`. Below it a
/// "win" is as likely to be the clock as the plan.
const FLOOR: f64 = 0.05;

/// What one timed slot aims to hold per candidate: long against the
/// clock's resolution, short against any budget.
const SLOT_SECS: f64 = 100e-6;

/// Outcome of one sweep over a candidate set.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Index of the recorded candidate: the fastest when it beats
    /// candidate 0 beyond `max(noise, FLOOR)`, else 0.
    pub winner: usize,
    /// Best (minimum over the rounds it ran) seconds per invocation, per
    /// candidate; the warm-up time when no timed round fitted the budget.
    pub secs: Vec<f64>,
    /// Relative measurement noise: mean over candidates timed at least
    /// twice of `(worst − best) / worst` across rounds. 0 when fewer than
    /// two rounds ran.
    pub noise: f64,
    /// Invocations per timing slot (provenance: rep counts the
    /// measurement actually ran, published with sweep winners).
    pub iters: usize,
    /// Interleaved timed rounds run (at most [`ROUNDS`]; 0 when the
    /// warm-up already spent the budget).
    pub rounds: usize,
}

/// Races the candidate closures within at most `budget` of wall clock and
/// reports per-candidate best times and the recorded winner.
///
/// # Panics
/// Panics if `runners` is empty.
pub fn sweep(budget: Duration, runners: &mut [Box<dyn FnMut() + '_>]) -> SweepReport {
    assert!(!runners.is_empty(), "sweep needs at least one candidate");
    // Warm-up pass doubles as calibration: how long does one invocation of
    // every candidate take, cold paths exercised on the way?
    let warm: Vec<f64> = runners
        .iter_mut()
        .map(|r| {
            let t0 = Instant::now();
            r();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    race(budget.as_secs_f64(), &warm, |i, iters| {
        let r = &mut runners[i];
        let t0 = Instant::now();
        for _ in 0..iters {
            r();
        }
        t0.elapsed().as_secs_f64()
    })
}

/// The race proper, a pure function of the warm-up times (`warm`, seconds
/// per candidate) and of what each timed slot reports: `slot(i, iters)`
/// runs candidate `i` `iters` times and returns the seconds that took. The
/// budget is charged with the warm-up and every slot, and a round starts
/// only if a repeat of the previous one (the warm-up, for the first) still
/// fits.
fn race(budget: f64, warm: &[f64], mut slot: impl FnMut(usize, usize) -> f64) -> SweepReport {
    let n = warm.len();
    let warm_round: f64 = warm.iter().sum();
    let iters = slot_iters(budget, warm_round, n);
    let mut spent = warm_round;
    let mut next = warm_round * iters as f64;
    let mut best = vec![f64::MAX; n];
    let mut worst = vec![0.0f64; n];
    let mut last = vec![0.0f64; n];
    let mut timed = vec![0usize; n];
    let mut alive: Vec<usize> = (0..n).collect();
    let mut rounds = 0;
    while rounds < ROUNDS && (rounds == 0 || alive.len() > 1) && spent + next <= budget {
        for &i in &alive {
            last[i] = slot(i, iters);
            let per = last[i] / iters as f64;
            best[i] = best[i].min(per);
            worst[i] = worst[i].max(per);
            timed[i] += 1;
            spent += last[i];
        }
        rounds += 1;
        if rounds >= 2 {
            let margin = noise(&best, &worst, &timed).max(FLOOR);
            let lead = leader(&best);
            alive.retain(|&i| !beats(best[lead], best[i], margin));
        }
        next = alive.iter().map(|&i| last[i]).sum();
    }
    if rounds == 0 {
        best = warm.to_vec();
    }
    let noise = noise(&best, &worst, &timed);
    let lead = leader(&best);
    let winner = if beats(best[lead], best[0], noise.max(FLOOR)) {
        lead
    } else {
        0
    };
    SweepReport {
        winner,
        secs: best,
        noise,
        iters,
        rounds,
    }
}

/// Whether a best time of `a` beats one of `b` by more than `margin`.
fn beats(a: f64, b: f64, margin: f64) -> bool {
    a < b * (1.0 - margin)
}

/// Index of the smallest best time.
fn leader(best: &[f64]) -> usize {
    best.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Mean relative round-to-round spread over the candidates timed twice or
/// more; 0 when none was.
fn noise(best: &[f64], worst: &[f64], timed: &[usize]) -> f64 {
    let spreads: Vec<f64> = (0..best.len())
        .filter(|&i| timed[i] >= 2 && worst[i] > 0.0)
        .map(|i| (worst[i] - best[i]) / worst[i])
        .collect();
    if spreads.is_empty() {
        0.0
    } else {
        spreads.iter().sum::<f64>() / spreads.len() as f64
    }
}

/// Invocations per timed slot, given what one invocation of every
/// candidate cost (`round`, the warm-up): enough for [`SLOT_SECS`] per
/// candidate at the warm-up's mean cost, but never more than fit `ROUNDS`
/// rounds of `iters × round` in what the warm-up left of the budget.
/// Never fewer than one.
fn slot_iters(budget: f64, round: f64, candidates: usize) -> usize {
    let round = round.max(1e-9);
    let resolution = (SLOT_SECS * candidates as f64 / round).ceil();
    let fits = ((budget - round).max(0.0) / (ROUNDS as f64 * round)).floor();
    resolution.min(fits).clamp(1.0, 1e6) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives [`race`] with injected per-call costs, a deterministic
    /// ±`jitter` per slot, and no clock. Returns the report, the
    /// `(candidate, round)` of every slot timed, and the seconds spent.
    fn run(budget: f64, costs: &[f64], jitter: f64) -> (SweepReport, Vec<(usize, usize)>, f64) {
        let mut slots: Vec<(usize, usize)> = Vec::new();
        let mut spent: f64 = costs.iter().sum();
        let mut seen = vec![0usize; costs.len()];
        let report = race(budget, costs, |i, iters| {
            slots.push((i, seen[i]));
            // alternating sign per slot and candidate, never below the cost
            let wobble = if (seen[i] + i).is_multiple_of(2) {
                jitter
            } else {
                0.0
            };
            seen[i] += 1;
            let t = iters as f64 * costs[i] * (1.0 + wobble);
            spent += t;
            t
        });
        (report, slots, spent)
    }

    #[test]
    fn a_much_slower_candidate_is_dropped_after_round_two() {
        let (report, slots, _) = run(10e-3, &[10e-6, 30e-6, 10.2e-6], 0.01);
        // timed in rounds 0 and 1, never again
        let rounds_of = |c| {
            slots
                .iter()
                .filter(|s| s.0 == c)
                .map(|s| s.1)
                .collect::<Vec<_>>()
        };
        assert_eq!(rounds_of(1), vec![0, 1]);
        assert_eq!(rounds_of(0), vec![0, 1, 2]);
        assert_eq!(report.rounds, ROUNDS);
        // the two close candidates tie, so the heuristic is recorded
        assert_eq!(report.winner, 0);
    }

    #[test]
    fn a_tie_within_the_floor_records_candidate_0() {
        let (report, _, _) = run(10e-3, &[10e-6, 9.8e-6, 9.7e-6], 0.0);
        assert_eq!(report.noise, 0.0);
        assert_eq!(leader(&report.secs), 2);
        assert_eq!(report.winner, 0, "a 3 % edge is below the floor");
    }

    #[test]
    fn a_clearly_faster_candidate_wins_and_the_race_ends_early() {
        let (report, slots, _) = run(10e-3, &[20e-6, 10e-6, 21e-6], 0.01);
        assert_eq!(report.winner, 1);
        // everyone else dropped after round two: the race stops there
        assert_eq!(report.rounds, 2);
        assert_eq!(slots.len(), 6);
    }

    #[test]
    fn noisy_rounds_widen_the_margin() {
        // 8 % apart but 12 % round-to-round noise: no drop, no replacement
        let (report, slots, _) = run(10e-3, &[10.8e-6, 10e-6], 0.12);
        assert!(report.noise > 0.08, "{}", report.noise);
        assert_eq!(report.winner, 0);
        assert_eq!(slots.len(), 2 * ROUNDS);
    }

    #[test]
    fn injected_slots_fit_the_budget() {
        for (budget, costs) in [
            (10e-3, vec![1e-6, 1e-6, 1e-6, 1e-6, 1e-6]),
            (10e-3, vec![0.2e-3, 0.6e-3, 0.3e-3]),
            (10e-3, vec![1.5e-3, 1.5e-3, 1.6e-3]),
            (5e-3, vec![2e-3, 2e-3]),
            (60e-3, vec![4e-3, 12e-3, 5e-3, 4.1e-3]),
        ] {
            let warm: f64 = costs.iter().sum();
            // slots that cost what the warm-up predicted fit exactly;
            // slots up to 5 % slower than predicted overrun by less
            for (jitter, slack) in [(0.0, 1e-9), (0.05, 0.05)] {
                let (report, _, spent) = run(budget, &costs, jitter);
                assert!(
                    spent <= budget.max(warm) * (1.0 + slack),
                    "{spent} s of {budget} s for {costs:?}"
                );
                assert!(report.secs.iter().all(|s| s.is_finite() && *s > 0.0));
            }
        }
        // cheap candidates stop at the slot resolution, far inside the budget
        let (report, _, spent) = run(10e-3, &[1e-6; 5], 0.0);
        assert!((100..=101).contains(&report.iters), "{}", report.iters);
        assert!(spent < 2e-3, "{spent}");
        // a tight budget caps the slot below the resolution and is used:
        // (1 ms − 5 µs) / (3 × 5 µs) = 66 calls a slot
        let (report, _, spent) = run(1e-3, &[1e-6; 5], 0.0);
        assert_eq!((report.iters, report.rounds), (66, ROUNDS));
        assert!(spent <= 1e-3 && spent + 5.0 * 1e-6 * 3.0 > 1e-3, "{spent}");
        // a 1 ms baseline and a candidate 3× slower under 42 ms: sized from
        // the baseline alone (42 / (3 × 1) = 14) they would spend 172 ms
        let (report, _, spent) = run(42e-3, &[1e-3, 3e-3], 0.0);
        assert_eq!(report.iters, 1);
        assert!(spent <= 42e-3, "{spent}");
        // a warm-up that ate the budget times nothing: it is the ranking
        let (report, slots, _) = run(1e-3, &[0.6e-3, 0.6e-3], 0.0);
        assert!(slots.is_empty());
        assert_eq!((report.rounds, report.winner), (0, 0));
        assert_eq!(report.secs, vec![0.6e-3, 0.6e-3]);
    }

    fn spin(units: usize) {
        let mut acc = 0u64;
        for i in 0..units * 2_000 {
            acc = acc.wrapping_add(std::hint::black_box(i as u64).wrapping_mul(0x9e37_79b9));
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn sweep_survives_a_tiny_budget() {
        let mut runners: Vec<Box<dyn FnMut()>> = vec![Box::new(|| spin(2)), Box::new(|| spin(2))];
        let report = sweep(Duration::from_micros(1), &mut runners);
        assert!(report.winner < 2);
        assert!(report.secs.iter().all(|&s| s > 0.0));
    }
}
