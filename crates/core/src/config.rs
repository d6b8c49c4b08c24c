//! Framework configuration.

use crate::machine::{host_profile, MachineProfile};
use iatf_simd::{dispatched_width, VecWidth};

/// Packing policy for the Pack Selecter.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PackPolicy {
    /// No-pack "as much as possible" (§5.2): every operand the kernels can
    /// address where it is stored is streamed in place. GEMM streams a
    /// non-conjugated operand through its native strides while one pack of
    /// it fits a quarter of L2 and falls back to the paper's `m > m_r` /
    /// `n > n_r` rule above that; TRSM/TRMM solve or multiply B in place in
    /// every mode, read A's strips and triangles in place, and pack only
    /// the diagonal groups. Conjugated operands pack, since conjugation
    /// cannot be expressed as a stride.
    #[default]
    Auto,
    /// Always pack everything (ablation: isolates the cost of packing; the
    /// bitwise reference the in-place paths are tested against).
    Always,
}

/// Super-block sizing policy for the Batch Counter.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Paper behaviour: as many packs per super-block as fit the L1 budget.
    #[default]
    Auto,
    /// Fixed number of packs per super-block (ablation).
    Fixed(usize),
}

/// How the run-time stage uses the empirical tuning database
/// (`iatf-tune`): whether measured winners override the static heuristics
/// and whether unseen inputs trigger a micro-benchmark sweep.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TunePolicy {
    /// Static heuristics only (paper behaviour). The tuning db is never
    /// consulted; this is the default and the fallback when the db is
    /// absent or corrupt.
    #[default]
    Heuristic,
    /// Consult the db: a recorded winner overrides the Pack Selecter /
    /// Batch Counter outputs and drives serial/parallel auto dispatch.
    /// Unseen inputs fall back to the heuristics — nothing is measured.
    Cached,
    /// Like [`TunePolicy::Cached`], but the first call with an unseen
    /// input fingerprint runs a calibrated micro-benchmark sweep within
    /// roughly this many milliseconds of wall clock, records the winner,
    /// and then dispatches with it.
    FirstTouch(u64),
}

/// Tuning configuration consumed by the run-time stage.
#[derive(Clone, Debug)]
pub struct TuningConfig {
    /// L1 data cache capacity the Batch Counter budgets against.
    pub l1d_bytes: usize,
    /// Vector width plans are built for. Defaults to the process-wide
    /// dispatched width (widest the host supports, unless
    /// `IATF_FORCE_WIDTH` narrowed it), which matches the width
    /// [`iatf_layout::CompactBatch::zeroed`] lays batches out at. The
    /// interleaving factor `P`, kernel tables, and autotune candidate
    /// lists all derive from this — and it is folded into
    /// [`TuningConfig::fingerprint`], so plans and tuning records from one
    /// width are never served at another.
    pub width: VecWidth,
    /// Fraction of L1 the packed working set may occupy (the remainder is
    /// headroom for C traffic and stacks; the paper "reserves space for
    /// matrix C").
    pub l1_budget_fraction: f64,
    /// Packing policy.
    pub pack: PackPolicy,
    /// Super-block sizing policy.
    pub batch: BatchPolicy,
    /// Empirical-autotuner policy (see [`TunePolicy`]).
    pub tune: TunePolicy,
}

impl TuningConfig {
    /// Configuration for an explicit machine profile.
    pub fn for_machine(m: &MachineProfile) -> Self {
        Self {
            l1d_bytes: m.l1d_bytes,
            width: dispatched_width(),
            l1_budget_fraction: 0.5,
            pack: PackPolicy::Auto,
            batch: BatchPolicy::Auto,
            tune: TunePolicy::Heuristic,
        }
    }

    /// Host-detected configuration.
    pub fn host() -> Self {
        Self::for_machine(&host_profile())
    }

    /// Bytes of packed operands the Batch Counter may keep live at once.
    pub fn l1_budget_bytes(&self) -> usize {
        ((self.l1d_bytes as f64) * self.l1_budget_fraction) as usize
    }

    /// Hash of every field that influences plan construction — part of the
    /// plan-cache key, so configs that would plan differently never share a
    /// cached plan.
    ///
    /// Computed on every one-shot call, so it uses the cheap process-local
    /// mixer ([`fx_mix`]) rather than `SipHash` — the value never leaves
    /// the process, only distinctness of configs matters.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fx_mix(h, self.l1d_bytes as u64);
        // Width changes the interleaving factor and therefore every pack
        // geometry decision a plan bakes in: configs differing only in
        // width must never share a cached plan.
        h = fx_mix(h, self.width.code() as u64);
        h = fx_mix(h, self.l1_budget_fraction.to_bits());
        let (batch_tag, batch_g) = match self.batch {
            BatchPolicy::Auto => (0u64, 0u64),
            BatchPolicy::Fixed(g) => (1u64, g as u64),
        };
        h = fx_mix(h, ((self.pack as u64) << 8) | batch_tag);
        h = fx_mix(h, batch_g);
        // The tuning db only influences plan construction when the policy
        // consults it — and then the *db generation* is part of the
        // fingerprint, so recording a new winner changes every subsequent
        // cache key and stale cached plans age out by eviction.
        let (tune_tag, tune_budget) = match self.tune {
            TunePolicy::Heuristic => (0u64, 0u64),
            TunePolicy::Cached => (1u64, 0u64),
            TunePolicy::FirstTouch(ms) => (2u64, ms),
        };
        h = fx_mix(h, tune_tag);
        if tune_tag != 0 {
            h = fx_mix(h, tune_budget);
            h = fx_mix(h, iatf_tune::TuningDb::global().generation());
        }
        h
    }
}

/// One round of the fx-style multiply-rotate mixer shared by
/// [`TuningConfig::fingerprint`] and the plan-cache key hash. Far cheaper
/// than `SipHash` (no per-hash init/finalization), which matters because it
/// sits on the one-shot dispatch path.
#[inline]
pub(crate) fn fx_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self::host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::KUNPENG_920;

    #[test]
    fn kunpeng_budget() {
        let cfg = TuningConfig::for_machine(&KUNPENG_920);
        assert_eq!(cfg.l1d_bytes, 65536);
        assert_eq!(cfg.l1_budget_bytes(), 32768);
    }

    #[test]
    fn default_is_host() {
        let cfg = TuningConfig::default();
        assert!(cfg.l1_budget_bytes() > 0);
        assert_eq!(cfg.pack, PackPolicy::Auto);
        assert_eq!(cfg.batch, BatchPolicy::Auto);
        assert_eq!(cfg.tune, TunePolicy::Heuristic);
    }

    #[test]
    fn fingerprint_separates_widths() {
        let base = TuningConfig::for_machine(&KUNPENG_920);
        let mut prints = std::collections::HashSet::new();
        for width in VecWidth::ALL {
            let cfg = TuningConfig {
                width,
                ..base.clone()
            };
            assert!(prints.insert(cfg.fingerprint()), "{width:?} collided");
        }
    }

    #[test]
    fn default_width_is_dispatched() {
        assert_eq!(TuningConfig::host().width, dispatched_width());
    }

    #[test]
    fn fingerprint_separates_tune_policies() {
        let base = TuningConfig::for_machine(&KUNPENG_920);
        let cached = TuningConfig {
            tune: TunePolicy::Cached,
            ..base.clone()
        };
        let ft = TuningConfig {
            tune: TunePolicy::FirstTouch(50),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), cached.fingerprint());
        assert_ne!(base.fingerprint(), ft.fingerprint());
        assert_ne!(cached.fingerprint(), ft.fingerprint());
        // Heuristic fingerprints are independent of the tuning db, so
        // repeated calls are stable even while the db mutates.
        assert_eq!(base.fingerprint(), base.fingerprint());
    }
}
