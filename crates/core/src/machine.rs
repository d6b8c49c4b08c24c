//! Machine profiles (paper Table 2) and host detection.
//!
//! The run-time stage's Batch Counter needs the L1D capacity; the benchmark
//! harness needs peak-FLOPS figures to reproduce the percent-of-peak plots
//! (Figures 11–12). The two evaluation machines of the paper are encoded
//! verbatim; the host profile is detected from sysfs with conservative
//! fallbacks.

/// Static description of a CPU for tuning and reporting purposes.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Microarchitecture label.
    pub arch: &'static str,
    /// L1 data cache per core, bytes.
    pub l1d_bytes: usize,
    /// L2 cache per core, bytes.
    pub l2_bytes: usize,
    /// SIMD width in bits.
    pub simd_bits: usize,
    /// Nominal frequency in GHz.
    pub freq_ghz: f64,
    /// Single-core FP64 peak, GFLOPS (0 = unknown; measure instead).
    pub peak_fp64_gflops: f64,
    /// Single-core FP32 peak, GFLOPS (0 = unknown; measure instead).
    pub peak_fp32_gflops: f64,
}

/// Kunpeng 920 (ARMv8.2), the paper's primary evaluation machine.
pub const KUNPENG_920: MachineProfile = MachineProfile {
    name: "Kunpeng 920",
    arch: "ARMv8.2",
    l1d_bytes: 64 * 1024,
    l2_bytes: 512 * 1024,
    simd_bits: 128,
    freq_ghz: 2.6,
    peak_fp64_gflops: 10.4,
    peak_fp32_gflops: 41.6,
};

/// Intel Xeon Gold 6240 (Cascade Lake), the paper's MKL-compact reference.
pub const XEON_6240: MachineProfile = MachineProfile {
    name: "Intel Xeon Gold 6240",
    arch: "Cascade Lake",
    l1d_bytes: 32 * 1024,
    l2_bytes: 1024 * 1024,
    simd_bits: 512,
    freq_ghz: 2.6,
    peak_fp64_gflops: 83.2,
    peak_fp32_gflops: 166.4,
};

/// Parses a sysfs cache `size` string into bytes. The kernel usually
/// writes a `K` suffix (`"64K"`), but large last-level caches report `M`
/// (`"1M"`) and some hypervisor-synthesized topologies emit a bare byte
/// count (`"32768"`); all three occur in the wild.
fn parse_cache_size_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024usize),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(scale)
}

fn read_sysfs_cache_bytes(index: usize) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    parse_cache_size_bytes(&std::fs::read_to_string(path).ok()?)
}

fn read_sysfs_cache_level(index: usize) -> Option<(usize, String)> {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level"))
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()?;
    let ty = std::fs::read_to_string(format!("{base}/type")).ok()?;
    Some((level, ty.trim().to_string()))
}

/// Detects the host's cache hierarchy, falling back to 32 KiB L1D / 512 KiB
/// L2 when sysfs is unavailable.
pub fn host_profile() -> MachineProfile {
    let mut l1d = 32 * 1024;
    let mut l2 = 512 * 1024;
    for index in 0..6 {
        if let Some((level, ty)) = read_sysfs_cache_level(index) {
            if let Some(bytes) = read_sysfs_cache_bytes(index) {
                if level == 1 && ty == "Data" {
                    l1d = bytes;
                } else if level == 2 {
                    l2 = bytes;
                }
            }
        }
    }
    MachineProfile {
        name: "host",
        arch: if cfg!(target_arch = "aarch64") {
            "aarch64"
        } else if cfg!(target_arch = "x86_64") {
            "x86_64"
        } else {
            "unknown"
        },
        l1d_bytes: l1d,
        l2_bytes: l2,
        simd_bits: 128,
        freq_ghz: 0.0,
        peak_fp64_gflops: 0.0,
        peak_fp32_gflops: 0.0,
    }
}

/// Largest per-pack operand footprint the GEMM Pack Selecter still
/// streams in place: a quarter of the host's L2, read once per process.
/// Up to here a packed copy buys a linear address stream and nothing
/// else, and costs a pass over the operand. The constant is measured
/// (EXPERIMENTS.md "Direct vs packed"): between a quarter and half of L2
/// streaming already loses on balance (−6 % geomean, −25 % at worst), and
/// beyond half it loses 14–53 % on a transposed complex operand at every
/// width — there the paper's rule takes over.
pub(crate) fn direct_limit_bytes() -> usize {
    static LIMIT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| host_profile().l2_bytes / 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        // Paper Table 2, row for row.
        assert_eq!(KUNPENG_920.l1d_bytes, 65536);
        assert_eq!(KUNPENG_920.l2_bytes, 524288);
        assert_eq!(KUNPENG_920.simd_bits, 128);
        assert_eq!(KUNPENG_920.freq_ghz, 2.6);
        assert_eq!(KUNPENG_920.peak_fp64_gflops, 10.4);
        assert_eq!(KUNPENG_920.peak_fp32_gflops, 41.6);
        assert_eq!(XEON_6240.l1d_bytes, 32768);
        assert_eq!(XEON_6240.l2_bytes, 1048576);
        assert_eq!(XEON_6240.simd_bits, 512);
        assert_eq!(XEON_6240.peak_fp32_gflops, 166.4);
    }

    #[test]
    fn peak_ratio_is_consistent() {
        // FP32 peak is 4× FP64 on Kunpeng 920 (128-bit unit) and 2× on the
        // Xeon (512-bit with different port counts in the paper's counting).
        assert!((KUNPENG_920.peak_fp32_gflops / KUNPENG_920.peak_fp64_gflops - 4.0).abs() < 1e-9);
        assert!((XEON_6240.peak_fp32_gflops / XEON_6240.peak_fp64_gflops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cache_size_parsing_handles_all_sysfs_forms() {
        // Kibibyte suffix (the common case).
        assert_eq!(parse_cache_size_bytes("64K"), Some(64 * 1024));
        assert_eq!(parse_cache_size_bytes(" 512K\n"), Some(512 * 1024));
        // Mebibyte suffix (large L2/L3).
        assert_eq!(parse_cache_size_bytes("1M"), Some(1024 * 1024));
        assert_eq!(parse_cache_size_bytes("24M"), Some(24 * 1024 * 1024));
        // Bare byte count (some virtualized topologies).
        assert_eq!(parse_cache_size_bytes("32768"), Some(32768));
        // Gibibyte suffix and lowercase variants.
        assert_eq!(parse_cache_size_bytes("1G"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_cache_size_bytes("48k"), Some(48 * 1024));
        // Rejects junk rather than misparsing it.
        assert_eq!(parse_cache_size_bytes(""), None);
        assert_eq!(parse_cache_size_bytes("K"), None);
        assert_eq!(parse_cache_size_bytes("fastK"), None);
        assert_eq!(parse_cache_size_bytes("12KB"), None);
    }

    #[test]
    fn host_profile_is_sane() {
        let h = host_profile();
        assert!(h.l1d_bytes >= 8 * 1024);
        assert!(h.l2_bytes >= h.l1d_bytes);
        assert_eq!(h.simd_bits, 128);
    }
}
