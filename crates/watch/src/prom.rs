//! Prometheus text-format exposition (version 0.0.4).
//!
//! Renders a [`WatchSnapshot`] plus the obs [`MetricsSnapshot`] into one
//! scrape document. Per-class series carry an `op` label and a `class`
//! label holding the stable `TuneKey` encoding; latency histograms use
//! the standard cumulative `_bucket{le=…}` form derived from the log2
//! histograms, so `histogram_quantile()` works out of the box.
//!
//! Always compiled — rendering a disabled build's empty snapshot yields
//! a document that just says so.

use std::fmt::Write;

use iatf_obs::MetricsSnapshot;
use iatf_tune::{TuneKey, TuneOp};

use crate::snapshot::{bucket_hi, WatchSnapshot};

fn op_name(op: TuneOp) -> &'static str {
    match op {
        TuneOp::Gemm => "gemm",
        TuneOp::Trsm => "trsm",
        TuneOp::Trmm => "trmm",
    }
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn class_labels(out: &mut String, key: &TuneKey) {
    out.push_str("{op=\"");
    out.push_str(op_name(key.op));
    out.push_str("\",class=\"");
    escape_label(out, &key.encode());
    out.push_str("\"}");
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn series(out: &mut String, name: &str, key: Option<&TuneKey>, value: f64) {
    out.push_str(name);
    if let Some(key) = key {
        class_labels(out, key);
    }
    if value.fract() == 0.0 && value.abs() < 9e15 {
        let _ = writeln!(out, " {}", value as i64);
    } else {
        let _ = writeln!(out, " {value}");
    }
}

/// Renders the unified scrape document.
pub fn render_prometheus(watch: &WatchSnapshot, metrics: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);

    header(&mut out, "iatf_watch_enabled", "gauge", "1 when the watch feature is compiled in.");
    series(&mut out, "iatf_watch_enabled", None, watch.enabled as u64 as f64);

    header(&mut out, "iatf_dispatch_total", "counter", "Warm dispatches observed per shape class.");
    for c in &watch.classes {
        series(&mut out, "iatf_dispatch_total", Some(&c.key), c.count as f64);
    }

    header(&mut out, "iatf_dispatch_ns", "histogram", "Warm dispatch latency per shape class, nanoseconds.");
    for c in &watch.classes {
        let mut cumulative = 0u64;
        for (b, &n) in c.hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            out.push_str("iatf_dispatch_ns_bucket{op=\"");
            out.push_str(op_name(c.key.op));
            out.push_str("\",class=\"");
            escape_label(&mut out, &c.key.encode());
            let _ = writeln!(out, "\",le=\"{}\"}} {cumulative}", bucket_hi(b));
        }
        out.push_str("iatf_dispatch_ns_bucket{op=\"");
        out.push_str(op_name(c.key.op));
        out.push_str("\",class=\"");
        escape_label(&mut out, &c.key.encode());
        let _ = writeln!(out, "\",le=\"+Inf\"}} {}", c.count);
        series(&mut out, "iatf_dispatch_ns_sum", Some(&c.key), c.total_ns as f64);
        series(&mut out, "iatf_dispatch_ns_count", Some(&c.key), c.count as f64);
    }

    header(&mut out, "iatf_dispatch_p99_ns", "gauge", "p99 warm dispatch latency per shape class (log2-bucket upper bound).");
    for c in &watch.classes {
        series(&mut out, "iatf_dispatch_p99_ns", Some(&c.key), c.quantile_ns(0.99) as f64);
    }

    header(&mut out, "iatf_dispatch_gflops", "gauge", "Achieved throughput per shape class over the window.");
    for c in &watch.classes {
        series(&mut out, "iatf_dispatch_gflops", Some(&c.key), c.gflops());
    }

    header(&mut out, "iatf_envelope_expected_ns", "gauge", "Performance-envelope expected latency per shape class (0 while calibrating).");
    for c in &watch.classes {
        series(&mut out, "iatf_envelope_expected_ns", Some(&c.key), c.expected_ns);
    }

    header(&mut out, "iatf_drift_ewma_ratio", "gauge", "Smoothed observed/expected latency ratio per shape class.");
    for c in &watch.classes {
        series(&mut out, "iatf_drift_ewma_ratio", Some(&c.key), c.ewma_ratio);
    }

    header(&mut out, "iatf_drift_cusum", "gauge", "Drift-chart CUSUM level per shape class.");
    for c in &watch.classes {
        series(&mut out, "iatf_drift_cusum", Some(&c.key), c.cusum);
    }

    header(&mut out, "iatf_drift_active", "gauge", "1 while a shape class is tripped and awaiting remediation.");
    for c in &watch.classes {
        series(&mut out, "iatf_drift_active", Some(&c.key), c.drifting as u64 as f64);
    }

    header(&mut out, "iatf_drift_events_total", "counter", "Drift events raised since start.");
    series(&mut out, "iatf_drift_events_total", None, watch.events_total as f64);

    header(&mut out, "iatf_retunes_pending", "gauge", "Shape classes flagged for retune.");
    series(&mut out, "iatf_retunes_pending", None, watch.retunes_pending as f64);

    header(&mut out, "iatf_retunes_done_total", "counter", "Drift-triggered retunes completed.");
    series(&mut out, "iatf_retunes_done_total", None, watch.retunes_done as f64);

    // A slice of the obs counters most useful on a dashboard next to the
    // watch series; the full obs snapshot stays available as JSON.
    header(&mut out, "iatf_plan_cache_events_total", "counter", "Plan-cache lookups by outcome.");
    for (i, kind) in ["hit", "miss", "eviction"].iter().enumerate() {
        let _ = writeln!(out, "iatf_plan_cache_events_total{{kind=\"{kind}\"}} {}", metrics.plan_cache[i]);
    }
    header(&mut out, "iatf_tune_events_total", "counter", "Autotuner events by kind.");
    for (i, kind) in ["sweep", "apply", "miss", "db_corrupt", "persist", "retune"]
        .iter()
        .enumerate()
    {
        let _ = writeln!(out, "iatf_tune_events_total{{kind=\"{kind}\"}} {}", metrics.tune[i]);
    }
    header(&mut out, "iatf_fallback_hits_total", "counter", "Calls routed to a non-compact fallback.");
    series(&mut out, "iatf_fallback_hits_total", None, metrics.fallback_hits as f64);

    header(&mut out, "iatf_plan_builds_total", "counter", "Plans built per routine.");
    for (i, op) in ["gemm", "trsm", "trmm"].iter().enumerate() {
        let _ = writeln!(out, "iatf_plan_builds_total{{op=\"{op}\"}} {}", metrics.plan_builds[i]);
    }
    header(&mut out, "iatf_arena_leases_total", "counter", "Pack-arena leases by outcome (reuse = warm buffer, no allocation).");
    let _ = writeln!(out, "iatf_arena_leases_total{{kind=\"lease\"}} {}", metrics.arena_leases);
    let _ = writeln!(out, "iatf_arena_leases_total{{kind=\"reuse\"}} {}", metrics.arena_reuses);
    header(&mut out, "iatf_arena_bytes_total", "counter", "Pack-arena bytes by disposition (reused without re-zeroing vs first-touch grown).");
    let _ = writeln!(out, "iatf_arena_bytes_total{{kind=\"reused\"}} {}", metrics.arena_bytes_reused);
    let _ = writeln!(out, "iatf_arena_bytes_total{{kind=\"grown\"}} {}", metrics.arena_bytes_grown);
    header(&mut out, "iatf_superblock_tasks_total", "counter", "Parallel super-block work units dispatched per routine.");
    for (i, op) in ["gemm", "trsm", "trmm"].iter().enumerate() {
        let _ = writeln!(out, "iatf_superblock_tasks_total{{op=\"{op}\"}} {}", metrics.superblock_tasks[i]);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ClassSnapshot, WatchSnapshot};
    use iatf_obs::metrics::HIST_BUCKETS;

    fn sample_class() -> ClassSnapshot {
        let mut hist = [0u64; HIST_BUCKETS];
        hist[10] = 7;
        hist[12] = 3;
        ClassSnapshot {
            key: TuneKey {
                op: TuneOp::Gemm,
                dtype: 1,
                m: 8,
                n: 8,
                k: 8,
                mode: 0,
                conj: 0,
                count: 512,
                width: 1,
            },
            count: 10,
            total_ns: 12_000,
            min_ns: 600,
            max_ns: 4000,
            hist,
            flops_per_call: 5.24e5,
            ewma_ns: 1200.0,
            ewma_ratio: 1.1,
            cusum: 0.0,
            expected_ns: 1100.0,
            expected_gflops: 0.47,
            slack: 0.5,
            source: Some(iatf_tune::EnvelopeSource::Tuned),
            drifting: false,
            retune_pending: false,
        }
    }

    /// Minimal exposition-format check: every sample line is
    /// `name{labels} value` with a finite value, TYPE lines precede their
    /// series, histogram buckets are cumulative and consistent.
    fn check_parseable(doc: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in doc.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                typed.push(it.next().unwrap().to_string());
                assert!(
                    matches!(it.next(), Some("counter" | "gauge" | "histogram")),
                    "bad TYPE line {line:?}"
                );
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {line:?}"));
            assert!(
                value.parse::<f64>().is_ok_and(f64::is_finite),
                "bad value in {line:?}"
            );
            let name = series.split('{').next().unwrap();
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|b| typed.iter().any(|t| t == b))
                .unwrap_or(name);
            assert!(typed.iter().any(|t| t == base), "series {name} has no TYPE");
            if series.contains('{') {
                assert!(series.ends_with('}'), "unbalanced labels in {line:?}");
            }
        }
    }

    #[test]
    fn rendered_document_is_parseable_and_complete() {
        let snap = WatchSnapshot {
            enabled: true,
            classes: vec![sample_class()],
            ..Default::default()
        };
        let doc = render_prometheus(&snap, &iatf_obs::snapshot());
        check_parseable(&doc);
        for series in [
            "iatf_dispatch_total{op=\"gemm\",class=\"0:1:8:8:8:0:0:512:1\"} 10",
            "iatf_dispatch_ns_bucket",
            "le=\"+Inf\"} 10",
            "iatf_dispatch_ns_sum{op=\"gemm\",class=\"0:1:8:8:8:0:0:512:1\"} 12000",
            "iatf_drift_events_total 0",
            "iatf_tune_events_total{kind=\"retune\"}",
            "iatf_plan_builds_total{op=\"trsm\"}",
            "iatf_arena_leases_total{kind=\"reuse\"}",
            "iatf_arena_bytes_total{kind=\"grown\"}",
            "iatf_superblock_tasks_total{op=\"gemm\"}",
        ] {
            assert!(doc.contains(series), "missing {series:?} in:\n{doc}");
        }
        // Cumulative buckets: last le bucket before +Inf equals count.
        let last = doc
            .lines()
            .rfind(|l| l.starts_with("iatf_dispatch_ns_bucket") && !l.contains("+Inf"))
            .unwrap();
        assert!(last.ends_with(" 10"), "buckets not cumulative: {last}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut s = String::new();
        escape_label(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }
}
