//! The repo benchmark: one command generates a workload's inputs from a
//! seed, drives the library through its public functions only, checks every
//! result against the naive oracle, and prints every metric by name. See
//! `README.md` beside `Cargo.toml` for the definitions.

mod cells;
mod firsttouch;
mod gen;
mod layers;
mod refk;
mod spans;
mod stats;
mod timeline;
mod workloads;

use gen::Rng;
use layers::{ratio, LayerAcc};
use refk::{Isa, RefKind, Yardstick};
use spans::Recorder;
use stats::Normalised;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use timeline::{Workload, REF_BURST_NS};

/// End-to-end metrics: `(name, unit)`, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("pct_peak", "%"),
    ("call_ref_p50", "ref/call"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, as in `BENCHMARK.json`. Every
/// workload prints all of them; one that does not exercise a layer prints 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("simd.width_bits", "bits"),
    ("simd.fma_peak_gflops", "GFLOP/s"),
    ("simd.stream_gbps", "GB/s"),
    ("simd.ref_drift_pct", "%"),
    ("simd.slots_dropped_pct", "%"),
    ("layout.from_std_ns_per_elem", "ns"),
    ("layout.unpack_ns_per_elem", "ns"),
    ("layout.bw_frac", "ratio"),
    ("layout.share", "ratio"),
    ("pack.gemm_ns_per_byte", "ns/B"),
    ("pack.tri_ns_per_byte", "ns/B"),
    ("pack.bytes_per_call", "B"),
    ("pack.share", "ratio"),
    ("pack.nopack_ratio", "ratio"),
    ("pack.arena_lease_ns", "ns"),
    ("kernels.gemm_pct_peak", "%"),
    ("kernels.tri_pct_peak", "%"),
    ("kernels.edge_tile_ratio", "ratio"),
    ("kernels.flops_per_call", "flop"),
    ("kernels.bytes_per_call", "B"),
    ("kernels.ops_per_byte", "flop/B"),
    ("kernels.share", "ratio"),
    ("core.api.dispatch_ns", "ns"),
    ("core.api.dispatch_share", "ratio"),
    ("core.api.call_ref_p99", "ref/call"),
    ("core.api.calls", "count"),
    ("core.api.errors", "count"),
    ("core.cache.hit_ns", "ns"),
    ("core.cache.miss_ns", "ns"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.evictions", "count"),
    ("core.plan.build_ns", "ns"),
    ("core.plan.execute_ns", "ns"),
    ("core.plan.glue_share", "ratio"),
    ("core.plan.group_packs", "count"),
    ("core.autotune.first_call_ms_p50", "ms"),
    ("core.autotune.first_call_share", "ratio"),
    ("core.autotune.tuned_over_heuristic", "ratio"),
    ("core.autotune.strict_win_ratio", "ratio"),
    ("core.autotune.breakeven_calls", "count"),
    ("tune.sweep_over_budget", "ratio"),
    ("tune.db_lookup_ns", "ns"),
    ("tune.db_record_us", "us"),
    ("tune.db_entries", "count"),
    ("baselines.loop_speedup", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans_dropped", "count"),
    ("trace.spans", "count"),
];

/// Cold passes `setup_s` is the median of. The first few passes of a
/// process also pay for page faults and a cold allocator; the median of 25
/// does not.
const COLD_PASSES: usize = 25;

/// Seconds of timed region when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Exit codes: a wrong result, a bad command line, a run whose clock moved
/// too much to report a number.
const EXIT_FAILED: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_UNRESOLVED: i32 = 3;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_fault: bool,
}

const USAGE: &str = "usage: iatf-benchmark --workload <name|all> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--inject-fault]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        inject_fault: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("--seed: not a u64: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("--seconds: not a duration in (0, 3600]: {v}"))?;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: not 0 or 1: {v}")),
                };
            }
            "--inject-fault" => opts.inject_fault = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if opts.workload != "all"
        && !workloads::WORKLOADS
            .iter()
            .any(|(n, _)| *n == opts.workload)
    {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {:?}; one of: {}, all",
            opts.workload,
            names.join(", ")
        ));
    }
    Ok(opts)
}

/// The run's private directory: the library's persisted state (tuning db,
/// envelopes, journal) and the probes' files live here, never under
/// `~/.cache/iatf`. Removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(target: &Path) -> std::io::Result<RunDir> {
        let dir = target.join(format!("bench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cargo target directory this binary was built into (the parent of
/// its profile directory): inside the checkout, and git-ignored.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
}

/// Starts the peak resident set over at the current one, so that under
/// `--workload all` a workload does not report an earlier one's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn telemetry() -> &'static str {
    if iatf::watch::is_enabled() || iatf::journal::is_enabled() {
        "on"
    } else {
        "off"
    }
}

fn print_identity(w: &dyn Workload, opts: &Opts, isa: Isa) {
    let row = iatf_kernels::dispatched_row();
    let host = iatf_core::host_profile();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload      {}", w.name());
    println!("cells         {}", w.describe());
    println!("seed          {}", opts.seed);
    println!("digest        {:016x}", w.digest());
    println!(
        "dispatch      uarch={} width={} ({} bits)  ref isa={}",
        row.uarch,
        row.width.name(),
        row.width.bits(),
        isa.name()
    );
    println!(
        "force_width   {}",
        std::env::var("IATF_FORCE_WIDTH").unwrap_or_else(|_| "unset".into())
    );
    println!(
        "host          l1d={} B  l2={} B  nproc={}",
        host.l1d_bytes, host.l2_bytes, nproc
    );
    println!(
        "load          closed loop, 1 caller thread, telemetry={}",
        telemetry()
    );
    println!(
        "reference     {}  footprint={} B",
        w.reference().name(),
        w.footprint()
    );
}

/// One-off probes of calls no workload makes often enough to see.
struct Probes {
    arena_lease_ns: f64,
    cache_miss_ns: f64,
    db_lookup_ns: f64,
    db_record_us: f64,
    sweep_over_budget: f64,
    stream_gbps: f64,
}

fn per_iter_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn probes(dir: &Path, isa: Isa) -> Probes {
    use iatf_core::plan::cache;
    use iatf_core::TuningConfig;
    use iatf_layout::{GemmDims, GemmMode};
    use iatf_tune::{Provenance, TuneKey, TuneOp, TunedEntry, TuningDb};

    let arena_lease_ns = per_iter_ns(100_000, || {
        let mut lease = iatf_pack::arena::lease::<f64>();
        black_box(lease.buffer());
    });

    // unseen keys: the count is part of the key, and no workload uses these
    let cfg = TuningConfig::host();
    let mut count = 1_000_000usize;
    let cache_miss_ns = per_iter_ns(64, || {
        count += 1;
        let _ = black_box(cache::cached_gemm_plan::<f64>(
            GemmDims::square(8),
            GemmMode::NN,
            false,
            false,
            count,
            &cfg,
        ));
    });

    let key = |i: u32| TuneKey {
        op: TuneOp::Gemm,
        dtype: 1,
        m: 8,
        n: 8,
        k: i,
        mode: 0,
        conj: 0,
        count: 512,
        width: cfg.width.code(),
    };
    let entry = TunedEntry {
        pack: 0,
        group_packs: 0,
        l1_fraction: 0.5,
        parallel: false,
        tuned_gflops: 1.0,
        heuristic_gflops: 1.0,
        noise: 0.0,
        provenance: Provenance::default(),
    };
    let memory = TuningDb::in_memory();
    for i in 0..64 {
        memory.record(key(i), entry);
    }
    let mut i = 0;
    let db_lookup_ns = per_iter_ns(100_000, || {
        i = (i + 1) % 64;
        black_box(memory.lookup(&key(i)));
    });
    // a db with a path persists (temp file + rename) on every record
    let on_disk = TuningDb::in_memory();
    on_disk.set_path(Some(dir.join("probe-tune.json")));
    let mut i = 0;
    let db_record_us = per_iter_ns(32, || {
        i += 1;
        on_disk.record(key(i), entry);
    }) * 1e-3;

    let budget = Duration::from_millis(firsttouch::BUDGET_MS);
    // two equal runners of a few microseconds: long enough that the sweep's
    // own calibration call does not distort what a slot holds
    let spin = || {
        black_box((0..4000u64).fold(0u64, |a, x| a.wrapping_add(black_box(x))));
    };
    let mut runners: Vec<Box<dyn FnMut()>> = vec![Box::new(spin), Box::new(spin)];
    let t0 = Instant::now();
    black_box(iatf_tune::sweep(budget, &mut runners));
    let sweep_over_budget = t0.elapsed().as_secs_f64() / budget.as_secs_f64();

    let mut stream = Yardstick::new(
        isa,
        RefKind::Stream,
        4 * iatf_core::host_profile().l2_bytes,
        REF_BURST_NS,
    );
    stream.stream_ns();
    let mut runs: Vec<f64> = (0..5).map(|_| stream.stream_ns()).collect();
    let stream_gbps = 1.0 / stats::median(&mut runs).max(1e-9);

    Probes {
        arena_lease_ns,
        cache_miss_ns,
        db_lookup_ns,
        db_record_us,
        sweep_over_budget,
        stream_gbps,
    }
}

/// Result of one workload run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The end-to-end metrics; `None` when the clock moved too much during
    /// the run to report a number.
    end_to_end: Option<BTreeMap<&'static str, f64>>,
    /// The per-layer metrics of a traced run.
    per_layer: Option<BTreeMap<&'static str, f64>>,
    samples: usize,
}

/// The end-to-end metrics of an untraced pass over the timed region, or
/// `None` when too many of its slots were dropped to report a number.
fn end_to_end_metrics(
    run: &Normalised,
    setup_s: f64,
    rss_mb: f64,
) -> Option<BTreeMap<&'static str, f64>> {
    run.resolved().then(|| {
        BTreeMap::from([
            ("pct_peak", run.pct_peak()),
            ("call_ref_p50", run.call_ref_p50()),
            ("setup_s", setup_s),
            ("rss_mb", rss_mb),
        ])
    })
}

fn run_workload(name: &str, opts: &Opts, dir: &Path, target: &Path) -> Outcome {
    reset_peak_rss();
    let isa = Isa::for_width_bits(iatf_simd::dispatched_width().bits());
    let mut w = workloads::build(name, opts.seed, isa).expect("name was validated");
    print_identity(w.as_ref(), opts, isa);
    // Set-up: the library's cold pass, inputs already generated. In wall
    // seconds as they are: a pass runs from cold caches, follows the memory
    // system more than the core clock, and dividing it by a reference loop
    // made it no steadier.
    let (mut attempted, mut failed) = (0, 0);
    let mut passes: Vec<f64> = (0..COLD_PASSES)
        .map(|_| {
            let pass = w.cold_pass();
            attempted += pass.calls;
            failed += pass.failed;
            pass.ns * 1e-9
        })
        .collect();
    let setup_s = stats::median(&mut passes);
    w.calibrate();
    let mut yard = Yardstick::new(isa, w.reference(), w.footprint(), REF_BURST_NS);

    // correctness gate, first half: every cell against the oracle
    let mut check_rng = Rng::new(opts.seed, 0xc4ec);
    let (a, f) = w.check(&mut check_rng, opts.inject_fault);
    attempted += a;
    failed += f;

    let mut end_to_end;
    let mut per_layer = None;
    let samples;
    if !opts.trace {
        let tl = timeline::run(w.as_mut(), &mut yard, opts.seconds, None);
        let rss_mb = peak_rss_mib();
        let norm = stats::normalise(&tl.refs, &tl.cells);
        samples = norm.kept.len();
        attempted += tl.calls;
        failed += tl.failed;
        end_to_end = end_to_end_metrics(&norm, setup_s, rss_mb);
        println!(
            "slots         {} kept, {} dropped ({:.1} %), {} reference slots, {:.2} s wall",
            norm.kept.len(),
            norm.dropped,
            100.0 * norm.dropped_share(),
            tl.refs.len(),
            tl.wall_s
        );
    } else {
        use iatf_core::plan::cache;
        let mut rec = Recorder::new();
        let mut acc = LayerAcc::default();
        let cache_before = cache::stats();
        let plain = timeline::run(w.as_mut(), &mut yard, 0.35 * opts.seconds, None);
        let rss_mb = peak_rss_mib();
        let cache_after = cache::stats();
        let mut traced = timeline::run(w.as_mut(), &mut yard, 0.35 * opts.seconds, Some(&mut rec));
        w.profile(
            &mut rec,
            &mut acc,
            &mut yard,
            Duration::from_secs_f64(0.25 * opts.seconds),
        );
        let probe = probes(dir, isa);

        let n_plain = stats::normalise(&plain.refs, &plain.cells);
        let n_traced = stats::normalise(&traced.refs, &traced.cells);
        // the end-to-end metrics are those of the untraced pass
        end_to_end = end_to_end_metrics(&n_plain, setup_s, rss_mb).filter(|_| n_traced.resolved());
        samples = n_plain.kept.len();
        attempted += plain.calls + traced.calls;
        failed += plain.failed + traced.failed;

        // typical per-call time of the untraced pass in reference units, and
        // in ns at the pass's mean clock
        let oneshot = n_plain.call_ref_p50();
        let oneshot_ns = oneshot * n_plain.own_ns;
        // a traced slot times the one-shot calls and their parts back to back,
        // so the parts are taken as shares of the slot's own one-shot time
        let traced_ns: f64 = traced.cells.iter().map(|c| c.ns).sum();
        let lookup_share = ratio(rec.total("core.cache.lookup").ns as f64, traced_ns);
        let execute_share = stats::median(&mut traced.execute_shares);
        let attributed_share = stats::median(&mut traced.attributed_shares);

        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut set = |k: &'static str, v: f64| {
            values.insert(k, v);
        };
        set(
            "simd.width_bits",
            iatf_simd::dispatched_width().bits() as f64,
        );
        set(
            "simd.fma_peak_gflops",
            2.0 * isa.lanes_f64() as f64 / n_plain.fma_ns.max(1e-9),
        );
        set("simd.stream_gbps", probe.stream_gbps);
        set("simd.ref_drift_pct", stats::ref_drift_pct(&plain.refs));
        set("simd.slots_dropped_pct", 100.0 * n_plain.dropped_share());

        set(
            "layout.from_std_ns_per_elem",
            ratio(acc.from_std_ns, acc.from_std_elems),
        );
        set(
            "layout.unpack_ns_per_elem",
            ratio(acc.unpack_ns, acc.unpack_elems),
        );
        set(
            "layout.bw_frac",
            ratio(
                ratio(acc.layout_bytes, acc.from_std_ns + acc.unpack_ns),
                probe.stream_gbps,
            ),
        );
        set("layout.share", ratio(acc.step_layout_ns, acc.step_ns));

        set(
            "pack.gemm_ns_per_byte",
            ratio(acc.pack_gemm_ns, acc.pack_gemm_bytes),
        );
        set(
            "pack.tri_ns_per_byte",
            ratio(acc.pack_tri_ns, acc.pack_tri_bytes),
        );
        set("pack.bytes_per_call", ratio(acc.packed_bytes, acc.calls));
        set("pack.share", ratio(acc.pack_ns, acc.execute_ns));
        set(
            "pack.nopack_ratio",
            ratio(acc.operands_direct as f64, acc.operands as f64),
        );
        set("pack.arena_lease_ns", probe.arena_lease_ns);

        set(
            "kernels.gemm_pct_peak",
            100.0 * ratio(acc.kernel_gemm_flops, acc.kernel_gemm_peak_flops),
        );
        set(
            "kernels.tri_pct_peak",
            100.0 * ratio(acc.kernel_tri_flops, acc.kernel_tri_peak_flops),
        );
        set(
            "kernels.edge_tile_ratio",
            ratio(
                ratio(acc.edge_ns, acc.edge_flops),
                ratio(acc.main_ns, acc.main_flops),
            ),
        );
        set("kernels.flops_per_call", ratio(acc.flops, acc.calls));
        set("kernels.bytes_per_call", ratio(acc.bytes, acc.calls));
        set("kernels.ops_per_byte", ratio(acc.flops, acc.bytes));
        set("kernels.share", ratio(acc.kernel_ns, acc.execute_ns));

        let dispatch_share = (1.0 - execute_share).max(0.0);
        set("core.api.dispatch_ns", dispatch_share * oneshot_ns);
        set("core.api.dispatch_share", dispatch_share);
        let per_call = n_plain.per_call_sorted();
        let tail = stats::tail_quantile(per_call.len());
        set(
            "core.api.call_ref_p99",
            stats::quantile_sorted(&per_call, tail),
        );
        set("core.api.calls", (plain.calls + traced.calls) as f64);
        set("core.api.errors", (plain.failed + traced.failed) as f64);

        let (hits, misses) = (
            cache_after.hits.saturating_sub(cache_before.hits),
            cache_after.misses.saturating_sub(cache_before.misses),
        );
        set("core.cache.hit_ns", lookup_share * oneshot_ns);
        set("core.cache.miss_ns", probe.cache_miss_ns);
        set(
            "core.cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        set(
            "core.cache.evictions",
            cache_after.evictions.saturating_sub(cache_before.evictions) as f64,
        );

        set("core.plan.build_ns", ratio(acc.build_ns, acc.plans as f64));
        set("core.plan.execute_ns", execute_share * oneshot_ns);
        set(
            "core.plan.glue_share",
            ratio(
                (acc.execute_ns - acc.pack_ns - acc.kernel_ns).max(0.0),
                acc.execute_ns,
            ),
        );
        set(
            "core.plan.group_packs",
            ratio(acc.group_packs, acc.plans as f64),
        );

        set("tune.sweep_over_budget", probe.sweep_over_budget);
        set("tune.db_lookup_ns", probe.db_lookup_ns);
        set("tune.db_record_us", probe.db_record_us);
        set(
            "tune.db_entries",
            iatf_tune::TuningDb::global().len() as f64,
        );
        set("baselines.loop_speedup", stats::geomean(&acc.loop_speedups));

        set(
            "trace.overhead_pct",
            100.0 * ratio(n_traced.call_ref_p50() - oneshot, oneshot),
        );
        set(
            "trace.unattributed_pct",
            100.0 * (1.0 - attributed_share).abs(),
        );
        set("trace.spans_dropped", rec.dropped() as f64);
        set("trace.spans", rec.spans() as f64);
        for (k, v) in w.extra_metrics() {
            set(k, v);
        }
        per_layer = Some(values);

        let path = target.join(format!("trace_{name}.json"));
        match std::fs::write(&path, rec.to_json(name, opts.seed)) {
            Ok(()) => println!("trace         {}", path.display()),
            Err(e) => println!("trace         not written ({e})"),
        }
        println!(
            "slots         plain {} kept / {} dropped, traced {} kept / {} dropped, p99 taken at q={tail}",
            n_plain.kept.len(),
            n_plain.dropped,
            n_traced.kept.len(),
            n_traced.dropped
        );
    }

    // correctness gate, second half: state that went wrong over time shows here
    let (a, f) = w.check(&mut check_rng, false);
    attempted += a;
    failed += f;
    if !w.healthy() {
        println!("values        a result went non-finite or denormal");
        failed += 1;
    }

    let attempted = attempted.max(1);
    if let Some(values) = &mut end_to_end {
        values.insert("success_rate", 1.0 - failed as f64 / attempted as f64);
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        samples,
    }
}

/// The metrics of `table` as `(name, value, unit)`, in the table's order.
fn rows(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|&(metric, unit)| {
            let v = values.get(metric).copied().unwrap_or(0.0);
            (metric, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// Prints one workload's verdict and metrics; the last line is the
/// contract's result object, with the per-layer metrics of a traced run and
/// the end-to-end metrics otherwise. An unresolved run prints neither.
fn print_outcome(name: &str, o: &Outcome) {
    println!(
        "verdict       {}",
        if o.failed == 0 { "correct" } else { "FAILED" }
    );
    println!(
        "error_rate    {} ({} failed / {} attempted)",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    );
    let Some(end_to_end) = &o.end_to_end else {
        println!("resolution    unresolved: the clock moved during more than a quarter of the slots, no metric is reported");
        return;
    };
    println!("resolution    resolved");
    let end_to_end = rows(&END_TO_END, end_to_end);
    let per_layer = o.per_layer.as_ref().map(|v| rows(&PER_LAYER, v));
    for (metric, value, unit) in end_to_end.iter().chain(per_layer.iter().flatten()) {
        println!(
            "metric        {name}.{metric} = {value} {unit} (n={})",
            o.samples
        );
    }
    let body: Vec<String> = per_layer
        .as_ref()
        .unwrap_or(&end_to_end)
        .iter()
        .map(|(m, v, u)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let target = target_dir();
    let dir = match RunDir::create(&target) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "error: cannot create a run directory under {}: {e}",
                target.display()
            );
            std::process::exit(EXIT_USAGE);
        }
    };
    // before the first library call: the library resolves these paths once
    std::env::set_var("IATF_TUNE_DB", dir.0.join("tune.json"));
    std::env::set_var("IATF_WATCH_ENVELOPES", dir.0.join("envelopes.json"));
    std::env::set_var("IATF_JOURNAL_DIR", dir.0.join("journal"));

    let names: Vec<&str> = if opts.workload == "all" {
        workloads::WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![opts.workload.as_str()]
    };
    let (mut all_correct, mut all_resolved) = (true, true);
    for name in names {
        // workloads share the process-wide plan cache and tuning db
        iatf_core::plan::cache::clear();
        iatf_tune::TuningDb::global().clear();
        let outcome = run_workload(name, &opts, &dir.0, &target);
        print_outcome(name, &outcome);
        all_correct &= outcome.failed == 0;
        all_resolved &= outcome.end_to_end.is_some();
    }
    drop(dir);
    if !all_correct {
        std::process::exit(EXIT_FAILED);
    }
    if !all_resolved {
        std::process::exit(EXIT_UNRESOLVED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_of_the_command_line_parses() {
        let o = parse_args(&args(
            "--workload small_calls --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("small_calls", 42, 10.0, false)
        );
        let o = parse_args(&args("--workload all --trace 1 --inject-fault")).unwrap();
        assert!(o.trace && o.inject_fault);
        assert_eq!(o.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --seed -1",
            "--workload all --seconds 0",
            "--workload all --seconds nan",
            "--workload all --frobnicate",
            "--workload all --trace",
            "--workload all --trace yes",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    /// `BENCHMARK.json` at the repo root must list exactly the workloads
    /// and metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, why) in workloads::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
            assert!(text.contains(why), "why of {name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
        let listed = text.matches("\"name\": ").count();
        assert_eq!(
            listed,
            workloads::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
