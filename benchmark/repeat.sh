#!/usr/bin/env bash
# Repeatability check: runs every workload N times (N >= 5, default 5) on
# seed 1 and once on seed 2, for the `run_seconds` of BENCHMARK.json, and
# prints per (metric, workload) the median, the quartiles and the spread
# (interquartile distance as a share of the median) against that pair's bound
# in benchmark/bounds.json. Exits non-zero on a breach:
#
#   * a spread above its bound,
#   * a second-seed value worse than the median by more than the bound,
#   * a run that failed or reported itself unresolved,
#   * a metric whose bound in BENCHMARK.json is not the widest of its pairs.
#
# This is how the bounds were derived, and running it twice gives the two
# sets of runs the acceptance criteria compare.
#
#   benchmark/repeat.sh [N]
set -euo pipefail

runs="${1:-5}"
if ! [ "$runs" -ge 5 ] 2>/dev/null; then
    echo "usage: benchmark/repeat.sh [N]   (N >= 5: quartiles of fewer runs say nothing)" >&2
    exit 2
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
exe="${CARGO_TARGET_DIR:-benchmark/target}/release/iatf-benchmark"

exec python3 - "$exe" "$runs" <<'PY'
import json, statistics, subprocess, sys

exe, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bounds = json.load(open("benchmark/bounds.json"))["bounds"]
seconds = str(spec["run_seconds"])
breaches = []

for m in spec["end_to_end"]:
    widest = max(bounds[w["name"]][m["name"]] for w in spec["workloads"])
    if m["bound"] != widest:
        breaches.append(f"BENCHMARK.json bounds {m['name']} at {m['bound']}, its widest pair is {widest}")


def run(workload, seed):
    """One run's end-to-end metrics, or None when it failed or was unresolved."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        breaches.append(f"{workload} seed {seed}: exit {out.returncode}")
        return None
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in doc["metrics"].items()}


print(f"{runs} runs on seed 1, 1 on seed 2, {seconds} s each")
print(f"{'workload':14} {'metric':13} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'seed 2':>12} {'delta':>8}")
for w in (w["name"] for w in spec["workloads"]):
    rows = [r for r in (run(w, 1) for _ in range(runs)) if r]
    other = run(w, 2)
    if len(rows) < 5 or not other:
        continue
    for m in spec["end_to_end"]:
        name, bound = m["name"], bounds[w][m["name"]]
        q1, med, q3 = statistics.quantiles([r[name] for r in rows], n=4)
        spread = (q3 - q1) / med
        # how much worse the other seed reads than this seed's median
        worse = (other[name] - med) / med * (1 if m["better"] == "lower" else -1)
        flags = ["SPREAD"] * (spread > bound) + ["SEED"] * (worse > bound)
        print(f"{w:14} {name:13} {med:12.6g} {q1:12.6g} {q3:12.6g} {100 * spread:7.2f}% {100 * bound:5.0f}% {other[name]:12.6g} {100 * worse:+7.2f}% {' '.join(flags)}")
        breaches += [f"{w}.{name}: {f}" for f in flags]
if breaches:
    print("breaches:", "; ".join(breaches))
    sys.exit(1)
print("every spread and the second seed are inside the bounds")
PY
