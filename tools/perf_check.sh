#!/usr/bin/env sh
# Perf regression gate for the core hot paths.
#
# Rebuilds the release preset and, in three interleaved rounds, re-runs
# bench/micro_core (which measures generate/consume/balance ns-per-op
# and writes them to its --json_out path) plus a short
# bench/scalability sparse sweep (whose
# "sparse_step" step_us rows time the obs-detached batched step loop —
# this is the tracing-off overhead gate: the observability layer must
# stay free when detached; the "async_step" rows time the barrier-free
# run_async engine the same way, so regressions in the epoch-fenced
# drain path fail here too), and compares every metric against the
# committed baseline BENCH_core.json at the repository root.  The sweep
# also re-runs the serial engine and both run_async modes (deterministic
# and relaxed) on the default config with the counting allocation hook
# attached and gates every allocs_per_step == 0: the zero-allocation
# steady state (DESIGN.md §11) is a hard invariant, not a
# tolerance-checked timing.
#
# The comparison is common-mode normalized: on a shared/virtualized box
# the whole benchmark drifts ±20-30% run to run, and all metrics drift
# *together* (a noisy neighbor slows the machine, not one code path).  A
# real regression is the opposite shape — one path moves, the rest
# don't.  So the gate computes each metric's fresh/baseline ratio,
# takes the median ratio across all metrics as the machine-speed factor,
# and fails a metric only when its ratio exceeds the median by more than
# the tolerance.  Blind spot: a change that slows *every* metric by the
# same factor cancels out — that shape is almost always a build-type
# mistake (e.g. a debug build), which the build presets gate separately.
#
# Usage: tools/perf_check.sh [tolerance_pct]     (default 30)
# Opt-in from the full gate:  DLB_PERF_CHECK=1 tools/check.sh
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"
tol="${1:-30}"
jobs="$(nproc 2>/dev/null || echo 4)"

if ! command -v python3 >/dev/null 2>&1; then
  echo "perf_check: python3 not available, skipping" >&2
  exit 0
fi

cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" \
    --target micro_core scalability transport_rtt

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
# Three interleaved rounds of every bench; each gated timing is the
# minimum over the rounds (the spread, max / min, is printed), the same
# estimator for every row: one slow run of a ~20 ns micro_core row on a
# noisy box is enough to cross the tolerance on its own, and gating
# some rows on a minimum and others on a single run would skew the
# common-mode factor below.
for round in 1 2 3; do
  mkdir -p "$workdir/$round"
  "$repo/build/bench/micro_core" --benchmark_filter=NONE \
      --json_out "$workdir/$round/BENCH_core.json"
  # Sparse sweep only (max_n 16 skips the dense quality table): the
  # step_us it reports is the batched step loop with observability
  # detached, so a regression here catches hot-path cost sneaking in
  # behind the "disabled is free" promise.
  "$repo/build/bench/scalability" --steps 1 --runs 1 --max_n 16 \
      --sparse_max_n 65536 \
      --json_out "$workdir/$round/BENCH_scalability.json" >/dev/null
  # Socket-transport latency rows (rtt_us / txn_us): forked ranks over
  # unix-domain sockets, so a regression in the framing, pump or
  # spin-then-block receive path fails here.
  "$repo/build/bench/transport_rtt" \
      --json_out "$workdir/$round/BENCH_transport.json" >/dev/null
done

python3 - "$repo/BENCH_core.json" "$tol" "$workdir" <<'EOF'
import json
import statistics
import sys

base_path, tol_pct, workdir = sys.argv[1], float(sys.argv[2]), sys.argv[3]
with open(base_path) as f:
    base = json.load(f)

def key(row):
    # workload+n alone is ambiguous for the serving rows (several
    # strategies / Zipf exponents share one (workload, n)); fold the
    # distinguishing columns in so every row keys uniquely.  Only the
    # timing/alloc metrics below are gated — the serving rows' latency
    # percentiles are workload results, not hot-path timings, and must
    # never fail the perf gate.
    return (row.get("workload", "sparse"), row["n"],
            row.get("alpha", ""), row.get("strategy", ""))

baseline = {key(r): r for r in base["results"]}
metrics = ("generate_ns", "consume_ns", "balance_ns", "step_us",
           "rtt_us", "txn_us")

# Every row of the three rounds, merged by key: gated timings take their
# minimum, allocation counts their maximum (any nonzero round fails).
rounds = {}
for r in ("1", "2", "3"):
    for name in ("BENCH_core", "BENCH_scalability", "BENCH_transport"):
        with open(f"{workdir}/{r}/{name}.json") as f:
            for row in json.load(f)["results"]:
                rounds.setdefault(key(row), []).append(row)
fresh = {"results": []}
print("  min of 3 rounds (spread = max / min):")
for rows in rounds.values():
    merged = dict(rows[0])
    for m in merged:
        values = [row[m] for row in rows if m in row]
        if m in metrics:
            merged[m] = min(values)
            spread = max(values) / min(values) if min(values) > 0 else 1.0
            wl, n = key(merged)[:2]
            print(f"    {wl}/n={n} {m}: {min(values):.1f} "
                  f"(spread x{spread:.2f})")
        elif m.endswith("allocs_per_step"):
            merged[m] = max(values)
    fresh["results"].append(merged)

ratios = {}  # (workload, n, metric) -> (fresh, base, fresh/base)
for row in fresh["results"]:
    ref = baseline.get(key(row))
    if ref is None:
        print(f"  [new ] {key(row)}: no baseline row, skipping")
        continue
    for m in metrics:
        if m in ref and m in row and ref[m] > 0:
            ratios[key(row) + (m,)] = (row[m], ref[m], row[m] / ref[m])

if not ratios:
    print("perf_check: no comparable metrics found", file=sys.stderr)
    sys.exit(1)

# Zero-allocation steady-state gate (DESIGN.md §11): the sparse-sweep
# rows carry allocs_per_step columns measured with the counting
# operator-new hook — 0.0 means the engine's allocator went quiet within
# the first half of the horizon.  Unlike the timing gate this is exact
# (allocation counts do not drift with machine load), so any nonzero
# value is a hard failure.
alloc_failures = []
for row in fresh["results"]:
    if row.get("workload") not in ("sparse_step", "async_step"):
        continue
    for m, v in row.items():
        if m.endswith("allocs_per_step"):
            status = "FAIL" if v != 0 else "ok"
            print(f"  [{status:>4}] {row['workload']}/n={row['n']} {m}: {v}")
            if v != 0:
                alloc_failures.append((key(row), m, v))
if alloc_failures:
    print(f"perf_check: {len(alloc_failures)} engine(s) allocate in the "
          "steady state (allocs_per_step != 0)", file=sys.stderr)
    sys.exit(1)

# Wire-overhead gate: the socket rows' wire_bytes_per_msg is a pure
# framing constant (header + fixed body + payload words on the bench's
# fixed traffic shape), so like the alloc gate it is compared exactly
# (1e-6 relative slack for float round-trip), not ratio-normalized.
# Any drift means the wire format or the bench's message mix changed —
# that must be a deliberate baseline update, never silent.
wire_failures = []
for row in fresh["results"]:
    ref = baseline.get(key(row))
    if ref is None:
        continue
    m = "wire_bytes_per_msg"
    if m in ref and m in row:
        ok = abs(row[m] - ref[m]) <= 1e-6 * max(ref[m], 1.0)
        status = "ok" if ok else "FAIL"
        print(f"  [{status:>4}] {row['workload']}/n={row['n']} {m}: "
              f"{row[m]:.4f} vs baseline {ref[m]:.4f}")
        if not ok:
            wire_failures.append((key(row), m))
if wire_failures:
    print(f"perf_check: {len(wire_failures)} socket row(s) changed their "
          "per-message wire overhead", file=sys.stderr)
    sys.exit(1)

machine = statistics.median(r for _, _, r in ratios.values())
limit = machine * (1.0 + tol_pct / 100.0)
print(f"  machine-speed factor (median fresh/baseline): {machine:.2f}, "
      f"per-metric limit {limit:.2f}")

failures = []
for (wl, n, alpha, strat, m), (got, ref, ratio) in sorted(ratios.items()):
    status = "FAIL" if ratio > limit else "ok"
    tag = f"{wl}/n={n}"
    if alpha != "":
        tag += f"/a={alpha}"
    if strat != "":
        tag += f"/{strat}"
    print(f"  [{status:>4}] {tag} {m}: {got:.1f} vs baseline "
          f"{ref:.1f} (x{ratio:.2f})")
    if ratio > limit:
        failures.append((wl, n, m))

if failures:
    print(f"perf_check: {len(failures)} metric(s) regressed more than "
          f"+{tol_pct:.0f}% beyond the common-mode drift", file=sys.stderr)
    sys.exit(1)
print(f"perf_check: all metrics within +{tol_pct:.0f}% of baseline "
      f"(common-mode normalized)")
EOF
