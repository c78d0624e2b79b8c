#!/bin/sh
# Perf-regression gate over the BENCH_*.json trajectory.
#
# Runs the (fast) bench binaries with PLC_BENCH_DIR pointed at a candidate
# directory, then compares the candidate against the stored baseline with
# plc-benchdiff: any gated throughput scalar dropping by more than the
# threshold fails the script. The first run seeds the baseline and passes
# trivially; commit the baseline directory (or stash it on CI) to gate
# subsequent runs.
#
# Usage: scripts/bench_gate.sh [build-dir] [baseline-dir] [candidate-dir]
#   build-dir      default: build
#   baseline-dir   default: bench-baseline
#   candidate-dir  default: bench-candidate
#
# The benchdiff output is also written to <candidate-dir>/benchdiff.txt
# so CI can upload the delta as an artifact alongside the BENCH_*.json.
#
# Environment:
#   PLC_BENCH_GATE_THRESHOLD   gate threshold in percent (default 5)
#   PLC_BENCH_GATE_TARGETS     space-separated bench binaries to run
#                              (default: a fast, headline subset)
#   PLC_JOBS                   worker count for benches that shard their
#                              heavy loops (0/unset = hardware threads)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BASELINE_DIR="${2:-bench-baseline}"
CANDIDATE_DIR="${3:-bench-candidate}"
THRESHOLD="${PLC_BENCH_GATE_THRESHOLD:-5}"
# Fast subset by default: the kernel suite (items_per_second trends plus
# the profiler-overhead budgets) and the cheap report-only benches. The
# full table/figure reproductions take minutes each — opt in via
# PLC_BENCH_GATE_TARGETS.
TARGETS="${PLC_BENCH_GATE_TARGETS:-bench_table1_parameters bench_figure1_trace bench_table3_interface bench_kernel_microbench bench_cache_speedup bench_telemetry_overhead bench_serve_throughput}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "bench_gate: build directory '$BUILD_DIR' not found" >&2
  echo "bench_gate: run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

rm -rf "$CANDIDATE_DIR"
mkdir -p "$CANDIDATE_DIR"
for target in $TARGETS; do
  bin="$BUILD_DIR/bench/$target"
  if [ ! -x "$bin" ]; then
    echo "bench_gate: missing bench binary $bin (build first)" >&2
    exit 2
  fi
  echo "bench_gate: running $target"
  PLC_BENCH_DIR="$CANDIDATE_DIR" "$bin" > /dev/null
done

# Absolute telemetry budgets (independent of any baseline): the relative
# benchdiff gate below only catches drift, so the hard ceilings from
# bench_telemetry_overhead are enforced here on every run. Budgets:
# disabled ~0% (3% noise allowance), enabled < 5%, observatory < 8%
# (the observatory's absolute cost measures ~5%, but the baseline
# denominator shifts a few percent between binaries from code layout
# alone, so the ceiling carries a noise allowance).
TELEMETRY_REPORT="$CANDIDATE_DIR/BENCH_telemetry_overhead.json"
if [ -f "$TELEMETRY_REPORT" ]; then
  python3 - "$TELEMETRY_REPORT" <<'EOF'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]
budgets = {
    "telemetry.disabled_overhead_pct": 3.0,
    "telemetry.enabled_overhead_pct": 5.0,
    "telemetry.observatory_overhead_pct": 8.0,
}
failed = False
for name, budget in budgets.items():
    value = scalars[name]
    ok = value < budget
    print(f"bench_gate: {name} = {value:+.2f}% (budget < {budget:.0f}%)"
          f"{'' if ok else '  FAIL'}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
fi

# Absolute event-kernel budget: the event kernel must cover simulated
# slots at least 10x faster than the slot-stepped oracle on the boosted
# large-CW race workload (BM_KernelRacePaired — paired-minimum timing,
# so machine noise cancels). This is the perf contract the kernel was
# built for; a regression below 10x means gap batching broke.
KERNEL_REPORT="$CANDIDATE_DIR/BENCH_kernel_microbench.json"
if [ -f "$KERNEL_REPORT" ]; then
  python3 - "$KERNEL_REPORT" <<'EOF'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]
slot = scalars["slot.slots_per_sec"]
event = scalars["event.slots_per_sec"]
ratio = event / slot
ok = ratio >= 10.0
print(f"bench_gate: event.slots_per_sec / slot.slots_per_sec = "
      f"{ratio:.1f}x (budget >= 10x){'' if ok else '  FAIL'}")
sys.exit(0 if ok else 1)
EOF
fi

# Absolute analytic-model budgets: the decoupled 1901 fixed point builds
# its stage sums in one incremental pass over the binomial pmf row, so a
# CA1 solve takes ~0.1-0.2 ms and e21's window search well under 1 ms.
# The ceilings leave >= 5x headroom over that and sit >= 5x under the
# per-b lgamma/exp evaluation they replaced (~4-6 ms and ~30-50 ms), so
# a return to it fails here whatever the baseline says.
if [ -f "$KERNEL_REPORT" ]; then
  python3 - "$KERNEL_REPORT" <<'EOF'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]
budgets_ms = {
    "BM_Model1901Solve/10.real_time_s_per_iter": 1.0,
    "BM_BestUniformWindow/5.real_time_s_per_iter": 5.0,
}
failed = False
for name, budget in budgets_ms.items():
    value = 1e3 * scalars[name]
    ok = value < budget
    print(f"bench_gate: {name} = {value:.3f} ms (budget < {budget:g} ms)"
          f"{'' if ok else '  FAIL'}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
fi

# Absolute serve-daemon budgets: a warmed store must make the job API
# dramatically faster than simulating (p50 ratio >= 10x — the contract
# the ISSUE's warm-path design exists for) and the daemon must sustain a
# minimum absolute service rate for already-computed specs. The absolute
# floor carries a large allowance (local runs measure ~700 specs/s) so
# only a broken warm path trips it, not a slow CI machine.
SERVE_REPORT="$CANDIDATE_DIR/BENCH_serve_throughput.json"
if [ -f "$SERVE_REPORT" ]; then
  python3 - "$SERVE_REPORT" <<'EOF'
import json, sys
scalars = json.load(open(sys.argv[1]))["scalars"]
ratio = scalars["serve.warm_over_cold_p50"]
rate = scalars["serve.warm_throughput_specs_per_second"]
failed = False
ok = ratio >= 10.0
print(f"bench_gate: serve.warm_over_cold_p50 = {ratio:.1f}x "
      f"(budget >= 10x){'' if ok else '  FAIL'}")
failed |= not ok
ok = rate >= 25.0
print(f"bench_gate: serve.warm_throughput_specs_per_second = {rate:.1f} "
      f"(budget >= 25){'' if ok else '  FAIL'}")
failed |= not ok
sys.exit(1 if failed else 0)
EOF
fi

if [ ! -d "$BASELINE_DIR" ]; then
  echo "bench_gate: no baseline at '$BASELINE_DIR' — seeding it from this run"
  cp -r "$CANDIDATE_DIR" "$BASELINE_DIR"
  exit 0
fi

# Keep the delta next to the candidate reports (CI uploads both); the
# gate's exit status is benchdiff's.
status=0
"$BUILD_DIR/examples/plc-benchdiff" --threshold-pct "$THRESHOLD" \
    "$BASELINE_DIR" "$CANDIDATE_DIR" \
    > "$CANDIDATE_DIR/benchdiff.txt" 2>&1 || status=$?
cat "$CANDIDATE_DIR/benchdiff.txt"
exit "$status"
