#!/usr/bin/env bash
# Build the benchmark package and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#
# Without --workload all four workloads run, one process each (so that
# peak_rss_mib is each workload's own). Every metric is printed as
# `<workload> <metric> <value> <unit>`, each run ends with its one-line
# JSON result, and benchmark/out/results.json collects the set. Exits
# non-zero when a build, an op or a check fails.
#
# --trace 1 builds a second binary with the `count-alloc` feature and
# records spans; it first makes an untraced run of the same seed, which
# `trace.overhead_frac` and the `op.*` noise indicators are read from.
# The two share --seconds between them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The binary reads BENCHMARK.json and BENCH_perf_suite.json from the
# root of the checkout and writes under benchmark/out.
cd "$here/.."

workloads="plan_heavy des_heavy trace_analyze sched_stream"
seed=0
seconds=20
trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
  case "$1" in
    --workload) workloads="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
  esac
  shift 2
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
build() { # <target dir> [cargo flags]
  local dir="$1"; shift
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$dir" "$@" >&2
}
build "$target"
timed="$target/release/mcio-hostbench"
if [ "$trace" = 1 ]; then
  # A target directory of its own: the feature changes mcio-prof, and
  # sharing one would rebuild the crates on every switch.
  build "$target/count-alloc" --features count-alloc
  traced="$target/count-alloc/release/mcio-hostbench"
  reference_seconds=$(( (seconds + 1) / 2 ))
  seconds=$(( seconds - reference_seconds ))
fi

status=0
for w in $workloads; do
  if [ "$trace" = 1 ]; then
    "$timed" run --workload "$w" --seed "$seed" --seconds "$reference_seconds" --trace 0 >&2 &&
      "$traced" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 || status=1
  else
    "$timed" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
  fi
done
exit $status
