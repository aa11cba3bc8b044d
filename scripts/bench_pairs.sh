#!/usr/bin/env bash
# Time two checkouts of the repository against each other on one host
# benchmark workload, as alternating pairs of runs.
#
#   scripts/bench_pairs.sh PARENT CHANGE WORKLOAD N [--seconds T] [--seed S]
#
# PARENT and CHANGE are checkout roots (they may be one and the same).
# Each checkout's benchmark is built first, into that checkout's own
# benchmark/target. Pair i then runs `benchmark/run.sh --workload
# WORKLOAD` of both, the parent first on odd pairs and the change first
# on even ones, so a host that drifts favours neither side. T (default
# 20) and S (default 0) are passed to every run.
#
# For every end-to-end metric of CHANGE's BENCHMARK.json it prints each
# pair's two values and change/parent ratio, the ratio of the two
# sides' medians, the median of the per-pair ratios and the number of
# pairs the change won (better in the metric's direction). Exits
# non-zero when a build or a run fails.
set -euo pipefail

usage() {
  echo "usage: scripts/bench_pairs.sh PARENT CHANGE WORKLOAD N [--seconds T] [--seed S]" >&2
  exit 2
}
[ $# -ge 4 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
seconds=20
seed=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --seconds) seconds=$2 ;;
    --seed) seed=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

target() { echo "$1/benchmark/target"; }
for dir in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" \
    --target-dir "$(target "$dir")" >&2
done

log=$(mktemp)
trap 'rm -f "$log"' EXIT
run() { # <side> <checkout> <pair>: appends `pair side metric value unit` rows
  CARGO_TARGET_DIR="$(target "$2")" bash "$2/benchmark/run.sh" --workload "$workload" \
    --seconds "$seconds" --seed "$seed" > "$log.run"
  awk -v pair="$3" -v side="$1" -v w="$workload" \
    '$1 == w && NF == 4 { print pair, side, $2, $3, $4 }' "$log.run" >> "$log"
  rm -f "$log.run"
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  echo "pair $i of $pairs done" >&2
done

# `name better` for each end-to-end metric, from the change's spec.
metrics=$(awk '/"end_to_end"/ { on = 1 } on && /"name"/ {
    match($0, /"name": *"[^"]*"/); name = substr($0, RSTART, RLENGTH)
    match($0, /"better": *"[^"]*"/); better = substr($0, RSTART, RLENGTH)
    gsub(/.*: *"|"/, "", name); gsub(/.*: *"|"/, "", better)
    print name, better }
  on && /\]/ { exit }' "$change/BENCHMARK.json")

echo "$metrics" | awk -v w="$workload" -v pairs="$pairs" '
  function median(a, n,    i, j, t, s) {
    for (i = 1; i <= n; i++) s[i] = a[i]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
  }
  function ratio(c, p) { return p == 0 ? "-" : sprintf("%.3f", c / p) }
  FNR == NR { order[++nm] = $1; better[$1] = $2; next }
  { v[$3, $2, $1] = $4; unit[$3] = $5 }
  END {
    for (m = 1; m <= nm; m++) {
      name = order[m]
      printf "%s %s (%s, %s is better), %d pairs\n", w, name, unit[name], better[name], pairs
      printf "  %4s %12s %12s %7s\n", "pair", "parent", "change", "ratio"
      won = 0; nr = 0
      for (i = 1; i <= pairs; i++) {
        p[i] = v[name, "parent", i]; c[i] = v[name, "change", i]
        printf "  %4d %12.3f %12.3f %7s\n", i, p[i], c[i], ratio(c[i], p[i])
        if (p[i] != 0) r[++nr] = c[i] / p[i]
        if (better[name] == "lower" ? c[i] < p[i] : c[i] > p[i]) won++
      }
      printf "  ratio of medians %s, median pair ratio %s, won %d of %d\n",
        ratio(median(c, pairs), median(p, pairs)),
        nr ? sprintf("%.3f", median(r, nr)) : "-", won, pairs
    }
  }' - "$log"
