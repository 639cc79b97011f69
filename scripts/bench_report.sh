#!/usr/bin/env bash
# Collect every bench binary's structured `--json` run report into one
# BENCH envelope (default BENCH_BASELINE.json, the committed baseline).
# Each report passes through `xr32-trace normalize-report`, which
# validates it against the xobs schema and strips every host-timing
# value, so the envelope holds only deterministic fields. The runs share
# one private, initially empty kernel-cycle cache, so every collection
# is byte-identical whatever the state of the default cache.
#
# Compare a fresh envelope with the baseline using
# `bench_diff BENCH_BASELINE.json fresh.json` (ci.sh gates on it).
#
# usage: scripts/bench_report.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_BASELINE.json}
BIN=target/release

cargo build --release -q --package bench

# name + small arguments so a full collection pass stays quick; the
# report schema is size-independent.
RUNS=(
  "table1_speedups 256"
  "fig8_ssl 256"
  "fig1_gap"
  "fig4_callgraph 8"
  "fig5_adcurves 8"
  "fig6_cartesian"
  "sec43_exploration 128 2"
  "fastpath_gate 3"
  "xooo_gate"
  "xopt_gate 8"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export WSP_KCACHE="$tmp/kcache.json"

reports=()
for run in "${RUNS[@]}"; do
  # shellcheck disable=SC2086
  set -- $run
  name=$1
  shift
  echo "bench_report: $name $*" >&2
  "$BIN/$name" --json "$@" >"$tmp/$name.json"
  "$BIN/xr32-trace" normalize-report "$tmp/$name.json" >"$tmp/$name.norm.json"
  reports+=("$(cat "$tmp/$name.norm.json")")
done

{
  printf '{"schema_version":2,"reports":['
  first=1
  for r in "${reports[@]}"; do
    [[ $first == 1 ]] || printf ','
    first=0
    printf '%s' "$r"
  done
  printf ']}\n'
} >"$OUT"

echo "bench_report: wrote $OUT (${#reports[@]} reports)" >&2
