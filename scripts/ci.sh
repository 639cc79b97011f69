#!/usr/bin/env bash
# Full local CI: build, tests, formatting, lints. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The root `wsp` package is a workspace member, so this one run covers
# its tests too.
cargo test -q --workspace
# The memo-vs-plain co-simulation sweeps at 512 bits and on a 128-bit
# accelerated library are ignored in the debug run above: run them here
# in release mode.
# So is the 512-bit memo-vs-plain check of every phase-1 unit.
cargo test --release -q -p secproc --lib -- --include-ignored \
  memoized_cosimulation_equals_the_plain_model_at_512_bits \
  memoized_accelerated_cosimulation_equals_the_plain_model_at_128_bits \
  memoized_characterization_equals_the_plain_model_at_512_bits
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Docs gate: any rustdoc warning fails, so an intra-doc link to a
# deleted or private item cannot rot.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Observability smoke: trace a couple of base-AES blocks and assert the
# known kernel hot spots show up in the replayed attribution report.
cargo build --release -q --package bench
TRACE=$(mktemp /tmp/ci_aes.XXXXXX.xtrace)
trap 'rm -f "$TRACE"' EXIT
target/release/xr32-trace record aes "$TRACE" 2
SUMMARY=$(target/release/xr32-trace summary "$TRACE")
for hot in subshift mixcols addkey; do
  if ! grep -q "$hot" <<<"$SUMMARY"; then
    echo "ci: '$hot' missing from AES trace hot report" >&2
    exit 1
  fi
done
# Custom-instruction names survive write, read and replay, and the RSA
# attribution root equals the total ISS cycles through IssMpn's shared sink.
target/release/xr32-trace record aes-accel "$TRACE" 2
target/release/xr32-trace summary "$TRACE" | awk '/^custom dispatches/ { c = 1 } c && $1 == "aesround" { f = 1 } END { exit !f }'
target/release/xr32-trace rsa-attrib 256 >/dev/null

# Determinism gate: the parallel methodology engine must produce
# byte-identical reports (modulo host-timing fields, stripped by
# `normalize-report`) at 1 thread and 8 threads, each from a cold
# kernel-cycle cache. fig8_ssl generates an RSA-1024 key, so the
# Miller-Rabin witnesses prime generation runs on the pool are gated
# too.
DET=$(mktemp -d /tmp/ci_det.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET"' EXIT
for run in "sec43_exploration --json 128 2" "fig5_adcurves --json 8" "fig8_ssl --json"; do
  # shellcheck disable=SC2086
  set -- $run
  name=$1
  WSP_THREADS=1 WSP_KCACHE="$DET/$name.t1.kcache" "target/release/$@" \
    | target/release/xr32-trace normalize-report - >"$DET/$name.t1.json"
  WSP_THREADS=8 WSP_KCACHE="$DET/$name.t8.kcache" "target/release/$@" \
    | target/release/xr32-trace normalize-report - >"$DET/$name.t8.json"
  if ! diff -u "$DET/$name.t1.json" "$DET/$name.t8.json"; then
    echo "ci: $name report differs between WSP_THREADS=1 and 8" >&2
    exit 1
  fi
  echo "ci: $name deterministic across thread counts"
done

# Span-smoke gate: schema-8 reports must carry a populated span tree
# (`xr32-trace spans` exits non-zero on an empty or missing one) whose
# Chrome export converts cleanly.
SPANS=$(target/release/fig5_adcurves --json 8)
target/release/xr32-trace spans - <<<"$SPANS" >/dev/null
target/release/xr32-trace chrome - <<<"$SPANS" | grep -q '"traceEvents"'
echo "ci: span smoke ok (fig5_adcurves emits a populated span tree)"

# Perf smoke: a small exploration must finish within a generous wall
# budget, and a warm re-run against the same kernel-cycle cache must
# actually hit it (memo_hit_rate > 0).
start=$SECONDS
WSP_KCACHE="$DET/perf.kcache" target/release/sec43_exploration --json 128 2 >/dev/null
elapsed=$((SECONDS - start))
if ((elapsed > 300)); then
  echo "ci: cold sec43_exploration took ${elapsed}s (budget 300s)" >&2
  exit 1
fi
WARM=$(WSP_KCACHE="$DET/perf.kcache" target/release/sec43_exploration --json 128 2)
hit_rate=$(grep -o '"memo_hit_rate": *[0-9.eE+-]*' <<<"$WARM" | head -1 | sed 's/.*: *//')
if [[ -z "$hit_rate" ]] || ! awk -v h="$hit_rate" 'BEGIN { exit !(h > 0) }'; then
  echo "ci: warm sec43_exploration memo_hit_rate '$hit_rate' not > 0" >&2
  exit 1
fi
echo "ci: perf smoke ok (cold ${elapsed}s, warm memo_hit_rate $hit_rate)"

# Registry gate: the kernel registry's invariants must hold (unique
# cache tags, stimulus space per kernel, annotated entry labels), and
# every assembly library it enumerates must pass xr32-lint — so a
# kernel cannot be registered without being characterizable and linted.
cargo build --release -q --package kreg --package xlint
KREG=$(mktemp -d /tmp/ci_kreg.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET" "$KREG"' EXIT
target/release/kreg-audit --dump "$KREG" >"$KREG/units.txt"
# shellcheck disable=SC2046
target/release/xr32-lint $(cat "$KREG/units.txt")
echo "ci: kernel registry audit + lint gate ok ($(wc -l <"$KREG/units.txt") units)"

# Variant-generation gate: every accelerator level of every
# Generated-variant kernel must produce an xopt variant that passes the
# lint + golden admission gate and measures within 5% of (or better
# than) the hand-written variant. Non-zero exit on any rejection or
# slowdown. Run at two sizes: one where the blocked loop covers the
# whole operand, and one that exercises the scalar tail.
target/release/xopt_gate 32
target/release/xopt_gate 37
echo "ci: xopt variant-generation gate ok"

# Deprecation and visibility gate: nothing in the workspace (bins,
# benches, tests, examples) may introduce or use deprecated items — the
# legacy flow shims are gone and must stay gone — and no item may be
# `pub` where no other crate can reach it.
RUSTFLAGS="-D deprecated -D unreachable_pub" cargo check -q --workspace --all-targets
echo "ci: deprecation and visibility gate ok (no deprecated items, no unreachable pub)"

# Serving-layer gate: a job run through the xserve daemon must produce
# a byte-identical normalized report to the same JobSpec run directly
# in-process, cancellation must surface the stable 4004 code (and count
# in the scheduler stats), and concurrent clients hammering the cached
# kernel-cycle query path must all observe the same values.
cargo build --release -q --package xserve
target/release/xserve-gate
echo "ci: serving-layer gate ok (daemon == direct, cancellation typed, queries coherent)"

# Fault-smoke gate: a fixed-seed injection campaign must (a) satisfy its
# own detection/recovery contract (non-zero exit otherwise), and (b)
# produce byte-identical reports at 1 and 8 worker threads — fault
# streams are keyed by unit submission index, never by scheduling.
FAULT=$(mktemp -d /tmp/ci_fault.XXXXXX)
trap 'rm -f "$TRACE"; rm -rf "$DET" "$KREG" "$FAULT"' EXIT
WSP_THREADS=1 target/release/xr32-fault --json 4 2000 16 \
  | target/release/xr32-trace normalize-report - >"$FAULT/t1.json"
WSP_THREADS=8 target/release/xr32-fault --json 4 2000 16 \
  | target/release/xr32-trace normalize-report - >"$FAULT/t8.json"
if ! diff -u "$FAULT/t1.json" "$FAULT/t8.json"; then
  echo "ci: xr32-fault campaign differs between WSP_THREADS=1 and 8" >&2
  exit 1
fi
target/release/xr32-trace check-report - <"$FAULT/t1.json"
# Resilient flow: fig8 under an aggressive data-memory campaign must
# still complete and must report what it degraded.
DEGRADED=$(WSP_FAULTS="seed=5,rate=300000,sites=data" WSP_THREADS=4 \
  target/release/fig8_ssl --json 256)
target/release/xr32-trace check-report - <<<"$DEGRADED"
if ! grep -q '"degradations"' <<<"$DEGRADED"; then
  echo "ci: faulted fig8_ssl run reported no degradations" >&2
  exit 1
fi
echo "ci: fault smoke ok (campaign deterministic, fig8 degrades gracefully)"

# Dual-fidelity gates. Co-sim smoke: the pre-decoded fast path must be
# architecturally bit-identical to the cycle-accurate pipeline across
# the full kreg golden-verification workload. Speedup smoke: it must
# also beat the cycle-accurate engine by at least 3x wall clock, so a
# regression that silently de-optimizes the fast path (or routes it
# back through the pipeline) fails CI.
target/release/fastpath_gate 3
echo "ci: dual-fidelity gates ok (co-sim bit-identical, fast path >= 3x)"

# Core-model gate: the scoreboarded out-of-order pipeline must be
# ArchState-bit-identical to the in-order pipeline and the fast path
# across the full kreg golden workload, must win the aggregate cycle
# count, and its IPC must sit in the sanity window (above in-order, at
# most the issue width). A timing bug that leaks architectural state,
# loses the out-of-order win, or over-issues fails CI.
target/release/xooo_gate
echo "ci: core-model gate ok (three-engine co-sim bit-identical, OoO wins)"

# Benchmark gate: the wsp-bench package's own tests, then a one-second
# run of every workload. A run checks its results against the digests
# pinned in wspbench/expected.json, which fold in every engine's cycle
# counts, every phase-2 estimate and the values the daemon serves, and
# exits non-zero on any mismatch — so a change to a single simulated
# cycle, estimated bit or served value fails CI.
cargo test -q --manifest-path wspbench/Cargo.toml
for workload in explore-cold explore-warm iss-fast iss-inorder iss-ooo serve-mixed; do
  cargo run --release --offline -q --manifest-path wspbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -1
done
# The traced path drives the job phase by phase: its phase spans must
# cover at least 95% of each traced job, and its results must equal
# the untraced job's.
for workload in explore-cold explore-warm; do
  cargo run --release --offline -q --manifest-path wspbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -1
done
echo "ci: benchmark gate ok (wsp-bench tests; all six workloads match expected.json, traced explore runs reconcile)"

# Bench-envelope regression gate: a freshly collected envelope (every
# bench binary's report, schema-validated and normalized by
# bench_report.sh) must match the committed BENCH_BASELINE.json
# exactly. Any changed, missing or added `results.*` leaf or report
# fails, whichever way it moved; a change that legitimately moves a
# simulated number regenerates the baseline.
FRESH=$(mktemp /tmp/ci_bench.XXXXXX.json)
trap 'rm -f "$TRACE" "$FRESH"; rm -rf "$DET" "$KREG" "$FAULT"' EXIT
scripts/bench_report.sh "$FRESH"
target/release/bench_diff BENCH_BASELINE.json "$FRESH"
echo "ci: bench envelope gate ok (fresh run matches BENCH_BASELINE.json exactly)"
