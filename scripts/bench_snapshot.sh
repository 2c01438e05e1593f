#!/usr/bin/env bash
# Records a benchmark snapshot: runs the CPU fig8 benches plus the
# pool_dispatch microbenchmark at a fixed seed/scale and writes the JSON
# lines into BENCH_<n>.json at the repo root (the perf trajectory the
# ROADMAP tracks).
#
# Usage: scripts/bench_snapshot.sh [N]
#   N        snapshot number (default 3); output file BENCH_<N>.json
#
# Env:
#   UGC_BENCH_OUT      override the output path entirely (CI smoke runs
#                      point this at target/ so the tracked snapshot is
#                      untouched)
#   UGC_BENCH_SAMPLES  timed iterations per bench (default 7 here)
#   UGC_BENCH_WARMUP   warmup iterations per bench (default 2 here)
set -euo pipefail

cd "$(dirname "$0")/.."

N="${1:-3}"
OUT="${UGC_BENCH_OUT:-BENCH_${N}.json}"
export UGC_BENCH_SAMPLES="${UGC_BENCH_SAMPLES:-7}"
export UGC_BENCH_WARMUP="${UGC_BENCH_WARMUP:-2}"

TMP="$(mktemp)"
RAW="$(mktemp)"
trap 'rm -f "$TMP" "$RAW"' EXIT

# Runs one bench binary and appends its JSON lines to $TMP. Capturing to a
# file first (instead of piping into grep) makes the bench's own exit code
# the one that gates the script — a crashing bench can't hide behind a
# successful grep, and grep can't hand the bench a broken pipe mid-print.
run_bench() {
  local bench="$1"
  shift
  cargo bench --offline -q -p ugc-bench --bench "$bench" -- "$@" >"$RAW"
  grep '^{' "$RAW" >>"$TMP"
}

echo "== fig8 CPU cells (fixed generator seeds, tiny scale)" >&2
run_bench fig8_speedups cpu/

echo "== pool dispatch microbenchmark" >&2
run_bench pool_dispatch

echo "== guided vs blind autotuning (all targets, tiny scale)" >&2
run_bench guided_tuning

# Headline: across the guided_tuning suite, the cost-model-pruned
# + warm-started search must spend several times fewer measurements than
# the blind greedy search it replaced. Summed over the simulated targets
# only — their cycle counts are deterministic, so the ratio is exactly
# reproducible; the CPU cells (wall-clock, noisy greedy paths) stay in
# the bench lines but out of the headline.
meas_blind=$(awk -F'"measurements":' \
  '/"group":"guided_tuning\// && !/"group":"guided_tuning\/CPU\// && /"label":"blind"/ {split($2,a,","); s+=a[1]} END {print s+0}' "$TMP")
meas_guided=$(awk -F'"measurements":' \
  '/"group":"guided_tuning\// && !/"group":"guided_tuning\/CPU\// && /"label":"guided"/ {split($2,a,","); s+=a[1]} END {print s+0}' "$TMP")

# Assemble a single JSON document: metadata + the individual bench lines.
{
  printf '{\n'
  printf '  "snapshot": %s,\n' "$N"
  printf '  "host_threads": %s,\n' "$(nproc 2>/dev/null || echo 1)"
  printf '  "samples": %s,\n' "$UGC_BENCH_SAMPLES"
  printf '  "warmup": %s,\n' "$UGC_BENCH_WARMUP"
  if [ "${meas_guided:-0}" -gt 0 ]; then
    printf '  "guided_vs_blind": {"measurements_blind": %s, "measurements_guided": %s, "budget_ratio": %s, "simulated_targets_only": true},\n' \
      "$meas_blind" "$meas_guided" \
      "$(awk -v b="$meas_blind" -v g="$meas_guided" 'BEGIN{printf "%.2f", b / g}')"
  fi
  printf '  "benches": [\n'
  sed '$!s/$/,/; s/^/    /' "$TMP"
  printf '  ]\n'
  printf '}\n'
} >"$OUT"

if [ "${meas_guided:-0}" -gt 0 ]; then
  echo "guided vs blind tuning (sim targets): ${meas_guided} vs ${meas_blind} measurements" >&2
fi
echo "wrote $OUT ($(grep -c '"group"' "$OUT") bench entries)" >&2
