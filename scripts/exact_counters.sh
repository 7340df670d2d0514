#!/usr/bin/env bash
# Re-runs the benchmark's four traced passes and compares their exact
# values (simulated counts and times, selections, transfers, allocations
# per step or request) with the latest committed traced row of each
# workload in BENCH_e2e.jsonl.
#
# Fails only when `bench_e2e compare` prints an EXACT VALUE DIFFERS line,
# or when it printed no exact values for a workload at all. Wall-clock
# numbers and the `correct` bit (which reads a timing ratio) depend on the
# machine: they are logged, never gated, and `--force` lets the compare
# read rows recorded on another machine.
#
#   scripts/exact_counters.sh                  # default thread count
#   SPEC_THREADS=1 scripts/exact_counters.sh   # every join inline
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml
bench=bench_e2e/target/release/bench_e2e
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

workloads="reason_2k_16k prompt_32k_2k sim_open sim_chaos"
for w in $workloads; do
    row=$(grep -F "{\"workload\":\"$w\",\"trace\":true," BENCH_e2e.jsonl | tail -n 1)
    if [ -z "$row" ]; then
        echo "BENCH_e2e.jsonl holds no traced row of $w" >&2
        exit 1
    fi
    printf '%s\n' "$row" >>"$work/committed.jsonl"
    "$bench" --workload "$w" --seed 1 --trace 1 --out "$work/traced.jsonl" >/dev/null
done

# The compare's own exit status judges wall clock and `correct`: ignored.
"$bench" compare --force "$work/committed.jsonl" "$work/traced.jsonl" | tee "$work/compare.txt" || true
for w in $workloads; do
    if ! grep -q "^per layer, $w " "$work/compare.txt"; then
        echo "the compare printed no exact values of $w" >&2
        exit 1
    fi
done
if grep -q "EXACT VALUE DIFFERS" "$work/compare.txt"; then
    echo "an exact value moved against the trajectory" >&2
    exit 1
fi
echo "every exact value matches the latest committed row of each workload"
