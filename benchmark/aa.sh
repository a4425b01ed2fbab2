#!/usr/bin/env bash
# Runs every workload once per seed, untraced, and appends the results to
# the given file: one set of the A/A comparison `run.sh --agree a b` makes.
#   bash benchmark/aa.sh a.jsonl 1 2 3 4 5 6 7 8 9 10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"
shift
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for seed in "$@"; do
	for w in planted-eval planted-setup tcp-loopback serve-openloop; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
	done
done
