#!/usr/bin/env bash
# Deleted paths stay deleted: no name listed in tools/deleted_paths.txt
# may reappear in the code or its docs, and results/ holds no per-layer
# BENCH_*.json besides the speculation ablation's.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
patterns=$(grep -vE '^[[:space:]]*(#|$)' tools/deleted_paths.txt | paste -sd'|')
if grep -rnE "$patterns" crates/ src/ tests/ examples/ README.md DESIGN.md EXPERIMENTS.md; then
    echo "ERROR: a deleted name is back (tools/deleted_paths.txt)" >&2
    fail=1
fi
if ls results/BENCH_*.json 2>/dev/null | grep -v BENCH_speculation.json; then
    echo "ERROR: results/ holds a per-layer BENCH_*.json again" >&2
    fail=1
fi
exit "$fail"
