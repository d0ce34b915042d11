#!/usr/bin/env bash
# The benchmark's one command:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#
# Builds the release sidr-serve / sidr-worker / sidr-benchmark binaries
# from source (offline; into $CARGO_TARGET_DIR, default benchmark/target),
# then runs the chosen workload — all five without --workload — checks
# every job's output against a brute-force reference and prints every
# metric by name with its unit. The last line of stdout is the result
# as one JSON object. Exits nonzero when the build fails, a job fails or
# an output is wrong.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
export CARGO_TARGET_DIR="$target"

# cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml \
    -p sidr-benchmark -p sidr-serve -p sidr-worker >&2

exec "$target/release/sidr-benchmark" run --out-dir "$root/benchmark/out" "$@"
