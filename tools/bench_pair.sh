#!/usr/bin/env bash
# Alternating base/change benchmark pairs, recorded in the ledger.
#
#   tools/bench_pair.sh BASE [--workload W]... [--pairs N] [--trace 0|1] [--seed N]
#   tools/bench_pair.sh --control [--workload W]... [--pairs N] [--trace 0|1] [--seed N]
#
# Extracts BASE and HEAD into two trees of their own (`git archive`;
# HEAD is the working tree: committed, changed and new files, not the
# ignored ones) and runs `bash benchmark/run.sh --out` in each, N pairs
# (default 6), alternating which side goes first: pair 1 runs BASE then
# HEAD, pair 2 HEAD then BASE, and so on. Each tree builds into its own
# benchmark/target on its first run; trees are kept under
# ${TMPDIR:-/tmp}/sidr-bench-pair/<tree hash>, so a second invocation
# over the same source skips the build.
#
# Every run appends one JSON object per workload to BENCH_history.json
# at the repo root (one object per line): commit (the measured tree,
# "worktree" for uncommitted changes), parent (its parent commit),
# side, pair, workload, seed, trace, cores, seconds, correct, attempted,
# failed, jobs, steal_ticks (the host's CPU steal over the run: the
# `steal` field of /proc/stat's `cpu` line, read before and after; null
# where there is none) and every metric by name. `sidr-benchmark
# compare` runs on each untraced pair; the end prints, per workload and
# metric (end-to-end, or per-layer with --trace 1), both sides' median
# [q1, q3] and how many pairs HEAD won, then each side's median steal.
#
# With --control there is no BASE: HEAD's source is extracted into two
# separate trees, each built on its own, and the same alternating
# protocol runs between them (the base side is labelled
# "control:<HEAD>"). Whatever spread an A/A run shows is noise of the
# host and the build, not of the code; quote it beside an A/B claim.
#
# Exits nonzero when a run fails (a job failed or an output was wrong)
# or when any pair's compare finds a cell outside its bound — a claimed
# gain larger than the bound disagrees too.
set -euo pipefail

usage() {
    echo "usage: tools/bench_pair.sh BASE|--control [--workload W]... [--pairs N] [--trace 0|1] [--seed N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
control=0
[ "$base_rev" = --control ] && control=1
workloads=()
pairs=6
trace=0
seed=1
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workloads+=("$2") ;;
        --pairs) pairs=$2 ;;
        --trace) trace=$2 ;;
        --seed) seed=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $trace =~ ^[01]$ ]] || usage
[[ $seed =~ ^[0-9]+$ ]] || usage
command -v jq >/dev/null || { echo "bench_pair.sh needs jq" >&2; exit 2; }

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
cd "$repo"
ledger=$repo/BENCH_history.json

short() { git rev-parse --short "$1"; }
parent_of() { git rev-parse --short "$1^" 2>/dev/null || echo ""; }

if [ "$control" -eq 0 ]; then
    base=$(git rev-parse --verify "$base_rev^{commit}")
    base_label=$(short "$base")
    base_parent=$(parent_of "$base")
fi
# HEAD's side is the working tree — changed and new files, minus the
# ledger this script appends to — written as a tree object through a
# scratch index: no ref, index or file of the checkout changes, and
# the tree (so its build) stays the same from one invocation to the
# next.
index=$(mktemp)
trap 'rm -f "$index"' EXIT
GIT_INDEX_FILE=$index git read-tree HEAD
GIT_INDEX_FILE=$index git add -A -- . ':!BENCH_history.json'
head=$(GIT_INDEX_FILE=$index git write-tree)
if [ "$head" = "$(git rev-parse 'HEAD^{tree}')" ]; then
    head_label=$(short HEAD)
    head_parent=$(parent_of HEAD)
else
    head_label=worktree
    head_parent=$(short HEAD)
fi

trees=${TMPDIR:-/tmp}/sidr-bench-pair
# tree_for REV [SUFFIX]: REV's tree extracted (once) into its own
# directory; SUFFIX names a second copy of the same tree.
tree_for() {
    local dir
    dir=$trees/$(git rev-parse "$1^{tree}")${2:-}
    if [ ! -d "$dir" ]; then
        mkdir -p "$dir.partial"
        git archive "$1" | tar -x -C "$dir.partial"
        mv "$dir.partial" "$dir"
    fi
    echo "$dir"
}
if [ "$control" -eq 1 ]; then
    base_label=control:$head_label
    base_parent=$head_parent
    base_dir=$(tree_for "$head" -control)
else
    base_dir=$(tree_for "$base")
fi
head_dir=$(tree_for "$head")

out=$(mktemp -d "${TMPDIR:-/tmp}/sidr-bench-pair-runs.XXXXXX")
echo "bench_pair.sh: $base_label ($base_dir) vs $head_label ($head_dir); runs in $out" >&2

# "all" is one run.sh invocation over every workload.
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(all)
fi
failed=0
disagreed=0

# steal_now: the host's cumulative CPU steal in ticks, or nothing
# where /proc/stat has no such field.
steal_now() {
    awk '$1 == "cpu" { print $9; exit }' /proc/stat 2>/dev/null || true
}

# run SIDE PAIR: one benchmark run of every selected workload on SIDE.
run() {
    local side=$1 pair=$2 dir label parent w file steal0 steal1 steal
    if [ "$side" = base ]; then
        dir=$base_dir label=$base_label parent=$base_parent
    else
        dir=$head_dir label=$head_label parent=$head_parent
    fi
    for w in "${workloads[@]}"; do
        local run_args=(--trace "$trace" --seed "$seed")
        if [ "$w" != all ]; then
            run_args+=(--workload "$w")
        fi
        file=$out/pair$pair-$w-$side.json
        echo "== pair $pair · $side ($label) · $w" >&2
        local correct=true
        steal0=$(steal_now)
        if ! (cd "$dir" && bash benchmark/run.sh "${run_args[@]}" --out "$file" >"$file.log" 2>&1); then
            echo "   run failed; see $file.log" >&2
            failed=1
            correct=false
        fi
        steal1=$(steal_now)
        steal=null
        if [[ $steal0 =~ ^[0-9]+$ && $steal1 =~ ^[0-9]+$ ]]; then
            steal=$((steal1 - steal0))
        fi
        [ -s "$file" ] || continue
        jq -c --arg commit "$label" --arg parent "$parent" --arg side "$side" \
            --argjson pair "$pair" --argjson correct "$correct" --argjson steal "$steal" '
            .record as $r | .workloads[] | {
                commit: $commit, parent: $parent, side: $side, pair: $pair,
                workload: .name, seed: $r.seed, trace: (if $r.trace then 1 else 0 end),
                cores: $r.nproc, seconds: $r.seconds,
                correct: $correct, attempted: .attempted, failed: .failed, jobs: .jobs,
                steal_ticks: $steal,
                metrics: (.metrics | map({key: .name, value: .value}) | from_entries),
                source: "bench_pair.sh"
            }' "$file" | tee -a "$out/lines.jsonl" >>"$ledger"
    done
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$pair"
        run head "$pair"
    else
        run head "$pair"
        run base "$pair"
    fi
    # A traced run reports the per-layer metrics only; compare reads
    # the end-to-end ones.
    [ "$trace" -eq 0 ] || continue
    for w in "${workloads[@]}"; do
        a=$out/pair$pair-$w-base.json b=$out/pair$pair-$w-head.json
        [ -s "$a" ] && [ -s "$b" ] || continue
        echo "== pair $pair · $w · compare base → head" >&2
        "$head_dir/benchmark/target/release/sidr-benchmark" compare "$a" "$b" >&2 || disagreed=1
    done
done

# Per workload × metric (end-to-end, or per-layer when traced): median
# [q1, q3] per side, HEAD's wins out of the pairs both sides reported.
metrics=$(jq -c "if $trace == 1 then .per_layer else .end_to_end end" BENCHMARK.json)
jq -rs --argjson metrics "$metrics" '
    def q(p): sort | (p * (length - 1)) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
        | .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo);
    def r: . * 1000 | round / 1000;
    def cell: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)]";
    def pad(n): tostring | . + (" " * ([n - length, 1] | max));
    group_by(.workload)[] as $rows | $metrics[] as $m
    | [$rows[] | select(.side == "base")] as $b
    | [$rows[] | select(.side == "head")] as $h
    | [$b[] as $x | $h[] | select(.pair == $x.pair)
        | [$x.metrics[$m.name], .metrics[$m.name]] | select(all(. != null))] as $paired
    | select($paired != [])
    | ($paired | map(select(if $m.better == "lower" then .[1] < .[0] else .[1] > .[0] end))
        | length) as $wins
    | ($rows[0].workload | pad(16)) + ($m.name | pad(22))
      + ("base \($paired | map(.[0]) | cell)" | pad(36))
      + ("head \($paired | map(.[1]) | cell)" | pad(36))
      + "head better \($wins)/\($paired | length)"
' "$out/lines.jsonl"
# Each side's median host steal per workload: a pair that differs by
# more than its bound may be steal alone.
jq -rs '
    def median: sort | .[(length - 1) / 2 | floor] as $lo | .[length / 2 | floor] as $hi
        | ($lo + $hi) / 2;
    def side(s): [.[] | select(.side == s) | .steal_ticks | numbers]
        | if . == [] then "-" else median end;
    group_by(.workload)[]
    | "\(.[0].workload)  steal_ticks median: base \(side("base")), head \(side("head"))"
' "$out/lines.jsonl"

[ "$failed" -eq 0 ] && [ "$disagreed" -eq 0 ]
