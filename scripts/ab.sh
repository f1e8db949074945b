#!/usr/bin/env bash
# A/B pairs of pamibench runs between two commits, both built at one path.
#
#   bash scripts/ab.sh <parent> <change> <workload|all> <pairs> [ledger-row ...]
#
# Code layout follows where a package is built (its path feeds cargo's
# metadata hash), so each commit is exported in turn with `git archive` into
# the same directory, target/ab/src, and both pamibench binaries are built
# there with benchmark/run.sh's flags (the product build and its
# --no-default-features twin). The binaries are copied out, then the two
# sides run alternately: pair i gives both sides one fresh seed, and the
# side that goes first flips every pair. Each run is BENCHMARK.json's
# run_seconds long, untraced (end-to-end metrics) and then traced
# (per-layer metrics), as `pamibench run` does.
#
# Output: each pair's `pamibench diff <parent> <change>`, then per workload
# and end-to-end metric the median and quartiles of each side, and the
# median's ratio. Each ledger row named after <pairs> (a `per_layer` name
# of BENCHMARK.json, e.g. pami-mpi.isend_ns) gets the same summary over the
# traced runs, per selected workload that runs that layer. Result files stay
# under target/ab/pairs/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
    echo "usage: bash scripts/ab.sh <parent> <change> <workload|all> <pairs> [ledger-row ...]" >&2
    echo "  workloads: $(echo "$workloads" | tr '\n' ' ')" >&2
    echo "  ledger rows: the per_layer names of BENCHMARK.json" >&2
    exit 2
}

# The contract's workloads, end-to-end metrics and ledger rows, in its order.
block_names() { sed -n "/\"$1\": \[/,/\]/p" BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4; }
workloads="$(block_names workloads)"
metrics="$(block_names end_to_end)"
ledger="$(block_names per_layer)"
seconds="$(grep -o '"run_seconds": [0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"

# Every argument is checked before anything is built.
[ $# -ge 4 ] || usage
parent="$1" change="$2" which="$3" pairs="$4"
shift 4
rows="$*"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
for row in $rows; do
    grep -qx -- "$row" <<<"$ledger" || usage
done
if [ "$which" = all ]; then
    selected="$workloads"
else
    grep -qx -- "$which" <<<"$workloads" || usage
    selected="$which"
fi
git rev-parse --quiet --verify "$parent^{commit}" >/dev/null || usage
git rev-parse --quiet --verify "$change^{commit}" >/dev/null || usage

ab="$root/target/ab"
src="$ab/src"
rm -rf "$ab/bin" "$ab/pairs" "$ab/run"
mkdir -p "$ab/pairs" "$ab/run/benchmark/out"
cp BENCHMARK.json "$ab/run/"

# Export `commit` to $src and build its two binaries into $ab/bin/<side>/.
# `tar -m` stamps every file with the extraction time, so cargo rebuilds
# every path crate instead of trusting the other commit's artifacts.
build_side() {
    local side="$1" commit="$2"
    echo "# building $side = $(git rev-parse --short "$commit") in $src" >&2
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$commit" | tar -x -m -C "$src"
    local target="$ab/target"
    (
        cd "$src"
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
            --no-default-features --target-dir "$target/telemetry-off" >&2
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
            --target-dir "$target" >&2
    )
    mkdir -p "$ab/bin/$side"
    cp "$target/release/pamibench" "$ab/bin/$side/pamibench"
    cp "$target/telemetry-off/release/pamibench" "$ab/bin/$side/pamibench-off"
}
build_side parent "$parent"
build_side change "$change"

# One run of `workload` on `side`: its result line with the diagnostics
# spliced in, the form a result file holds.
run_one() {
    local side="$1" workload="$2" seed="$3" trace="$4" out diag line
    out="$(cd "$ab/run" && PAMIBENCH_OFF_BINARY="$ab/bin/$side/pamibench-off" \
        "$ab/bin/$side/pamibench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace")"
    diag="$(sed -n 's/^# diagnostics: //p' <<<"$out")"
    [ -n "$diag" ] || diag="{}"
    line="$(grep -v '^#' <<<"$out" | grep . | tail -n 1)"
    echo "${line%\}}, \"diagnostics\": $diag}"
}

# One side's result file for one pair: every selected workload, both runs.
run_side() {
    local side="$1" seed="$2" file="$3" sep="" w e2e layer
    {
        printf '{"seed": %s, "seconds": %s, "workloads": {' "$seed" "$seconds"
        for w in $selected; do
            e2e="$(run_one "$side" "$w" "$seed" 0)"
            layer="$(run_one "$side" "$w" "$seed" 1)"
            printf '%s\n"%s": {"end_to_end": %s,\n  "per_layer": %s}' "$sep" "$w" "$e2e" "$layer"
            sep=","
        done
        printf '\n}}\n'
    } >"$file"
}

for ((pair = 1; pair <= pairs; pair++)); do
    seed=$(((RANDOM << 15) | RANDOM))
    order="parent change"
    ((pair % 2 == 0)) && order="change parent"
    echo "=== pair $pair of $pairs: seed $seed, $order"
    for side in $order; do
        run_side "$side" "$seed" "$ab/pairs/$pair-$side.json"
    done
    "$ab/bin/change/pamibench" diff "$ab/pairs/$pair-parent.json" "$ab/pairs/$pair-change.json" || true
done

# The value of `metric` in the end-to-end run of `workload` in `file`
# (`failed` is the run's count of failed operations): a result file holds
# each workload's end-to-end run on the line that names it.
value() {
    local file="$1" workload="$2" metric="$3"
    grep "^\"$workload\": " "$file" |
        if [ "$metric" = failed ]; then
            grep -o '"failed": [0-9]*' | head -n 1
        else
            grep -o "\"$metric\": {\"value\": [^,]*"
        fi | sed 's/.*: //'
}

# The value of ledger row `row` in the traced run of `workload` in `file`;
# nothing when that run does not report it. The traced run is the line after
# the one that names the workload.
layer_value() {
    local file="$1" workload="$2" row="$3"
    grep -A 1 "^\"$workload\": " "$file" | grep '^  "per_layer": ' |
        grep -o "\"${row//./\\.}\": {\"value\": [^,]*" | head -n 1 |
        sed -n 's/.*: \([-+0-9.eE]*\)$/\1/p' || true
}

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { if (NR == 0) { print "- - -"; exit } v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "=== $pairs pair(s): median [q1, q3] per side, ratio of medians (change / parent)"
printf '%-15s %-16s %36s %36s %8s\n' workload metric parent change ratio
for w in $selected; do
    for m in $metrics failed; do
        read -r pm pq1 pq3 < <(for f in "$ab"/pairs/*-parent.json; do value "$f" "$w" "$m"; done | quartiles)
        read -r cm cq1 cq3 < <(for f in "$ab"/pairs/*-change.json; do value "$f" "$w" "$m"; done | quartiles)
        ratio="$(awk -v a="$pm" -v b="$cm" 'BEGIN { if (a + 0 == 0) print "-"; else printf "%.3f", b / a }')"
        printf '%-15s %-16s %12s [%9s, %9s] %12s [%9s, %9s] %8s\n' \
            "$w" "$m" "$pm" "$pq1" "$pq3" "$cm" "$cq1" "$cq3" "$ratio"
    done
done

[ -n "$rows" ] || exit 0
echo "=== ledger rows over the traced runs: median [q1, q3] per side, ratio of medians"
printf '%-15s %-32s %30s %30s %8s\n' workload row parent change ratio
for row in $rows; do
    for w in $selected; do
        read -r pm pq1 pq3 < <(for f in "$ab"/pairs/*-parent.json; do layer_value "$f" "$w" "$row"; done | quartiles)
        read -r cm cq1 cq3 < <(for f in "$ab"/pairs/*-change.json; do layer_value "$f" "$w" "$row"; done | quartiles)
        # A workload that does not run the layer reads 0 or nothing on both sides.
        case "$pm$cm" in --|00) continue ;; esac
        ratio="$(awk -v a="$pm" -v b="$cm" 'BEGIN { if (a + 0 == 0) print "-"; else printf "%.3f", b / a }')"
        printf '%-15s %-32s %9s [%8s, %8s] %9s [%8s, %8s] %8s\n' \
            "$w" "$row" "$pm" "$pq1" "$pq3" "$cm" "$cq1" "$cq3" "$ratio"
    done
done
