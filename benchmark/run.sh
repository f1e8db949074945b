#!/usr/bin/env bash
# Build pamibench from source and run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh run | noise | diff a.json b.json   (see README.md)
#
# Two builds share one target directory: the default product build
# (telemetry on) that every number comes from, and a telemetry-off build of
# the same binary that a traced run sets beside it for
# `bgq-upc.overhead_ns_per_op`.
# Build products go to $CARGO_TARGET_DIR, or to the repository's `target/`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

case "${CARGO_TARGET_DIR:-target}" in
    /*) target="${CARGO_TARGET_DIR}" ;;
    *) target="$root/${CARGO_TARGET_DIR:-target}" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's own output goes to stderr; stdout belongs to the benchmark.
build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "$@" >&2
}
build --no-default-features --target-dir "$target/telemetry-off"
build

export PAMIBENCH_OFF_BINARY="$target/telemetry-off/release/pamibench"
exec "$target/release/pamibench" "$@"
