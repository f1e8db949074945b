#!/usr/bin/env bash
# Regenerate every artifact EXPERIMENTS.md records:
#   test_output.txt     — full workspace test run
#   bench_output.txt    — the `substrate` Criterion bench (building blocks)
#   repro_output.txt    — every paper table/figure from the timing models
# (Rates and latencies with a stated noise are `bash benchmark/run.sh run`.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --workspace 2>&1 | tee test_output.txt
cargo build --release -p bench
./target/release/repro all | tee repro_output.txt
cargo bench -p bench --bench substrate 2>&1 | tee bench_output.txt
