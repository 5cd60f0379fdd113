#!/usr/bin/env bash
# Lint, build and run the benchmark: fmt and clippy on this package,
# the generated manifest against the checked-in one, the oracles alone,
# then the full run (all workloads, both passes). Arguments go to the
# full run, e.g. `benchmark/run.sh --seed 7 --seconds 10`.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --manifest-path "$manifest" -- -D warnings
cargo build --release --offline --manifest-path "$manifest"
run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

run --manifest | diff - BENCHMARK.json
run --check
run "$@"
