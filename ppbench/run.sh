#!/usr/bin/env bash
# Test and build ppbench, then a timed run and a traced run of all four
# workloads (25 s per workload and run; results in <build dir>/ppbench/).
# Usage: ppbench/run.sh [extra `ppbench run` flags, e.g. --seed 2]
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=ppbench/Cargo.toml
# The package is outside the repository workspace, so the repository's
# `cargo test` does not run its unit tests, smoke test and drift guard.
cargo test --offline --quiet --manifest-path "$manifest"
run=(cargo run --release --offline --quiet --manifest-path "$manifest" --bin ppbench -- run)

"${run[@]}" --trace 0 "$@"
"${run[@]}" --trace 1 "$@"
