#!/usr/bin/env bash
# Regenerate every paper figure/table at the default (quick) scale.
# Outputs land in results/ (text) and results/json/ (machine-readable).
#
# Flags are passed through to every figure binary:
#   --full       paper-scale parameters
#   --jobs N     parallel sweep workers (default: all cores; also
#                settable via PRIOPLUS_JOBS). Output is byte-identical
#                to a serial run regardless of N.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results/json
export REPRO_JSON_DIR="$PWD/results/json"

cargo build --release -p experiments --bins

# Every binary of the experiments crate, sorted: a new figure is picked up
# by adding its file, not by remembering to list it here.
bins=()
for src in crates/experiments/src/bin/*.rs; do
  bins+=("$(basename "$src" .rs)")
done

for b in "${bins[@]}"; do
  echo "=== $b ==="
  ./target/release/"$b" "$@" | tee "results/$b.txt"
done
echo "All figures regenerated under results/."
