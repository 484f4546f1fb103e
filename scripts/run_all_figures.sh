#!/usr/bin/env bash
# Regenerate every registry entry (`repro list`) at the default (quick) scale:
# one results/<slug>.txt per entry, the JSON tables under results/json/.
# Arguments go to every `repro run`: --full (paper-scale parameters),
# --jobs N (sweep workers; default all cores, or PRIOPLUS_JOBS).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p experiments
mkdir -p results
for slug in $(target/release/repro list); do
  REPRO_JSON_DIR=results/json target/release/repro run "$slug" "$@" | tee "results/$slug.txt"
done
