#!/usr/bin/env bash
# Regenerate every registry entry (`repro list`) at the default (quick) scale
# in one `repro all` process, so entries that share simulations run them once
# (`fig12_70`, `fig17` and `fig18` share five coflow runs). The tables go to
# results/all.txt, the JSON tables under results/json/.
# Arguments go to `repro all`: --full (paper-scale parameters), --jobs N
# (sweep workers; default all cores, or PRIOPLUS_JOBS).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p experiments
mkdir -p results
REPRO_JSON_DIR=results/json target/release/repro all "$@" | tee results/all.txt
