#!/usr/bin/env bash
# Full CI gauntlet: four legs, five test invocations.
#
#   1. lint: simlint (R4, R7, R8 and the layering pass R9) must report
#      zero unallowed findings and no stale allowance — the JSON report
#      lands in target/simlint.json as a CI artifact — then clippy with
#      -D warnings, which carries R1, R2, R5, R6, R10 and R11 (clippy.toml
#      and the lint tables; a toolchain without clippy fails the leg), then
#      scripts/check_lint_fixtures.sh, which proves each of those rules
#      still fires on its bad fixture, then rustdoc with -D warnings, so a
#      deleted item cannot leave a dangling doc link behind; then the
#      non-test line count per crate (scripts/loc.sh) into
#      target/ci/loc.txt, an artefact, not a gate;
#   2. tier-1: release build, the disassembly guard on the event loop's
#      callee list (scripts/check_hot_calls.sh; skipped with a warning if
#      there is no objdump), then the full test suite — property fleets
#      against a model, golden-trace diffs;
#   3. audited: the whole experiments suite rerun with the invariant audit
#      force-enabled on every Sim and panicking on any violation; then the
#      arena, audit and fault suites with the deep scan forced to every
#      event boundary; then the hyperscale suite (thousands of streamed
#      flows, slab reclamation sweep) at a deep-scan cadence of 256;
#   4. ppbench: the benchmark package's own tests (it is outside the
#      workspace, so leg 2 does not reach them) — BENCHMARK.json drift
#      guard, `--check` smoke run, composition-vs-experiments differential —
#      then two seconds of every workload with its output checks on, so a
#      change that breaks a workload invariant or run-to-run determinism
#      fails here and not in the next benchmark run.
#
# Each leg prints its wall time; the last line is a table of all of them,
# and target/ci/legs.json records the same numbers.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p target/ci
LEG_TABLE=""
LEG_JSON=""
leg() {
  LEG_NAME=$2
  LEG_START=$SECONDS
  echo
  echo "=== [$1/4] $2: $3 ==="
}
leg_done() {
  local t=$(( SECONDS - LEG_START ))
  echo "--- leg wall time: ${t}s ---"
  LEG_TABLE+="${LEG_NAME} ${t}s | "
  LEG_JSON+="${LEG_JSON:+, }{\"name\": \"${LEG_NAME}\", \"seconds\": ${t}}"
}

leg 1 lint "simlint + clippy + lint fixtures + rustdoc (-D warnings)"
cargo run --release -q -p simlint -- --json target/simlint.json
echo "ci.sh: JSON report written to target/simlint.json"
cargo clippy --workspace --all-targets -- -D warnings
scripts/check_lint_fixtures.sh
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
scripts/loc.sh > target/ci/loc.txt
echo "ci.sh: non-test lines: $(tail -1 target/ci/loc.txt | awk '{print $1}') in total (target/ci/loc.txt)"
leg_done

leg 2 tier-1 "release build + tests"
cargo build --release
scripts/check_hot_calls.sh
cargo test -q
leg_done

leg 3 audited "experiments suite under the invariant audit (violations are fatal)"
export PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1
cargo test -q --release -p experiments
echo "--- deep scan at every event boundary: arena, audit, faults ---"
PRIOPLUS_AUDIT_DEEP=1 cargo test -q --release -p experiments \
  --test e2e_arena --test e2e_audit --test e2e_faults
echo "--- hyperscale (k=8 open-loop), deep scan every 256 events ---"
# 256, not 1: the deep scan's flow sweep is O(flows) and the suite streams
# thousands of flows over millions of events, so an every-event sweep takes
# >10 min. 256 still sweeps the slab thousands of times per run.
PRIOPLUS_AUDIT_DEEP=256 cargo test -q --release -p experiments --test e2e_hyperscale
unset PRIOPLUS_AUDIT PRIOPLUS_AUDIT_PANIC
leg_done

leg 4 ppbench "benchmark package tests (drift guard, smoke, composition)"
# One test at a time: the smoke suite's traced `--check` reps take ~10 ms
# and must account for 99 % of that in spans, so the ~40 µs a child spends
# before its root span opens has 100 µs to grow into — which it does when
# seven tests spawn children at once (2 failures in 15 runs since PR 23 made
# the reps a quarter shorter; none in 15 runs one at a time).
cargo test --offline --manifest-path ppbench/Cargo.toml -- --test-threads=1
# `run` exits 0 whatever it measured: the verdict is in the contract lines,
# one JSON object per workload (four) at the end of its output.
cargo run --release --offline --quiet --manifest-path ppbench/Cargo.toml --bin ppbench -- \
  run --check --seconds 2 --trace 0 --out target/ci/ppbench_check.json | tee target/ci/ppbench_check.log
if [[ $(grep -c '^{"correct":true,.*"failed":0,' target/ci/ppbench_check.log) -ne 4 ]]; then
  echo "ci.sh: ppbench --check: a workload failed its output checks" >&2
  exit 1
fi
leg_done

echo
echo "ci.sh: all gates passed"
echo "ci.sh: leg times: ${LEG_TABLE}total ${SECONDS}s"
echo "{\"legs\": [${LEG_JSON}], \"total_seconds\": ${SECONDS}}" > target/ci/legs.json
