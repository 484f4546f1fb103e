#!/usr/bin/env bash
# Guard the event loop's callee list — no stopwatch.
#
# `State::advance` (crates/netsim/src/sim.rs) serves every event through
# the queue's serve path, `EventQueue::{batch_next, settle_head, pop_batch,
# pop_batch_before, take_batch}`. Compiled as calls instead of into the loop
# they cost 8–13 % of wall time on every workload, and nothing but the
# disassembly shows it: output, goldens and event counts are identical
# (EXPERIMENTS.md § "Two per-event costs that are not simulation").
#
# This disassembles the release `repro` binary, writes the direct call
# targets of `State::advance` (counted, hashes stripped) to
# target/ci/advance_calls.txt, and fails if one of the five is among them.
# A deny-list, not an allow-list: a new callee is not an error, a hot leaf
# that fell out of the loop is.
#
# Usage: scripts/check_hot_calls.sh [BINARY]     (default target/release/repro)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${1:-target/release/repro}
OUT=target/ci/advance_calls.txt
DENY='EventQueue<.*>::(batch_next|settle_head|pop_batch|pop_batch_before|take_batch)$'

if ! command -v objdump >/dev/null 2>&1; then
  echo "check_hot_calls.sh: WARNING: objdump not installed, skipping" >&2
  exit 0
fi
if [[ ! -f $BIN ]]; then
  echo "check_hot_calls.sh: $BIN not found (cargo build --release)" >&2
  exit 2
fi

mkdir -p "$(dirname "$OUT")"
if ! objdump -d -C --no-show-raw-insn "$BIN" |
  awk '/^[0-9a-f]+ <.*State>::advance(::h[0-9a-f]+)?>:$/ { inside = found = 1; next }
       /^[0-9a-f]+ </ { inside = 0 }
       inside && $2 == "call"
       END { exit !found }' |
  sed -nE 's/^.*\scall\s+[0-9a-f]+ <(.*)>$/\1/p' | sed -E 's/::h[0-9a-f]{16}//g' |
  sort | uniq -c | sort -k1,1nr -k2 > "$OUT"; then
  echo "check_hot_calls.sh: no State::advance in $BIN — renamed? update this script" >&2
  exit 2
fi

if grep -E "$DENY" "$OUT" >&2; then
  echo "check_hot_calls.sh: FAIL: State::advance calls the queue's serve path instead of" >&2
  echo "  containing it; restore #[inline] on the functions above (crates/simcore/src/event.rs)" >&2
  exit 1
fi
echo "check_hot_calls.sh: ok: $(wc -l < "$OUT") direct callees of State::advance, none on the serve path ($OUT)"
