#!/usr/bin/env bash
# Guard the event loop's callee list — no stopwatch.
#
# `State::advance` (crates/netsim/src/sim.rs) dispatches every event to
# the handlers, which are `impl State` blocks in crates/netsim/src/fabric.rs
# (link layer, switch path, fault transitions) and
# crates/netsim/src/host.rs (host NIC and flow path). rustc files an
# inherent method under its `Self` type's module, so they are compiled in
# one codegen unit with `advance` and inlined into it whichever file holds
# their source. It serves every event through the queue's serve path:
# `EventQueue::{pop, pop_before}` and what they are made of — the one
# serve step `serve`, `settle_head`, `scan_head` (finding the next head)
# and `Lane::pop` (an event out of a FIFO lane).
# (`head` stays listed: it named the remembered head's accessor, which is
# now a field read.) Compiled as
# calls instead of into the loop they cost 8–13 % of wall time on every
# workload, and nothing but the disassembly shows it: output, goldens and
# event counts are identical (EXPERIMENTS.md § "Two per-event costs that
# are not simulation"). The same goes for the per-event hooks of the run's
# observers (`Observers::{on_event, on_flow_touched, on_data_delivered,
# on_flow_done, on_switch_arrive, on_link_drop, completions_pending,
# on_event_end}` in crates/netsim/src/observe.rs, plus `on_data_injected`
# and `on_pfc_frame`, reached through `host_poke` (host.rs) and
# `emit_pfc` (fabric.rs)): each is one `Option` branch per member, and must
# stay that branch inside the loop rather than become a call that makes
# it.
#
# This disassembles the release `repro` binary, writes the direct call
# targets of `State::advance` (counted, hashes stripped) to
# target/ci/advance_calls.txt, and fails if one of those is among them.
# A deny-list, not an allow-list: a new callee is not an error, a hot leaf
# that fell out of the loop is. Not on it, on purpose: the heap's
# out-of-line side, `pop_backend` / `retire_cancelled_head` — a hundredth
# of the events.
#
# Usage: scripts/check_hot_calls.sh [BINARY]     (default target/release/repro)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${1:-target/release/repro}
OUT=target/ci/advance_calls.txt
DENY='(EventQueue<.*>::(pop|pop_before|serve|head|scan_head|settle_head)|Lane<.*>::pop)$'
DENY+='|Observers::(on_event|on_flow_touched|on_data_injected|on_data_delivered|on_flow_done|on_pfc_frame|on_link_drop|on_switch_arrive|completions_pending|on_event_end)$'

if ! command -v objdump >/dev/null 2>&1 || ! command -v readelf >/dev/null 2>&1; then
  echo "check_hot_calls.sh: WARNING: objdump/readelf not installed, skipping" >&2
  exit 0
fi
if [[ ! -f $BIN ]]; then
  echo "check_hot_calls.sh: $BIN not found (cargo build --release)" >&2
  exit 2
fi

mkdir -p "$(dirname "$OUT")"
# A call to a function another crate also instantiates goes through a
# relocated slot (`call *0x..(%rip)  # SLOT <_DYNAMIC+..>`), which objdump
# cannot name: read the slots' targets from the relocations (`readelf -r`)
# and the targets' names from `nm`, or the guard is blind to those callees.
# (Still unnamed: a slot hoisted into a register, `call *%rbp` — in practice
# the backend's out-of-line side, which is not on the deny-list.)
if ! {
  readelf -rW "$BIN" | awk '$3 == "R_X86_64_RELATIVE" { print "R", $1, $4 }'
  nm -C --defined-only "$BIN" | awk '{ a = $1; $1 = $2 = ""; sub(/^ +/, ""); print "N", a, $0 }'
  objdump -d -C --no-show-raw-insn "$BIN"
} | awk '$1 == "R" { sub(/^0+/, "", $2); sub(/^0+/, "", $3); slot[$2] = $3; next }
         $1 == "N" { a = $2; sub(/^0+/, "", a); $1 = $2 = ""; sub(/^ +/, ""); name[a] = $0; next }
         /^[0-9a-f]+ <.*State>::advance(::h[0-9a-f]+)?>:$/ { inside = found = 1; next }
         /^[0-9a-f]+ </ { inside = 0 }
         inside && $2 == "call" && $3 ~ /^\*/ && $5 in slot { print "call 0 <" name[slot[$5]] ">"; next }
         inside && $2 == "call"
         END { exit !found }' |
  sed -nE 's/^.*call\s+[0-9a-f]+ <(.*)>$/\1/p' | sed -E 's/::h[0-9a-f]{16}//g' |
  sort | uniq -c | sort -k1,1nr -k2 > "$OUT"; then
  echo "check_hot_calls.sh: no State::advance in $BIN — renamed? update this script" >&2
  exit 2
fi

if grep -E "$DENY" "$OUT" >&2; then
  echo "check_hot_calls.sh: FAIL: State::advance calls the queue's serve path or an observer" >&2
  echo "  hook instead of containing it; restore #[inline] on the functions above" >&2
  echo "  (crates/simcore/src/event.rs, crates/netsim/src/observe.rs)" >&2
  exit 1
fi
echo "check_hot_calls.sh: ok: $(wc -l < "$OUT") direct callees of State::advance, none on the serve path or an observer hook ($OUT)"
