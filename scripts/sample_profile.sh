#!/usr/bin/env bash
# Where does one `ppbench rep` spend its time? A sampling profile for a box
# that has no `perf`: builds scripts/sigprof.c into target/ci/sigprof.so, runs
# one rep of WORKLOAD under LD_PRELOAD (seed 1, tracing off) and prints
# samples per function, symbolised against `nm -S -C` of the binary.
#
# Why a ticker thread and not setitimer(ITIMER_PROF): that timer ticks at the
# kernel's CONFIG_HZ, which yields only ~300 samples/s on this kernel — a few
# hundred per rep. The shim's 100 µs nanosleep loop gives 5–10 k.
#
# Reading the table: a sample belongs to the function whose *symbol* holds
# the PC, so everything inlined into `State::advance` reads as `advance` —
# over 40 % of a rep since the queue's serve path and the handlers' fast
# halves all compile into it. `--inlined` splits such rows: each sample is
# resolved through the debug info's inline records (`addr2line -i`) and filed
# under its outermost two frames that are this repository's code, so it reads
# `advance > serve`, `advance > on_arrive`, `push_entry > lane_for`; a
# frame from the standard library counts for the repository frame that
# called it. `--innermost` resolves the same way but files each sample under
# its innermost repository frame alone, so leaves inlined deep into one
# handler get rows of their own: `RoutingTable::candidates`, `port_for` and
# `mix` instead of one `advance > on_arrive`. (To go further, feed the PCs —
# decimal, one per line in target/ci/sigprof.WORKLOAD.pcs — to
# `addr2line -i -f -C -e BINARY`.)
# Samples in libc/libm/the vDSO read `[outside the binary]`. Not a CI leg:
# the table is for choosing what to measure next with alternating `ppbench`
# pairs, not evidence by itself.
#
# Usage: scripts/sample_profile.sh [--inlined | --innermost] WORKLOAD [BINARY]
#   WORKLOAD  incast_pp | fattree_flowsched | coflow_lossy | hyperscale_openloop
#   BINARY    a ppbench executable (default: ppbench/target/release/ppbench,
#             built first)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=symbol
if [[ ${1:-} == --inlined || ${1:-} == --innermost ]]; then
  MODE=${1#--}
  shift
fi
WORKLOAD=${1:?usage: scripts/sample_profile.sh [--inlined | --innermost] WORKLOAD [BINARY]}
BIN=${2:-}
if [[ -z $BIN ]]; then
  cargo build --release --offline --quiet --manifest-path ppbench/Cargo.toml
  BIN=ppbench/target/release/ppbench
fi
mkdir -p target/ci
SO=target/ci/sigprof.so
PCS=target/ci/sigprof.$WORKLOAD.pcs
gcc -O2 -shared -fPIC -o "$SO" scripts/sigprof.c -lpthread

SIGPROF_OUT=$PCS LD_PRELOAD=$PWD/$SO \
  "$BIN" rep --workload "$WORKLOAD" --seed 1 --div 1 --trace 0 > /dev/null

if [[ $MODE != symbol ]]; then
  # `-a` heads each sample's frames with its address; frames come innermost
  # first, one `function` line and one `file:line` line each. The standard
  # library's are the ones whose file is under /rustc/; `??` is no debug info.
  awk '{ printf "0x%x\n", $1 }' "$PCS" | addr2line -a -i -f -C -e "$BIN" |
    awk -v mode="$MODE" \
        'function file() { if (seen) count[!n ? "[outside the binary]" : mode == "innermost" || n == 1 ? fr[0] : fr[n-1] " > " fr[n-2]]++ }
         /^0x[0-9a-f]+$/ { file(); seen = 1; n = 0; total++; next }
         { fn = $0; getline loc; if (loc !~ /^\/rustc\// && loc !~ /^\?\?/) fr[n++] = fn }
         END { file()
               for (f in count) printf "%7d %5.1f %%  %s\n", count[f], 100 * count[f] / total, f
               printf "%7d samples\n", total > "/dev/stderr" }' |
    sort -k1,1nr | head -60
  exit
fi

# Symbols (`addr S size name`) and samples (`addr P`) sorted into one stream
# by address, symbols first at a tie: each sample then follows the last
# symbol that starts at or before it.
{
  nm -S -C -t d --defined-only "$BIN" | awk '$3 ~ /^[tTwW]$/ { a = $1; s = $2; $1 = $2 = $3 = ""; print a + 0, "S", s + 0, $0 }'
  awk '{ print $1, "P" }' "$PCS"
} | sort -k1,1n -k2,2r |
  awk '$2 == "S" { start = $1; end = $1 + $3; $1 = $2 = $3 = ""; sub(/^ +/, ""); name = $0; next }
       { total++; count[$1 < end ? name : "[outside the binary]"]++ }
       END { for (f in count) printf "%7d %5.1f %%  %s\n", count[f], 100 * count[f] / total, f
             printf "%7d samples\n", total > "/dev/stderr" }' |
  sort -k1,1nr | head -40
