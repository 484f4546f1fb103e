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
# called it, and a sample with no repository frame at all reads
# `[no repository frame]` and its innermost function. `--innermost`
# resolves the same way but files each sample under its innermost
# repository frame alone, so leaves inlined deep into one
# handler get rows of their own: `RoutingTable::candidates`, `port_for` and
# `mix` instead of one `advance > on_arrive`. (To go further, feed the PCs —
# decimal, one per line in target/ci/sigprof.WORKLOAD.pcs — to
# `addr2line -i -f -C -e BINARY`.)
# A sample outside the binary is filed under its shared object and the
# nearest `nm -D` symbol at or below it, e.g. `[libm.so.6] log`, from the
# copy of /proc/self/maps the shim leaves in
# target/ci/sigprof.WORKLOAD.pcs.maps. Past that symbol's end it reads
# `<unexported, past SYMBOL>`: glibc's exported names are often IFUNC
# stubs, and the variant they pick has no exported name (on incast_pp,
# libm's `<unexported, past f64xsubf128>` disassembles to the FMA `log`
# behind `SimRng`'s exponential draws). `[vdso]` has no symbols; what no
# mapping explains reads `[outside the binary]`. Not a CI leg: the table
# is for choosing what to measure next with alternating `ppbench` pairs,
# not evidence by itself.
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

# `<sample number> [object] symbol` for each sample (its line in $PCS) that
# lies in an executable mapping of a file other than the binary. The maps
# copy starts with `base <load base>`; an object's `nm -D` addresses count
# from the start of its mapping at file offset 0.
OUTSIDE=target/ci/sigprof.$WORKLOAD.outside
read -r _ base < "$PCS.maps"
self=$(readlink -f "$BIN")
declare -A at
while read -r range perms offset _ _ path; do
  if [[ -z $path || $path == "$self" ]]; then continue; fi
  lo=$((16#${range%-*})) hi=$((16#${range#*-}))
  if [[ -z ${at[$path]:-} && $((16#$offset)) == 0 ]]; then at[$path]=$lo; fi
  if [[ $perms == *x* ]]; then echo "$lo $hi ${at[$path]:-$lo} $path"; fi
done < <(tail -n +2 "$PCS.maps") > "$OUTSIDE.ranges"
# Each such sample as `<address in its object> P <sample number> <object>`.
awk -v base="$base" 'NR == FNR { lo[++n] = $1; hi[n] = $2; at[n] = $3; obj[n] = $4; next }
     { pc = $1 + base
       for (i = 1; i <= n; i++) if (pc >= lo[i] && pc < hi[i]) { printf "%.0f P %d %s\n", pc - at[i], FNR, obj[i]; break } }' \
  "$OUTSIDE.ranges" "$PCS" > "$OUTSIDE.samples"
: > "$OUTSIDE"
for obj in $(awk '{ print $4 }' "$OUTSIDE.samples" | sort -u); do
  {
    if [[ -f $obj ]]; then
      nm -D -S -t d --defined-only "$obj" | awk '$3 ~ /^[tTwWi]$/ { sub(/@.*/, "", $4); print $1, "S", $2, $4 }'
    fi
    awk -v o="$obj" '$4 == o { print $1, $2, $3 }' "$OUTSIDE.samples"
  } | sort -k1,1n -k2,2r |
    awk -v name="${obj##*/}" \
        '$2 == "S" { if ($1 + 0 != at || length($4) < length(sym)) { at = $1 + 0; end = at + $3; sym = $4 }; next }
         { print $3, "[" name "]", sym == "" ? "" : $1 < end ? sym : "<unexported, past " sym ">" }' >> "$OUTSIDE"
done

if [[ $MODE != symbol ]]; then
  # `-a` heads each sample's frames with its address; frames come innermost
  # first, one `function` line and one `file:line` line each. The standard
  # library's are the ones whose file is under /rustc/; `??` is no line
  # info. Neither drops a frame whose function is in one of the
  # repository's crates (`netsim::…`, `<transport::… as …>::…`): std code
  # inlined without an inline record reads as the function it was inlined
  # into at a /rustc/ line, and a prologue has no line at all.
  CRATES=$(sed -n '/^\[package\]/,/^\[/ s/^name = "\(.*\)"/\1/p' crates/*/Cargo.toml ppbench/Cargo.toml | paste -sd '|')
  awk '{ printf "0x%x\n", $1 }' "$PCS" | addr2line -a -i -f -C -e "$BIN" |
    awk -v mode="$MODE" -v ours="^<?($CRATES)::" \
        'function file() { if (seen) count[n ? (mode == "innermost" || n == 1 ? fr[0] : fr[n-1] " > " fr[n-2]) : total in outside ? outside[total] : "[no repository frame] " inner]++ }
         FILENAME != "-" { i = $1; $1 = ""; sub(/^ +/, ""); outside[i] = $0; next }
         /^0x[0-9a-f]+$/ { file(); seen = 1; n = 0; inner = ""; total++; next }
         { fn = $0; getline loc; if (inner == "") inner = fn
           if (fn ~ ours || loc !~ /^(\/rustc\/|\?\?)/) fr[n++] = fn }
         END { file()
               for (f in count) printf "%7d %5.1f %%  %s\n", count[f], 100 * count[f] / total, f
               printf "%7d samples\n", total > "/dev/stderr" }' "$OUTSIDE" - |
    sort -k1,1nr | head -60
  exit
fi

# Symbols (`addr S size name`) and samples (`addr P`) sorted into one stream
# by address, symbols first at a tie: each sample then follows the last
# symbol that starts at or before it.
{
  nm -S -C -t d --defined-only "$BIN" | awk '$3 ~ /^[tTwW]$/ { a = $1; s = $2; $1 = $2 = $3 = ""; print a + 0, "S", s + 0, $0 }'
  awk '{ print $1, "P", NR }' "$PCS"
} | sort -k1,1n -k2,2r |
  awk 'FILENAME != "-" { i = $1; $1 = ""; sub(/^ +/, ""); outside[i] = $0; next }
       $2 == "S" { start = $1; end = $1 + $3; $1 = $2 = $3 = ""; sub(/^ +/, ""); name = $0; next }
       { total++; count[$1 < end ? name : $3 in outside ? outside[$3] : "[outside the binary]"]++ }
       END { for (f in count) printf "%7d %5.1f %%  %s\n", count[f], 100 * count[f] / total, f
             printf "%7d samples\n", total > "/dev/stderr" }' "$OUTSIDE" - |
  sort -k1,1nr | head -40
