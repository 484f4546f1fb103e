#!/usr/bin/env bash
# What is live on the heap when one `ppbench rep` peaks? Builds
# scripts/heapprof.c into target/ci/heapprof.so, runs one rep of WORKLOAD
# under LD_PRELOAD (seed 1, tracing off) and prints the peak live heap, the
# largest blocks live at that peak, and the live bytes at the peak per
# allocation site.
#
# A block's site is its innermost frame that is this repository's code: the
# allocation's glibc backtrace() is resolved through the debug info's inline
# records (`addr2line -i`), and frames from the standard library (files
# under /rustc/) or without debug info are skipped, so a `Vec` growth reads
# as the function that pushed, e.g. `netsim::packet::PacketArena::alloc`.
# Peak live heap is what the program holds, not what the process holds:
# `peak_rss_mb` also counts freed blocks the allocator has not given back
# and pages touched outside malloc. Not a CI leg; the raw blocks (size, then
# executable-relative PCs) stay in target/ci/heapprof.WORKLOAD.txt.
#
# Usage: scripts/heap_profile.sh WORKLOAD [BINARY]
#   WORKLOAD  incast_pp | fattree_flowsched | coflow_lossy | hyperscale_openloop
#   BINARY    a ppbench executable (default: ppbench/target/release/ppbench,
#             built first)
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=${1:?usage: scripts/heap_profile.sh WORKLOAD [BINARY]}
BIN=${2:-}
if [[ -z $BIN ]]; then
  cargo build --release --offline --quiet --manifest-path ppbench/Cargo.toml
  BIN=ppbench/target/release/ppbench
fi
mkdir -p target/ci
SO=target/ci/heapprof.so
OUT=target/ci/heapprof.$WORKLOAD.txt
gcc -O2 -shared -fPIC -o "$SO" scripts/heapprof.c -lpthread

HEAPPROF_OUT=$OUT LD_PRELOAD=$PWD/$SO \
  "$BIN" rep --workload "$WORKLOAD" --seed 1 --div 1 --trace 0 > /dev/null

# Each distinct PC goes to addr2line once, as PC - 1 (a return address
# points past its call). `-a` heads each one's frames, innermost first, one
# `function` line and one `file:line` line per frame; the first frame that
# is repository code names the PC's site.
awk 'NR > 1 { for (i = 2; i <= NF; i++) print $i }' "$OUT" | sort -un |
  awk '{ printf "0x%x\n", $1 - 1 }' | addr2line -a -i -f -C -e "$BIN" |
  awk '
    function dec(h,   i, n) { for (i = 3; i <= length(h); i++) n = n * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1; return n }
    /^0x[0-9a-f]+$/ { pc = dec($0) + 1; next }
    { fn = $0; getline loc
      if (!(pc in site) && loc !~ /^\/rustc\// && loc !~ /^\?\?/) {
        if (match(loc, /\/(crates|ppbench|vendor|tests|examples)\//)) loc = substr(loc, RSTART + 1)
        sub(/ \(discriminator [0-9]+\)/, "", loc); site[pc] = fn "  (" loc ")"
      } }
    END { for (pc in site) print pc "\t" site[pc] }' > "$OUT.sites"

# A block's site is that of its innermost PC that has one.
awk -v sites="$OUT.sites" -v blocks="$OUT.blocks" '
  BEGIN { while ((getline line < sites) > 0) { split(line, f, "\t"); site[f[1]] = f[2] } }
  NR == 1 { next }
  { s = "[no repository frame]"
    for (i = 2; i <= NF; i++) if ($i in site) { s = site[$i]; break }
    bytes[s] += $1; count[s]++; print $1 "\t" s > blocks }
  END { for (s in bytes) print bytes[s] "\t" count[s] "\t" s }' "$OUT" > "$OUT.by_site"
read -r _ peak _ blocks _ op _ ops overflow < "$OUT"
echo "peak live heap: $peak B in $blocks blocks (allocator call $op of $ops)${overflow:+ -- LOG OVERFLOWED, incomplete}"
echo
echo "largest blocks live at the peak:"
sort -t$'\t' -k1,1nr "$OUT.blocks" | awk -F'\t' 'NR <= 15 { printf "%10d  %s\n", $1, $2 }'
echo
echo "live at the peak, per site (top 25):"
printf '%10s %7s  %s\n' bytes blocks site
sort -t$'\t' -k1,1nr "$OUT.by_site" |
  awk -F'\t' 'NR <= 25 { printf "%10d %7d  %s\n", $1, $2, $3 }'
