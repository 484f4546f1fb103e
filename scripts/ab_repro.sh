#!/usr/bin/env bash
# Is `repro` build B faster than build A? Alternating fresh-process pairs (the
# repeated-run protocol of CoCo-Beholder, PAPERS.md): pair i runs A then B
# when i is odd and B then A when it is even, so a slow minute on a shared
# host lands on both sides. Each run is a new process with the same REPRO
# ARGS and writes its JSON tables to a fresh REPRO_JSON_DIR of its own under
# the script's temporary directory (the caller's REPRO_JSON_DIR is not
# used). In every pair the two stdouts must be byte-identical (`cmp`) and the
# two JSON trees identical (`diff -r`), or the script stops with exit 1 — a
# speedup that changes the output is not one.
#
# Prints one line per pair (wall and user+sys seconds of each side) and then,
# per side, the median and q1–q3 of wall and of user+sys time, the change of
# the medians and how many pairs B won. Not a CI leg: run it by hand on an
# otherwise idle box and report what it prints, pairs included.
#
# Usage: scripts/ab_repro.sh REPRO_A REPRO_B [--pairs N] -- REPRO_ARGS...
#   REPRO_A, REPRO_B  two `repro` executables (copy them aside first)
#   --pairs N         pairs to run (default 6)
#   REPRO_ARGS        what each run is given, e.g. `all --jobs 1`
# Example: scripts/ab_repro.sh /tmp/repro.a /tmp/repro.b --pairs 6 -- run fig17 --jobs 1
set -euo pipefail

usage() {
  echo "usage: scripts/ab_repro.sh REPRO_A REPRO_B [--pairs N] -- REPRO_ARGS..." >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
A=$1
B=$2
shift 2
PAIRS=6
while [[ $# -gt 0 && $1 != -- ]]; do
  case $1 in
    --pairs) [[ $# -ge 2 ]] || usage; PAIRS=$2; shift 2 ;;
    --pairs=*) PAIRS=${1#--pairs=}; shift ;;
    *) usage ;;
  esac
done
[[ ${1:-} == -- ]] || usage
shift
[[ $PAIRS =~ ^[1-9][0-9]*$ ]] || usage
for bin in "$A" "$B"; do
  [[ -x $bin ]] || { echo "ab_repro: $bin is not an executable" >&2; exit 2; }
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# One run: `one SIDE BINARY ARGS...` leaves the run's stdout in $TMP/SIDE.out
# and its JSON tables in $TMP/SIDE.json/, and prints `wall user+sys`.
one() {
  local side=$1 bin=$2 TIMEFORMAT='%R %U %S'
  shift 2
  rm -rf "$TMP/$side.json"
  mkdir "$TMP/$side.json"
  if ! { time REPRO_JSON_DIR="$TMP/$side.json" "$bin" "$@" > "$TMP/$side.out" 2> "$TMP/$side.err"; } 2> "$TMP/$side.time"; then
    echo "ab_repro: $bin $* failed:" >&2
    tail -5 "$TMP/$side.err" >&2
    return 1
  fi
  awk '{ printf "%.3f %.3f\n", $1, $2 + $3 }' "$TMP/$side.time"
}

echo "pair  A wall  A cpu   B wall  B cpu   (seconds; cpu = user+sys)"
: > "$TMP/pairs"
for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2)); then
    a=$(one A "$A" "$@")
    b=$(one B "$B" "$@")
  else
    b=$(one B "$B" "$@")
    a=$(one A "$A" "$@")
  fi
  if ! cmp -s "$TMP/A.out" "$TMP/B.out"; then
    echo "ab_repro: pair $i: the two stdouts differ" >&2
    cmp "$TMP/A.out" "$TMP/B.out" >&2 || true
    exit 1
  fi
  if ! diff -r "$TMP/A.json" "$TMP/B.json" > "$TMP/json.diff"; then
    echo "ab_repro: pair $i: the two JSON trees differ" >&2
    head -20 "$TMP/json.diff" >&2
    exit 1
  fi
  echo "$i $a $b" | tee -a "$TMP/pairs" |
    awk '{ printf "%4d  %6.2f  %6.2f   %6.2f  %6.2f\n", $1, $2, $3, $4, $5 }'
done

# Quartiles by linear interpolation over the sorted column.
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, l) { h = 1 + p * (NR - 1); l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
    END { printf "%.3f %.3f %.3f\n", q(0.5), q(0.25), q(0.75) }'
}
for col in 2:4:wall 3:5:cpu; do
  IFS=: read -r ca cb name <<< "$col"
  qa=$(awk -v c="$ca" '{ print $c }' "$TMP/pairs" | quartiles)
  qb=$(awk -v c="$cb" '{ print $c }' "$TMP/pairs" | quartiles)
  won=$(awk -v a="$ca" -v b="$cb" '$b < $a { n++ } END { print n + 0 }' "$TMP/pairs")
  echo "$name $qa $qb $won $PAIRS" |
    awk '{ printf "%-4s  A %.3f [%.3f-%.3f]  B %.3f [%.3f-%.3f]  %+.1f %%  B won %d/%d\n",
                  $1, $2, $3, $4, $5, $6, $7, ($2 > 0 ? 100 * ($5 - $2) / $2 : 0), $8, $9 }'
done
echo "stdout and JSON tables identical in all $PAIRS pairs"
