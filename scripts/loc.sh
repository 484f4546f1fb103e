#!/usr/bin/env bash
# Non-test lines of Rust, per crate and in total. One definition: every `.rs`
# file under the given paths (default `crates examples`), files under a
# `tests/` directory left out, and of each file only the lines above its
# first `#[cfg(test)]` that starts in column 0 (a unit-test module sits at
# the end of its file). `examples/` counts as one crate.
#
# Prints one `<lines> <crate>` line per crate, then `<lines> total`.
#
# Usage: scripts/loc.sh [path...]   (paths relative to the repository root)
# Example: scripts/loc.sh crates/experiments
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -gt 0 ]] || set -- crates examples
find "$@" -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
  crate=$(echo "$f" | sed -E 's#^(crates/[^/]+|examples)/.*#\1#')
  awk -v c="$crate" '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print c, n + 0 }' "$f"
done | awk '
  $1 != crate { if (NR > 1) printf "%7d %s\n", lines, crate; crate = $1; lines = 0 }
  { lines += $2; total += $2 }
  END { if (NR > 0) printf "%7d %s\n", lines, crate; printf "%7d total\n", total }'
