#!/usr/bin/env bash
# Run the workspace linter outside ci.sh.
#
# Usage:
#   scripts/lint.sh                 # text report to stdout
#   scripts/lint.sh --json [FILE]   # also write the JSON report
#                                   # (default: target/simlint.json)
#
# Any other arguments are passed through to simlint.
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --json)
      shift
      if [[ $# -gt 0 && "${1:0:1}" != "-" ]]; then
        ARGS+=(--json "$1")
        shift
      else
        ARGS+=(--json target/simlint.json)
      fi
      ;;
    *)
      ARGS+=("$1")
      shift
      ;;
  esac
done

cargo run --release -q -p simlint -- "${ARGS[@]}"
