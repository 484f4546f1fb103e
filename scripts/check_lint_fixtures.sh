#!/usr/bin/env bash
# Prove that every rule clippy carries for this repository still fires.
#
# R1, R2, R5, R6, R10 and R11 are clippy's (clippy.toml, the manifests'
# lint tables, crate- and module-level #![deny]). This clippies the fixture
# crate crates/simlint/tests/fixtures/clippy, which sits outside the
# workspace but reads the root clippy.toml, and fails unless every line a
# fixture marks with `//~ lint` raises that lint and nothing else fires; it
# also checks the manifests and attributes that scope each rule. A rule
# whose bad fixture stops firing is a lost rule. The checker is
# crates/simlint/tests/fixtures.rs, so `cargo test` runs it too.
#
# Usage: scripts/check_lint_fixtures.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q -p simlint --test fixtures
