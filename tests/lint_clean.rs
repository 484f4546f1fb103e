//! The workspace must be simlint-clean, and its lock file free of RNG
//! crates.
//!
//! `scripts/ci.sh` runs `cargo run -p simlint` as a CI leg, but this test
//! runs the same pass programmatically inside `cargo test`, so a
//! determinism-hazard regression (a lossy `Time` cast, an order-sensitive
//! float sum, an upward manifest dependency, a module cycle, a stale
//! allowance, ...) fails the ordinary test suite too — not just the CI
//! script. The rules clippy
//! enforces run in CI leg 1 (`cargo clippy --workspace`).

use std::path::Path;

use simlint::{lint_workspace, rng_crates};

fn workspace_root() -> &'static Path {
    // crates/simlint/../.. = the workspace root, independent of the
    // directory `cargo test` was invoked from.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up")
}

#[test]
fn workspace_has_no_unallowed_findings() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_workspace(root).expect("lint pass reads the workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files_scanned
    );

    let unallowed: Vec<String> = report
        .unallowed()
        .map(|(path, f)| {
            format!(
                "{}:{}:{}: [{}] {}",
                path,
                f.line,
                f.col,
                f.rule.name(),
                f.message
            )
        })
        .collect();
    assert!(
        unallowed.is_empty(),
        "simlint found {} unallowed finding(s):\n{}\nfix the sites or annotate them with \
         // simlint::allow(rule, reason)",
        unallowed.len(),
        unallowed.join("\n")
    );
}

#[test]
fn semantic_passes_run_in_the_full_workspace_scan() {
    // The layering pass (R9) must actually be exercising the tree, not
    // silently indexing nothing: every first-party crate is discovered and
    // the module graphs cover the sim-state crates.
    let report = lint_workspace(workspace_root()).expect("lint pass reads the workspace");
    assert!(
        report.crates_indexed >= 7,
        "expected all first-party crates in the index, got {}",
        report.crates_indexed
    );
    assert!(
        report.modules_indexed >= 20,
        "suspiciously few modules in the cycle scope ({})",
        report.modules_indexed
    );
}

#[test]
fn cargo_lock_has_no_rng_crate() {
    // R3: randomness flows through simcore's seeded RNG. An RNG crate in
    // the lock file means some crate can draw unseeded numbers.
    let lock = std::fs::read_to_string(workspace_root().join("Cargo.lock"))
        .expect("the workspace has a Cargo.lock");
    assert!(
        lock.contains("name = \"simcore\""),
        "not the workspace lock file"
    );
    assert_eq!(rng_crates(&lock), Vec::<&str>::new());
}

#[test]
fn allow_annotations_in_tree_all_carry_reasons() {
    // Defense in depth for the annotation grammar itself: every allow that
    // suppresses a finding must have parsed with a non-empty reason.
    let report = lint_workspace(workspace_root()).expect("lint pass reads the workspace");
    for (path, f) in &report.findings {
        if let Some(reason) = &f.allowed {
            assert!(
                !reason.trim().is_empty(),
                "{path}:{}: allow annotation with empty reason",
                f.line
            );
        }
    }
}
