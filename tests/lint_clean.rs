//! The workspace must be simlint-clean.
//!
//! `scripts/ci.sh` runs `cargo run -p simlint` as a CI leg, but this test
//! runs the same pass programmatically inside `cargo test`, so a
//! determinism-hazard regression (a stray `HashMap` in a sim-state crate, a
//! wall-clock `Instant`, an unseeded RNG call, ...) fails the ordinary test
//! suite too — not just the CI script.

use std::path::Path;

use simlint::lint_workspace;

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
    // The symbol-index passes (R9–R11) must actually be exercising the
    // tree, not silently indexing nothing: every first-party crate is
    // discovered, the module graphs cover the sim-state crates, and the
    // match index saw the event loop's dispatch sites.
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
    assert!(
        report.matches_indexed >= 50,
        "suspiciously few match expressions indexed ({})",
        report.matches_indexed
    );
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
