//! Workspace-level semantic-pass tests: R9 layering over in-memory
//! mini-workspaces (crate edges from manifests and source, module cycles,
//! unlayered crates), plus the text/JSON output ordering regression.

use simlint::{Rule, Workspace};

fn manifest(name: &str, deps: &[&str], dev_deps: &[&str]) -> String {
    let mut s = format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n");
    if !deps.is_empty() {
        s.push_str("\n[dependencies]\n");
        for d in deps {
            s.push_str(&format!("{d} = {{ workspace = true }}\n"));
        }
    }
    if !dev_deps.is_empty() {
        s.push_str("\n[dev-dependencies]\n");
        for d in dev_deps {
            s.push_str(&format!("{d} = {{ workspace = true }}\n"));
        }
    }
    s
}

/// A three-crate slice of the real layer map, wired correctly.
fn mini_workspace() -> Workspace {
    let mut ws = Workspace::new();
    ws.add("crates/simcore/Cargo.toml", &manifest("simcore", &[], &[]));
    ws.add("crates/netsim/Cargo.toml", &manifest("netsim", &["simcore"], &[]));
    ws.add(
        "crates/experiments/Cargo.toml",
        &manifest("experiments", &["simcore", "netsim"], &[]),
    );
    ws.add("crates/simcore/src/lib.rs", "pub fn tick() {}\n");
    ws.add("crates/netsim/src/lib.rs", "pub mod sim;\n");
    ws.add(
        "crates/netsim/src/sim.rs",
        "pub fn run() {\n    simcore::tick();\n}\n",
    );
    ws.add(
        "crates/experiments/src/lib.rs",
        "pub fn fig() {\n    netsim::sim::run();\n}\n",
    );
    ws
}

fn layering(ws: &Workspace) -> Vec<(String, u32, String)> {
    ws.lint()
        .findings
        .iter()
        .filter(|(_, f)| f.rule == Rule::Layering && f.allowed.is_none())
        .map(|(p, f)| (p.clone(), f.line, f.message.clone()))
        .collect()
}

#[test]
fn downward_edges_are_clean() {
    let ws = mini_workspace();
    let report = ws.lint();
    assert!(
        report.findings.is_empty(),
        "unexpected findings: {report}"
    );
    assert_eq!(report.crates_indexed, 3);
}

#[test]
fn upward_use_in_netsim_is_caught() {
    // The acceptance case: an intentionally-inserted `use experiments::…`
    // inside netsim must be flagged.
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/src/report.rs",
        include_str!("fixtures/r9_bad.rs"),
    );
    let hits = layering(&ws);
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    let (path, line, msg) = &hits[0];
    assert_eq!(path, "crates/netsim/src/report.rs");
    assert_eq!(*line, 4, "the finding pins the first upward reference");
    assert!(msg.contains("layering violation"), "got: {msg}");
    assert!(msg.contains("netsim") && msg.contains("experiments"));
}

#[test]
fn upward_use_respects_allow_annotation() {
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/src/report.rs",
        include_str!("fixtures/r9_allowed.rs"),
    );
    assert!(layering(&ws).is_empty());
    let report = ws.lint();
    assert_eq!(report.allowed_count(), 1, "the allow carries through");
}

#[test]
fn stale_layering_allow_is_reported() {
    // A file whose only finding would be the allowance's: the workspace
    // pass reports annotations in files that have no findings at all.
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/src/report.rs",
        "// simlint::allow(layering, simcore sits below netsim anyway)\nuse simcore::tick;\n",
    );
    let report = ws.lint();
    let hits: Vec<(&str, u32, Rule)> = report
        .unallowed()
        .map(|(p, f)| (p.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(hits, vec![("crates/netsim/src/report.rs", 1, Rule::AllowHygiene)]);
}

#[test]
fn upward_manifest_dependency_is_caught() {
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/Cargo.toml",
        &manifest("netsim", &["simcore", "experiments"], &[]),
    );
    let hits = layering(&ws);
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    let (path, _, msg) = &hits[0];
    assert_eq!(path, "crates/netsim/Cargo.toml");
    assert!(msg.contains("dependency on experiments"), "got: {msg}");
}

#[test]
fn dev_dependency_back_edge_is_caught() {
    // Cargo allows dev-dependency cycles; the one-way DAG does not.
    let mut ws = mini_workspace();
    ws.add(
        "crates/simcore/Cargo.toml",
        &manifest("simcore", &[], &["netsim"]),
    );
    let hits = layering(&ws);
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    assert!(hits[0].2.contains("simcore"), "got: {}", hits[0].2);
}

#[test]
fn peer_crates_cannot_depend_on_each_other() {
    // netsim and prioplus share a layer deliberately; an edge in either
    // direction is a violation (strictly-downward rule).
    let mut ws = mini_workspace();
    ws.add("crates/core/Cargo.toml", &manifest("prioplus", &["simcore"], &[]));
    ws.add("crates/core/src/lib.rs", "pub fn window() {}\n");
    ws.add(
        "crates/netsim/Cargo.toml",
        &manifest("netsim", &["simcore", "prioplus"], &[]),
    );
    let hits = layering(&ws);
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    assert!(hits[0].2.contains("layering violation"));
}

#[test]
fn unlayered_crates_are_isolated() {
    let mut ws = mini_workspace();
    ws.add(
        "crates/newthing/Cargo.toml",
        &manifest("newthing", &["simcore"], &[]),
    );
    ws.add("crates/newthing/src/lib.rs", "pub fn x() {}\n");
    let hits = layering(&ws);
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    assert!(
        hits[0].2.contains("no layer"),
        "a crate missing from the layer map must be called out: {}",
        hits[0].2
    );
}

#[test]
fn module_cycle_is_caught_on_every_edge() {
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/src/lib.rs",
        "pub mod node;\npub mod sim;\n",
    );
    ws.add(
        "crates/netsim/src/sim.rs",
        "use crate::node::Switch;\npub struct Sim {\n    pub s: Switch,\n}\n",
    );
    ws.add(
        "crates/netsim/src/node.rs",
        "pub struct Switch;\npub fn poke() {\n    let _ = crate::sim::Sim { s: Switch };\n}\n",
    );
    let hits = layering(&ws);
    assert_eq!(hits.len(), 2, "one finding per edge of the cycle: {hits:?}");
    for (_, _, msg) in &hits {
        assert!(msg.contains("module cycle in crate netsim"), "got: {msg}");
        assert!(msg.contains("sim") && msg.contains("node"));
    }
}

#[test]
fn module_cycle_ignores_test_regions() {
    // A test module reaching back across modules is dev-only dispatch, not
    // a sim-state cycle.
    let mut ws = mini_workspace();
    ws.add("crates/netsim/src/lib.rs", "pub mod node;\npub mod sim;\n");
    ws.add(
        "crates/netsim/src/sim.rs",
        "use crate::node::Switch;\npub fn run(_s: &Switch) {}\n",
    );
    ws.add(
        "crates/netsim/src/node.rs",
        "pub struct Switch;\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        crate::sim::run(&super::Switch);\n    }\n}\n",
    );
    assert!(layering(&ws).is_empty());
}

#[test]
fn report_ordering_is_stable_across_text_and_json() {
    let mut ws = mini_workspace();
    // Findings in several files, added in non-sorted order.
    ws.add(
        "crates/netsim/src/zeta.rs",
        "pub fn z(v: &[f64]) -> (f64, f64) {\n    \
         (v.iter().sum::<f64>(), v.iter().product::<f64>())\n}\n",
    );
    ws.add(
        "crates/netsim/src/alpha.rs",
        "use simcore::Time;\npub fn a(t: Time) -> u64 {\n    t.as_ps() as u64\n}\n",
    );
    ws.add(
        "crates/netsim/src/report.rs",
        include_str!("fixtures/r9_bad.rs"),
    );
    let report = ws.lint();
    assert!(report.findings.len() >= 4);

    // Globally sorted by (path, line, col, rule).
    let keys: Vec<_> = report
        .findings
        .iter()
        .map(|(p, f)| (p.clone(), f.line, f.col, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out globally sorted");

    // The text rendering preserves that order.
    let text = format!("{report}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), report.findings.len());
    for (line, (p, f)) in lines.iter().zip(&report.findings) {
        assert!(line.starts_with(&format!("{p}:{}:", f.line)));
    }

    // The JSON rendering lists findings in the same order, and is
    // byte-stable across repeated calls.
    let json = report.to_json();
    assert_eq!(json, report.to_json());
    let mut last = 0usize;
    for (p, f) in &report.findings {
        let needle = format!("{{\"path\": \"{p}\", \"line\": {}", f.line);
        let pos = json[last..]
            .find(&needle)
            .unwrap_or_else(|| panic!("JSON missing or out of order: {needle}"));
        last += pos + needle.len();
    }
    assert!(json.contains("\"summary\""));
    assert!(json.contains("\"crates_indexed\": 3"));
}

#[test]
fn json_escapes_special_characters() {
    let mut ws = mini_workspace();
    ws.add(
        "crates/netsim/src/q.rs",
        "pub fn q(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n",
    );
    let json = ws.lint().to_json();
    // Messages may contain slashes and quotes; the emitted JSON must stay
    // parseable by the dumbest consumer: balanced braces, no raw newlines
    // inside strings.
    for line in json.lines() {
        assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
    }
}
