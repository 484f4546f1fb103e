//! `simlint` — workspace static analysis for determinism invariants.
//!
//! Every figure this repro produces depends on bit-identical deterministic
//! replay. The runtime audit (`netsim::audit`) and the differential
//! scheduler tests catch violations *dynamically*; simlint refuses the
//! ones clippy cannot see at build time. Two analysis layers, both
//! dependency-free (no `syn` — the workspace builds offline):
//!
//! * **token rules** ([`rules`] R4, R7, R8) over the hand-rolled [`lexer`];
//! * **the layering pass** (R9) over an item-level [`parse`] of every file
//!   plus the workspace-wide crate/module graphs in [`index`], which
//!   certifies the PDES-sharding precondition of one-way layering.
//!
//! The rules that need resolved types and paths (R1, R2, R5, R6, R10,
//! R11) are clippy's, configured in `clippy.toml` and the manifests' lint
//! tables; R3 is [`rng_crates`] over `Cargo.lock`. DESIGN.md § Static
//! analysis names each rule's enforcer.
//!
//! Used two ways:
//!
//! * `cargo run -p simlint` — the CI gate (`scripts/ci.sh` leg 1), with
//!   `--json FILE` for the machine-readable artifact;
//! * `tests/lint_clean.rs` — runs [`lint_workspace`] inside `cargo test`
//!   so a regression fails the test suite, not just the CI script.
//!
//! The one way to tolerate a finding is an in-source
//! `// simlint::allow(rule, reason)` next to it; one that covers no finding
//! is reported, as `#[expect]` is.

#![forbid(unsafe_code)]

pub mod index;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use index::Workspace;
pub use rules::{Finding, Rule};

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Lint one source file. `path` is the workspace-relative path (forward
/// slashes) and selects which rules apply; `src` is the file contents.
/// Covers every single-file rule (R4, R7, R8, annotation hygiene); the
/// cross-file R9 needs a [`Workspace`].
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    rules::check(path, &lexer::lex(src))
}

/// One diagnosed file plus everything found in it.
#[derive(Debug)]
pub struct Report {
    /// `(workspace-relative path, finding)` for every finding, allowed or
    /// not, globally sorted by `(path, line, col, rule)`.
    pub findings: Vec<(String, Finding)>,
    /// Files scanned.
    pub files_scanned: usize,
    /// First-party crates discovered from manifests (0 for single-file
    /// lints: the crate graph needs a [`Workspace`]).
    pub crates_indexed: usize,
    /// File modules indexed across the module-cycle scope.
    pub modules_indexed: usize,
}

impl Report {
    /// Findings without an allow annotation: these fail the run.
    pub fn unallowed(&self) -> impl Iterator<Item = &(String, Finding)> {
        self.findings.iter().filter(|(_, f)| f.allowed.is_none())
    }

    /// Count of findings silenced by in-source allow annotations.
    pub fn allowed_count(&self) -> usize {
        self.findings.iter().filter(|(_, f)| f.allowed.is_some()).count()
    }

    /// Machine-readable report: one JSON object with the findings in the
    /// same deterministic order as the text output, plus summary counts.
    /// Hand-emitted (no serde) and covered by an ordering regression test.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"crates_indexed\": {},\n", self.crates_indexed));
        out.push_str(&format!("  \"modules_indexed\": {},\n", self.modules_indexed));
        out.push_str("  \"findings\": [");
        for (i, (path, f)) in self.findings.iter().enumerate() {
            let allowed = match &f.allowed {
                Some(reason) => format!("\"{}\"", json_escape(reason)),
                None => "null".into(),
            };
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
                 \"message\": \"{}\", \"allowed\": {}}}",
                json_escape(path),
                f.line,
                f.col,
                f.rule.name(),
                json_escape(&f.message),
                allowed
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"summary\": {{\"total\": {}, \"fatal\": {}, \"allowed\": {}}}\n",
            self.findings.len(),
            self.unallowed().count(),
            self.allowed_count()
        ));
        out.push_str("}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (path, finding) in &self.findings {
            writeln!(
                f,
                "{}:{}:{}: [{}] {}",
                path,
                finding.line,
                finding.col,
                finding.rule.name(),
                finding.message
            )?;
        }
        Ok(())
    }
}

/// R3: the RNG crates a `Cargo.lock` text pins, by package name.
/// Randomness flows through `simcore`'s seeded RNG; an RNG crate in the
/// lock file is the first sign of a bypass, whichever crate pulled it in.
pub fn rng_crates(lock: &str) -> Vec<&str> {
    const RNG: [&str; 5] = ["rand", "getrandom", "fastrand", "oorandom", "nanorand"];
    lock.lines()
        .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .filter(|name| {
            let n = name.replace('-', "_");
            RNG.contains(&n.as_str()) || n.starts_with("rand_")
        })
        .collect()
}

/// Directories under the workspace root that are scanned for `.rs` files.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Path fragments that are never scanned: third-party code, build output,
/// and simlint's own rule-violation fixtures.
fn skip(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    s.contains("/target/")
        || s.contains("vendor/")
        || s.contains("crates/simlint/tests/fixtures")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    // Sort directory entries so diagnostics are stable across
    // filesystems (read_dir order is arbitrary).
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if skip(&path) {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root by walking up from `start` until a `Cargo.toml`
/// containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Lint every first-party source file under `root`: all single-file rules
/// plus the workspace-wide crate/module graph passes.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut ws = Workspace::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        ws.add(&rel, &std::fs::read_to_string(file)?);
    }
    Ok(ws.lint())
}

/// The full workspace pass over in-memory sources and manifests: per-file
/// rules (allow annotations deferred), then the cross-file R9 passes, then
/// allows applied to everything so a `simlint::allow(layering, ...)` on a
/// flagged `use` works exactly like the token rules.
pub(crate) fn lint_workspace_data(
    sources: &BTreeMap<String, String>,
    manifests: &BTreeMap<String, String>,
) -> Report {
    let mut parsed: BTreeMap<String, parse::ParsedFile> = BTreeMap::new();
    let mut allows: BTreeMap<String, Vec<rules::Allow>> = BTreeMap::new();
    let mut findings: Vec<(String, Finding)> = Vec::new();
    for (path, src) in sources {
        let lexed = lexer::lex(src);
        let pf = parse::parse(&lexed);
        let (file_allows, mut fs) = rules::collect_allows(&lexed);
        fs.extend(rules::token_findings(path, &lexed, &rules::effective_regions(path, &pf)));
        findings.extend(fs.into_iter().map(|f| (path.clone(), f)));
        parsed.insert(path.clone(), pf);
        allows.insert(path.clone(), file_allows);
    }

    let crates = index::discover_crates(manifests);
    let crate_of = index::crate_of_files(manifests, &crates, sources);
    findings.extend(index::crate_edge_findings(&crates, &crate_of, &parsed));
    let (module_findings, modules_indexed) = index::module_cycle_findings(&crates, &parsed);
    findings.extend(module_findings);

    // Apply allow annotations per file (manifest findings have no comment
    // tokens, so layering violations in Cargo.toml can only be fixed, not
    // annotated — deliberate).
    let mut by_path: BTreeMap<&str, Vec<&mut Finding>> = BTreeMap::new();
    for (path, f) in &mut findings {
        by_path.entry(path.as_str()).or_default().push(f);
    }
    let mut stale = Vec::new();
    for (path, file_allows) in &allows {
        let fs = by_path.remove(path.as_str()).unwrap_or_default();
        stale.extend(
            rules::apply_allows(file_allows, fs)
                .into_iter()
                .map(|f| (path.clone(), f)),
        );
    }
    findings.extend(stale);

    findings.sort_by(|(pa, fa), (pb, fb)| {
        (pa, fa.line, fa.col, fa.rule).cmp(&(pb, fb.line, fb.col, fb.rule))
    });
    Report {
        findings,
        files_scanned: sources.len(),
        crates_indexed: crates.len(),
        modules_indexed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end() {
        let src = "fn f(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n";
        let fs = lint_source("crates/netsim/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::FloatOrder);
        // Same source outside a simulation-state crate: clean.
        assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    }
}
