//! Fixture-based rule tests. simlint's own rules (R4, R7, R8 and the
//! annotation hygiene) lint a bad example that must fire and an allowed
//! one that must be accepted, plus scoping checks that the path-sensitive
//! rules stay inside their files and crates. The rules clippy enforces
//! (R1, R2, R5, R6, R10, R11) clippy the crate in `fixtures/clippy`, whose
//! files mark every line that must raise a lint with a trailing
//! `//~ lint`; their scope tests read the manifests and crate attributes
//! that switch them on. R3 runs [`simlint::rng_crates`] on a lock text.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use simlint::{lint_source, rng_crates, Finding, Rule};

/// A path inside a simulation-state crate (activates R4 and R8).
const SIM_PATH: &str = "crates/netsim/src/fixture.rs";
/// One of the hot-path files (activates R7 as well).
const HOT_PATH: &str = "crates/netsim/src/sim.rs";

fn unallowed(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.allowed.is_none())
        .count()
}

fn allowed(findings: &[Finding], rule: Rule) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.allowed.is_some())
        .count()
}

/// The bad fixture must fire its rule, and *only* its rule (anything else
/// means the fixtures drifted).
fn assert_only_rule(findings: &[Finding], rule: Rule) {
    for f in findings {
        assert_eq!(
            f.rule, rule,
            "fixture tripped an unexpected rule: {:?} at line {}",
            f.rule, f.line
        );
    }
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// --- the clippy fixture crate ---------------------------------------------

/// `(file, line, lint)`: one lint raised on one line of a fixture file.
type Hit = (String, u32, String);

fn clippy_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

/// Every lint clippy raises on the fixture crate, test code included. One
/// run per test binary; lints are capped at warn so that the run finishes
/// and cargo can replay it from its cache next time.
fn clippy_hits() -> &'static BTreeSet<Hit> {
    #[expect(
        clippy::disallowed_types,
        reason = "caches one clippy run for the test binary; no simulation reads it"
    )]
    static HITS: std::sync::OnceLock<BTreeSet<Hit>> = std::sync::OnceLock::new();
    HITS.get_or_init(|| {
        let out = Command::new(env!("CARGO"))
            .args(["clippy", "--quiet", "--offline", "--all-targets"])
            .arg("--message-format=json-diagnostic-short")
            .arg("--manifest-path")
            .arg(clippy_fixture_dir().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(workspace_root().join("target/lint-fixtures"))
            .args(["--", "--cap-lints", "warn"])
            .output()
            .expect("cargo runs");
        assert!(
            out.status.success(),
            "cargo clippy on {} failed (the rules it carries need clippy installed):\n{}",
            clippy_fixture_dir().display(),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(parse_hit)
            .collect()
    })
}

/// One cargo JSON message to a [`Hit`]. The short rendering starts with
/// `src/FILE:LINE:COL:`, and only the top-level diagnostic carries a lint
/// code (its notes and help children have `"code":null`).
fn parse_hit(json: &str) -> Option<Hit> {
    let (file, rest) = json.split_once("\"rendered\":\"src/")?.1.split_once(':')?;
    let line = rest.split(':').next()?.parse().ok()?;
    let lint = json
        .split_once("\"code\":{\"code\":\"")?
        .1
        .split('"')
        .next()?;
    Some((file.to_string(), line, lint.to_string()))
}

/// The `//~ lint` markers of one fixture file.
fn marked(file: &str) -> BTreeSet<Hit> {
    let src = std::fs::read_to_string(clippy_fixture_dir().join("src").join(file))
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut hits = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        if let Some((_, lints)) = line.split_once("//~ ") {
            for lint in lints.split_whitespace() {
                hits.insert((file.to_string(), i as u32 + 1, lint.to_string()));
            }
        }
    }
    hits
}

/// Clippy raised exactly the marked lints on `file`: each marked line
/// fires its lint, and nothing fires anywhere else in the file. Returns
/// the lints that fired.
fn assert_clippy_matches_markers(file: &str) -> BTreeSet<String> {
    let fired: BTreeSet<Hit> = clippy_hits()
        .iter()
        .filter(|(f, _, _)| f == file)
        .cloned()
        .collect();
    let want = marked(file);
    let missing: Vec<_> = want.difference(&fired).collect();
    let extra: Vec<_> = fired.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{file}: marked lines that did not fire: {missing:?}; unmarked lints that fired: {extra:?}"
    );
    fired.into_iter().map(|(_, _, lint)| lint).collect()
}

/// An allowed fixture: it states its reasons with `#[expect]`, and clippy
/// raises nothing in it, an unfulfilled expectation included.
fn assert_expectations_hold(file: &str) {
    assert!(marked(file).is_empty(), "{file} is an allowed fixture");
    let src = std::fs::read_to_string(clippy_fixture_dir().join("src").join(file)).unwrap();
    assert!(src.contains("#[expect("), "{file} states no expectation");
    assert_clippy_matches_markers(file);
}

fn set(lints: &[&str]) -> BTreeSet<String> {
    lints.iter().map(|l| l.to_string()).collect()
}

/// First-party crate directories, `crates/NAME`.
fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .unwrap()
        .map(|e| format!("crates/{}", e.unwrap().file_name().to_string_lossy()))
        .filter(|d| workspace_root().join(d).join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Workspace-relative paths of the first-party `src` files that contain
/// `needle` on a line of its own.
fn sources_with_line(needle: &str) -> BTreeSet<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for e in std::fs::read_dir(dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in crate_dirs() {
        walk(&workspace_root().join(dir).join("src"), &mut files);
    }
    files
        .into_iter()
        .filter(|p| {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .any(|l| l.trim() == needle)
        })
        .map(|p| {
            p.strip_prefix(workspace_root())
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect()
}

/// The five crates whose state a sharded (PDES) run would partition.
const SIM_STATE_ROOTS: [&str; 5] = [
    "crates/core/src/lib.rs",
    "crates/netsim/src/lib.rs",
    "crates/simcore/src/lib.rs",
    "crates/transport/src/lib.rs",
    "crates/workloads/src/lib.rs",
];

// --- R1: nondeterministic-map (clippy::disallowed_types) ------------------

#[test]
fn r1_fires_on_hash_collections() {
    let lints = assert_clippy_matches_markers("r1_bad.rs");
    assert_eq!(lints, set(&["clippy::disallowed_types"]));
}

#[test]
fn r1_respects_allow_annotations() {
    assert_expectations_hold("r1_allowed.rs");
}

#[test]
fn r1_only_applies_to_sim_state_crates() {
    // `clippy.toml` binds every workspace package; the driver crate alone
    // opts out of the disallowed types (R1 and R10's named types). The
    // wall-clock methods (R2) and `thread_local!` (R10) bind it too.
    for dir in crate_dirs() {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        assert!(
            !manifest.contains("disallowed_methods") && !manifest.contains("disallowed_macros"),
            "{dir} opts out of R2 or R10"
        );
        let opted_out = manifest.contains("disallowed_types = \"allow\"");
        assert_eq!(
            opted_out,
            dir == "crates/experiments",
            "{dir}: R1/R10 scope"
        );
    }
    assert!(!read("Cargo.toml").contains("disallowed_"));
}

// --- R2: wall-clock (clippy::disallowed_methods) --------------------------

#[test]
fn r2_fires_on_wall_clock() {
    let lints = assert_clippy_matches_markers("r2_bad.rs");
    assert_eq!(lints, set(&["clippy::disallowed_methods"]));
}

#[test]
fn r2_respects_allow_annotations() {
    assert_expectations_hold("r2_allowed.rs");
}

// --- R3: unseeded-rng (Cargo.lock) -----------------------------------------

#[test]
fn r3_fires_on_unseeded_rng() {
    assert_eq!(
        rng_crates(include_str!("fixtures/r3_bad.lock")),
        vec![
            "fastrand",
            "getrandom",
            "nanorand",
            "oorandom",
            "rand",
            "rand_chacha",
            "rand_core"
        ]
    );
}

#[test]
fn r3_applies_everywhere() {
    // The lock file the check reads (tests/lint_clean.rs) resolves every
    // workspace package, dev-dependencies included, so no crate escapes it.
    let lock = read("Cargo.lock");
    let locked: BTreeSet<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .collect();
    for dir in crate_dirs()
        .iter()
        .map(String::as_str)
        .chain(["vendor/proptest"])
    {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .unwrap();
        assert!(locked.contains(name), "Cargo.lock does not resolve {name}");
    }
}

// --- R4: lossy-time-cast -------------------------------------------------

#[test]
fn r4_fires_on_time_rate_casts() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r4_bad.rs"));
    assert_only_rule(&fs, Rule::LossyTimeCast);
    assert_eq!(unallowed(&fs, Rule::LossyTimeCast), 3);
}

#[test]
fn r4_respects_allow_and_skips_benign_casts() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r4_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::LossyTimeCast), 0);
    // Exactly one real (annotated) lossy cast; the `prio as u64` and
    // `gap as u64` shapes are benign and must not even be reported.
    assert_eq!(allowed(&fs, Rule::LossyTimeCast), 1);
    assert_eq!(fs.len(), 1);
}

// --- R5: hot-path-unwrap (clippy::unwrap_used / expect_used) ---------------

/// The module-level attribute that switches R5 on.
const R5_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

#[test]
fn r5_fires_in_hot_path_non_test_code() {
    // unwrap + expect in the two pub fns; the #[cfg(test)] module's
    // unwrap/expect are exempt (`allow-*-in-tests` in clippy.toml).
    let lints = assert_clippy_matches_markers("r5_bad.rs");
    assert_eq!(lints, set(&["clippy::expect_used", "clippy::unwrap_used"]));
}

#[test]
fn r5_respects_allow_annotations() {
    assert_expectations_hold("r5_allowed.rs");
}

#[test]
fn r5_only_applies_to_named_hot_paths() {
    let want: BTreeSet<String> = [
        "crates/netsim/src/fabric.rs",
        "crates/netsim/src/host.rs",
        "crates/netsim/src/node.rs",
        "crates/netsim/src/sim.rs",
        "crates/netsim/src/state.rs",
        "crates/simcore/src/sched.rs",
    ]
    .map(String::from)
    .into();
    assert_eq!(sources_with_line(R5_DENY), want);
}

// --- R6: allow-without-reason (clippy::allow_attributes_without_reason) ----

#[test]
fn r6_fires_on_unjustified_allows() {
    // Outer #[allow], inner #![allow] and a reasonless #[expect].
    let lints = assert_clippy_matches_markers("r6_bad.rs");
    assert_eq!(lints, set(&["clippy::allow_attributes_without_reason"]));
}

#[test]
fn r6_accepts_reason_comments() {
    // The reason is the attribute's own `reason = "..."`.
    assert_expectations_hold("r6_allowed.rs");
}

#[test]
fn r6_applies_to_every_first_party_crate() {
    let deny = "allow_attributes_without_reason = \"deny\"";
    assert!(read("Cargo.toml").contains(&format!("[workspace.lints.clippy]\n{deny}")));
    assert!(read("crates/simlint/tests/fixtures/clippy/Cargo.toml")
        .contains(&format!("[lints.clippy]\n{deny}")));
    for dir in crate_dirs() {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        assert!(
            manifest.contains("[lints]\nworkspace = true\n")
                || manifest.contains(&format!("[lints.clippy]\n{deny}\n")),
            "{dir} neither inherits the workspace lints nor denies R6 itself"
        );
    }
}

// --- R7: hot-path-alloc --------------------------------------------------

#[test]
fn r7_fires_on_hot_path_allocations() {
    let fs = lint_source(HOT_PATH, include_str!("fixtures/r7_bad.rs"));
    assert_only_rule(&fs, Rule::HotPathAlloc);
    // Box::new, vec![], .to_vec(), .clone(); the #[cfg(test)] module's
    // allocations are exempt.
    assert_eq!(unallowed(&fs, Rule::HotPathAlloc), 4);
}

#[test]
fn r7_respects_allow_annotations() {
    let fs = lint_source(HOT_PATH, include_str!("fixtures/r7_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::HotPathAlloc), 0);
    assert_eq!(allowed(&fs, Rule::HotPathAlloc), 2);
}

#[test]
fn r7_only_applies_to_per_event_files() {
    let src = include_str!("fixtures/r7_bad.rs");
    assert!(lint_source("crates/netsim/src/packet.rs", src).is_empty());
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    for hot in [
        "crates/netsim/src/sim.rs",
        "crates/netsim/src/fabric.rs",
        "crates/netsim/src/host.rs",
        "crates/netsim/src/state.rs",
        "crates/netsim/src/node.rs",
        "crates/simcore/src/sched.rs",
        "crates/simcore/src/event.rs",
    ] {
        assert_eq!(unallowed(&lint_source(hot, src), Rule::HotPathAlloc), 4);
    }
}

// --- R8: float-order ------------------------------------------------------

#[test]
fn r8_fires_on_float_accumulation() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r8_bad.rs"));
    assert_only_rule(&fs, Rule::FloatOrder);
    // sum::<f64>, float-ascribed .sum(), product::<f32>, fold(0.0, ..);
    // the integer sum and the #[cfg(test)] module are exempt.
    assert_eq!(unallowed(&fs, Rule::FloatOrder), 4);
}

#[test]
fn r8_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r8_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::FloatOrder), 0);
    assert_eq!(allowed(&fs, Rule::FloatOrder), 2);
}

#[test]
fn r8_only_applies_to_sim_state_crates() {
    let src = include_str!("fixtures/r8_bad.rs");
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    assert_eq!(
        unallowed(
            &lint_source("crates/workloads/src/x.rs", src),
            Rule::FloatOrder
        ),
        4,
        "workloads is a sim-state crate"
    );
}

// --- R10: shared-state (clippy::disallowed_types / _macros, unsafe_code) ---

#[test]
fn r10_fires_on_interior_mutability() {
    // One line per disallowed type (imports, and a field per type, two of
    // them named only through a `std::sync` glob), `thread_local!`, the
    // `unsafe` read of a `static mut`, and the test module's Cell.
    let lints = assert_clippy_matches_markers("r10_bad.rs");
    assert_eq!(
        lints,
        set(&[
            "clippy::disallowed_macros",
            "clippy::disallowed_types",
            "unsafe_code"
        ])
    );
}

#[test]
fn r10_respects_allow_annotations() {
    assert_expectations_hold("r10_allowed.rs");
}

#[test]
fn r10_only_applies_to_pdes_state_crates() {
    // The disallowed types' scope is `r1_only_applies_to_sim_state_crates`;
    // `static mut` needs `unsafe` to be read or written, which the
    // sim-state crate roots forbid.
    let want: BTreeSet<String> = SIM_STATE_ROOTS.map(String::from).into();
    assert!(sources_with_line("#![forbid(unsafe_code)]").is_superset(&want));
}

// --- R11: event-exhaustiveness (clippy::wildcard_enum_match_arm) -----------

/// The crate-level attributes that switch R11 on: the first lint skips a
/// wildcard that stands for a single variant, which the second catches.
const R11_DENY: [&str; 2] = [
    "#![deny(clippy::wildcard_enum_match_arm)]",
    "#![deny(clippy::match_wildcard_for_single_variants)]",
];

#[test]
fn r11_fires_on_wildcard_critical_dispatch() {
    // The bare `_` in dispatch(), the trailing `_` after the guarded arm
    // in guarded(), the FaultKind wildcard and the test module's; the
    // exhaustive match and the guarded `_ if` arm itself are legal.
    let lints = assert_clippy_matches_markers("r11_bad.rs");
    assert_eq!(
        lints,
        set(&[
            "clippy::match_wildcard_for_single_variants",
            "clippy::wildcard_enum_match_arm"
        ])
    );
}

#[test]
fn r11_respects_allow_annotations() {
    assert_expectations_hold("r11_allowed.rs");
}

#[test]
fn r11_only_applies_to_pdes_state_crates() {
    let want: BTreeSet<String> = SIM_STATE_ROOTS.map(String::from).into();
    let fixture_root = read("crates/simlint/tests/fixtures/clippy/src/lib.rs");
    for deny in R11_DENY {
        assert_eq!(sources_with_line(deny), want);
        assert!(fixture_root.lines().any(|l| l == deny));
    }
}

// --- allow-hygiene ----------------------------------------------------------

#[test]
fn stale_and_malformed_allows_are_reported() {
    let fs = lint_source(HOT_PATH, include_str!("fixtures/allow_hygiene_bad.rs"));
    // A reasonless annotation, one over a line with no finding, one naming
    // a rule simlint no longer has, and one in a test region, which the
    // rule it names exempts already.
    let hygiene: Vec<u32> = fs
        .iter()
        .filter(|f| f.rule == Rule::AllowHygiene)
        .map(|f| f.line)
        .collect();
    assert_eq!(hygiene, vec![5, 9, 14, 23]);
    assert_eq!(unallowed(&fs, Rule::AllowHygiene), 4);
    // The reasonless annotation silences nothing.
    assert_eq!(unallowed(&fs, Rule::HotPathAlloc), 1);
}

#[test]
fn hygiene_findings_cannot_be_allowed() {
    // An annotation naming the hygiene rule does not silence the
    // reasonless annotation below it, so it covers nothing and is
    // reported too.
    let src = "// simlint::allow(allow-hygiene, silence the next line)\n\
               // simlint::allow(float-order)\n\
               pub fn f() {}\n";
    let fs = lint_source(SIM_PATH, src);
    let lines: Vec<u32> = fs.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 2]);
    assert_eq!(unallowed(&fs, Rule::AllowHygiene), 2);
}

#[test]
fn allows_that_cover_findings_are_not_reported() {
    for (path, src) in [
        (SIM_PATH, include_str!("fixtures/r4_allowed.rs")),
        (HOT_PATH, include_str!("fixtures/r7_allowed.rs")),
        (SIM_PATH, include_str!("fixtures/r8_allowed.rs")),
    ] {
        let fs = lint_source(path, src);
        assert_eq!(unallowed(&fs, Rule::AllowHygiene), 0, "{fs:?}");
    }
}
