//! Fixture-based rule tests: every rule has one bad example proven to fire
//! and one allowed example proven to be accepted, plus scoping checks that
//! the path-sensitive rules stay inside their crates.

use simlint::{lint_source, Finding, Rule};

/// A path inside a simulation-state crate (activates R1/R2/R3/R4/R6).
const SIM_PATH: &str = "crates/netsim/src/fixture.rs";
/// One of the two hot-path files (activates R5 as well).
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

// --- R1: nondeterministic-map -------------------------------------------

#[test]
fn r1_fires_on_hash_collections() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r1_bad.rs"));
    assert_only_rule(&fs, Rule::NondeterministicMap);
    // Import line (2 idents) + two field sites.
    assert_eq!(unallowed(&fs, Rule::NondeterministicMap), 4);
}

#[test]
fn r1_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r1_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::NondeterministicMap), 0);
    assert_eq!(allowed(&fs, Rule::NondeterministicMap), 4);
    for f in &fs {
        let reason = f.allowed.as_deref().unwrap();
        assert!(!reason.is_empty(), "allow must carry its reason through");
    }
}

#[test]
fn r1_only_applies_to_sim_state_crates() {
    let src = include_str!("fixtures/r1_bad.rs");
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    assert_eq!(
        lint_source("crates/transport/src/x.rs", src).len(),
        4,
        "transport is a sim-state crate"
    );
}

// --- R2: wall-clock ------------------------------------------------------

#[test]
fn r2_fires_on_wall_clock() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r2_bad.rs"));
    assert_only_rule(&fs, Rule::WallClock);
    // Instant x2, SystemTime x2, thread::sleep x1.
    assert_eq!(unallowed(&fs, Rule::WallClock), 5);
}

#[test]
fn r2_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r2_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::WallClock), 0);
    assert_eq!(allowed(&fs, Rule::WallClock), 2);
}

// --- R3: unseeded-rng ----------------------------------------------------

#[test]
fn r3_fires_on_unseeded_rng() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r3_bad.rs"));
    assert_only_rule(&fs, Rule::UnseededRng);
    // thread_rng, rand::random(), rand::random::<f64>(), bare random().
    // The `fn random()` definition itself must NOT fire.
    assert_eq!(unallowed(&fs, Rule::UnseededRng), 4);
}

#[test]
fn r3_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r3_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::UnseededRng), 0);
    assert_eq!(allowed(&fs, Rule::UnseededRng), 1);
}

#[test]
fn r3_applies_everywhere() {
    let src = include_str!("fixtures/r3_bad.rs");
    assert_eq!(
        lint_source("crates/experiments/src/x.rs", src).len(),
        4,
        "the RNG rule has no crate exemptions"
    );
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

// --- R5: hot-path-unwrap -------------------------------------------------

#[test]
fn r5_fires_in_hot_path_non_test_code() {
    let fs = lint_source(HOT_PATH, include_str!("fixtures/r5_bad.rs"));
    assert_only_rule(&fs, Rule::HotPathUnwrap);
    // unwrap + expect in the two pub fns; the #[cfg(test)] module's
    // unwrap/expect are exempt.
    assert_eq!(unallowed(&fs, Rule::HotPathUnwrap), 2);
}

#[test]
fn r5_respects_allow_annotations() {
    let fs = lint_source(HOT_PATH, include_str!("fixtures/r5_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::HotPathUnwrap), 0);
    assert_eq!(allowed(&fs, Rule::HotPathUnwrap), 2);
}

#[test]
fn r5_only_applies_to_named_hot_paths() {
    let src = include_str!("fixtures/r5_bad.rs");
    assert!(lint_source("crates/netsim/src/packet.rs", src).is_empty());
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    for hot in [
        "crates/netsim/src/sim.rs",
        "crates/netsim/src/fabric.rs",
        "crates/netsim/src/host.rs",
        "crates/netsim/src/node.rs",
        "crates/netsim/src/state.rs",
        "crates/simcore/src/sched.rs",
    ] {
        assert_eq!(unallowed(&lint_source(hot, src), Rule::HotPathUnwrap), 2);
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

// --- R6: allow-without-reason --------------------------------------------

#[test]
fn r6_fires_on_unjustified_allows() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r6_bad.rs"));
    assert_only_rule(&fs, Rule::AllowWithoutReason);
    // Outer #[allow], inner #![allow], and the reasonless simlint::allow.
    assert_eq!(unallowed(&fs, Rule::AllowWithoutReason), 3);
}

#[test]
fn r6_accepts_reason_comments() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r6_allowed.rs"));
    assert!(fs.is_empty(), "unexpected findings: {fs:?}");
}

// --- R10: shared-state ----------------------------------------------------

#[test]
fn r10_fires_on_interior_mutability() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r10_bad.rs"));
    assert_only_rule(&fs, Rule::SharedState);
    // RefCell import + field, Mutex import + field, AtomicU64 import +
    // field, the std::sync glob, static mut, thread_local!; the
    // #[cfg(test)] module's Cell is exempt.
    assert_eq!(unallowed(&fs, Rule::SharedState), 9);
}

#[test]
fn r10_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r10_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::SharedState), 0);
    assert_eq!(allowed(&fs, Rule::SharedState), 2);
}

#[test]
fn r10_only_applies_to_pdes_state_crates() {
    let src = include_str!("fixtures/r10_bad.rs");
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    assert_eq!(
        unallowed(&lint_source("crates/core/src/pp.rs", src), Rule::SharedState),
        9,
        "the prioplus algorithm crate holds sim state too"
    );
}

// --- R11: event-exhaustiveness --------------------------------------------

#[test]
fn r11_fires_on_wildcard_critical_dispatch() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r11_bad.rs"));
    assert_only_rule(&fs, Rule::EventExhaustiveness);
    // The bare `_` in dispatch(), the trailing `_` after the guarded arm
    // in guarded(), and the FaultKind wildcard; the exhaustive match, the
    // Option match, the guarded `_ if` arm itself, and the #[cfg(test)]
    // module are all exempt.
    assert_eq!(unallowed(&fs, Rule::EventExhaustiveness), 3);
}

#[test]
fn r11_respects_allow_annotations() {
    let fs = lint_source(SIM_PATH, include_str!("fixtures/r11_allowed.rs"));
    assert_eq!(unallowed(&fs, Rule::EventExhaustiveness), 0);
    assert_eq!(allowed(&fs, Rule::EventExhaustiveness), 1);
}

#[test]
fn r11_only_applies_to_pdes_state_crates() {
    let src = include_str!("fixtures/r11_bad.rs");
    assert!(lint_source("crates/experiments/src/x.rs", src).is_empty());
    assert_eq!(
        unallowed(
            &lint_source("crates/core/src/pp.rs", src),
            Rule::EventExhaustiveness
        ),
        3
    );
}
