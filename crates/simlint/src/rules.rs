//! The simlint rule set.
//!
//! Three rules that need the hand-rolled [`crate::lexer`] and the
//! workspace index, because they key on names, file scopes and the crate
//! graph rather than on resolved types, plus the hygiene of their own
//! allow annotations. The determinism rules that need type resolution
//! (R1, R2, R5, R6, R10, R11) are clippy's: `clippy.toml`,
//! `[workspace.lints]` and crate- or module-level `#![deny]`; R3 is a
//! `Cargo.lock` check in `tests/lint_clean.rs`; R7, no heap traffic per
//! event, is an exact allocator-call pin over whole runs in
//! `tests/alloc_budget.rs`.
//! DESIGN.md § Static analysis names each rule's enforcer and scope.
//!
//! | rule              | guards against                                      |
//! |-------------------|-----------------------------------------------------|
//! | `lossy-time-cast` | bare `as u64`/`as i64` on `Time`/`Rate` values      |
//! | `float-order`     | f64/f32 accumulation over iterated collections      |
//! | `layering`        | upward manifest edges / module cycles in sim crates |
//! | `allow-hygiene`   | a `simlint::allow` that is malformed or stale       |
//!
//! Any finding of the first three can be silenced in place with an
//! annotation comment:
//!
//! ```text
//! // simlint::allow(rule-name, why this site is safe)
//! ```
//!
//! on the same line as the finding or the line immediately above it. The
//! reason is mandatory, and, as with `#[expect]`, an annotation that
//! covers no finding is itself reported, so a stale allowance cannot
//! outlive the code it excused.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::parse::{in_test_region, ParsedFile};

/// One of the lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R4: no bare `as u64`/`as i64` casts on `Time`/`Rate` expressions.
    LossyTimeCast,
    /// R8: no `f64`/`f32` accumulation over iterated collections
    /// (`.sum::<f64>()`, float-typed `.sum()`/`.product()`, float-seeded
    /// `.fold(...)`) in simulation-state crates — float addition is not
    /// associative, so any refactor that reorders the iteration silently
    /// perturbs results. Accumulate in integer units (the streaming
    /// sketches' `u64` picoseconds and milli-slowdowns, `u64` byte counters)
    /// and convert to float at the edge, or annotate why the ordering is
    /// pinned.
    FloatOrder,
    /// R9: the crate DAG is one-way (`simcore <- {netsim, prioplus} <-
    /// transport <- workloads <- experiments`) and module graphs
    /// inside sim-state crates are acyclic. Crate edges come from the
    /// `Cargo.toml` dependency tables, dev-dependencies included (cargo
    /// allows dev-dependency cycles; they are not legal here): rustc
    /// refuses a path to a crate the manifest does not name. A future
    /// `partition` layer must be physically unable to reach back into
    /// global `Sim` state.
    Layering,
    /// A `simlint::allow` annotation with no reason, naming no rule above,
    /// or covering no finding. No annotation silences it.
    AllowHygiene,
}

impl Rule {
    /// Every rule, in diagnostic order.
    pub const ALL: [Rule; 4] = [
        Rule::LossyTimeCast,
        Rule::FloatOrder,
        Rule::Layering,
        Rule::AllowHygiene,
    ];

    /// The kebab-case name used in diagnostics and `simlint::allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LossyTimeCast => "lossy-time-cast",
            Rule::FloatOrder => "float-order",
            Rule::Layering => "layering",
            Rule::AllowHygiene => "allow-hygiene",
        }
    }

    /// Parse a rule name as written in an allow annotation.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// Whether this rule applies to the file at workspace-relative `path`
    /// (forward slashes).
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::LossyTimeCast => true,
            // The crates whose values feed simulation state or recorded
            // results.
            Rule::FloatOrder => [
                "crates/simcore/",
                "crates/netsim/",
                "crates/transport/",
                "crates/workloads/",
            ]
            .iter()
            .any(|p| path.starts_with(p)),
            // Layering applies everywhere: the crate DAG covers the whole
            // workspace and the module-cycle scope is narrowed in
            // `crate::index` itself.
            Rule::Layering => true,
            Rule::AllowHygiene => true,
        }
    }
}

/// A single diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// `Some(reason)` when a `simlint::allow` annotation covers this site.
    pub allowed: Option<String>,
}

/// A parsed `simlint::allow(rule, reason)` annotation.
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: Rule,
    pub(crate) reason: String,
}

fn hygiene(line: u32, message: String) -> Finding {
    Finding {
        rule: Rule::AllowHygiene,
        line,
        col: 1,
        message,
        allowed: None,
    }
}

/// Scan comments for allow annotations. Malformed annotations (unknown rule
/// or missing reason) are returned as findings instead of silently ignored.
pub(crate) fn collect_allows(lexed: &Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Annotations are only valid in plain `//` comments: doc comments
        // (`///`, `//!` — text starting with `/` or `!` after the marker)
        // merely *describe* the grammar and must not activate it.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("simlint::allow(") {
            rest = &rest[pos + "simlint::allow(".len()..];
            let Some(close) = rest.find(')') else {
                bad.push(hygiene(
                    c.line,
                    "unterminated simlint::allow annotation".into(),
                ));
                break;
            };
            let body = &rest[..close];
            rest = &rest[close + 1..];
            let (name, reason) = match body.split_once(',') {
                Some((n, r)) => (n.trim(), r.trim()),
                None => (body.trim(), ""),
            };
            match (Rule::parse(name), reason.is_empty()) {
                (Some(rule), false) => allows.push(Allow {
                    line: c.line,
                    rule,
                    reason: reason.to_string(),
                }),
                (Some(_), true) => bad.push(hygiene(
                    c.line,
                    format!(
                        "simlint::allow({name}) is missing a reason; \
                         write simlint::allow({name}, why-this-is-safe)"
                    ),
                )),
                (None, _) => bad.push(hygiene(
                    c.line,
                    format!("simlint::allow names unknown rule {name:?}"),
                )),
            }
        }
    }
    (allows, bad)
}

/// The test regions to exempt for `path`: the whole file for test
/// directories (compiled only under `cargo test`), else the parsed
/// `#[cfg(test)]`/`#[test]` regions.
pub(crate) fn effective_regions(path: &str, parsed: &ParsedFile) -> Vec<(u32, u32)> {
    if path.starts_with("tests/") || path.contains("/tests/") {
        vec![(0, u32::MAX)]
    } else {
        parsed.test_regions.clone()
    }
}

/// Unit accessors on `Time`/`Rate` whose result must not be cast with a
/// bare `as u64`/`as i64` (truncating float getters and sign-crossing
/// integer getters alike).
const UNIT_ACCESSORS: [&str; 7] = [
    "as_ps",
    "as_ns",
    "as_bps",
    "as_us_f64",
    "as_ms_f64",
    "as_secs_f64",
    "as_gbps_f64",
];

/// Walk the postfix-expression chain ending at token index `end`
/// (exclusive: `end` is the index of the `as` keyword) and collect the
/// identifiers it mentions. Handles `recv.method(args).method2(args)` and
/// `Type::assoc(args)` chains; stops at any other operator.
fn cast_operand_idents(toks: &[Tok], end: usize) -> Vec<String> {
    let mut ids = Vec::new();
    if end == 0 {
        return ids;
    }
    let mut j = end - 1;
    loop {
        match toks[j].text.as_str() {
            ")" | "]" => {
                let open = if toks[j].text == ")" { "(" } else { "[" };
                let close = toks[j].text.clone();
                let mut depth = 1i32;
                while depth > 0 && j > 0 {
                    j -= 1;
                    if toks[j].text == close {
                        depth += 1;
                    } else if toks[j].text == open {
                        depth -= 1;
                    } else if toks[j].kind == TokKind::Ident {
                        ids.push(toks[j].text.clone());
                    }
                }
                if depth > 0 || j == 0 {
                    break;
                }
                j -= 1;
                // A call: the ident before `(` is part of the chain and is
                // handled by the next loop turn.
            }
            _ if toks[j].kind == TokKind::Ident || toks[j].kind == TokKind::Num => {
                if toks[j].kind == TokKind::Ident {
                    ids.push(toks[j].text.clone());
                }
                if j == 0 {
                    break;
                }
                // Continue only across `.` or `::` connectors.
                if toks[j - 1].text == "." {
                    if j < 2 {
                        break;
                    }
                    j -= 2;
                    continue;
                }
                if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
                    if j < 3 {
                        break;
                    }
                    j -= 3;
                    continue;
                }
                break;
            }
            _ => break,
        }
        // After skipping a bracket group, continue the chain walk.
        if toks[j].kind != TokKind::Ident && toks[j].kind != TokKind::Num {
            match toks[j].text.as_str() {
                ")" | "]" => continue,
                _ => break,
            }
        }
    }
    ids
}

/// Run every applicable rule over one lexed file, annotations applied.
/// `path` is workspace-relative with forward slashes; it selects which
/// rules apply. The cross-file half of R9 needs the whole workspace and
/// lives in [`crate::index`]; this entry point covers everything
/// single-file.
pub fn check(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let parsed = crate::parse::parse(lexed);
    let (allows, mut findings) = collect_allows(lexed);
    findings.extend(token_findings(
        path,
        lexed,
        &effective_regions(path, &parsed),
    ));
    let stale = apply_allows(&allows, findings.iter_mut());
    findings.extend(stale);
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Apply allow annotations: an allow on line L covers findings for its
/// rule on L (trailing comment) and L+1 (comment on its own line above),
/// except [`Rule::AllowHygiene`] findings. Returns one of those for every
/// annotation that covered nothing.
pub(crate) fn apply_allows<'a>(
    allows: &[Allow],
    findings: impl IntoIterator<Item = &'a mut Finding>,
) -> Vec<Finding> {
    let covers = |a: &Allow, f: &Finding| {
        a.rule == f.rule
            && f.rule != Rule::AllowHygiene
            && (a.line == f.line || a.line + 1 == f.line)
    };
    let mut used = vec![false; allows.len()];
    for f in findings {
        for (a, used) in allows.iter().zip(&mut used) {
            if covers(a, f) {
                *used = true;
                if f.allowed.is_none() {
                    f.allowed = Some(a.reason.clone());
                }
            }
        }
    }
    allows
        .iter()
        .zip(used)
        .filter(|&(_, used)| !used)
        .map(|(a, _)| {
            hygiene(
                a.line,
                format!(
                    "simlint::allow({}) covers no finding on this line or the next; delete it",
                    a.rule.name()
                ),
            )
        })
        .collect()
}

/// The token-level rules (R4, R8), one linear scan.
pub(crate) fn token_findings(path: &str, lexed: &Lexed, regions: &[(u32, u32)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.toks;
    let t = |i: usize| -> &str { &toks[i].text };
    for i in 0..toks.len() {
        let tok = &toks[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            // R4
            "as" if Rule::LossyTimeCast.applies_to(path)
                && i + 1 < toks.len()
                && (t(i + 1) == "u64" || t(i + 1) == "i64") =>
            {
                let ids = cast_operand_idents(toks, i);
                let mentions_type = ids
                    .iter()
                    .any(|id| id == "Time" || id == "Rate" || id == "TimeDelta");
                let unit_getter = ids
                    .first()
                    .map(|id| UNIT_ACCESSORS.contains(&id.as_str()))
                    .unwrap_or(false);
                if mentions_type || unit_getter {
                    findings.push(Finding {
                        rule: Rule::LossyTimeCast,
                        line: tok.line,
                        col: tok.col,
                        message: format!(
                            "bare `as {}` on a Time/Rate-derived value can silently \
                             truncate or wrap; use a checked conversion",
                            t(i + 1)
                        ),
                        allowed: None,
                    });
                }
            }
            // R8: float accumulation over an iterated collection. Three
            // lexical shapes cover the std reduction entry points:
            //   .sum::<f64>() / .product::<f32>()   — turbofish-typed
            //   let x: f64 = it.sum();              — statement mentions f64
            //   it.fold(0.0, ..)                    — float-seeded fold
            "sum" | "product"
                if Rule::FloatOrder.applies_to(path)
                    && i >= 1
                    && t(i - 1) == "."
                    && !in_test_region(regions, tok.line)
                    && {
                        let turbofish_float = i + 4 < toks.len()
                            && t(i + 1) == ":"
                            && t(i + 2) == ":"
                            && t(i + 3) == "<"
                            && (t(i + 4) == "f64" || t(i + 4) == "f32");
                        // For an untyped `.sum()`, look back through the
                        // enclosing statement for a float type ascription.
                        let stmt_mentions_float = t(i + 1) == "(" && {
                            let mut j = i;
                            let mut hit = false;
                            while j > 0 {
                                j -= 1;
                                match t(j) {
                                    ";" | "{" | "}" => break,
                                    "f64" | "f32" => {
                                        hit = true;
                                        break;
                                    }
                                    _ => {}
                                }
                            }
                            hit
                        };
                        turbofish_float || stmt_mentions_float
                    } =>
            {
                findings.push(Finding {
                    rule: Rule::FloatOrder,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "float {}() over an iterated collection: f64 addition is not \
                         associative, so reordering the iteration perturbs results; \
                         accumulate in integer units or annotate why the order is pinned",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            "fold"
                if Rule::FloatOrder.applies_to(path)
                    && i >= 1
                    && t(i - 1) == "."
                    && i + 2 < toks.len()
                    && t(i + 1) == "("
                    && toks[i + 2].kind == TokKind::Num
                    && (t(i + 2).contains('.')
                        || t(i + 2).ends_with("f64")
                        || t(i + 2).ends_with("f32"))
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::FloatOrder,
                    line: tok.line,
                    col: tok.col,
                    message: "float-seeded fold() over an iterated collection: f64 \
                              addition is not associative, so reordering the iteration \
                              perturbs results; accumulate in integer units or annotate \
                              why the order is pinned"
                        .into(),
                    allowed: None,
                });
            }
            _ => {}
        }
    }
    findings
}
