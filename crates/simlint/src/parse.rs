//! Item-level parsing: the second analysis layer on top of [`crate::lexer`].
//!
//! The lexer gives a flat token stream; this module recovers just enough
//! *structure* for the module-cycle half of the layering pass (R9) and the
//! test-region exemptions of the token rules: the `crate::` / `super::`
//! references among fully expanded `use` trees (groups, globs, renames) and
//! `Head::...` paths, and the `#[cfg(test)]`/`#[test]` regions. It is not a
//! Rust parser — no expressions, no types, no precedence — because the
//! rules only need names and edges. `cfg`-gated items are indexed
//! unconditionally: the lint must see every configuration at once.
//!
//! Everything here is resilient by construction: on malformed input the
//! scans simply record less, they never error — the compiler is the
//! authority on well-formedness, simlint only looks for hazards.

use crate::lexer::{Lexed, Tok, TokKind};

/// One expanded `use` leaf under `crate` or `super`: `use crate::{b,
/// c::*};` yields `[crate, b]` and `[crate, c]`.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Path segments, the leading `crate`/`super` included.
    pub segs: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: u32,
    /// Whether the declaration sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A `crate::second::...` or `super::second::...` path reference anywhere
/// in code (use lines included). The head is never preceded by `::`, so
/// nested path segments don't produce spurious heads.
#[derive(Clone, Debug)]
pub struct PathRef {
    /// Leading identifier: `crate` or `super`.
    pub head: String,
    /// The segment after the first `::`, when it is an identifier.
    pub second: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// Whether the reference sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Everything the item-level parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Expanded `use` leaves under `crate` / `super`.
    pub uses: Vec<UseDecl>,
    /// `crate::...` / `super::...` path references.
    pub path_refs: Vec<PathRef>,
    /// Line ranges (inclusive) of `#[cfg(test)]` modules / `#[test]` fns.
    pub test_regions: Vec<(u32, u32)>,
}

/// Line ranges (inclusive) of `#[cfg(test)]` modules and `#[test]`
/// functions. Shared by the token rules (R8) and the layering pass.
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let t = |i: usize| -> &str { &toks[i].text };
    let mut i = 0usize;
    while i < toks.len() {
        let is_cfg_test = i + 4 < toks.len()
            && t(i) == "#"
            && t(i + 1) == "["
            && t(i + 2) == "cfg"
            && t(i + 3) == "("
            && t(i + 4) == "test";
        let is_test_attr = i + 3 < toks.len()
            && t(i) == "#"
            && t(i + 1) == "["
            && t(i + 2) == "test"
            && t(i + 3) == "]";
        if is_cfg_test || is_test_attr {
            // The region is the brace-block of the item the attribute
            // decorates: skip to the first `{` after the attribute, then
            // find its matching `}`.
            let mut j = i + 3;
            while j < toks.len() && t(j) != "{" {
                j += 1;
            }
            if j < toks.len() {
                let start = toks[i].line;
                let mut depth = 1i32;
                let mut k = j + 1;
                while k < toks.len() && depth > 0 {
                    match t(k) {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let end = if k > 0 && k <= toks.len() {
                    toks[k - 1].line
                } else {
                    u32::MAX
                };
                regions.push((start, end));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Whether `line` falls inside any of the given test regions.
pub fn in_test_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Parse one lexed file into its item-level structure.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.toks;
    let regions = test_regions(toks);
    let mut pf = ParsedFile::default();
    let t = |i: usize| -> &str { &toks[i].text };

    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let in_test = in_test_region(&regions, tok.line);
        if tok.text == "use" {
            // Paths inside the tree are recorded by the path_refs scan
            // too, but only the tree expansion sees group leaves.
            let mut segs = Vec::new();
            parse_use_tree(toks, i + 1, &mut segs, &mut pf.uses, tok.line, in_test);
        }
        // Path-reference scan: `crate::...` / `super::...` where the head
        // is not itself a path segment (`super::super::`).
        if (tok.text == "crate" || tok.text == "super")
            && i + 2 < toks.len()
            && t(i + 1) == ":"
            && t(i + 2) == ":"
            && (i == 0 || t(i - 1) != ":")
        {
            let second = if i + 3 < toks.len() && toks[i + 3].kind == TokKind::Ident {
                Some(t(i + 3).to_string())
            } else {
                None
            };
            pf.path_refs.push(PathRef {
                head: tok.text.clone(),
                second,
                line: tok.line,
                in_test,
            });
        }
    }
    pf.uses
        .retain(|u| matches!(u.segs.first().map(String::as_str), Some("crate" | "super")));
    pf.test_regions = regions;
    pf
}

/// Recursively expand a `use` tree starting at token `i` (just past `use`
/// or just past a group comma), appending leaves to `out`. Returns the
/// index one past the subtree.
fn parse_use_tree(
    toks: &[Tok],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
    line: u32,
    in_test: bool,
) -> usize {
    let t = |i: usize| -> &str { &toks[i].text };
    let base_len = prefix.len();
    // Set once a glob or group already emitted this subtree's leaves, so
    // the terminator doesn't emit a duplicate plain leaf.
    let mut emitted = false;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Ident => {
                if t(i) == "as" {
                    // Rename: consume the alias; the leaf keeps its path.
                    i += 1;
                    if i < toks.len() && toks[i].kind == TokKind::Ident {
                        i += 1;
                    }
                    continue;
                }
                prefix.push(t(i).to_string());
                i += 1;
            }
            TokKind::Punct => match t(i) {
                ":" => {
                    // `::` — two punct tokens; skip both.
                    i += 1;
                    if i < toks.len() && t(i) == ":" {
                        i += 1;
                    }
                }
                "*" => {
                    out.push(UseDecl {
                        segs: prefix.clone(),
                        line,
                        in_test,
                    });
                    emitted = true;
                    i += 1;
                }
                "{" => {
                    i += 1;
                    // Comma-separated subtrees until the matching `}`.
                    loop {
                        let before = prefix.len();
                        i = parse_use_tree(toks, i, prefix, out, line, in_test);
                        prefix.truncate(before);
                        if i >= toks.len() {
                            return i;
                        }
                        match t(i) {
                            "," => i += 1,
                            "}" => {
                                i += 1;
                                break;
                            }
                            // `;` inside a group is malformed; bail.
                            _ => return i,
                        }
                    }
                    // A group always terminates its branch of the tree.
                    prefix.truncate(base_len);
                    return i;
                }
                "," | "}" | ";" => {
                    // End of this subtree: emit the accumulated path as a
                    // plain leaf if this branch added segments and nothing
                    // (glob) emitted for it yet. An empty branch (e.g. a
                    // trailing comma before `}`) emits nothing.
                    if !emitted && prefix.len() > base_len {
                        out.push(UseDecl {
                            segs: prefix.clone(),
                            line,
                            in_test,
                        });
                    }
                    return i;
                }
                _ => return i,
            },
            _ => return i,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn use_groups_globs_and_renames_expand() {
        // Leaves under another crate are not kept.
        let pf = parse_src(
            "use std::collections::{BTreeMap, btree_map::Entry};\n\
             use crate::packet::*;\n\
             use super::node as n;\n\
             pub use crate::{event::Time, sched::{Entry as E, Scheduler}};\n",
        );
        let paths: Vec<String> = pf.uses.iter().map(|u| u.segs.join("::")).collect();
        assert_eq!(
            paths,
            vec![
                "crate::packet",
                "super::node",
                "crate::event::Time",
                "crate::sched::Entry",
                "crate::sched::Scheduler",
            ]
        );
    }

    #[test]
    fn cfg_gated_items_are_indexed() {
        let pf = parse_src(
            "#[cfg(feature = \"audit\")]\n\
             pub mod audit;\n\
             #[cfg(feature = \"audit\")]\n\
             use crate::audit::Audit;\n\
             #[cfg(not(feature = \"audit\"))]\n\
             fn no_audit() {}\n",
        );
        assert_eq!(pf.uses.len(), 1);
        assert_eq!(pf.uses[0].segs, vec!["crate", "audit", "Audit"]);
        assert_eq!(pf.path_refs.len(), 1);
        assert_eq!(pf.path_refs[0].second.as_deref(), Some("audit"));
    }

    #[test]
    fn path_refs_skip_turbofish_and_nested_segments() {
        let pf = parse_src(
            "fn f() {\n\
                 let a = netsim::sim::Event::End;\n\
                 let b = x.parse::<u64>();\n\
                 let c = crate::packet::PacketId(0);\n\
                 let d = super::node::Switch::new();\n\
             }\n",
        );
        // Another crate's path, its nested segments and a turbofish are
        // not references.
        let refs: Vec<(&str, Option<&str>)> = pf
            .path_refs
            .iter()
            .map(|p| (p.head.as_str(), p.second.as_deref()))
            .collect();
        assert_eq!(
            refs,
            vec![("crate", Some("packet")), ("super", Some("node"))]
        );
    }

    #[test]
    fn test_region_flags_propagate_to_uses_and_path_refs() {
        let pf = parse_src(
            "use crate::a::X;\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use crate::b::Y;\n\
                 #[test]\n\
                 fn t() { crate::c::run(); }\n\
             }\n",
        );
        assert!(!pf.uses[0].in_test);
        assert!(pf.uses[1].in_test);
        let run = pf
            .path_refs
            .iter()
            .find(|p| p.second.as_deref() == Some("c"))
            .unwrap();
        assert!(run.in_test);
    }
}
