//! Item-level parsing: the second analysis layer on top of [`crate::lexer`].
//!
//! The lexer gives a flat token stream; this module recovers just enough
//! *structure* for the layering pass (R9) and the test-region exemptions
//! of the token rules: module declarations, fully expanded `use` trees
//! (groups, globs, renames), every `Head::...` path reference, and the
//! `#[cfg(test)]`/`#[test]` regions. It is not a Rust parser — no
//! expressions, no types, no precedence — because the rules only need
//! names and edges. `cfg`-gated items are indexed unconditionally: the
//! lint must see every configuration at once.
//!
//! Everything here is resilient by construction: on malformed input the
//! scans simply record less, they never error — the compiler is the
//! authority on well-formedness, simlint only looks for hazards.

use crate::lexer::{Lexed, Tok, TokKind};

/// One expanded `use` leaf: `use a::{b, c::*};` yields `[a, b]` and
/// `[a, c]`.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Path segments, with leading `crate`/`super`/`self` kept verbatim.
    pub segs: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: u32,
    /// Whether the declaration sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A `mod` declaration, file-backed (`mod x;`) or inline (`mod x { .. }`).
#[derive(Clone, Debug)]
pub struct ModDecl {
    /// Module name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// True for `mod x { .. }`, false for `mod x;`.
    pub inline: bool,
    /// Names of the enclosing inline modules, outermost first.
    pub parents: Vec<String>,
}

/// A `Head::second::...` path reference anywhere in code (use lines
/// included). The head is never preceded by `::` or `.`, so turbofish
/// method calls and nested path segments don't produce spurious heads.
#[derive(Clone, Debug)]
pub struct PathRef {
    /// Leading identifier (`crate`, `super`, a crate name, a module, ...).
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
    /// `mod` declarations.
    pub mods: Vec<ModDecl>,
    /// Expanded `use` leaves.
    pub uses: Vec<UseDecl>,
    /// All `Head::...` path references.
    pub path_refs: Vec<PathRef>,
    /// Line ranges (inclusive) of `#[cfg(test)]` modules / `#[test]` fns.
    pub test_regions: Vec<(u32, u32)>,
}

/// Line ranges (inclusive) of `#[cfg(test)]` modules and `#[test]`
/// functions. Shared by the token rules (R7/R8) and the layering pass.
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

    // Inline-module nesting: (name, brace depth at which the body opened).
    let mut mod_stack: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        match tok.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                while mod_stack.last().is_some_and(|&(_, d)| d > depth) {
                    mod_stack.pop();
                }
            }
            _ => {}
        }
        if tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let in_test = in_test_region(&regions, tok.line);
        match tok.text.as_str() {
            "use" => {
                // `use` is also the closing keyword of nothing else; paths
                // inside the tree are recorded by the path_refs scan too,
                // but only the tree expansion sees group leaves.
                let mut segs = Vec::new();
                parse_use_tree(toks, i + 1, &mut segs, &mut pf.uses, tok.line, in_test);
            }
            "mod" if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                let name = t(i + 1).to_string();
                // Distinguish `mod x;` / `mod x { .. }`; anything else
                // (e.g. the path segment in `mod` attrs) is skipped.
                let mut j = i + 2;
                while j < toks.len() && t(j) != ";" && t(j) != "{" {
                    j += 1;
                }
                if j < toks.len() {
                    let inline = t(j) == "{";
                    pf.mods.push(ModDecl {
                        name: name.clone(),
                        line: tok.line,
                        inline,
                        parents: mod_stack.iter().map(|(n, _)| n.clone()).collect(),
                    });
                    if inline {
                        // The `{` itself is processed on a later loop turn;
                        // record the depth it will open at.
                        mod_stack.push((name, depth + 1));
                    }
                }
            }
            _ => {}
        }
        // Path-reference scan: `Head::...` where Head is not itself a
        // path segment (`a::Head::`) or a method turbofish (`.head::<`).
        if i + 2 < toks.len()
            && t(i + 1) == ":"
            && t(i + 2) == ":"
            && (i == 0 || (t(i - 1) != ":" && t(i - 1) != "."))
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
        i += 1;
    }
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
        let pf = parse_src(
            "use std::collections::{BTreeMap, btree_map::Entry};\n\
             use crate::packet::*;\n\
             use super::node as n;\n\
             pub use simcore::{Time, sched::{Entry as E, Scheduler}};\n",
        );
        let paths: Vec<String> = pf.uses.iter().map(|u| u.segs.join("::")).collect();
        assert_eq!(
            paths,
            vec![
                "std::collections::BTreeMap",
                "std::collections::btree_map::Entry",
                "crate::packet",
                "super::node",
                "simcore::Time",
                "simcore::sched::Entry",
                "simcore::sched::Scheduler",
            ]
        );
    }

    #[test]
    fn nested_mods_record_parents() {
        let pf = parse_src(
            "mod outer {\n\
                 mod inner {\n\
                     mod leaf;\n\
                 }\n\
                 mod sibling { }\n\
             }\n\
             mod top;\n",
        );
        let by_name: Vec<(&str, bool, Vec<String>)> = pf
            .mods
            .iter()
            .map(|m| (m.name.as_str(), m.inline, m.parents.clone()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("outer", true, vec![]),
                ("inner", true, vec!["outer".into()]),
                ("leaf", false, vec!["outer".into(), "inner".into()]),
                ("sibling", true, vec!["outer".into()]),
                ("top", false, vec![]),
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
        assert_eq!(pf.mods.len(), 1);
        assert_eq!(pf.mods[0].name, "audit");
        assert_eq!(pf.uses.len(), 1);
        assert_eq!(pf.uses[0].segs, vec!["crate", "audit", "Audit"]);
    }

    #[test]
    fn path_refs_skip_turbofish_and_nested_segments() {
        let pf = parse_src(
            "fn f() {\n\
                 let a = netsim::sim::Event::End;\n\
                 let b = x.parse::<u64>();\n\
                 let c = crate::packet::PacketId(0);\n\
             }\n",
        );
        let heads: Vec<&str> = pf.path_refs.iter().map(|p| p.head.as_str()).collect();
        assert!(heads.contains(&"netsim"));
        assert!(heads.contains(&"crate"));
        assert!(!heads.contains(&"sim"), "nested segment is not a head");
        assert!(!heads.contains(&"parse"), "turbofish is not a head");
        let netsim_ref = pf.path_refs.iter().find(|p| p.head == "netsim").unwrap();
        assert_eq!(netsim_ref.second.as_deref(), Some("sim"));
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
        let run = pf.path_refs.iter().find(|p| p.second.as_deref() == Some("c")).unwrap();
        assert!(run.in_test);
    }
}
