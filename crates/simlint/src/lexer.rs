//! A minimal, dependency-free Rust lexer.
//!
//! Just enough tokenization for [`crate::rules`]: identifiers, numbers,
//! lifetimes, and single-character punctuation, with string literals
//! (including raw and byte strings), char literals, and comments stripped
//! out of the token stream. Comments are kept on the side because the
//! `simlint::allow(...)` annotation grammar reads them.
//!
//! This is deliberately not a full Rust lexer — no float/suffix fidelity,
//! no multi-character operators — because the rules only ever match
//! identifier sequences and bracket structure. Where the real grammar is
//! ambiguous at this fidelity (lifetime vs. char literal), the resolution
//! below matches what rustc does for every construct that appears in this
//! workspace.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, ...).
    Ident,
    /// Numeric literal (lexed as one blob, suffix included).
    Num,
    /// A lifetime such as `'a` (quote included in the text).
    Lifetime,
    /// Any other single character: `{`, `(`, `:`, `#`, `.`, ...
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

/// A comment (line or block), with the `//` / `/*` markers stripped.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body without the comment markers.
    pub text: String,
}

/// Output of [`lex`].
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub toks: Vec<Tok>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`, separating code tokens from comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' => {
                cur.bump();
                match cur.peek() {
                    Some('/') => {
                        cur.bump();
                        let mut text = String::new();
                        while let Some(c) = cur.peek() {
                            if c == '\n' {
                                break;
                            }
                            text.push(c);
                            cur.bump();
                        }
                        out.comments.push(Comment { line, text });
                    }
                    Some('*') => {
                        cur.bump();
                        let mut depth = 1u32;
                        let mut text = String::new();
                        while depth > 0 {
                            match cur.bump() {
                                Some('*') if cur.peek() == Some('/') => {
                                    cur.bump();
                                    depth -= 1;
                                    if depth > 0 {
                                        text.push_str("*/");
                                    }
                                }
                                Some('/') if cur.peek() == Some('*') => {
                                    cur.bump();
                                    depth += 1;
                                    text.push_str("/*");
                                }
                                Some(c) => text.push(c),
                                None => break,
                            }
                        }
                        out.comments.push(Comment { line, text });
                    }
                    _ => out.toks.push(Tok {
                        kind: TokKind::Punct,
                        text: "/".into(),
                        line,
                        col,
                    }),
                }
            }
            '"' => {
                cur.bump();
                skip_string_body(&mut cur);
            }
            'r' | 'b' => {
                // Possible raw/byte string prefix; otherwise an identifier.
                let mut ident = String::new();
                ident.push(c);
                cur.bump();
                // `r"`, `r#"`, `b"`, `br"`, `br#"`; `rb` is not a thing.
                if (ident == "b" && cur.peek() == Some('r')) || ident == "r" {
                    let mut saw_r = ident == "r";
                    if !saw_r && cur.peek() == Some('r') {
                        // peek past the `r` of `br` only if a raw string follows
                        let mut clone = cur.chars.clone();
                        clone.next(); // the `r`
                        while clone.peek() == Some(&'#') {
                            clone.next();
                        }
                        if clone.peek() == Some(&'"') {
                            cur.bump(); // consume `r`
                            ident.push('r');
                            saw_r = true;
                        }
                    }
                    if saw_r {
                        let mut clone = cur.chars.clone();
                        let mut h = 0usize;
                        while clone.peek() == Some(&'#') {
                            clone.next();
                            h += 1;
                        }
                        if clone.peek() == Some(&'"') {
                            for _ in 0..h {
                                cur.bump();
                            }
                            cur.bump(); // opening quote
                            skip_raw_string_body(&mut cur, h);
                            continue;
                        }
                    }
                }
                if ident == "b" && cur.peek() == Some('"') {
                    cur.bump();
                    skip_string_body(&mut cur);
                    continue;
                }
                if ident == "b" && cur.peek() == Some('\'') {
                    cur.bump();
                    skip_char_body(&mut cur);
                    continue;
                }
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        ident.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: ident,
                    line,
                    col,
                });
            }
            '\'' => {
                cur.bump();
                // Lifetime (`'a`) vs char literal (`'a'`): a lifetime is a
                // quote followed by an identifier NOT closed by another
                // quote; `'\...'` is always a char literal.
                let mut clone = cur.chars.clone();
                let first = clone.peek().copied();
                let is_lifetime = match first {
                    Some(f) if is_ident_start(f) => {
                        let mut n = 0usize;
                        while let Some(&c) = clone.peek() {
                            if is_ident_continue(c) {
                                clone.next();
                                n += 1;
                            } else {
                                break;
                            }
                        }
                        // `'a'` is a char; `'a` / `'static` are lifetimes.
                        !(n == 1 && clone.peek() == Some(&'\''))
                    }
                    _ => false,
                };
                if is_lifetime {
                    let mut text = String::from("'");
                    while let Some(c) = cur.peek() {
                        if is_ident_continue(c) {
                            text.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text,
                        line,
                        col,
                    });
                } else {
                    skip_char_body(&mut cur);
                }
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    // One blob: digits, `_`, type suffixes, hex chars, `.`
                    // in floats. `0..10` range edges are handled by not
                    // consuming a second consecutive dot.
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        cur.bump();
                    } else if c == '.' {
                        let mut clone = cur.chars.clone();
                        clone.next();
                        if clone.peek() == Some(&'.') {
                            break; // `..` range, not a float dot
                        }
                        match clone.peek() {
                            Some(&d) if d.is_ascii_digit() => {
                                text.push('.');
                                cur.bump();
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text,
                    line,
                    col,
                });
            }
            other => {
                cur.bump();
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: other.to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn skip_string_body(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

fn skip_raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut clone = cur.chars.clone();
            let mut h = 0usize;
            while h < hashes && clone.peek() == Some(&'#') {
                clone.next();
                h += 1;
            }
            if h == hashes {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    }
}

fn skip_char_body(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* Instant in /* a nested */ block */
            let s = "thread_rng inside a string";
            let r = r#"raw HashMap"# ;
            let c = 'x';
            let b = b"bytes SystemTime";
            use std::collections::BTreeMap;
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"));
        assert!(!ids.iter().any(|i| i == "Instant"));
        assert!(!ids.iter().any(|i| i == "thread_rng"));
        assert!(!ids.iter().any(|i| i == "SystemTime"));
        assert!(ids.iter().any(|i| i == "BTreeMap"));
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) { let c = 'q'; let l: &'static u8; }");
        assert!(!ids.iter().any(|i| i == "q"));
        let lx = lex("&'static str");
        assert!(lx
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn positions_are_one_based() {
        let lx = lex("ab\n  cd");
        assert_eq!((lx.toks[0].line, lx.toks[0].col), (1, 1));
        assert_eq!((lx.toks[1].line, lx.toks[1].col), (2, 3));
    }

    #[test]
    fn numbers_lex_as_single_blobs() {
        let lx = lex("let x = 1_000u64; let y = 1.5e9; for i in 0..10 {}");
        let nums: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["1_000u64", "1.5e9", "0", "10"]);
    }

    #[test]
    fn byte_char_and_raw_byte_strings() {
        let ids = idents(r##"let a = b'x'; let s = br#"HashMap"#; let t = rand;"##);
        assert!(!ids.iter().any(|i| i == "HashMap"));
        assert!(ids.iter().any(|i| i == "rand"));
    }
}
