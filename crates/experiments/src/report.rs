//! Result tables: aligned plain text for the terminal plus JSON rows for
//! machine diffing. A [`Table`] is a value — the `repro` binary is what
//! prints it and, when `REPRO_JSON_DIR` is set, writes `<slug>.json`. Its
//! rows are [`Cell`]s: a figure hands over numbers, and how each prints is
//! decided once, by `Cell`'s `Display`, for the text and the JSON alike.

use std::fmt::{self, Write as _};

/// One table cell; [`Cell::value`] reads its number back.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A measured or derived number: `v` to `prec` decimals, then `unit`.
    Num {
        /// The number; `None` (missing) prints `-`.
        v: Option<f64>,
        /// Decimals printed.
        prec: usize,
        /// Printed after the number (`x`, `%`, `*`).
        unit: &'static str,
    },
    /// A count.
    Int(u64),
    /// A name or a parameter label.
    Text(String),
}

impl Cell {
    /// `v` to `prec` decimals, then `unit`; `-` when `v` is `None`.
    pub fn num(v: impl Into<Option<f64>>, prec: usize, unit: &'static str) -> Self {
        let v = v.into();
        Cell::Num { v, prec, unit }
    }

    /// A speedup: `1.23x`.
    pub fn speedup(v: Option<f64>) -> Self {
        Cell::num(v, 2, "x")
    }

    /// The number the cell holds: `None` for text and for a missing value.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num { v, .. } => *v,
            Cell::Int(n) => Some(*n as f64),
            Cell::Text(_) => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Num { v, prec, unit } => match v {
                Some(v) => write!(f, "{v:.prec$}{unit}"),
                None => f.write_str("-"),
            },
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

/// The value's own cell, or a missing number.
impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::num(None, 3, ""), Into::into)
    }
}

macro_rules! cell_from {
    ($($x:ident: $t:ty => $cell:expr),* $(,)?) => {$(
        impl From<$t> for Cell {
            fn from($x: $t) -> Self {
                $cell
            }
        }
    )*};
}

// A measured number prints to three decimals; counts and text as they are.
cell_from! {
    v: f64 => Cell::num(v, 3, ""),
    n: u8 => Cell::Int(n.into()),
    n: u32 => Cell::Int(n.into()),
    n: u64 => Cell::Int(n),
    n: usize => Cell::Int(n as u64),
    s: &str => Cell::Text(s.to_string()),
    s: String => Cell::Text(s),
}

/// A simple result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Stem of the table's JSON file.
    pub slug: String,
    /// Title printed above the table (figure/table reference).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<Cell>>,
    /// Commentary printed after the table (measured one-liners, the shape
    /// the paper expects); every line ends in `\n`. Not part of the JSON.
    pub notes: String,
}

impl Table {
    /// New empty table.
    pub fn new(slug: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            slug: slug.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Append one line (or a `\n`-joined block) of commentary.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.notes.push_str(text.as_ref());
        self.notes.push('\n');
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned text: the title, then the header, a line of dashes
    /// and the rows, each cell right-aligned to its column's widest.
    pub fn render(&self) -> String {
        let mut lines = vec![self.columns.clone()];
        for row in &self.rows {
            lines.push(row.iter().map(Cell::to_string).collect());
        }
        let mut widths = vec![0; self.columns.len()];
        for line in &lines {
            for (w, c) in widths.iter_mut().zip(line) {
                *w = (*w).max(c.len());
            }
        }
        lines.insert(1, widths.iter().map(|&w| "-".repeat(w)).collect());
        let mut out = format!("# {}\n", self.title);
        for line in &lines {
            let padded = line.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}"));
            let _ = writeln!(out, "{}", padded.collect::<Vec<_>>().join("  "));
        }
        out
    }

    /// Structured JSON form (`{"title", "columns", "rows"}`), pretty-printed
    /// with 2-space indentation. Hand-rolled so the workspace carries no JSON
    /// dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        out.push_str("  \"columns\": [\n");
        for (i, c) in self.columns.iter().enumerate() {
            let comma = if i + 1 < self.columns.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", json_string(c));
        }
        out.push_str("  ],\n");
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| json_string(&c.to_string())).collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    [{}]{comma}", cells.join(", "));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Quote and escape a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", "Demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let r = t.render();
        assert!(r.contains("# Demo"));
        let lines: Vec<&str> = r.lines().collect();
        // header, separator, 2 rows (+title)
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", "x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut t = Table::new("q", "Quote \"q\"\n", &["a"]);
        t.row(vec!["x\\y".into()]);
        t.note("printed, not serialized");
        let j = t.to_json();
        assert!(!j.contains("serialized"));
        assert!(j.contains("\"title\": \"Quote \\\"q\\\"\\n\""));
        assert!(j.contains("[\"x\\\\y\"]"));
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with('}'));
    }

    /// Every cell kind, printed through the one `Display` into the text
    /// table and the JSON: `{:.0}` ties, each unit, the missing `-`, counts
    /// and a text cell that JSON must escape.
    #[test]
    fn cell_kinds_render_and_serialize() {
        let mut t = Table::new(
            "cells",
            "Cell kinds",
            &[
                "name", "mean", "half", "speedup", "done", "util", "missing", "drops",
            ],
        );
        t.row(vec![
            "a \"b\"\\c".into(),
            1.23456.into(),
            Cell::num(2.5, 0, ""),
            Cell::speedup(Some(1.234)),
            Cell::num(44.5, 0, "%"),
            Cell::num(0.98765, 3, "*"),
            None::<f64>.into(),
            42u64.into(),
        ]);
        t.row(vec![
            String::from("x").into(),
            Some(2.0).into(),
            Cell::num(3.5, 0, ""),
            Cell::speedup(None),
            Cell::num(None, 0, "%"),
            Cell::num(1.0, 3, ""),
            None::<u64>.into(),
            7usize.into(),
        ]);
        let text = [
            "# Cell kinds",
            "   name   mean  half  speedup  done    util  missing  drops",
            "-------  -----  ----  -------  ----  ------  -------  -----",
            r#"a "b"\c  1.235     2    1.23x   44%  0.988*        -     42"#,
            "      x  2.000     4        -     -   1.000        -      7",
        ];
        assert_eq!(t.render(), text.map(|l| format!("{l}\n")).concat());
        let json = [
            "{",
            r#"  "title": "Cell kinds","#,
            r#"  "columns": ["#,
            r#"    "name","#,
            r#"    "mean","#,
            r#"    "half","#,
            r#"    "speedup","#,
            r#"    "done","#,
            r#"    "util","#,
            r#"    "missing","#,
            r#"    "drops""#,
            "  ],",
            r#"  "rows": ["#,
            r#"    ["a \"b\"\\c", "1.235", "2", "1.23x", "44%", "0.988*", "-", "42"],"#,
            r#"    ["x", "2.000", "4", "-", "-", "1.000", "-", "7"]"#,
            "  ]",
            "}",
        ];
        assert_eq!(t.to_json(), json.join("\n"));
        let values: Vec<Option<f64>> = t.rows[0].iter().map(Cell::value).collect();
        assert_eq!(values[..3], [None, Some(1.23456), Some(2.5)]);
        assert_eq!(values[6..], [None, Some(42.0)]);
    }
}
