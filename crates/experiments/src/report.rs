//! Result tables: aligned plain text for the terminal plus JSON rows for
//! machine diffing. A [`Table`] is a value — the `repro` binary is what
//! prints it and, when `REPRO_JSON_DIR` is set, writes `<slug>.json`.

use std::fmt::Write as _;

/// A simple result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Stem of the table's JSON file.
    pub slug: String,
    /// Title printed above the table (figure/table reference).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
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
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let hdr: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", hdr.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
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
            let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    [{}]{comma}", cells.join(", "));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Quote and escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
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

/// Format a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format an optional float ("-" when absent).
pub fn opt3(v: Option<f64>) -> String {
    v.map(f3).unwrap_or_else(|| "-".into())
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

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(opt3(None), "-");
        assert_eq!(opt3(Some(2.0)), "2.000");
    }
}
