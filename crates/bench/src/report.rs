//! Table rendering and persistence for experiment outputs.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A rendered experiment result: one table with a title and provenance
/// note, printable as markdown and persistable as TSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (e.g. `"Table 4: tweet-level comparison"`).
    pub(crate) title: String,
    /// A note on workload/parameters (rendered under the title).
    pub(crate) note: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Rows of cells.
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            note: String::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the provenance note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Appends a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        if !self.note.is_empty() {
            let _ = writeln!(out, "_{}_", self.note);
        }
        let _ = writeln!(out);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths.iter())
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let _ = writeln!(out, "| {} |", sep.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders as TSV (headers first).
    pub(crate) fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Writes the TSV under the experiments output directory and returns
    /// the path.
    pub(crate) fn write_tsv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = output_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        fs::write(&path, self.to_tsv())?;
        Ok(path)
    }
}

/// Where experiment outputs land (`target/experiments` unless overridden
/// via `TGS_OUTPUT_DIR`).
pub fn output_dir() -> PathBuf {
    std::env::var_os("TGS_OUTPUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("target").join("experiments"))
}

/// Prints a table to stdout and persists its TSV; convenience used by
/// every experiment binary.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_markdown());
    match table.write_tsv(name) {
        Ok(path) => println!("[written: {}]\n", path.display()),
        Err(e) => eprintln!("[warn: could not write {name}.tsv: {e}]"),
    }
}

/// Formats a float with 2 decimal places (accuracy/NMI percentages).
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// Formats a duration in seconds with millisecond resolution.
pub(crate) fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_alignment() {
        let mut t = Table::new("Demo", &["method", "acc"]);
        t.push_row(vec!["tri".into(), "81.87".into()]);
        t.push_row(vec!["svm-long-name".into(), "89.35".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| svm-long-name | 89.35 |"));
        assert!(md.contains("| tri           | 81.87 |"));
    }

    #[test]
    fn tsv_roundtrip_structure() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_tsv(), "a\tb\n1\t2\n");
    }

    #[test]
    #[should_panic(expected = "row width must match headers")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn pct_and_secs_format() {
        assert_eq!(pct(0.8187), "81.87");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
