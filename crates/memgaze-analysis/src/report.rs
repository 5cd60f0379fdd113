//! Report rendering: ASCII tables and paper-style number formatting
//! (2.3G, 291K, 64.1%).

use serde::{Deserialize, Serialize};

/// Format a value with an SI suffix the way the paper's tables do
/// (e.g. `2.3G`, `291K`, `67.8K`).
pub fn fmt_si(v: f64) -> String {
    let (val, suffix) = if v.abs() >= 1e9 {
        (v / 1e9, "G")
    } else if v.abs() >= 1e6 {
        (v / 1e6, "M")
    } else if v.abs() >= 1e3 {
        (v / 1e3, "K")
    } else {
        (v, "")
    };
    if suffix.is_empty() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.2}")
        }
    } else if val.abs() >= 100.0 {
        format!("{val:.0}{suffix}")
    } else {
        format!("{val:.1}{suffix}")
    }
}

/// Format a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a ratio/distance with three decimals (the paper's ΔF and D
/// columns).
pub fn fmt_f3(v: f64) -> String {
    format!("{v:.3}")
}

/// A simple ASCII table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title.
    title: String,
    /// Column headers.
    headers: Vec<String>,
    /// Rows of cells.
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_line = |cells: &[String], out: &mut String| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                let c = &cells[i];
                out.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_line(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_formatting_matches_paper_style() {
        assert_eq!(fmt_si(2.3e9), "2.3G");
        assert_eq!(fmt_si(291_000.0), "291K");
        assert_eq!(fmt_si(67_800.0), "67.8K");
        assert_eq!(fmt_si(3_855_000_000.0), "3.9G");
        assert_eq!(fmt_si(42.0), "42");
        assert_eq!(fmt_si(0.156), "0.16");
    }

    #[test]
    fn numeric_formats() {
        assert_eq!(fmt_pct(66.43), "66.4");
        assert_eq!(fmt_f3(0.1564), "0.156");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["Function", "F", "ΔF"]);
        t.push_row(vec!["buildMap".into(), "2.3G".into(), "0.156".into()]);
        t.push_row(vec!["getMax".into(), "0.4G".into(), "0.150".into()]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("Function"));
        assert!(lines[2].starts_with("---"));
        assert!(lines[3].starts_with("buildMap"));
        assert!(lines[4].starts_with("getMax"));
        // Columns align: "F" column starts at the same offset.
        let col = lines[1].find(" F").unwrap();
        assert_eq!(&lines[4][col..col + 1], " ");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
