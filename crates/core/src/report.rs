//! Experiment report tables: what every bench prints and serializes.

use serde::{Deserialize, Serialize};

/// A printable, serializable results table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. `"Table 3: cloud throughput"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Serializes to pretty JSON (for EXPERIMENTS.md artifacts).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with 2 decimals (bench cell helper).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a throughput cell as `tok/s (batch, speedup x)`.
pub fn throughput_cell(tokens_per_s: f64, batch: usize, speedup: f64) -> String {
    if tokens_per_s == 0.0 {
        "OOM".to_string()
    } else {
        format!("{tokens_per_s:.2} ({batch}, {speedup:.2}x)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["sys", "tok/s"]);
        t.push_row(vec!["a".into(), "1.00".into()]);
        t.push_row(vec!["longer-name".into(), "12345.00".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn json_round_trips() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec!["1".into()]);
        let back: Table = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn throughput_cell_formats_oom() {
        assert_eq!(throughput_cell(0.0, 4, 1.0), "OOM");
        assert!(throughput_cell(45.3, 4, 2.5).contains("45.30"));
    }
}
