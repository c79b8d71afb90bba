//! Plain-text table rendering for experiment reports.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment (first column left, rest right).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i == 0 {
                    line.push_str(&format!("{c:<w$}"));
                } else {
                    line.push_str(&format!("  {c:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with one decimal and an explicit sign, the way the
/// paper prints Table 1 ("-47.4", "+1.0").
pub fn signed1(v: f64) -> String {
    if v >= 0.0 {
        format!("+{v:.1}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats a 0–1 score as a whole-number percentage (Table 2 style).
pub fn percent0(v: f64) -> String {
    format!("{:.0}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["model", "diff"]);
        t.row(vec!["flan".into(), "-47.4".into()]);
        t.row(vec!["chatgpt".into(), "-19.5".into()]);
        let s = t.render();
        assert!(s.contains("model"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    /// A table with no columns renders an empty header line and an empty
    /// rule, however it was built.
    #[test]
    fn renders_a_table_with_no_columns() {
        assert_eq!(TextTable::default().render(), "\n\n");
        let mut t = TextTable::new(&[]);
        t.row(Vec::new());
        assert_eq!(t.render(), "\n\n\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        TextTable::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(signed1(1.04), "+1.0");
        assert_eq!(signed1(-47.42), "-47.4");
        assert_eq!(percent0(0.801), "80");
    }
}
