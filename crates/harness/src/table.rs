//! Minimal table model with aligned ASCII rendering and CSV export.

/// A rendered experiment result: header, aligned rows, footnotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id (`e2`) this table belongs to.
    pub id: String,
    /// Human title (usually the paper artefact it regenerates).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Footnotes (assumptions, normalization, substitutions).
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id.to_uppercase(), self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {cell:>w$} |", w = w));
            }
            s.push('\n');
            s
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        out.push_str(&sep);
        out.push_str(&line(&self.columns, &widths));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out.push_str(&sep);
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish quoting).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "e0",
            "sample",
            vec!["P".into(), "hoard".into(), "serial".into()],
        );
        t.push_row(vec!["1".into(), "1.00".into(), "1.00".into()]);
        t.push_row(vec!["14".into(), "13.20".into(), "0.10".into()]);
        t.push_note("normalized to serial at P=1");
        t
    }

    #[test]
    fn renders_aligned() {
        let r = sample().render();
        assert!(r.contains("E0 — sample"));
        // Widths: P=2 ("14"), hoard=5 ("hoard"/"13.20"), serial=6.
        assert!(r.contains("| 14 | 13.20 |   0.10 |"), "alignment:\n{r}");
        assert!(r.contains("note: normalized"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = sample();
        t.push_row(vec!["x,y".into(), "a\"b".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("P,hoard,serial\n"));
        assert!(csv.contains("\"x,y\",\"a\"\"b\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        sample().push_row(vec!["only-one".into()]);
    }
}
