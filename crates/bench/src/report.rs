//! Result tables: aligned console rendering plus CSV export.

use std::io::Write as _;
use std::path::Path;

/// One experiment's result series, mirroring the rows/columns the paper
/// plots.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Identifier, e.g. `"fig2_sal"`; also the CSV file stem.
    pub name: String,
    /// Human title, e.g. `"Figure 2(a): avg stars vs l (SAL-4)"`.
    pub title: String,
    /// Column headers (first column is the x-axis).
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts an empty report.
    pub fn new(name: impl Into<String>, title: impl Into<String>, header: Vec<String>) -> Self {
        Report {
            name: name.into(),
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Writes `<out_dir>/<name>.csv`.
    pub fn write_csv(&self, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("{}.csv", self.name));
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("t", "Test table", vec!["l".into(), "stars".into()]);
        r.push_row(vec!["2".into(), "100".into()]);
        r.push_row(vec!["10".into(), "123456".into()]);
        r
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("Test table"));
        let lines: Vec<&str> = text.lines().collect();
        // Header and data lines end aligned on the right.
        assert!(lines[1].ends_with("stars"));
        assert!(lines[3].ends_with("   100"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = sample();
        r.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("ldiv_bench_test_csv");
        let r = sample();
        r.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("l,stars"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
