//! Minimal aligned-table printer and snapshot writer for experiment
//! reports.

/// A simple column-aligned text table.
///
/// ```
/// use vpnm_bench::Table;
/// let mut t = Table::new(vec!["name", "value"]);
/// t.row(vec!["alpha".into(), "1".into()]);
/// t.row(vec!["b".into(), "22".into()]);
/// let s = t.render();
/// assert!(s.contains("alpha"));
/// assert!(s.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<&str>) -> Self {
        assert!(!headers.is_empty(), "need at least one column");
        Table { headers: headers.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes a controller's [`vpnm_core::MetricsSnapshot`] JSON to
/// `SNAPSHOT_<name>.json` in the working directory and announces the
/// path on stdout, so every experiment binary leaves a machine-readable
/// record of the aggregate metrics behind its headline numbers. See
/// `docs/OBSERVABILITY.md` for the schema.
pub fn write_snapshot(name: &str, json: &str) {
    let path = format!("SNAPSHOT_{name}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nmetrics snapshot -> {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_grows_with_content() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["xxxxxxx".into(), "1".into()]);
        let s = t.render();
        let header = s.lines().next().unwrap();
        assert!(header.len() >= "xxxxxxx  b".len());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
