//! Plain-text table rendering shared by the experiment modules.

/// A simple fixed-width text table builder.
///
/// # Examples
///
/// ```
/// use spotdc_sim::report::TextTable;
///
/// let mut t = TextTable::new(vec!["tenant", "perf"]);
/// t.row(vec!["S-1".into(), format!("{:.2}", 1.5)]);
/// let s = t.render();
/// assert!(s.contains("tenant"));
/// assert!(s.contains("1.50"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<&str>) -> Self {
        TextTable {
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; long
    /// rows extend the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers, &widths);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            emit(&mut out, r, &widths);
        }
        out
    }
}

/// Formats a ratio as `1.23x`.
#[must_use]
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn percent(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats watts with no decimals.
#[must_use]
pub fn watts(x: f64) -> String {
    format!("{x:.0} W")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "bcd"]);
        t.row(vec!["xx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into(), "extra".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(percent(0.097), "9.7%");
        assert_eq!(watts(123.4), "123 W");
    }
}
