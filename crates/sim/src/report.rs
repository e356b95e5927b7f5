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

/// Renders the process-global telemetry registry's span timings as an
/// aligned table (one row per span: count, p50, p90, p99, mean in µs),
/// or `None` when telemetry is disabled or no spans have been recorded.
///
/// Deliberately *not* part of [`SimReport`](crate::metrics::SimReport):
/// wall-clock timings differ between otherwise identical runs, and the
/// report must stay comparable-by-equality for determinism tests.
#[must_use]
pub fn telemetry_summary() -> Option<String> {
    if !spotdc_telemetry::is_enabled() {
        return None;
    }
    let registry = spotdc_telemetry::registry();
    let names = registry.span_names();
    if names.is_empty() {
        return None;
    }
    let micros = |s: Option<f64>| match s {
        Some(v) => format!("{:.1}", v * 1e6),
        None => "-".to_owned(),
    };
    let mut table = TextTable::new(vec![
        "span", "count", "p50 us", "p90 us", "p99 us", "mean us",
    ]);
    for name in names {
        if let Some(h) = registry.span_durations(&name) {
            table.row(vec![
                name,
                h.count().to_string(),
                micros(h.p50()),
                micros(h.p90()),
                micros(h.p99()),
                micros(h.mean()),
            ]);
        }
    }
    Some(table.render())
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
    fn telemetry_summary_reports_quantiles_and_mean() {
        // The summary reads process-global state; make its inputs
        // unambiguous (a uniquely named span) rather than relying on
        // what other tests recorded.
        spotdc_telemetry::set_enabled(true);
        spotdc_telemetry::registry().record_span("report.summary.test", 0.002);
        let table = telemetry_summary().expect("enabled with spans recorded");
        spotdc_telemetry::set_enabled(false);
        let header = table.lines().next().unwrap();
        for column in ["span", "count", "p50 us", "p90 us", "p99 us", "mean us"] {
            assert!(header.contains(column), "missing {column:?}: {header}");
        }
        assert!(table.contains("report.summary.test"));
        assert!(telemetry_summary().is_none(), "disabled => no summary");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(percent(0.097), "9.7%");
        assert_eq!(watts(123.4), "123 W");
    }
}
