//! A structured plain-text summary: banners, aligned tables and free
//! lines collected into one renderable value instead of scattered
//! `println!` calls — so harness output can be printed, diffed against a
//! golden transcript or exported.

use crate::metrics::{Histogram, Metrics};

#[derive(Debug, Clone)]
enum Item {
    Banner(String),
    Table { headers: Vec<String>, rows: Vec<Vec<String>> },
    Line(String),
}

/// An ordered collection of report items.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    items: Vec<Item>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a title banner.
    pub fn banner(&mut self, title: impl Into<String>) -> &mut Self {
        self.items.push(Item::Banner(title.into()));
        self
    }

    /// Appends a table: a header row and rows of equal arity,
    /// right-aligned per column at render time.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) -> &mut Self {
        self.items.push(Item::Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: rows.to_vec(),
        });
        self
    }

    /// Appends one free-form line.
    pub fn line(&mut self, text: impl Into<String>) -> &mut Self {
        self.items.push(Item::Line(text.into()));
        self
    }

    /// Appends a `key: value` line.
    pub fn kv(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.line(format!("{key}: {value}"))
    }

    /// `true` when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the whole summary to text (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Banner(title) => {
                    out.push('\n');
                    out.push_str(&format!("==== {title} ====\n"));
                }
                Item::Table { headers, rows } => {
                    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
                    for row in rows {
                        for (i, cell) in row.iter().enumerate() {
                            widths[i] = widths[i].max(cell.len());
                        }
                    }
                    let fmt_row = |cells: &[String]| -> String {
                        cells
                            .iter()
                            .enumerate()
                            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                            .collect::<Vec<_>>()
                            .join("  ")
                    };
                    out.push_str(&fmt_row(headers));
                    out.push('\n');
                    out.push_str(
                        &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)),
                    );
                    out.push('\n');
                    for row in rows {
                        out.push_str(&fmt_row(row));
                        out.push('\n');
                    }
                }
                Item::Line(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Prints the rendered summary to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Renders [`Metrics`] as a [`Summary`]: one table per metric kind,
/// histogram rows carrying interpolated p50/p90/p99 quantiles.
pub fn metrics_summary(m: &Metrics) -> Summary {
    let mut out = Summary::new();
    out.banner("Metrics");
    if !m.counters.is_empty() {
        let rows: Vec<Vec<String>> =
            m.counters.iter().map(|(n, v)| vec![n.clone(), v.to_string()]).collect();
        out.table(&["counter", "value"], &rows);
    }
    if !m.gauges.is_empty() {
        let rows: Vec<Vec<String>> =
            m.gauges.iter().map(|(n, v)| vec![n.clone(), format!("{v:.4}")]).collect();
        out.table(&["gauge", "value"], &rows);
    }
    if !m.histograms.is_empty() {
        let q =
            |h: &Histogram, q: f64| h.quantile(q).map_or_else(|| "-".into(), |v| format!("{v:.4}"));
        let rows: Vec<Vec<String>> = m
            .histograms
            .iter()
            .map(|(n, h)| {
                vec![
                    n.clone(),
                    h.count.to_string(),
                    h.mean().map_or_else(|| "-".into(), |m| format!("{m:.4}")),
                    q(h, 0.5),
                    q(h, 0.9),
                    q(h, 0.99),
                    h.max.map_or_else(|| "-".into(), |m| format!("{m:.4}")),
                ]
            })
            .collect();
        out.table(&["histogram", "count", "mean", "p50", "p90", "p99", "max"], &rows);
    }
    if m.counters.is_empty() && m.gauges.is_empty() && m.histograms.is_empty() {
        out.line("no metrics recorded");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_banner_table_and_lines() {
        let mut s = Summary::new();
        s.banner("Figure X");
        s.table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
        s.kv("Pearson", format!("{:.3}", 0.987_6));
        let text = s.render();
        let expected = "\n==== Figure X ====\nname  value\n-----------\n   a      1\n  bb     22\nPearson: 0.988\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn table_alignment_matches_widest_cell() {
        let mut s = Summary::new();
        s.table(&["h"], &[vec!["wide-cell".into()]]);
        assert_eq!(s.render(), "        h\n---------\nwide-cell\n");
    }

    #[test]
    fn metrics_summary_shows_quantiles() {
        let mut reg = Metrics::new();
        reg.counter_add("retries", 4);
        reg.gauge_set("overhead_pct", 7.5);
        for _ in 0..10 {
            reg.observe("stage_seconds", 2.5);
        }
        let text = metrics_summary(&reg).render();
        assert!(text.contains("==== Metrics ===="));
        assert!(text.contains("retries"));
        assert!(text.contains("7.5000"));
        // Constant distribution: every quantile column shows the constant.
        assert!(text.contains("2.5000"));

        let empty = metrics_summary(&Default::default()).render();
        assert!(empty.contains("no metrics recorded"));
    }

    #[test]
    fn empty_summary_renders_empty() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.render(), "");
    }
}
