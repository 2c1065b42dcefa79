//! Post-processing of speedup tables: scaling efficiency, qualitative
//! classification (scales / flattens / collapses), and a markdown digest
//! — the machinery behind `reproduce report`.

use crate::table::Table;

/// Qualitative shape of one allocator's speedup curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// ≥ 60% parallel efficiency at the largest processor count.
    Scales,
    /// Grows but below 60% efficiency (saturating).
    Flattens,
    /// Ends at or below 1.2× its one-processor value.
    Collapses,
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shape::Scales => write!(f, "scales"),
            Shape::Flattens => write!(f, "flattens"),
            Shape::Collapses => write!(f, "collapses"),
        }
    }
}

/// Summary of one allocator's curve within one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSummary {
    /// Allocator label (table column).
    pub allocator: String,
    /// Speedup at the largest processor count.
    pub final_speedup: f64,
    /// Largest processor count in the sweep.
    pub max_threads: usize,
    /// `final_speedup / max_threads`.
    pub efficiency: f64,
    /// Qualitative classification.
    pub shape: Shape,
}

/// Summarize a speedup table (first column `P`, one column per
/// allocator, `{:.2}`-formatted speedups).
///
/// Returns `None` when the table is not speedup-shaped.
pub fn summarize_speedup(table: &Table) -> Option<Vec<CurveSummary>> {
    if table.columns.first().map(String::as_str) != Some("P") || table.rows.is_empty() {
        return None;
    }
    let max_threads: usize = table.rows.last()?.first()?.parse().ok()?;
    let mut out = Vec::new();
    for (col, name) in table.columns.iter().enumerate().skip(1) {
        let first: f64 = table.rows.first()?.get(col)?.parse().ok()?;
        let last: f64 = table.rows.last()?.get(col)?.parse().ok()?;
        let efficiency = last / max_threads as f64;
        let shape = if last <= first.max(1.0) * 1.2 {
            Shape::Collapses
        } else if efficiency >= 0.6 {
            Shape::Scales
        } else {
            Shape::Flattens
        };
        out.push(CurveSummary {
            allocator: name.clone(),
            final_speedup: last,
            max_threads,
            efficiency,
            shape,
        });
    }
    Some(out)
}

/// Render a markdown digest for a set of experiment tables: one section
/// per table, speedup tables summarized per allocator, other tables
/// passed through as fenced blocks.
pub fn markdown_report(tables: &[Table]) -> String {
    let mut out = String::from("# Reproduction digest\n");
    for table in tables {
        out.push_str(&format!(
            "\n## {} — {}\n\n",
            table.id.to_uppercase(),
            table.title
        ));
        if let Some(curves) = summarize_speedup(table) {
            out.push_str("| allocator | speedup @ max P | efficiency | verdict |\n");
            out.push_str("|---|---|---|---|\n");
            for c in &curves {
                out.push_str(&format!(
                    "| {} | {:.2}x @ P={} | {:.0}% | {} |\n",
                    c.allocator,
                    c.final_speedup,
                    c.max_threads,
                    c.efficiency * 100.0,
                    c.shape
                ));
            }
            out.push('\n');
        }
        out.push_str("```text\n");
        out.push_str(&table.render());
        out.push_str("```\n");
        for note in &table.notes {
            out.push_str(&format!("> {note}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup_table() -> Table {
        let mut t = Table::new(
            "e2",
            "threadtest speedup",
            vec!["P".into(), "serial".into(), "hoard".into(), "mtlike".into()],
        );
        t.push_row(vec!["1".into(), "1.00".into(), "1.00".into(), "1.00".into()]);
        t.push_row(vec!["8".into(), "0.40".into(), "7.90".into(), "3.90".into()]);
        t.push_row(vec![
            "14".into(),
            "0.38".into(),
            "13.90".into(),
            "5.50".into(),
        ]);
        t
    }

    #[test]
    fn classifies_shapes() {
        let curves = summarize_speedup(&speedup_table()).expect("speedup-shaped");
        let by_name = |n: &str| curves.iter().find(|c| c.allocator == n).unwrap();
        assert_eq!(by_name("serial").shape, Shape::Collapses);
        assert_eq!(by_name("hoard").shape, Shape::Scales);
        assert_eq!(by_name("mtlike").shape, Shape::Flattens);
        assert!((by_name("hoard").efficiency - 13.9 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn non_speedup_tables_pass_through() {
        let t = Table::new("e1", "inventory", vec!["benchmark".into()]);
        assert!(summarize_speedup(&t).is_none());
        let md = markdown_report(&[t]);
        assert!(md.contains("## E1 — inventory"));
        assert!(md.contains("```text"));
    }

    #[test]
    fn report_contains_summary_and_raw_table() {
        let md = markdown_report(&[speedup_table()]);
        assert!(md.contains("| hoard | 13.90x @ P=14 | 99% | scales |"));
        assert!(md.contains("| serial | 0.38x @ P=14 | 3% | collapses |"));
        assert!(md.contains("== E2 — threadtest speedup =="));
    }
}
