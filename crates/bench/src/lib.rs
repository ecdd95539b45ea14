//! # ocasta-bench — regenerating the paper's tables and figures
//!
//! Each `tableN`/`figN` module reproduces one artifact of the paper's
//! evaluation section; the matching binaries (`cargo run -p ocasta-bench
//! --bin table2 --release`) print the result in the paper's shape, and
//! `--bin run_all` regenerates everything. The scale tiers grown on top
//! of the paper are measured by the repository benchmark under
//! `perfbench/`, not here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// Renders a text table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders an x/y series block (one line per point), the textual equivalent
/// of one figure curve.
pub fn render_series(title: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("# {title}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:>8.1}  {y:>8.2}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let text = render_table(
            &["Name", "N"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "23".into()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Name"));
        assert!(lines[3].starts_with("long-name  23"));
    }

    #[test]
    fn series_shape() {
        let text = render_series("trials", &[(0.0, 1.0), (2.0, 3.5)]);
        assert!(text.starts_with("# trials\n"));
        assert_eq!(text.lines().count(), 3);
    }
}
