//! Table / series rendering for the harness binaries.

use padico_util::stats::Series;

/// Render a set of bandwidth curves as a markdown table: one row per
/// message size, one column per series.
pub fn render_curves(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    if series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    out.push_str("| size (B) |");
    for s in series {
        out.push_str(&format!(" {} |", s.name));
    }
    out.push('\n');
    out.push_str("|---:|");
    for _ in series {
        out.push_str("---:|");
    }
    out.push('\n');
    let sizes: Vec<usize> = series[0].points.iter().map(|p| p.size).collect();
    for size in sizes {
        out.push_str(&format!("| {size} |"));
        for s in series {
            match s.at(size) {
                Some(v) => out.push_str(&format!(" {v:.1} |")),
                None => out.push_str(" – |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Render `(label, value, unit, paper)` rows.
pub fn render_rows(title: &str, rows: &[(String, f64, &str, &str)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str("| quantity | measured | paper |\n|---|---:|---:|\n");
    for (label, value, unit, paper) in rows {
        out.push_str(&format!("| {label} | {value:.1} {unit} | {paper} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_table_shape() {
        let mut a = Series::new("A");
        a.push(32, 1.5);
        a.push(64, 3.0);
        let mut b = Series::new("B");
        b.push(32, 2.5);
        let text = render_curves("Figure 7", &[a, b]);
        assert!(text.contains("| size (B) | A | B |"));
        assert!(text.contains("| 32 | 1.5 | 2.5 |"));
        assert!(text.contains("| 64 | 3.0 | – |"));
    }

    #[test]
    fn rows_table_shape() {
        let text = render_rows("Latency", &[("MPI".to_string(), 11.2, "µs", "11 µs")]);
        assert!(text.contains("| MPI | 11.2 µs | 11 µs |"));
        assert!(render_curves("x", &[]).contains("no data"));
    }
}
