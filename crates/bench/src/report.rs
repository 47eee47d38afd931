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

/// Escape a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Bandwidth curves as a JSON array:
/// `[{"name": ..., "points": [{"size": ..., "value": ...}, ...]}, ...]`.
pub fn series_json(series: &[Series]) -> String {
    let mut out = String::from("[");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{}\",\"points\":[", json_escape(&s.name)));
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"size\":{},\"mb_s\":{:.3}}}", p.size, p.value));
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// The `recovery.*` counters of a world's metrics as a JSON object —
/// how much retry/failover work the PadicoTM stack did while a benchmark
/// ran.
pub fn recovery_json(snap: &padico_util::metrics::MetricsSnapshot) -> String {
    let fields: Vec<String> = snap
        .counters
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("recovery.")
                .map(|f| format!("\"{f}\":{v}"))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A metrics snapshot as a JSON object: every counter verbatim, every
/// histogram reduced to its summary statistics (the full bucket vectors
/// stay in the in-process registry; a regression diff wants the summary).
pub fn metrics_json(snap: &padico_util::metrics::MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(name), v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1}}}",
            json_escape(name),
            h.count,
            h.sum,
            if h.count == 0 { 0 } else { h.min },
            h.max,
            h.mean()
        ));
    }
    out.push_str("}}");
    out
}

/// A critical-path breakdown as a JSON object:
/// `{"total_ns": ..., "self_ns": {"layer": ns, ...}}`.
pub fn critical_path_json(cp: &padico_util::span::CriticalPath) -> String {
    let mut out = format!("{{\"total_ns\":{},\"self_ns\":{{", cp.total);
    for (i, (layer, ns)) in cp.self_ns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(layer), ns));
    }
    out.push_str("}}");
    out
}

/// Convert criterion's JSONL dump (one JSON object per line, as written
/// when `CRITERION_JSON` is set) into one JSON array, dropping lines
/// that are not plausible objects.
pub fn criterion_jsonl_to_json(jsonl: &str) -> String {
    let objs: Vec<&str> = jsonl
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.ends_with('}'))
        .collect();
    format!("[{}]", objs.join(","))
}

/// Assemble the committed benchmark snapshot: the date, the criterion
/// micro-bench results, and named experiment sections whose values are
/// already-rendered JSON fragments.
pub fn snapshot_json(date: &str, criterion_jsonl: &str, sections: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"date\": \"{}\",\n", json_escape(date)));
    out.push_str(&format!(
        "  \"criterion\": {},\n",
        criterion_jsonl_to_json(criterion_jsonl)
    ));
    for (i, (name, fragment)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{}\": {}", json_escape(name), fragment));
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
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
    fn snapshot_json_is_wellformed() {
        let mut s = Series::new("omniORB \"zero-copy\"");
        s.push(1024, 120.25);
        let frag = series_json(&[s]);
        let doc = snapshot_json(
            "2026-08-06",
            "{\"id\":\"transport/1k\",\"median_ns\":12}\nnoise\n",
            &[("fig7_bandwidth", frag), ("extra", "{\"x\":1}".to_string())],
        );
        assert!(doc.contains("\"date\": \"2026-08-06\""));
        assert!(doc.contains("\"criterion\": [{\"id\":\"transport/1k\",\"median_ns\":12}]"));
        assert!(doc.contains("omniORB \\\"zero-copy\\\""));
        assert!(doc.contains("{\"size\":1024,\"mb_s\":120.250}"));
        assert!(doc.contains("\"extra\": {\"x\":1}"));
        // Balanced braces/brackets — cheap well-formedness proxy.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                doc.matches(open).count(),
                doc.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn recovery_json_is_wellformed() {
        let doc = recovery_json(&padico_util::Telemetry::new().metrics());
        for field in [
            "send_retries",
            "connect_retries",
            "giop_retries",
            "route_failovers",
            "mapping_remaps",
            "corrupt_discards",
            "backoff_ns",
        ] {
            assert!(doc.contains(&format!("\"{field}\":")), "{doc}");
        }
        assert!(doc.starts_with('{') && doc.ends_with('}'));
    }

    #[test]
    fn metrics_and_critical_path_json_are_wellformed() {
        let mut snap = padico_util::metrics::MetricsSnapshot::default();
        snap.counters.insert("bytes.myrinet".into(), 4096);
        let h = padico_util::metrics::Histogram {
            count: 2,
            sum: 10,
            min: 3,
            max: 7,
            ..Default::default()
        };
        snap.histograms.insert("latency.orb.giop".into(), h);
        let doc = metrics_json(&snap);
        assert!(doc.contains("\"bytes.myrinet\":4096"));
        assert!(doc.contains("\"latency.orb.giop\":{\"count\":2,\"sum\":10"));

        let mut cp = padico_util::span::CriticalPath {
            total: 100,
            ..Default::default()
        };
        cp.self_ns.insert("fabric.link", 60);
        cp.self_ns.insert("orb.giop", 40);
        let doc = critical_path_json(&cp);
        assert_eq!(
            doc,
            "{\"total_ns\":100,\"self_ns\":{\"fabric.link\":60,\"orb.giop\":40}}"
        );
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(doc.matches(open).count(), doc.matches(close).count());
        }
    }

    #[test]
    fn rows_table_shape() {
        let text = render_rows(
            "Latency",
            &[("MPI".to_string(), 11.2, "µs", "11 µs")],
        );
        assert!(text.contains("| MPI | 11.2 µs | 11 µs |"));
        assert!(render_curves("x", &[]).contains("no data"));
    }
}
