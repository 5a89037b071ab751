//! Small text-table helpers for the experiment binaries, plus the one
//! shared run-manifest / trace-export path every binary goes through:
//! [`manifest`] seeds an [`obs::RunManifest`] with provenance (seed,
//! git revision), [`write_manifest`] finishes it with wall-clock, event
//! count and the full metrics dump, and [`trace_out`] parses the
//! `--trace-out <path>` flag for structured JSONL trace export.

use obs::{Histogram, MetricsRegistry, RunManifest};
use std::path::{Path, PathBuf};

/// Renders an ASCII table: header row + data rows, columns padded.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
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
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Quotes a CSV cell per RFC 4180 when it contains a comma, quote or
/// line break (inner quotes doubled); plain cells pass through as-is.
pub fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Writes rows as a CSV file under `results/` (creating the directory),
/// so figures can be re-plotted externally. Cells are escaped with
/// [`csv_cell`]. Returns the path written.
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    let join = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cells.map(csv_cell).collect::<Vec<_>>().join(",")
    };
    out.push_str(&join(&mut headers.iter().copied()));
    out.push('\n');
    for row in rows {
        out.push_str(&join(&mut row.iter().map(String::as_str)));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// The short git revision of the working tree, or `"unknown"` when git
/// is unavailable (e.g. running from an exported tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Starts a run manifest for `bin`/`scenario` with the common
/// provenance fields every experiment records: seed and git revision.
pub fn manifest(bin: &str, scenario: &str, seed: u64) -> RunManifest {
    let mut m = RunManifest::new(bin, scenario);
    m.num("seed", seed).str_field("git_rev", &git_rev());
    m
}

/// Finishes a manifest with the run outcome — wall-clock seconds,
/// dispatched event count, and the full metrics dump — and writes it
/// under `results/`. Returns the path written.
pub fn write_manifest(
    mut m: RunManifest,
    wall_secs: f64,
    events: u64,
    metrics: &MetricsRegistry,
) -> std::io::Result<PathBuf> {
    m.num("wall_secs", format!("{wall_secs:.3}"))
        .num("events", events)
        .raw("metrics", metrics.to_json());
    m.write_to(Path::new("results"))
}

/// Parses `--trace-out <path>` (or `--trace-out=<path>`) from the
/// process arguments; when present the binary runs a traced
/// representative simulation and exports it as JSONL.
pub fn trace_out() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// One table/CSV row summarizing a nanosecond-valued latency histogram
/// in milliseconds: `[stage, count, p50, p90, p99, max]`.
pub fn hist_row_ms(stage: &str, h: &Histogram) -> Vec<String> {
    let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
    vec![
        stage.to_string(),
        h.count().to_string(),
        ms(h.quantile(0.50)),
        ms(h.quantile(0.90)),
        ms(h.quantile(0.99)),
        ms(h.max()),
    ]
}

/// Renders the per-stage latency-quantile table for the protocol stages
/// found in `metrics` (listed in `stages` order; absent stages are
/// skipped). Returns `None` when none of the stages were observed.
pub fn stage_table(metrics: &MetricsRegistry, stages: &[&str]) -> Option<String> {
    let rows: Vec<Vec<String>> = stages
        .iter()
        .filter_map(|s| metrics.hist_get(s).map(|h| hist_row_ms(s, h)))
        .filter(|r| r[1] != "0")
        .collect();
    if rows.is_empty() {
        return None;
    }
    Some(table(
        &["stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"],
        &rows,
    ))
}

/// A crude horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "█".repeat(filled.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{t}");
        assert!(t.contains("longer-name"));
    }

    #[test]
    fn csv_cells_are_escaped() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_cell("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_cell(""), "");
    }

    #[test]
    fn hist_row_converts_ns_to_ms() {
        let mut h = obs::Histogram::new();
        h.record(2_000_000); // 2 ms
        let row = hist_row_ms("stage", &h);
        assert_eq!(row[0], "stage");
        assert_eq!(row[1], "1");
        assert_eq!(row[2], "2.00");
    }

    #[test]
    fn stage_table_skips_absent_stages() {
        let mut m = obs::MetricsRegistry::new();
        m.observe_name("hip.bex", 5_000_000);
        let t = stage_table(&m, &["hip.bex", "esp.encrypt"]).expect("one stage present");
        assert!(t.contains("hip.bex"));
        assert!(!t.contains("esp.encrypt"));
        assert!(stage_table(&m, &["tcp.connect"]).is_none());
    }

    #[test]
    fn bar_scaling() {
        assert_eq!(bar(50.0, 100.0, 10).chars().count(), 5);
        assert_eq!(bar(0.0, 100.0, 10), "");
        assert_eq!(bar(200.0, 100.0, 10).chars().count(), 10, "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
