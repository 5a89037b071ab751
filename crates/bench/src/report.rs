//! Small text-table helpers for the experiment binaries, plus
//! [`Output`], the one path every binary writes its files through: the
//! CSV and the run manifests under `results/`, and the JSONL trace.

use netsim::trace::Trace;
use obs::{Histogram, MetricsRegistry, RunManifest};
use std::io;
use std::path::Path;
use std::process::ExitCode;

/// Renders an ASCII table: header row + data rows, columns padded.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| -> String {
        let padded = cells.iter().zip(&widths);
        let padded: String = padded.map(|(c, w)| format!(" {c:<w$} |")).collect();
        format!("|{padded}\n")
    };
    let sep: String = widths.iter().map(|w| "-".repeat(w + 2) + "|").collect();
    let mut out = line(headers.to_vec()) + "|" + &sep + "\n";
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
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

/// Renders rows as CSV, cells escaped with [`csv_cell`].
fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<&str>| -> String {
        let cells: Vec<String> = cells.into_iter().map(csv_cell).collect();
        cells.join(",") + "\n"
    };
    let mut out = line(headers.to_vec());
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Runs `f`, returning its result and the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The short git revision of the working tree, or `"unknown"` when git
/// is unavailable (e.g. running from an exported tarball).
fn git_rev() -> String {
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

/// Where one binary writes its files: `results/<bin>.csv`, the run
/// manifests `results/<bin>-<scenario>.json` and a JSONL trace. Each
/// write names what it wrote on stderr; a failed write is reported
/// there too and makes [`Output::finish`] fail the process.
pub struct Output {
    bin: &'static str,
    seed: u64,
    failed: bool,
}

impl Output {
    /// The outputs of `bin`, whose manifests record `seed`.
    pub fn new(bin: &'static str, seed: u64) -> Self {
        Output {
            bin,
            seed,
            failed: false,
        }
    }

    /// Starts a run manifest for `scenario` with the provenance every
    /// experiment records: seed and git revision.
    pub fn manifest(&self, scenario: &str) -> RunManifest {
        let mut m = RunManifest::new(self.bin, scenario);
        m.num("seed", self.seed).str_field("git_rev", &git_rev());
        m
    }

    /// Prints `rows` as a table under the first name of each column and
    /// writes them as `results/<bin>.csv` under the second, so figures
    /// can be re-plotted externally.
    pub fn write_table(&mut self, columns: &[(&str, &str)], rows: &[Vec<String>]) {
        let (shown, named): (Vec<&str>, Vec<&str>) = columns.iter().copied().unzip();
        println!("{}", table(&shown, rows));
        let path = Path::new("results").join(format!("{}.csv", self.bin));
        let written = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, csv(&named, rows)));
        self.report("CSV", written.map(|()| path.display().to_string()));
    }

    /// Finishes `m` with the run outcome — wall-clock seconds,
    /// dispatched event count and the full metrics dump — and writes it
    /// under `results/`.
    pub fn write_manifest(
        &mut self,
        mut m: RunManifest,
        wall_secs: f64,
        events: u64,
        metrics: &MetricsRegistry,
    ) {
        m.num("wall_secs", format!("{wall_secs:.3}"))
            .num("events", events)
            .raw("metrics", metrics.to_json());
        let written = m.write_to(Path::new("results"));
        self.report("manifest", written.map(|p| p.display().to_string()));
    }

    /// Exports `trace` to `path` as JSONL, one record per line.
    pub fn write_trace(&mut self, trace: &Trace, path: &Path) {
        let (n, cut, shown) = (trace.entries().len(), trace.truncated(), path.display());
        let written = trace.write_jsonl(path);
        let what = || format!("{n} trace records to {shown} ({cut} dropped at cap)");
        self.report("trace", written.map(|()| what()));
    }

    /// Success, or failure when any write failed.
    pub fn finish(self) -> ExitCode {
        ExitCode::from(u8::from(self.failed))
    }

    fn report(&mut self, what: &str, written: io::Result<String>) {
        match written {
            Ok(done) => eprintln!("wrote {done}"),
            Err(e) => {
                eprintln!("{}: {what} write failed: {e}", self.bin);
                self.failed = true;
            }
        }
    }
}

/// The protocol stages whose latency the RUBiS binaries report, in
/// table order; [`stage_table`] skips those a run did not observe
/// (Basic has no BEX, SSL no ESP, a single web server no proxy).
pub const STAGES: [&str; 8] = [
    "hip.bex",
    "esp.encrypt",
    "esp.decrypt",
    "tcp.connect",
    "proxy.queue",
    "web.render",
    "db.service",
    "client.latency",
];

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
    let filled = (value / max * width as f64).round() as usize;
    "█".repeat(if max > 0.0 { filled.min(width) } else { 0 })
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
