//! The experiment binaries reproduce their pinned output.
//!
//! Each binary runs in a fresh temporary directory: the four figure
//! binaries with `--quick`, `tcploss_scan` and `ablation_dos` with no
//! arguments. Where pinned, its stdout and `results/<bin>.csv` must
//! equal `tests/golden/<bin>.stdout` and `tests/golden/<bin>.csv` byte
//! for byte: the figures pin both, `tcploss_scan` its stdout, and
//! `ablation_dos` neither (its puzzle table is wall-clock). Each run
//! manifest `results/<bin>-<scenario>.json` must match
//! `tests/golden/<bin>-<scenario>.manifest`: the manifest flattened to
//! one `path value` line per field (see [`flatten`]), without the
//! fields that differ between runs (`git_rev`, `wall_secs`) and with
//! each histogram pinned by its `count` and `sum`. A manifest mismatch
//! lists every path whose value moved.
//!
//! After a deliberate change to a figure, regenerate the golden files:
//! run the binary from an empty directory and copy its stdout and CSV
//! here; a failing run writes each flattened manifest it saw to
//! `figures/` under Cargo's per-test scratch directory (`target/tmp`),
//! from where the `.manifest` files are copied.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Reports the first line where `actual` differs from `golden`.
fn assert_same(what: &str, actual: &[u8], golden: &[u8]) {
    if actual == golden {
        return;
    }
    let (actual, golden) = (
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(golden),
    );
    let mut a = actual.lines();
    let mut g = golden.lines();
    for line in 1.. {
        match (a.next(), g.next()) {
            (Some(x), Some(y)) if x == y => {}
            (None, None) => panic!("{what}: line endings differ from the golden file"),
            (x, y) => {
                panic!("{what}: first difference at line {line}\n  golden: {y:?}\n  actual: {x:?}")
            }
        }
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(file: &str) -> Vec<u8> {
    let path = golden_dir().join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// An empty directory of this test's own under the system temp dir.
fn fresh_dir(bin: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-figures-{}-{bin}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A run manifest as `path → value`: object keys joined with `/`,
/// arrays and scalars kept as their JSON text. `git_rev` and
/// `wall_secs` are left out, and of each histogram under
/// `metrics/hists` only `count` and `sum` are kept.
fn flatten(json: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut p = Parser { s: json, at: 0 };
    p.value("", &mut out);
    out.retain(|path, _| {
        let hist_field = path.strip_prefix("metrics/hists/").map(|h| {
            let (_, field) = h.rsplit_once('/').expect("histogram field");
            field
        });
        path != "git_rev"
            && path != "wall_secs"
            && hist_field.is_none_or(|f| f == "count" || f == "sum")
    });
    out
}

/// Just enough of a JSON reader for the manifests `obs` writes.
struct Parser<'a> {
    s: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.s[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.s.as_bytes()[self.at]
    }

    /// A string's raw text, quotes included.
    fn string(&mut self) -> &str {
        let start = self.at;
        let mut escaped = false;
        for (i, c) in self.s[start + 1..].char_indices() {
            match c {
                '"' if !escaped => {
                    self.at = start + 1 + i + 1;
                    return &self.s[start..self.at];
                }
                '\\' if !escaped => escaped = true,
                _ => escaped = false,
            }
        }
        panic!("unterminated string at {start}")
    }

    /// Reads one value at `path` into `out`.
    fn value(&mut self, path: &str, out: &mut BTreeMap<String, String>) {
        let start = self.at;
        match self.peek() {
            b'{' => {
                self.at += 1;
                while self.peek() != b'}' {
                    let key = self.string().trim_matches('"').to_string();
                    assert_eq!(self.peek(), b':', "':' after {key:?}");
                    self.at += 1;
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}/{key}")
                    };
                    self.value(&child, out);
                    if self.peek() == b',' {
                        self.at += 1;
                    }
                }
                self.at += 1;
                return;
            }
            b'[' => {
                let mut depth = 0;
                loop {
                    match self.peek() {
                        b'"' => {
                            self.string();
                            continue;
                        }
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    self.at += 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            b'"' => {
                self.string();
            }
            _ => {
                let rest = &self.s[self.at..];
                self.at += rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
            }
        }
        out.insert(path.to_string(), self.s[start..self.at].trim().to_string());
    }
}

fn render(fields: &BTreeMap<String, String>) -> String {
    fields.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

fn parse_golden(text: &str) -> BTreeMap<String, String> {
    let line = |l: &str| {
        let (k, v) = l.split_once(' ').expect("`path value` line");
        (k.to_string(), v.to_string())
    };
    text.lines().map(line).collect()
}

/// Every path whose value differs between `golden` and `actual`, one
/// line each.
fn moved(golden: &BTreeMap<String, String>, actual: &BTreeMap<String, String>) -> Vec<String> {
    let mut paths: Vec<&String> = golden.keys().chain(actual.keys()).collect();
    paths.sort();
    paths.dedup();
    let show = |v: Option<&String>| v.map_or("(absent)", String::as_str).to_string();
    paths
        .into_iter()
        .filter(|p| golden.get(*p) != actual.get(*p))
        .map(|p| {
            let (g, a) = (show(golden.get(p)), show(actual.get(p)));
            format!("  {p}: golden {g}, actual {a}")
        })
        .collect()
}

/// The files `<bin>-*<ext>` in `dir`, by name without `ext`, sorted.
fn stems(dir: &Path, bin: &str, ext: &str) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("list directory");
    let mut stems: Vec<String> = entries
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter_map(|f| Some(f.strip_suffix(ext)?.to_string()))
        .filter(|f| f.starts_with(&format!("{bin}-")))
        .collect();
    stems.sort();
    stems
}

/// Checks each run manifest (`stem`, JSON) against its golden file,
/// and that the set of manifests matches the golden set. Each manifest
/// that differs is written, flattened, to `figures/` under
/// `CARGO_TARGET_TMPDIR`.
fn check_manifests(bin: &str, manifests: &[(String, String)]) {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures");
    let mut report = Vec::new();
    for (stem, json) in manifests {
        let actual = flatten(json);
        let file = format!("{stem}.manifest");
        let text = std::fs::read_to_string(golden_dir().join(&file));
        let pinned = text.map_or_else(|_| BTreeMap::new(), |t| parse_golden(&t));
        let diff = moved(&pinned, &actual);
        if !diff.is_empty() {
            std::fs::create_dir_all(&scratch).expect("create scratch dir");
            std::fs::write(scratch.join(&file), render(&actual)).expect("write manifest");
            report.push(format!(
                "{file}, {} moved:\n{}",
                diff.len(),
                diff.join("\n")
            ));
        }
    }
    let written: Vec<&String> = manifests.iter().map(|(stem, _)| stem).collect();
    let pinned = stems(&golden_dir(), bin, ".manifest");
    if written != pinned.iter().collect::<Vec<_>>() {
        report.push(format!("manifests written {written:?}, pinned {pinned:?}"));
    }
    assert!(
        report.is_empty(),
        "{bin}: manifests differ from the golden files (actual ones in {})\n{}",
        scratch.display(),
        report.join("\n")
    );
}

/// Which of a binary's outputs besides its manifests are pinned.
#[derive(Clone, Copy, PartialEq)]
enum Pinned {
    StdoutAndCsv,
    Stdout,
    ManifestsOnly,
}

/// Runs `exe args` in a fresh directory and checks what `pinned` names
/// plus every run manifest against the golden files.
fn check(bin: &str, exe: &str, args: &[&str], pinned: Pinned) {
    let dir = fresh_dir(bin);
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run experiment binary");
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = dir.join("results");
    let csv = (pinned == Pinned::StdoutAndCsv)
        .then(|| std::fs::read(results.join(format!("{bin}.csv"))).expect("CSV written"));
    let read = |stem: String| {
        let json = std::fs::read_to_string(results.join(format!("{stem}.json")));
        (stem, json.expect("manifest"))
    };
    let manifests: Vec<(String, String)> = stems(&results, bin, ".json")
        .into_iter()
        .map(read)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    if pinned != Pinned::ManifestsOnly {
        assert_same(
            &format!("{bin} stdout"),
            &out.stdout,
            &golden(&format!("{bin}.stdout")),
        );
    }
    if let Some(csv) = csv {
        assert_same(&format!("{bin}.csv"), &csv, &golden(&format!("{bin}.csv")));
    }
    check_manifests(bin, &manifests);
}

#[test]
fn flatten_keeps_deterministic_fields() {
    let json = r#"{
  "bin": "b",
  "git_rev": "abc",
  "wall_secs": 0.5,
  "timeline": [[1,0],[2,"x]"]],
  "metrics": {"counters":{"a.b":3},"gauges":{},"hists":{"h":{"count":2,"sum":9,"p50":4}}}
}
"#;
    let flat = flatten(json);
    let lines: Vec<String> = flat.iter().map(|(k, v)| format!("{k} {v}")).collect();
    assert_eq!(
        lines,
        [
            "bin \"b\"",
            "metrics/counters/a.b 3",
            "metrics/hists/h/count 2",
            "metrics/hists/h/sum 9",
            "timeline [[1,0],[2,\"x]\"]]",
        ]
    );
    assert_eq!(parse_golden(&render(&flat)), flat);
}

#[test]
fn fig2_throughput_matches_golden() {
    check(
        "fig2_throughput",
        env!("CARGO_BIN_EXE_fig2_throughput"),
        &["--quick"],
        Pinned::StdoutAndCsv,
    );
}

#[test]
fn tab_response_times_matches_golden() {
    check(
        "tab_response_times",
        env!("CARGO_BIN_EXE_tab_response_times"),
        &["--quick"],
        Pinned::StdoutAndCsv,
    );
}

#[test]
fn fig3_iperf_rtt_matches_golden() {
    check(
        "fig3_iperf_rtt",
        env!("CARGO_BIN_EXE_fig3_iperf_rtt"),
        &["--quick"],
        Pinned::StdoutAndCsv,
    );
}

#[test]
fn fig_resilience_matches_golden() {
    check(
        "fig_resilience",
        env!("CARGO_BIN_EXE_fig_resilience"),
        &["--quick"],
        Pinned::StdoutAndCsv,
    );
}

#[test]
fn tcploss_scan_matches_golden() {
    check(
        "tcploss_scan",
        env!("CARGO_BIN_EXE_tcploss_scan"),
        &[],
        Pinned::Stdout,
    );
}

#[test]
fn ablation_dos_matches_golden() {
    check(
        "ablation_dos",
        env!("CARGO_BIN_EXE_ablation_dos"),
        &[],
        Pinned::ManifestsOnly,
    );
}
