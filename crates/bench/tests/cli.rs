//! The experiment binaries' command line and output files.
//!
//! A command line a binary does not accept exits with status 2 and a
//! usage line; an output that cannot be written exits non-zero; and
//! `--trace-out` writes one JSON object per line, as many as the
//! binary reports.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty directory of this test's own under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `exe args` in `dir`.
fn run(exe: &str, args: &[&str], dir: &PathBuf) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiment binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `N` of stderr's "wrote N trace records" line.
fn reported_records(out: &Output) -> usize {
    let err = stderr(out);
    let line = err
        .lines()
        .filter_map(|l| l.strip_prefix("wrote "))
        .find(|l| l.contains(" trace records to "))
        .unwrap_or_else(|| panic!("no trace line in stderr:\n{err}"));
    let n = line.split(' ').next().expect("count");
    n.parse().expect("record count")
}

/// Whether `line` is one JSON object: it opens with `{`, and the
/// braces and brackets outside strings balance first at its last byte.
fn is_json_object(line: &str) -> bool {
    if !line.starts_with('{') {
        return false;
    }
    let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
    for (i, c) in line.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    return i == line.len() - 1;
                }
            }
            _ => {}
        }
    }
    false
}

#[test]
fn json_object_check() {
    assert!(is_json_object(r#"{"a":[1,{"b":"}"}],"c":"\"{"}"#));
    assert!(!is_json_object(r#"{"a":1}}"#));
    assert!(!is_json_object(r#"{"a":1"#));
    assert!(!is_json_object(r#"{"a":1} {"b":2}"#));
    assert!(!is_json_object("[1]"));
}

#[test]
fn unknown_flag_exits_with_usage() {
    let dir = fresh_dir("quik");
    let out = run(env!("CARGO_BIN_EXE_fig2_throughput"), &["--quik"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("usage: fig2_throughput [--quick] [--trace-out <path>]"),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "ran anyway");
}

#[test]
fn trace_out_without_a_path_exits_with_usage() {
    let dir = fresh_dir("no-path");
    let out = run(
        env!("CARGO_BIN_EXE_tcploss_scan"),
        &["42", "--trace-out"],
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("usage: tcploss_scan"));
}

#[test]
fn unwritable_results_fail_the_run() {
    let dir = fresh_dir("unwritable");
    std::fs::write(dir.join("results"), "a file, not a directory").expect("write");
    let out = run(env!("CARGO_BIN_EXE_fig3_iperf_rtt"), &["--quick"], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "exit status {}", out.status);
    assert!(stderr(&out).contains("write failed"), "{}", stderr(&out));
}

/// Runs `exe --trace-out <tmp> args` and checks the trace file against
/// stderr's record count.
fn check_trace(name: &str, exe: &str, args: &[&str]) {
    let dir = fresh_dir(name);
    let trace = dir.join("trace.jsonl");
    let mut all = vec!["--trace-out", trace.to_str().expect("UTF-8 path")];
    all.extend(args);
    let out = run(exe, &all, &dir);
    let text = std::fs::read_to_string(&trace);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = text.expect("trace written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "empty trace");
    assert_eq!(lines.len(), reported_records(&out));
    for (i, line) in lines.iter().enumerate() {
        assert!(is_json_object(line), "line {}: {line}", i + 1);
    }
}

#[test]
fn fig3_trace_export_is_jsonl() {
    check_trace("fig3", env!("CARGO_BIN_EXE_fig3_iperf_rtt"), &["--quick"]);
}

#[test]
fn tcploss_scan_traces_its_seed() {
    check_trace("scan", env!("CARGO_BIN_EXE_tcploss_scan"), &["42"]);
}
