//! The figure binaries reproduce their pinned `--quick` output.
//!
//! Each binary runs with `--quick` in a fresh temporary directory. Its
//! stdout and `results/<bin>.csv` must equal `tests/golden/<bin>.stdout`
//! and `tests/golden/<bin>.csv` byte for byte. The run manifests are not
//! pinned (they carry the git revision and wall time), and neither is
//! `ablation_dos` (its table has wall-clock columns).
//!
//! After a deliberate change to a figure, regenerate the golden files by
//! running the binary with `--quick` from an empty directory and copying
//! its stdout and CSV here.

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

fn golden(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// An empty directory of this test's own under the system temp dir.
fn fresh_dir(bin: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-figures-{}-{bin}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn check(bin: &str, exe: &str) {
    let dir = fresh_dir(bin);
    let out = Command::new(exe)
        .arg("--quick")
        .current_dir(&dir)
        .output()
        .expect("run figure binary");
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(dir.join("results").join(format!("{bin}.csv"))).expect("CSV written");
    let _ = std::fs::remove_dir_all(&dir);
    assert_same(
        &format!("{bin} stdout"),
        &out.stdout,
        &golden(&format!("{bin}.stdout")),
    );
    assert_same(&format!("{bin}.csv"), &csv, &golden(&format!("{bin}.csv")));
}

#[test]
fn fig2_throughput_matches_golden() {
    check("fig2_throughput", env!("CARGO_BIN_EXE_fig2_throughput"));
}

#[test]
fn tab_response_times_matches_golden() {
    check(
        "tab_response_times",
        env!("CARGO_BIN_EXE_tab_response_times"),
    );
}

#[test]
fn fig3_iperf_rtt_matches_golden() {
    check("fig3_iperf_rtt", env!("CARGO_BIN_EXE_fig3_iperf_rtt"));
}

#[test]
fn fig_resilience_matches_golden() {
    check("fig_resilience", env!("CARGO_BIN_EXE_fig_resilience"));
}
