//! `repro` reads and writes the committed bench files in one place.
//!
//! A plain suite run writes its baseline only under `--out DIR`, and
//! `--check` always reads the committed baseline at the repo root, so the
//! directory `repro` runs in can neither receive nor shadow a baseline.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory under the target directory's scratch space.
fn empty_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn entries(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .expect("read scratch directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn a_plain_suite_run_leaves_its_directory_empty() {
    let dir = empty_dir("plain_suite_run");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["control", "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro control --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(entries(&dir), Vec::<String>::new());
}

#[test]
fn check_reads_the_committed_baseline_not_one_in_the_directory() {
    let dir = empty_dir("stale_baseline");
    // A baseline no real run matches: were it read, every fresh cell
    // would be new and the gate would fail.
    let stale = r#"[{"suite": "control", "cell": "stale/1", "metric": "stale", "value": 1.0, "kind": "virtual", "better": "lower"}]"#;
    fs::write(dir.join("BENCH_control.json"), stale).expect("write stale baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["control", "--check"])
        .current_dir(&dir)
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("perf gate: PASS"),
        "repro control --check did not pass against the committed baseline:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("stale/1"), "the stale baseline was read");
}

#[test]
fn an_unknown_or_incomplete_flag_is_a_usage_error() {
    for args in [
        &["control", "--smoke", "--chek"][..],
        &["control", "--smoke", "--out"],
        &["table1", "--ranks"],
        &["gate", "--history"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.starts_with("usage: repro"), "{stdout}");
    assert!(!stdout.contains("reproduction harness"), "{stdout}");
}
