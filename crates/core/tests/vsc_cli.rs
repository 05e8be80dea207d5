//! The built `vsc` binary against user input a library test cannot
//! reach: argument handling and exit codes.

use std::process::Command;

/// `vsc run` on the stencil example at 4 ranks, plus `extra` arguments.
fn vsc_run_with(extra: &[&str]) -> std::process::Output {
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/stencil.mh"
    );
    Command::new(env!("CARGO_BIN_EXE_vsc"))
        .args(["run", program, "--ranks", "4"])
        .args(extra)
        .output()
        .expect("vsc runs")
}

fn vsc_run(threshold: &str) -> std::process::Output {
    vsc_run_with(&["--threshold", threshold])
}

#[test]
fn out_of_range_threshold_is_a_typed_error_not_a_panic() {
    for bad in ["0", "2", "-1", "nan"] {
        let out = vsc_run(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threshold {bad}: {stderr}");
        assert!(stderr.starts_with("vsc: "), "--threshold {bad}: {stderr}");
        assert!(stderr.contains("variance_threshold"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    let out = vsc_run("0.7");
    assert!(out.status.success(), "a valid threshold still runs");
}

/// There is one simulation backend: `--sim` only picks its worker count,
/// which never changes a byte of the report; the deleted `threads` backend
/// is a usage error like any other unknown name.
#[test]
fn sim_flag_takes_worker_counts_only() {
    let default = vsc_run_with(&[]);
    assert!(default.status.success());
    for sim in ["event", "event:4"] {
        let out = vsc_run_with(&["--sim", sim]);
        assert!(out.status.success(), "--sim {sim}");
        assert_eq!(out.stdout, default.stdout, "--sim {sim} changed the report");
    }
    for bad in ["threads", "event:0", "fibers"] {
        let out = vsc_run_with(&["--sim", bad]);
        assert_eq!(out.status.code(), Some(2), "--sim {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage:"), "--sim {bad}: {stderr}");
        assert!(
            !stderr.contains("threads"),
            "usage still offers threads: {stderr}"
        );
    }
}
