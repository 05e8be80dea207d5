//! The built `vsc` binary against user input a library test cannot
//! reach: argument handling and exit codes.

use std::process::Command;

const STENCIL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/programs/stencil.mh"
);

/// The `vsc` binary with `args`.
fn vsc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vsc"))
        .args(args)
        .output()
        .expect("vsc runs")
}

/// `vsc run` on the stencil example at 4 ranks, plus `extra` arguments.
fn vsc_run_with(extra: &[&str]) -> std::process::Output {
    vsc(&[&["run", STENCIL, "--ranks", "4"], extra].concat())
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

/// FILE is the first argument that is neither a flag nor a flag's value,
/// so flags may come before it as well as after it.
#[test]
fn file_may_follow_flags_that_take_values() {
    let after = vsc(&["run", STENCIL, "--ranks", "4", "--scenario", "quiet"]);
    assert!(
        after.status.success(),
        "{}",
        String::from_utf8_lossy(&after.stderr)
    );
    let before = vsc(&["run", "--ranks", "4", "--scenario", "quiet", STENCIL]);
    let stderr = String::from_utf8_lossy(&before.stderr);
    assert!(before.status.success(), "{stderr}");
    assert_eq!(before.stdout, after.stdout, "flag order changed the report");
    let mixed = vsc(&["analyze", "--max-depth", "3", STENCIL, "--explain"]);
    assert!(
        mixed.status.success(),
        "{}",
        String::from_utf8_lossy(&mixed.stderr)
    );
    // A flag's value alone is no FILE.
    let missing = vsc(&["run", "--ranks", "8"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&missing.stderr).starts_with("usage:"));
}

#[test]
fn zero_ranks_is_a_usage_error() {
    let out = vsc(&["run", STENCIL, "--ranks", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no matrix for a zero-rank run");
}

/// `--matrix` names one of three kinds; anything else is a usage error
/// caught before the simulation starts, like an unknown `--scenario`.
#[test]
fn unknown_matrix_kind_is_a_usage_error() {
    let default = vsc_run_with(&[]);
    assert!(default.status.success());
    let comp = vsc_run_with(&["--matrix", "comp"]);
    assert_eq!(comp.stdout, default.stdout, "comp is the default matrix");
    for kind in ["net", "io"] {
        let out = vsc_run_with(&["--matrix", kind]);
        assert!(out.status.success(), "--matrix {kind}");
        assert_ne!(out.stdout, default.stdout, "--matrix {kind} drew comp");
    }
    for bad in ["bogus", "computation", ""] {
        let out = vsc_run_with(&["--matrix", bad]);
        assert_eq!(out.status.code(), Some(2), "--matrix {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage:"), "--matrix {bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "--matrix {bad:?} ran the simulation");
    }
}
