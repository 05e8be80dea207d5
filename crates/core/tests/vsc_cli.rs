//! The built `vsc` binary against user input a library test cannot
//! reach: argument handling and exit codes.

use std::process::Command;

fn vsc_run(threshold: &str) -> std::process::Output {
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/stencil.mh"
    );
    Command::new(env!("CARGO_BIN_EXE_vsc"))
        .args(["run", program, "--ranks", "4", "--threshold", threshold])
        .output()
        .expect("vsc runs")
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
