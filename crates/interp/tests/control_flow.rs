//! Interpreter semantics of `break`/`continue` and loop edge cases,
//! verified through observable communication (the interpreter has no
//! printing, so programs signal values via allreduce or explode on
//! unknown-function calls when an assertion fails).

use cluster_sim::ClusterConfig;
use std::sync::Arc;
use vsensor_interp::run_plain;
use vsensor_lang::compile;

fn run_ok(src: &str) {
    let program = compile(src).unwrap();
    let cluster = Arc::new(ClusterConfig::quiet(1).build());
    run_plain(&program, cluster); // panics inside on error
}

/// The runtime error a single-rank program fails with, read from the
/// panic the scheduler raises with it.
fn run_err(src: &str) -> String {
    let program = compile(src).unwrap();
    let cluster = Arc::new(ClusterConfig::quiet(1).build());
    let payload =
        std::panic::catch_unwind(|| run_plain(&program, cluster)).expect_err("the program fails");
    let text = payload.downcast_ref::<String>().expect("a formatted panic");
    let message = text.strip_prefix("rank 0 panicked: runtime error: ");
    message.expect("the rank's runtime error").to_string()
}

#[test]
fn break_exits_innermost_loop_only() {
    run_ok(
        r#"
        fn main() {
            int outer = 0;
            int inner = 0;
            for (i = 0; i < 5; i = i + 1) {
                outer = outer + 1;
                for (j = 0; j < 100; j = j + 1) {
                    if (j == 3) { break; }
                    inner = inner + 1;
                }
            }
            // outer ran fully (5), inner 3 per outer iteration (15).
            if (outer != 5) { explode_outer(); }
            if (inner != 15) { explode_inner(); }
        }
        "#,
    );
}

#[test]
fn continue_skips_rest_of_body_but_steps() {
    run_ok(
        r#"
        fn main() {
            int odd_sum = 0;
            for (i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                odd_sum = odd_sum + i;
            }
            if (odd_sum != 25) { explode(); }
        }
        "#,
    );
}

#[test]
fn continue_in_while_still_terminates() {
    run_ok(
        r#"
        fn main() {
            int i = 0;
            int n = 0;
            while (i < 10) {
                i = i + 1;
                if (i % 3 == 0) { continue; }
                n = n + 1;
            }
            if (n != 7) { explode(); }
        }
        "#,
    );
}

#[test]
fn break_outside_loop_is_a_runtime_error() {
    let msg = run_err("fn main() { break; }");
    assert!(msg.contains("outside of a loop"), "{msg}");
}

#[test]
fn return_from_inside_nested_loops_unwinds() {
    run_ok(
        r#"
        fn find() -> int {
            for (i = 0; i < 10; i = i + 1) {
                for (j = 0; j < 10; j = j + 1) {
                    if (i * 10 + j == 42) { return i * 10 + j; }
                }
            }
            return -1;
        }
        fn main() {
            if (find() != 42) { explode(); }
        }
        "#,
    );
}

#[test]
fn break_in_loop_with_sensor_still_measures() {
    // An instrumented loop containing a conditional break still produces
    // senses and the analysis treats the break's branch as control.
    use vsensor::{scenarios, Pipeline};
    let prepared = Pipeline::new()
        .compile(
            r#"
            fn main() {
                for (t = 0; t < 200; t = t + 1) {
                    for (k = 0; k < 10; k = k + 1) {
                        if (k == 5) { break; }
                        compute(500);
                    }
                }
            }
            "#,
        )
        .unwrap();
    // The inner loop breaks at a constant point: still fixed-workload.
    assert!(prepared.sensor_count() >= 1);
    let run = prepared.run(Arc::new(scenarios::quiet(2).build()), &Default::default());
    assert!(run.report.distribution.sense_count > 0);
    assert!(
        run.workload_max_error.abs() < 1e-12,
        "break at fixed k is fixed work"
    );
}
