//! `perf`: the repository's benchmark. See `README.md` beside this crate
//! for every workload and metric; `perf --list` prints the same catalogue.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! perf [--seed N] [--seconds S]                           all six, one child process each,
//!                                                         untraced then traced
//! perf --self-check                                       all of it twice; the two sets
//!                                                         must agree within each bound
//! perf --list | --benchmark-json
//! ```

mod catalog;
mod harness;
mod micro;
mod sampler;
mod sim;
mod spans;
mod static_apps;
mod tele;

use catalog::{Bound, MetricDef, Scope, METRICS, WORKLOADS};
use harness::{Ctx, Outcome};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    list: bool,
    benchmark_json: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        traced: false,
        list: false,
        benchmark_json: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(def.ok_or(format!("no workload {name}; try --list"))?.name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    if args.benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match args.workload {
        Some(workload) => run_workload(workload, &args),
        None if args.self_check => self_check(&args),
        None => run_all(&args).is_some(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<14} {}", w.name, w.why);
    }
    for (title, scope) in [
        (
            "end-to-end metrics, every workload (BENCHMARK.json end_to_end)",
            Scope::EndToEndAll,
        ),
        ("end-to-end metrics, some workloads", Scope::EndToEndSome),
        (
            "per-layer metrics (--trace 1) and what each should move",
            Scope::Layer,
        ),
    ] {
        let _ = writeln!(out, "{title}");
        for m in METRICS.iter().filter(|m| m.scope == scope) {
            let on = if m.on.is_empty() {
                "all".to_string()
            } else {
                m.on.join(", ")
            };
            let _ = writeln!(
                out,
                "  {:<30} {:<8} {:<6} {:<16} [{on}] {}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound.label(),
                m.note
            );
        }
    }
    out
}

/// Run one workload in this process and print its table and result line.
fn run_workload(workload: &'static str, args: &Args) -> bool {
    let ctx = Ctx {
        workload,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.traced,
    };
    let mut outcome = match workload {
        catalog::STATIC_APPS => static_apps::run(&ctx),
        catalog::CG64_VM | catalog::RING8K_SCHED | catalog::FIG21_LOSSY => sim::run(&ctx),
        _ => tele::run(&ctx),
    };
    if ctx.traced {
        outcome.set("tick.pair_ns", micro::tick_pair_ns());
        outcome.set("transport.crc_ns_per_record", micro::crc_ns_per_record());
    }
    outcome.finish(ctx.traced);
    print!("{}", table(&ctx, &outcome));
    if ctx.traced {
        if let Err(e) = write_trace(&ctx, &outcome) {
            eprintln!("perf: could not write the trace: {e}");
        }
    }
    println!("{}", result_line(&ctx, &outcome));
    outcome.failed == 0
}

/// The metrics the result line carries: the contract's `end_to_end` list
/// for an untraced run, its `per_layer` list for a traced one.
fn reported(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(move |m| (m.scope != Scope::EndToEndAll) == traced)
}

/// Four decimals, or four significant digits for a value too small for
/// them (set-up times are microseconds in a column of seconds).
fn number(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

fn table(ctx: &Ctx, outcome: &Outcome) -> String {
    let mut out = String::new();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        out,
        "== {}  seed {}  {} s  {}  ({threads} hardware threads, generator 1, product <= 2)",
        ctx.workload,
        ctx.seed,
        ctx.budget.as_secs(),
        if ctx.traced { "traced" } else { "untraced" },
    );
    let _ = writeln!(
        out,
        "{:<30} {:>14} {:<8} {:<6} {:<16} distribution",
        "metric", "value", "unit", "better", "bound"
    );
    for m in METRICS.iter().filter(|m| m.applies_to(ctx.workload)) {
        let Some((_, value)) = outcome.values.iter().find(|(n, _)| *n == m.name) else {
            continue;
        };
        let distribution =
            outcome
                .summaries
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(String::new(), |(_, s)| {
                    format!(
                        "n={} min {} q1 {} med {} q3 {} max {}",
                        s.n,
                        number(s.min),
                        number(s.q1),
                        number(s.median),
                        number(s.q3),
                        number(s.max)
                    )
                });
        let _ = writeln!(
            out,
            "{:<30} {:>14} {:<8} {:<6} {:<16} {distribution}",
            m.name,
            number(*value),
            m.unit,
            m.better.label(),
            m.bound.label(),
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "note: {note}");
    }
    for failure in &outcome.failures {
        let _ = writeln!(out, "FAILED: {failure}");
    }
    out
}

fn result_line(ctx: &Ctx, outcome: &Outcome) -> String {
    let metrics: Vec<String> = reported(ctx.traced)
        .map(|m| {
            assert!(catalog::valid_name(m.name) && catalog::valid_unit(m.unit));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                outcome.get(m.name),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Spans of the last traced repetition, under the git-ignored `artifacts/`.
fn write_trace(ctx: &Ctx, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all("artifacts")?;
    let path = format!("artifacts/perf-trace-{}.json", ctx.workload);
    std::fs::write(&path, spans::chrome_trace_json(&outcome.spans))?;
    println!("trace: {} spans -> {path}", outcome.spans.len());
    Ok(())
}

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    values: Vec<(String, f64)>,
}

/// Parse a result line this program printed (the fixed shape of
/// [`result_line`], not general JSON).
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let correct = line.starts_with("{\"correct\": true,");
    let (_, metrics) = line.split_once("\"metrics\": {")?;
    let mut values = Vec::new();
    for entry in metrics.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit('"').next()?;
        let (number, _) = rest.split_once(',')?;
        values.push((name.to_string(), number.parse().ok()?));
    }
    Some(ChildResult { correct, values })
}

/// Re-exec this binary for one workload so its peak memory is its own.
fn run_child(workload: &str, args: &Args, traced: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = parse_result_line(stdout.lines().last()?)?;
    (output.status.success() == result.correct).then_some(result)
}

/// Every workload, untraced then traced. `None` if a child failed.
/// Values are keyed `workload/metric`.
fn run_all(args: &Args) -> Option<Vec<(String, f64)>> {
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            match run_child(w.name, args, traced) {
                Some(result) => {
                    ok &= result.correct;
                    for (name, value) in result.values {
                        all.push((format!("{}/{name}", w.name), value));
                    }
                }
                None => {
                    eprintln!("perf: {} (trace {}) did not finish", w.name, traced as u8);
                    ok = false;
                }
            }
        }
    }
    ok.then_some(all)
}

/// The bound `--self-check` holds a metric to: its own, and exact for a
/// layer's count.
fn self_check_bound(m: &MetricDef) -> Bound {
    if m.scope == Scope::Layer && m.unit == "count" {
        Bound::Exact
    } else {
        m.bound
    }
}

/// Run the whole benchmark twice; the second set must be no worse than
/// the first by more than each metric's bound (and the first no worse than
/// the second: the same code produced both).
fn self_check(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_all(args), run_all(args)) else {
        println!("self-check: FAILED, a run did not complete correctly");
        return false;
    };
    let mut ok = true;
    println!("== self-check: two sets of runs of the same code");
    for ((key, a), (_, b)) in first.iter().zip(&second) {
        let (workload, name) = key.split_once('/').expect("keys are workload/metric");
        let m = catalog::metric(name);
        let bound = self_check_bound(m);
        if !m.applies_to(workload) || bound == Bound::None {
            continue;
        }
        let holds = bound.holds(m.better, *a, *b) && bound.holds(m.better, *b, *a);
        ok &= holds;
        println!(
            "{:<44} {:>14} {:>14} {:<8} {:<16} {}",
            key,
            number(*a),
            number(*b),
            m.unit,
            bound.label(),
            if holds { "ok" } else { "OUT OF BOUND" }
        );
    }
    println!("self-check: {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(traced: bool) -> Ctx {
        Ctx {
            workload: catalog::TELE_DURABLE,
            seed: 1,
            budget: Duration::from_secs(1),
            traced,
        }
    }

    #[test]
    fn result_line_carries_exactly_the_contracts_keys() {
        let mut outcome = Outcome::default();
        outcome.set("wall_s", 1.25);
        outcome.set("setup_s", 0.5);
        outcome.set("recover_s", 0.2);
        outcome.count(10, 0, "batches");
        let line = result_line(&ctx(false), &outcome);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let parsed = parse_result_line(&line).unwrap();
        let names: Vec<_> = parsed.values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["setup_s", "wall_s", "peak_rss_mb"]);
        assert_eq!(parsed.values[1].1, 1.25);
        assert!(parsed.correct);

        outcome.check(false, || "x".into());
        let traced = parse_result_line(&result_line(&ctx(true), &outcome)).unwrap();
        assert!(!traced.correct);
        assert_eq!(traced.values.len(), reported(true).count());
        assert!(traced.values.contains(&("recover_s".into(), 0.2)));
        assert!(!traced.values.iter().any(|(n, _)| n == "wall_s"));
    }

    #[test]
    fn table_prints_every_set_metric_with_unit_direction_and_bound() {
        let mut outcome = Outcome::default();
        outcome.set_median("wall_s", &[1.0, 2.0, 3.0]);
        outcome.check(false, || "tenant 3 differs".into());
        let text = table(&ctx(false), &outcome);
        assert!(text.contains("tele-durable  seed 1"));
        let row = text.lines().find(|l| l.starts_with("wall_s")).unwrap();
        for part in ["2.0000", " s ", "lower", "25%", "n=3 min 1.0000"] {
            assert!(row.contains(part), "{row}");
        }
        assert!(text.contains("FAILED: tenant 3 differs"));
        assert_eq!(number(0.0000110595), "1.106e-5");
        assert_eq!(number(0.0), "0.0000");
        assert!(list().contains("wal.catch_up_ms_last"));
    }

    #[test]
    fn layer_counts_are_exact_in_the_self_check() {
        assert_eq!(
            self_check_bound(catalog::metric("wal.frames")),
            Bound::Exact
        );
        assert_eq!(
            self_check_bound(catalog::metric("wal.recover_ms")),
            Bound::None
        );
        assert_eq!(
            self_check_bound(catalog::metric("wall_s")),
            Bound::Relative(0.25)
        );
    }
}
