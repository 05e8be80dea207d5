//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--smoke] [--out DIR] [--ranks N] [--check [--ratio-only]] [experiment...]
//! repro gate [--stats] [--ratio-only] [--history PATH] [--allow-new-cells]
//! repro --list
//! ```
//!
//! With no experiment names, runs everything. `--smoke` uses the reduced
//! scale (what the unit tests run); the default is the full reproduction
//! scale (use a release build). `--out DIR` additionally writes plottable
//! artifacts — SVG/PPM heatmaps and CSV series — into `DIR`. `--ranks N`
//! overrides the rank count for the experiments that accept one: `table1`
//! builds the table at N ranks on the event scheduler (`--ranks 16384`
//! reproduces the paper's process count), and `simmpi` measures the
//! scaling curve at N ranks only.
//!
//! `interp`, `service`, `simmpi` and `control` are the *gate suites*
//! ([`SUITES`]): each study reports `perf_gate::BenchRow`s and owns one
//! committed baseline, `BENCH_<suite>.json`. Run plainly, a suite
//! rewrites its baseline from the fresh rows; `--check` instead turns it
//! into the CI perf-regression gate — a paper-scale measurement is
//! compared row by row against the committed baseline and the process
//! exits nonzero on regression. `--ratio-only` restricts the gate to
//! machine-independent rows (same-machine ratios and virtual-time
//! figures), skipping absolute wall-clock rows by name — required on
//! hardware that is not comparable to the baseline machine (shared CI
//! runners).
//!
//! `repro gate` (explicit-only, like `failover`) checks every suite in
//! one invocation and **appends** the checked rows to the history
//! file (`BENCH_history.jsonl`, override with `--history PATH`) — even
//! when a gate fails, so the change-point analysis can see the failing
//! regime form. `--stats` makes every gate variance-aware: once a cell
//! has 5 recorded runs, the verdict comes from the recorded history
//! (latest change-point regime median ± `max(3·MAD, floor)`) instead of
//! the fixed 25 % band; shallower cells keep the fixed band. `--stats`
//! also works with the individual `<suite> --check` gates (read-only —
//! only `gate` appends). `--allow-new-cells` accepts measured cells that
//! are missing from the committed baseline (the intended flag when
//! regenerating a baseline that grew a cell); without it, a new
//! unmeasured cell fails the gate hard.

use cluster_sim::time::Duration;
use std::path::PathBuf;
use vsensor_bench::perf_gate::BenchRow;
use vsensor_bench::*;
use vsensor_runtime::record::SensorKind;
use vsensor_viz::{render_ppm, render_svg, HeatmapOptions};

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "Figure 1: run-to-run variance of FT on fixed nodes"),
    ("table1", "Table 1: per-program validation and overhead"),
    ("fig12", "Figure 12: smoothing out background noise"),
    ("fig13", "Figure 13: cache-miss dynamic rule"),
    ("fig14", "Figure 14: normal-run performance matrix"),
    (
        "fig16",
        "Figures 15-17: sense duration/interval distributions",
    ),
    ("fig18", "Figures 18-20: noise injection, mpiP vs vSensor"),
    ("fig21", "Figure 21: CG bad-node case study"),
    ("fig22", "Figure 22: FT network-degradation case study"),
    ("datavolume", "S6.4: trace volume vs vSensor data volume"),
    ("fwq", "S1: FWQ benchmark intrusiveness vs vSensor overhead"),
    ("ablations", "Design-choice ablation sweeps"),
    (
        "interp",
        "Interpreter speed: bytecode VM wall per simulated second (BENCH_interp.json)",
    ),
    (
        "trace",
        "Traced degraded-transport run: Chrome trace JSON + per-category summary",
    ),
    (
        "failstop",
        "Fail-stop robustness: node-death localization + WAL crash-recovery equivalence",
    ),
    (
        "service",
        "Multi-tenant service: fairness, isolation, failover (BENCH_service.json)",
    ),
    (
        "failover",
        "Multi-tenant failover smoke: standby promotion must be bitwise-identical",
    ),
    (
        "simmpi",
        "Event-backend rank-scaling curve to 16,384 ranks (BENCH_simmpi.json)",
    ),
    (
        "control",
        "Control plane: overhead budget, alert escalation, lossy-channel determinism",
    ),
    (
        "gate",
        "All perf gates + control study + history accumulation (BENCH_history.jsonl)",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, desc) in EXPERIMENTS {
            println!("{name:<12} {desc}");
        }
        return;
    }
    let effort = if args.iter().any(|a| a == "--smoke") {
        Effort::Smoke
    } else {
        Effort::Paper
    };
    let check = args.iter().any(|a| a == "--check");
    let ratio_only = args.iter().any(|a| a == "--ratio-only");
    let stats = args.iter().any(|a| a == "--stats");
    let allow_new_cells = args.iter().any(|a| a == "--allow-new-cells");
    let history_arg: Option<&String> = args
        .iter()
        .position(|a| a == "--history")
        .and_then(|i| args.get(i + 1));
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    let out_args: Vec<String> = out_dir.iter().map(|d| d.display().to_string()).collect();
    let ranks_arg: Option<&String> = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1));
    let ranks_override: Option<usize> = ranks_arg.map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--ranks needs a positive integer, got `{v}`");
            std::process::exit(2);
        })
    });
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !out_args.contains(a))
        .filter(|a| Some(*a) != ranks_arg)
        .filter(|a| Some(*a) != history_arg)
        .map(String::as_str)
        .collect();
    let run_all = selected.is_empty();
    let want = |name: &str| run_all || selected.contains(&name);

    let mut unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|s| !EXPERIMENTS.iter().any(|(n, _)| n == s))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        eprintln!("unknown experiment(s): {} — try --list", unknown.join(", "));
        std::process::exit(2);
    }

    let history_path = history_arg.map_or_else(|| committed("BENCH_history.jsonl"), PathBuf::from);
    // A missing history file is an empty history, not an error: the
    // stats gate falls back to the fixed band until runs accumulate.
    let history_text = std::fs::read_to_string(&history_path).unwrap_or_default();
    let ctx = GateCtx {
        effort,
        ranks: ranks_override,
        out_dir: out_dir.clone(),
        absolute: !ratio_only,
        stats,
        allow_new_cells,
        history_path,
        history: perf_gate::parse_history(&history_text),
    };

    println!("vSensor reproduction harness — effort: {:?}\n", effort);

    if want("fig1") {
        section("fig1");
        println!("{}", fig01_variance::run(effort, 40).render());
    }
    if want("table1") {
        section("table1");
        // An explicit --ranks (the paper's 16,384 processes fit one
        // address space) runs on the serial scheduler.
        let t = match ranks_override {
            Some(ranks) => table1_validation::run_at(effort, ranks),
            None => table1_validation::run(effort),
        };
        println!("{}", t.render());
        write_artifact(&out_dir, "table1.csv", &t.to_csv());
    }
    if want("fig12") {
        section("fig12");
        let total = match effort {
            Effort::Smoke => Duration::from_millis(50),
            Effort::Paper => Duration::from_millis(200),
        };
        let r = fig12_smoothing::run(total);
        println!("{}", r.render());
        write_artifact(&out_dir, "fig12.csv", &r.to_csv());
    }
    if want("fig13") {
        section("fig13");
        let iters = match effort {
            Effort::Smoke => 1200,
            Effort::Paper => 6000,
        };
        println!("{}", fig13_dynrules::run(iters).render());
    }
    if want("fig14") {
        section("fig14");
        let r = fig14_matrix::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig14",
            r.run
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 14: computation matrix, normal run",
            0.5,
        );
    }
    if want("fig16") {
        section("fig16");
        let r = fig16_distribution::run(effort);
        println!("{}", r.render_summary());
        println!("{}", r.render_durations());
        println!("{}", r.render_intervals());
    }
    if want("fig18") {
        section("fig18");
        let r = fig18_injection::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig20",
            r.injected_run
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 20: computation matrix, noise-injected run",
            0.5,
        );
    }
    if want("fig21") {
        section("fig21");
        let r = fig21_badnode::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig21",
            r.with_bad_node
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 21: computation matrix, bad node",
            0.7,
        );
    }
    if want("fig22") {
        section("fig22");
        let r = fig22_network::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig22",
            r.degraded
                .server
                .matrix(SensorKind::Network)
                .expect("component matrix"),
            "Figure 22: network matrix, degraded interconnect",
            0.5,
        );
    }
    if want("datavolume") {
        section("datavolume");
        println!("{}", datavolume::run(effort).render());
    }
    if want("fwq") {
        section("fwq");
        println!("{}", fwq_intrusiveness::run(effort).render());
    }
    if want("ablations") {
        section("ablations");
        println!("{}", ablations::render_all(effort));
    }
    if want("trace") {
        section("trace");
        let r = trace_run::run(effort);
        println!("{}", r.render());
        write_artifact(&out_dir, "trace.json", &r.chrome_json());
        write_artifact(&out_dir, "trace_summary.txt", &r.summary());
    }
    if want("failstop") {
        section("failstop");
        let r = failstop::run(effort);
        println!("{}", r.render());
        if !r.recovery_equivalent() {
            eprintln!("failstop: crash recovery is NOT bitwise equivalent — failing");
            std::process::exit(1);
        }
    }
    for suite in &SUITES {
        if want(suite.0) && run_gate(suite, check, &ctx).is_some_and(|report| !report.passed()) {
            std::process::exit(1);
        }
    }
    // `failover` is the CI smoke alias for the service study's failover
    // invariants — explicit-only so a bare `repro` does not run the
    // 16-tenant study twice.
    if selected.contains(&"failover") {
        section("failover");
        service_study(effort, false, None);
    }
    // `gate` checks every suite and files the checked rows into the
    // history — explicit-only for the same reason: it re-runs the interp
    // sweep and the 16-tenant study at paper scale.
    if selected.contains(&"gate") {
        section("gate");
        let run = perf_gate::next_history_run(&ctx.history);
        let mut lines = String::new();
        let mut passed = true;
        for suite in &SUITES {
            let report = run_gate(suite, true, &ctx).expect("a check always reports");
            lines.push_str(&perf_gate::history_lines(&report, run));
            passed &= report.passed();
        }
        // Append before exiting, pass or fail: the change-point analysis
        // needs to see a failing regime *form* across runs, and a torn
        // append is tolerated by the valid-prefix parser anyway.
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&ctx.history_path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .unwrap_or_else(|e| {
                eprintln!(
                    "gate: cannot append history to {}: {e}",
                    ctx.history_path.display()
                );
                std::process::exit(2);
            });
        println!("[appended run {run} to {}]", ctx.history_path.display());
        if !passed {
            std::process::exit(1);
        }
    }
}

/// A gate study runs at the given effort (`check` and an explicit
/// `--ranks` may narrow its sweep), prints its report, exits nonzero on a
/// broken invariant, and returns its gated rows.
type Study = fn(Effort, bool, Option<usize>) -> Vec<BenchRow>;

/// A gate suite: experiment name (also the `suite` of its rows), the
/// committed baseline it rewrites and is checked against, and the study.
type Suite = (&'static str, &'static str, Study);

const SUITES: [Suite; 4] = [
    ("interp", "BENCH_interp.json", interp_study),
    ("service", "BENCH_service.json", service_study),
    ("simmpi", "BENCH_simmpi.json", simmpi_study),
    ("control", "BENCH_control.json", control_study),
];

fn interp_study(effort: Effort, check: bool, _ranks: Option<usize>) -> Vec<BenchRow> {
    let r = if check {
        // Reduced sweep: the two cheapest rank counts of the committed
        // trajectory. Cells the sweep skips (ranks=64) are reported, not
        // failed.
        interp_speed::run_with_ranks(effort, &[4, 16])
    } else {
        interp_speed::run(effort)
    };
    println!("{}", r.render());
    r.rows()
}

fn service_study(effort: Effort, _check: bool, _ranks: Option<usize>) -> Vec<BenchRow> {
    let r = service_bench::run(effort);
    println!("{}", r.render());
    exit_unless_service_invariants(&r);
    r.rows()
}

fn simmpi_study(effort: Effort, _check: bool, ranks: Option<usize>) -> Vec<BenchRow> {
    // Paper effort is the whole committed curve, including the
    // 16,384-rank point — the batched event scheduler finishes it in
    // seconds, so the gate re-measures it and both adjacent scaling
    // ratios.
    let r = match ranks {
        Some(ranks) => simmpi_scale::run_with_ranks(&[ranks]),
        None => simmpi_scale::run(effort),
    };
    println!("{}", r.render());
    r.rows()
}

fn control_study(effort: Effort, _check: bool, _ranks: Option<usize>) -> Vec<BenchRow> {
    let r = control_bench::run(effort);
    println!("{}", r.render());
    exit_unless_control_invariants(&r);
    r.rows()
}

/// Everything a suite run needs beyond the suite itself: the flags and
/// the parsed run history.
struct GateCtx {
    effort: Effort,
    ranks: Option<usize>,
    out_dir: Option<PathBuf>,
    absolute: bool,
    stats: bool,
    allow_new_cells: bool,
    history_path: PathBuf,
    history: Vec<(u64, BenchRow)>,
}

/// A committed bench file: next to the invocation first (repo root in
/// CI), then relative to the crate for `cargo run` from anywhere in the
/// workspace.
fn committed(name: &str) -> PathBuf {
    let local = PathBuf::from(name);
    let repo = PathBuf::from(format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")));
    if !local.exists() && repo.exists() {
        repo
    } else {
        local
    }
}

/// Run one gate suite. Without `check`, the fresh rows become the suite's
/// baseline — written into `--out` when given, next to the invocation
/// otherwise — and there is no report. With `check`, the study runs at
/// paper effort (the committed baselines were measured at paper scale, so
/// a smoke run would not be comparable) and is compared against the
/// committed baseline; the caller exits nonzero on a failed report so CI
/// can gate on it.
fn run_gate(suite: &Suite, check: bool, ctx: &GateCtx) -> Option<perf_gate::GateReport> {
    let &(name, baseline_file, study) = suite;
    section(name);
    let effort = if check { Effort::Paper } else { ctx.effort };
    let fresh = study(effort, check, ctx.ranks);
    if !check {
        let path = ctx.out_dir.clone().unwrap_or_default().join(baseline_file);
        std::fs::write(&path, perf_gate::rows_to_json(&fresh)).expect("write baseline");
        println!("[wrote {}]", path.display());
        return None;
    }
    let path = committed(baseline_file);
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| perf_gate::parse_rows(&text))
        .unwrap_or_else(|e| {
            eprintln!("perf gate: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
    let tolerance = perf_gate::DEFAULT_TOLERANCE;
    let mut report = perf_gate::compare(&baseline, &fresh, tolerance, ctx.absolute);
    report.allow_new_cells = ctx.allow_new_cells;
    if ctx.stats {
        perf_gate::apply_history(&mut report, &ctx.history);
    }
    println!("{}", report.render());
    Some(report)
}

/// Exit nonzero unless the control-plane study's three invariants hold:
/// the overhead budget is respected without losing localization, alert
/// escalation stays confined to the suspect ranks, and seeded lossy
/// control runs are bitwise deterministic.
fn exit_unless_control_invariants(r: &control_bench::ControlBenchResult) {
    let mut failed = false;
    if !r.budget_held() {
        eprintln!(
            "control: budget violated or localization lost (fraction {} vs budget {}, localized {})",
            r.budgeted_fraction, r.budget, r.budget_localized
        );
        failed = true;
    }
    if !r.escalation_ok() {
        eprintln!(
            "control: escalation left the suspect ranks: {:?}",
            r.escalated
        );
        failed = true;
    }
    if !r.lossy_deterministic() {
        eprintln!(
            "control: lossy runs diverged: {:?}",
            r.lossy_mismatch.as_deref()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Exit nonzero unless the service study's three invariants hold:
/// failover bitwise-equivalence, healthy-tenant isolation, and
/// hot-tenant-only backpressure.
fn exit_unless_service_invariants(r: &service_bench::ServiceBenchResult) {
    let mut failed = false;
    if !r.failover_equivalent() {
        eprintln!(
            "service: post-failover results are NOT bitwise equivalent: {:?}",
            r.failover_mismatches.iter().flatten().next()
        );
        failed = true;
    }
    if !r.isolation_holds() {
        eprintln!(
            "service: a healthy tenant deviates from its solo run: {:?}",
            r.healthy_mismatches.iter().flatten().next()
        );
        failed = true;
    }
    if !r.backpressure_is_fair() {
        eprintln!(
            "service: backpressure is unfair (hot {}, steady max {})",
            r.hot_backpressured, r.max_steady_backpressured
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn write_artifact(out_dir: &Option<PathBuf>, name: &str, content: &str) {
    if let Some(dir) = out_dir {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        println!("[wrote {}]", path.display());
    }
}

fn write_matrix(
    out_dir: &Option<PathBuf>,
    stem: &str,
    matrix: &vsensor_runtime::PerformanceMatrix,
    title: &str,
    white_at: f64,
) {
    let opts = HeatmapOptions {
        max_cols: 400,
        max_rows: 256,
        white_at,
    };
    write_artifact(
        out_dir,
        &format!("{stem}.svg"),
        &render_svg(matrix, title, &opts),
    );
    write_artifact(out_dir, &format!("{stem}.ppm"), &render_ppm(matrix, &opts));
}

fn section(name: &str) {
    let desc = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
        .unwrap_or("");
    println!("{}", "=".repeat(72));
    println!("== {name}: {desc}");
    println!("{}", "=".repeat(72));
}
