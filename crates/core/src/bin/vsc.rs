//! `vsc` — the vSensor command-line tool chain.
//!
//! ```text
//! vsc analyze  FILE [--explain] [--max-depth N] [--dest-matters]
//! vsc instrument FILE
//! vsc run      FILE [--ranks N] [--scenario quiet|healthy|badnode|netdeg]
//!                   [--threshold F] [--matrix comp|net|io]
//!                   [--sim event|event:N]
//! ```
//!
//! Drives the full workflow of the paper's Figure 2 on a MiniHPC source
//! file: static analysis with per-snippet explanations, source-level
//! instrumentation output, and a simulated run with the on-line dynamic
//! module and a rendered performance matrix.

use std::process::exit;
use std::sync::Arc;
use vsensor::analysis::{explain, AnalysisConfig, SelectionRules};
use vsensor::interp::RunConfig;
use vsensor::runtime::record::SensorKind;
use vsensor::simmpi::SimBackend;
use vsensor::viz::{render_ansi, HeatmapOptions};
use vsensor::{scenarios, Pipeline};

fn usage() -> ! {
    eprintln!(
        "usage:\n  vsc analyze FILE [--explain] [--max-depth N] [--dest-matters]\n  \
         vsc instrument FILE\n  \
         vsc run FILE [--ranks N] [--scenario quiet|healthy|badnode|netdeg] \
         [--threshold F] [--matrix comp|net|io] [--sim event|event:N]"
    );
    exit(2)
}

/// Flags that take a value: the argument after one is its value, never FILE.
const VALUE_FLAGS: &[&str] = &[
    "--max-depth",
    "--ranks",
    "--scenario",
    "--threshold",
    "--matrix",
    "--sim",
];

/// FILE: the first argument that is neither a flag nor a flag's value.
fn file_arg(rest: &[String]) -> Option<&String> {
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            return Some(a);
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => usage(),
    };
    let file = file_arg(&rest).unwrap_or_else(|| usage());
    let source = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("vsc: cannot read {file}: {e}");
        exit(1);
    });

    let flag = |name: &str| rest.iter().any(|a| a == name);
    let opt = |name: &str| -> Option<String> {
        rest.iter()
            .position(|a| a == name)
            .and_then(|i| rest.get(i + 1))
            .cloned()
    };

    let mut config = AnalysisConfig::default();
    if flag("--dest-matters") {
        config.comm_dest_matters = true;
    }
    if let Some(d) = opt("--max-depth") {
        config.selection = SelectionRules {
            max_depth: d.parse().unwrap_or_else(|_| usage()),
        };
    }

    let prepared = match Pipeline::new().with_config(config).compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vsc: {file}: {e}");
            exit(1);
        }
    };

    match cmd {
        "analyze" => {
            println!("{}", prepared.analysis.report);
            println!("\ninstrumented sensors:");
            for s in &prepared.sensors {
                println!(
                    "  {}  {}  [{}]{}",
                    s.sensor,
                    s.location,
                    s.kind.label(),
                    if s.process_invariant {
                        ""
                    } else {
                        "  (rank-dependent)"
                    }
                );
            }
            if flag("--explain") {
                println!("\nper-candidate verdicts:");
                print!(
                    "{}",
                    explain::explain_all(&prepared.plain, &prepared.analysis.identified)
                );
            }
        }
        "instrument" => {
            print!("{}", prepared.instrumented_source());
        }
        "run" => {
            let ranks: usize = opt("--ranks")
                .map(|r| r.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(16);
            if ranks == 0 {
                usage();
            }
            let scenario = opt("--scenario").unwrap_or_else(|| "healthy".into());
            let cluster = match scenario.as_str() {
                "quiet" => scenarios::quiet(ranks),
                "healthy" => scenarios::healthy(ranks),
                "badnode" => scenarios::bad_node(ranks, 0, 0.55),
                "netdeg" => scenarios::network_degradation(ranks, 0, 3600, 8.0),
                _ => usage(),
            };
            let mut run_config = RunConfig::default();
            if let Some(t) = opt("--threshold") {
                let threshold = t.parse().unwrap_or_else(|_| usage());
                run_config.runtime = (run_config.runtime)
                    .with_variance_threshold(threshold)
                    .unwrap_or_else(|e| {
                        eprintln!("vsc: {e}");
                        exit(2);
                    });
            }
            if let Some(s) = opt("--sim") {
                run_config.sim = SimBackend::parse(&s).unwrap_or_else(|| usage());
            }
            let kind = match opt("--matrix").as_deref() {
                None | Some("comp") => SensorKind::Computation,
                Some("net") => SensorKind::Network,
                Some("io") => SensorKind::Io,
                Some(_) => usage(),
            };
            let run = prepared.run(Arc::new(cluster.build()), &run_config);
            println!("{}", run.report.render());
            println!("workload max error: {:.2}%", run.workload_max_error * 100.0);
            let matrix = run.server.matrix(kind).unwrap_or_else(|e| {
                eprintln!("vsc: {e}");
                exit(2);
            });
            println!(
                "{}",
                render_ansi(
                    matrix,
                    &format!("{} performance matrix", kind.label()),
                    &HeatmapOptions {
                        white_at: run_config.runtime.variance_threshold,
                        ..Default::default()
                    },
                )
            );
        }
        _ => usage(),
    }
}
