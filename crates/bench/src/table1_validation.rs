//! Table 1: per-program validation and overhead.
//!
//! For each of the eight programs the paper reports compile-time counts
//! (LoC, snippets, v-sensors, instrumented sensors by type) and runtime
//! metrics at 16,384 processes (workload max error from PMU counts,
//! instrumentation overhead, sense-time coverage, sense frequency). We run
//! the same pipeline per program on the simulated cluster and emit the
//! same columns.

use std::fmt::Write;
use std::sync::Arc;
use vsensor::{scenarios, Pipeline};
use vsensor_apps::{all_apps, AppSpec};
use vsensor_interp::RunConfig;

use crate::Effort;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Program name.
    pub name: &'static str,
    /// Lines of generated source.
    pub loc: usize,
    /// Candidate snippets.
    pub snippets: usize,
    /// Identified v-sensors.
    pub vsensors: usize,
    /// Instrumentation cell, e.g. `"5Comp+3Net"`.
    pub instrumented: String,
    /// `Pm − 1` from PMU validation.
    pub workload_max_error: f64,
    /// Relative instrumentation overhead.
    pub overhead: f64,
    /// Sense-time coverage.
    pub coverage: f64,
    /// Sense frequency in MHz per process.
    pub frequency_mhz: f64,
}

/// The whole table.
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Ranks used.
    pub ranks: usize,
}

/// Build one row.
pub fn row(app: &AppSpec, ranks: usize) -> Table1Row {
    let prepared = Pipeline::new().prepare(app.compile());
    let report = &prepared.analysis.report;
    let config = RunConfig::default();

    // Runtime metrics on a realistically-noisy (but healthy) cluster.
    let cluster = Arc::new(scenarios::healthy(ranks).build());
    let run = prepared.run(cluster.clone(), &config);

    // Overhead against the uninstrumented program on a *quiet* cluster so
    // the baseline is exact (the paper uses best-of-N for the same
    // reason).
    let quiet = Arc::new(scenarios::quiet(ranks).build());
    let overhead = prepared.measure_overhead(quiet);

    Table1Row {
        name: app.name,
        loc: report.loc,
        snippets: report.snippets,
        vsensors: report.identified_vsensors,
        instrumented: report.instrumentation_cell(),
        workload_max_error: run.workload_max_error,
        overhead,
        coverage: run.report.coverage(),
        frequency_mhz: run.report.frequency_hz() / 1e6,
    }
}

/// Build the full table.
pub fn run(effort: Effort) -> Table1 {
    run_at(effort, effort.ranks(64))
}

/// Build the full table at an explicit rank count. This is the `repro
/// table1 --ranks 16384` path: the paper's process count in one address
/// space.
pub fn run_at(effort: Effort, ranks: usize) -> Table1 {
    let rows = all_apps(effort.params())
        .iter()
        .map(|app| row(app, ranks))
        .collect();
    Table1 { rows, ranks }
}

impl Table1 {
    /// Export as CSV for downstream plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "program,loc,snippets,vsensors,instrumented,workload_max_error,overhead,coverage,frequency_mhz\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6}",
                r.name,
                r.loc,
                r.snippets,
                r.vsensors,
                r.instrumented,
                r.workload_max_error,
                r.overhead,
                r.coverage,
                r.frequency_mhz
            );
        }
        out
    }

    /// Render with the paper's column headers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 1: vSensor validation ({} simulated ranks)",
            self.ranks
        );
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>9} {:>9} {:>16} {:>10} {:>9} {:>10} {:>10}",
            "Program",
            "LoC",
            "Snippets",
            "v-sensors",
            "Instrumented",
            "WorkErr",
            "Overhead",
            "Coverage",
            "Freq(MHz)"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<8} {:>5} {:>9} {:>9} {:>16} {:>9.2}% {:>8.2}% {:>9.2}% {:>10.3}",
                r.name,
                r.loc,
                r.snippets,
                r.vsensors,
                r.instrumented,
                r.workload_max_error * 100.0,
                r.overhead * 100.0,
                r.coverage * 100.0,
                r.frequency_mhz
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_export_has_all_rows() {
        let t = Table1 {
            rows: vec![Table1Row {
                name: "CG",
                loc: 34,
                snippets: 13,
                vsensors: 6,
                instrumented: "2Comp+2Net".into(),
                workload_max_error: 0.03,
                overhead: 0.003,
                coverage: 0.75,
                frequency_mhz: 0.014,
            }],
            ranks: 64,
        };
        let csv = t.to_csv();
        assert!(csv.starts_with("program,"));
        assert!(csv.contains("CG,34,13,6,2Comp+2Net,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn table_has_paper_shape() {
        let t = run(Effort::Smoke);
        assert_eq!(t.rows.len(), 8);
        for r in &t.rows {
            assert!(r.snippets >= r.vsensors, "{}: snippet ordering", r.name);
            assert!(
                r.workload_max_error < 0.05,
                "{}: workload error {:.3} must stay under 5% (paper's bound)",
                r.name,
                r.workload_max_error
            );
            assert!(
                r.overhead < 0.04,
                "{}: overhead {:.4} must stay under 4% (paper's bound)",
                r.name,
                r.overhead
            );
            assert!(r.coverage >= 0.0 && r.coverage <= 1.0);
        }
        // AMG stands out with the lowest coverage (adaptive refinement).
        let amg = t.rows.iter().find(|r| r.name == "AMG").unwrap();
        let bt = t.rows.iter().find(|r| r.name == "BT").unwrap();
        assert!(
            amg.coverage < bt.coverage,
            "AMG {:.3} < BT {:.3}",
            amg.coverage,
            bt.coverage
        );
        let rendered = t.render();
        assert!(rendered.contains("Program"));
        assert!(rendered.contains("AMG"));
    }
}
