//! Ablation sweeps over the design choices DESIGN.md calls out.
//!
//! * smoothing-slice length vs. false-positive rate (§5.1);
//! * `max_depth` vs. sensor count / overhead / coverage (§4);
//! * batching vs. per-record server messages (§5.4);
//! * conservative vs. described extern functions (§3.5).

use cluster_sim::time::Duration;
use std::fmt::Write;
use std::sync::Arc;
use vsensor::{scenarios, Pipeline};
use vsensor_analysis::{AnalysisConfig, ExternModels, SelectionRules};
use vsensor_apps::cg;
use vsensor_interp::RunConfig;

use crate::Effort;

/// One row of the slice-length sweep.
#[derive(Clone, Debug)]
pub struct SliceRow {
    /// Slice width.
    pub slice: Duration,
    /// Locally-flagged variance records on a *healthy* (noisy-but-fine)
    /// cluster — i.e. false alarms.
    pub false_alarms: u64,
    /// Records shipped to the server.
    pub records: usize,
}

/// Sweep the smoothing-slice width on a healthy cluster.
pub fn slice_sweep(effort: Effort, slices_us: &[u64]) -> Vec<SliceRow> {
    let ranks = effort.ranks(32);
    let prepared = Pipeline::new().prepare(cg::generate(effort.params()).compile());
    slices_us
        .iter()
        .map(|&us| {
            let mut config = RunConfig::default();
            config.runtime.slice = Duration::from_micros(us);
            let run = prepared.run(Arc::new(scenarios::healthy(ranks).build()), &config);
            SliceRow {
                slice: Duration::from_micros(us),
                false_alarms: run.ranks.iter().map(|r| r.local_variances).sum(),
                records: run.server.records,
            }
        })
        .collect()
}

/// One row of the max-depth sweep.
#[derive(Clone, Debug)]
pub struct DepthRow {
    /// The max-depth setting.
    pub max_depth: usize,
    /// Sensors instrumented.
    pub sensors: usize,
    /// Instrumentation overhead.
    pub overhead: f64,
    /// Sense-time coverage.
    pub coverage: f64,
}

/// Sweep the §4 max-depth selection rule.
pub fn depth_sweep(effort: Effort, depths: &[usize]) -> Vec<DepthRow> {
    let ranks = effort.ranks(32);
    let app = cg::generate(effort.params());
    depths
        .iter()
        .map(|&d| {
            let config = AnalysisConfig {
                selection: SelectionRules { max_depth: d },
                ..Default::default()
            };
            let prepared = Pipeline::new().with_config(config).prepare(app.compile());
            let overhead = prepared.measure_overhead(Arc::new(scenarios::quiet(ranks).build()));
            let run = prepared.run(
                Arc::new(scenarios::healthy(ranks).build()),
                &RunConfig::default(),
            );
            DepthRow {
                max_depth: d,
                sensors: prepared.sensor_count(),
                overhead,
                coverage: run.report.coverage(),
            }
        })
        .collect()
}

/// One row of the batching sweep.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Flush interval.
    pub interval: Duration,
    /// Batches the server received.
    pub batches: u64,
    /// Bytes received (headers included — fewer batches, fewer headers).
    pub bytes: u64,
}

/// Sweep the §5.4 batch interval.
pub fn batch_sweep(effort: Effort, intervals_ms: &[u64]) -> Vec<BatchRow> {
    let ranks = effort.ranks(32);
    let prepared = Pipeline::new().prepare(cg::generate(effort.params()).compile());
    intervals_ms
        .iter()
        .map(|&ms| {
            let mut config = RunConfig::default();
            config.runtime.batch_interval = Duration::from_millis(ms);
            let run = prepared.run(Arc::new(scenarios::healthy(ranks).build()), &config);
            BatchRow {
                interval: Duration::from_millis(ms),
                batches: run.server.batches,
                bytes: run.server.bytes_received,
            }
        })
        .collect()
}

/// Extern-model ablation: sensors found with the default model table vs.
/// an empty one (every extern conservative / never-fixed).
pub fn extern_ablation(effort: Effort) -> (usize, usize) {
    let app = cg::generate(effort.params());
    let with_models = Pipeline::new().prepare(app.compile()).sensor_count();
    let config = AnalysisConfig {
        externs: ExternModels::empty(),
        ..Default::default()
    };
    let without = Pipeline::new()
        .with_config(config)
        .prepare(app.compile())
        .sensor_count();
    (with_models, without)
}

/// Render every ablation as one report.
pub fn render_all(effort: Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: smoothing slice width (healthy cluster, CG)");
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>10}",
        "slice", "false alarms", "records"
    );
    for row in slice_sweep(effort, &[10, 100, 1000, 10_000]) {
        let _ = writeln!(
            out,
            "{:>10} {:>14} {:>10}",
            row.slice.to_string(),
            row.false_alarms,
            row.records
        );
    }
    let _ = writeln!(out, "\nAblation: max-depth selection rule (CG)");
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>10} {:>10}",
        "max_depth", "sensors", "overhead", "coverage"
    );
    for row in depth_sweep(effort, &[1, 2, 3, 5]) {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>9.2}% {:>9.2}%",
            row.max_depth,
            row.sensors,
            row.overhead * 100.0,
            row.coverage * 100.0
        );
    }
    let _ = writeln!(out, "\nAblation: server batch interval (CG)");
    let _ = writeln!(out, "{:>10} {:>8} {:>12}", "interval", "batches", "bytes");
    for row in batch_sweep(effort, &[1, 10, 100, 1000]) {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>12}",
            row.interval.to_string(),
            row.batches,
            row.bytes
        );
    }
    let (with_models, without) = extern_ablation(effort);
    let _ = writeln!(
        out,
        "\nAblation: extern models — {} sensors with lib-C/MPI descriptions, {} without \
         (conservative never-fixed default)",
        with_models, without
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_slices_raise_false_alarms() {
        let rows = slice_sweep(Effort::Smoke, &[10, 1000]);
        assert!(
            rows[0].false_alarms >= rows[1].false_alarms,
            "10us {} vs 1000us {}",
            rows[0].false_alarms,
            rows[1].false_alarms
        );
        // And 1000us keeps false alarms negligible on a healthy system.
        assert_eq!(rows[1].false_alarms, 0, "default slice is clean");
    }

    #[test]
    fn deeper_max_depth_cannot_reduce_sensors() {
        let rows = depth_sweep(Effort::Smoke, &[1, 3]);
        assert!(rows[1].sensors >= rows[0].sensors);
    }

    #[test]
    fn longer_batches_mean_fewer_messages() {
        let rows = batch_sweep(Effort::Smoke, &[1, 1000]);
        assert!(
            rows[0].batches >= rows[1].batches,
            "1ms {} vs 1000ms {}",
            rows[0].batches,
            rows[1].batches
        );
        assert!(rows[0].bytes >= rows[1].bytes, "headers cost bytes");
    }

    #[test]
    fn extern_models_unlock_sensors() {
        let (with_models, without) = extern_ablation(Effort::Smoke);
        assert!(with_models > without);
        assert_eq!(without, 0, "all-conservative finds nothing in CG");
    }
}
