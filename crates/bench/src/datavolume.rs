//! §6.4: data-volume comparison against full tracing.
//!
//! For the cg.D.128 noise-injection run the paper measures 501.5 MB of
//! ITAC trace against 8.8 MB of vSensor data (0.5 KB/s per process), and
//! extrapolates that even 16,384 processes would only generate ~8 MB/s.
//! We run the same program once, count the bytes the vSensor analysis
//! server actually received, and compute what a full event tracer would
//! have written for the identical run.

use std::fmt::Write;
use std::sync::Arc;
use vsensor::{scenarios, Pipeline};
use vsensor_apps::{cg, Params};
use vsensor_baselines::TraceVolume;
use vsensor_interp::RunConfig;

use crate::Effort;

/// The comparison result.
pub struct DataVolumeResult {
    /// Bytes the vSensor server received.
    pub vsensor_bytes: u64,
    /// Bytes a full tracer would produce.
    pub trace: TraceVolume,
    /// Virtual run seconds.
    pub run_secs: f64,
    /// Ranks used.
    pub ranks: usize,
}

/// Run the comparison.
pub fn run(effort: Effort) -> DataVolumeResult {
    let ranks = effort.ranks(128);
    let params = match effort {
        Effort::Smoke => Params::test().with_iters(400),
        Effort::Paper => Params::bench().with_iters(3000),
    };
    let prepared = Pipeline::new().prepare(cg::generate(params).compile());
    let run = prepared.run(
        Arc::new(scenarios::healthy(ranks).build()),
        &RunConfig::default(),
    );
    let stats: Vec<_> = run.ranks.iter().map(|r| r.stats).collect();
    DataVolumeResult {
        vsensor_bytes: run.server.bytes_received,
        trace: TraceVolume::from_stats(&stats),
        run_secs: run.run_time.as_secs_f64(),
        ranks,
    }
}

impl DataVolumeResult {
    /// Render the §6.4 comparison lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Data volume for the same CG-{} run ({:.1}s virtual):",
            self.ranks, self.run_secs
        );
        let _ = writeln!(
            out,
            "  full tracer (ITAC-style): {:>10.2} MB ({} events)",
            self.trace.bytes as f64 / 1e6,
            self.trace.events
        );
        let _ = writeln!(
            out,
            "  vSensor analysis server:  {:>10.2} MB",
            self.vsensor_bytes as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  ratio {:.1}x  |  vSensor per-process rate {:.2} KB/s (paper: 501.5 MB vs 8.8 MB, 0.5 KB/s)",
            self.trace.ratio_to(self.vsensor_bytes),
            self.vsensor_bytes as f64 / 1e3 / self.run_secs.max(1e-9) / self.ranks as f64
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_volume_dwarfs_vsensor() {
        let r = run(Effort::Smoke);
        assert!(r.vsensor_bytes > 0);
        let ratio = r.trace.ratio_to(r.vsensor_bytes);
        assert!(ratio > 5.0, "ratio {ratio:.1} should be lopsided");
        // Per-process rate stays far below what a full tracer would need.
        let rate = r.vsensor_bytes as f64 / r.run_secs.max(1e-9) / r.ranks as f64;
        let trace_rate = r.trace.bytes as f64 / r.run_secs.max(1e-9) / r.trace.ranks as f64;
        assert!(
            rate < trace_rate / 5.0,
            "vsensor {rate:.0} vs trace {trace_rate:.0} B/s"
        );
        assert!(rate < 1_000_000.0, "rate {rate:.0} B/s per process");
        assert!(r.render().contains("ratio"));
    }
}
