//! Figure 22: the FT network-degradation case study (§6.5).
//!
//! FT's all-to-all makes it hypersensitive to interconnect health. The
//! paper catches a window (16 s - 67 s) of network degradation that turns
//! a 23.31 s run into a 78.66 s one — 3.37× slower — clearly visible as a
//! white band across *all* ranks in the network matrix.

use std::fmt::Write;
use std::sync::Arc;
use vsensor::{scenarios, Pipeline, Prepared};
use vsensor_apps::{ft, Params};
use vsensor_interp::{InstrumentedRun, RunConfig};
use vsensor_runtime::record::SensorKind;
use vsensor_viz::{render_ansi, HeatmapOptions};

use crate::Effort;

/// Result of the degradation study.
pub struct Fig22Result {
    /// The normal run.
    pub normal: InstrumentedRun,
    /// The degraded run.
    pub degraded: InstrumentedRun,
    /// Slowdown factor (degraded / normal run time).
    pub slowdown: f64,
    /// Degradation window (seconds).
    pub window: (u64, u64),
    /// Ranks used.
    pub ranks: usize,
}

fn prepare(effort: Effort) -> (Prepared, usize) {
    let ranks = effort.ranks(256);
    let params = match effort {
        Effort::Smoke => Params::test().with_iters(250),
        Effort::Paper => Params::bench().with_iters(800),
    };
    (
        Pipeline::new().prepare(ft::generate(params).compile()),
        ranks,
    )
}

/// Run the normal and degraded campaigns.
pub fn run(effort: Effort) -> Fig22Result {
    let (prepared, ranks) = prepare(effort);

    let normal = prepared.run(
        Arc::new(scenarios::healthy(ranks).build()),
        &RunConfig::default(),
    );
    // Degradation window placed like the paper's: starts ~70% into the
    // *normal* run time and lasts long enough to cover the stretched
    // remainder (16s of a 23.31s run, persisting to 67s). The 8x factor on
    // an alltoall-dominated code lands the overall slowdown in the 3.37x
    // ballpark.
    let t = normal.run_time;
    let win_from = t.mul_f64(0.7);
    let win_to = t.mul_f64(3.2);
    let network = cluster_sim::NetworkConfig::default().with_degradation(
        cluster_sim::VirtualTime::ZERO + win_from,
        cluster_sim::VirtualTime::ZERO + win_to,
        8.0,
    );
    let degraded = prepared.run(
        Arc::new(scenarios::healthy(ranks).with_network(network).build()),
        &RunConfig::default(),
    );
    let window = (
        win_from.as_nanos() / 1_000_000_000,
        win_to.as_nanos() / 1_000_000_000,
    );

    let slowdown = degraded.run_time.as_secs_f64() / normal.run_time.as_secs_f64().max(1e-12);
    Fig22Result {
        normal,
        degraded,
        slowdown,
        window,
        ranks,
    }
}

impl Fig22Result {
    /// Render the network matrix and the slowdown numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_ansi(
            self.degraded
                .server
                .matrix(SensorKind::Network)
                .expect("component matrix"),
            &format!(
                "Figure 22: FT-{} network matrix with degradation during {}s-{}s",
                self.ranks, self.window.0, self.window.1
            ),
            &HeatmapOptions::default(),
        ));
        let _ = writeln!(out, "detected events:");
        for e in &self.degraded.report.events {
            let _ = writeln!(out, "  {e}");
        }
        let _ = writeln!(
            out,
            "normal run {:.2}s, degraded run {:.2}s — {:.2}x slower (paper: 23.31s vs 78.66s, 3.37x)",
            self.normal.run_time.as_secs_f64(),
            self.degraded.run_time.as_secs_f64(),
            self.slowdown
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_slows_ft_by_a_large_factor() {
        let r = run(Effort::Smoke);
        assert!(
            r.slowdown > 1.5,
            "slowdown {:.2} should be pronounced",
            r.slowdown
        );
        // The network matrix shows a band across (nearly) all ranks.
        let net_events: Vec<_> = r
            .degraded
            .report
            .events
            .iter()
            .filter(|e| e.kind == SensorKind::Network)
            .collect();
        assert!(!net_events.is_empty(), "{:?}", r.degraded.report.events);
        let widest = net_events
            .iter()
            .max_by_key(|e| e.last_rank - e.first_rank)
            .expect("non-empty");
        assert!(
            (widest.last_rank - widest.first_rank + 1) * 10 >= r.ranks * 9,
            "network problems hit everyone: {widest:?}"
        );
        // The normal run is clean.
        assert!(r
            .normal
            .report
            .events
            .iter()
            .all(|e| e.kind != SensorKind::Network));
    }
}
