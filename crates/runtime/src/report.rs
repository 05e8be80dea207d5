//! The final variance report (§5.5).
//!
//! Bundles detected events, distribution statistics and data-volume
//! accounting into a renderable summary — "the corresponding time,
//! processes and component in a coarse-grain fashion", leaving the repair
//! decision to the user.

use crate::control::ControlStats;
use crate::detect::VarianceEvent;
use crate::distribution::DistributionStats;
use crate::engine::{DeathRecord, ServerLoad, VarianceAlert};
use crate::record::SensorKind;
use crate::server::DeliveryQuality;
use crate::transport::TransportStats;
use cluster_sim::time::Duration;
use std::fmt::Write;

/// The complete end-of-run report.
#[derive(Clone, Debug)]
pub struct VarianceReport {
    /// Detected events (time-sorted).
    pub events: Vec<VarianceEvent>,
    /// Merged distribution stats across all ranks.
    pub distribution: DistributionStats,
    /// Total run time (max over ranks).
    pub run_time: Duration,
    /// Ranks in the run.
    pub ranks: usize,
    /// Bytes the analysis server received.
    pub server_bytes: u64,
    /// Matrix bin width (for translating bins to seconds).
    pub bin_width: Duration,
    /// Mean normalized performance per component.
    pub component_means: Vec<(SensorKind, f64)>,
    /// Per-sensor aggregates (worst mean performance first); the "which
    /// source location degraded" view.
    pub worst_sensors: Vec<(String, SensorKind, f64)>,
    /// Per-rank delivery quality as observed by the server (empty when the
    /// run predates the fault-tolerant transport or used the legacy path).
    pub delivery: Vec<DeliveryQuality>,
    /// Sender-side transport counters, merged across ranks.
    pub transport: TransportStats,
    /// Live alerts the detection stream emitted while the run was still in
    /// flight, in emission order.
    pub alerts: Vec<VarianceAlert>,
    /// Ranks the server believes fail-stopped, with when and how it learnt
    /// of each death. Empty for healthy runs (and for runs predating the
    /// fail-stop layer), which keeps their rendered text bit-identical.
    pub failed_ranks: Vec<DeathRecord>,
    /// Server-side processing load (modelled ingest workers, detection passes).
    pub load: ServerLoad,
    /// Tracing-derived runtime health, attached only when a trace session
    /// wrapped the run; `None` keeps the rendered text bit-identical to a
    /// run without tracing.
    pub health: Option<crate::trace::RuntimeHealth>,
    /// Control-plane counters when the runtime-adaptive loop was on
    /// (`RuntimeConfig::overhead_budget > 0`). `None` keeps the rendered
    /// text of control-free runs bit-identical.
    pub control: Option<ControlStats>,
}

impl VarianceReport {
    /// Sense-time coverage across the whole job (Table 1 column).
    pub fn coverage(&self) -> f64 {
        // Sense time is summed across ranks; total is run_time × ranks.
        let total = Duration::from_nanos(self.run_time.as_nanos() * self.ranks as u64);
        self.distribution.coverage(total)
    }

    /// Mean sense frequency per process in Hz (Table 1 column).
    pub fn frequency_hz(&self) -> f64 {
        if self.ranks == 0 {
            return 0.0;
        }
        self.distribution.frequency_hz(self.run_time) / self.ranks as f64
    }

    /// Server ingest rate in bytes per (virtual) second.
    pub(crate) fn data_rate(&self) -> f64 {
        let secs = self.run_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.server_bytes as f64 / secs
        }
    }

    /// Whether any rank's telemetry was lost or damaged in transit. When
    /// true, the report's evidence is incomplete and absence of an event is
    /// weaker than usual.
    pub(crate) fn delivery_degraded(&self) -> bool {
        self.delivery.iter().any(|d| d.degraded()) || self.transport.total_dropped() > 0
    }

    /// Worst per-rank delivery ratio (1.0 when delivery was perfect or the
    /// run had no ranks).
    pub(crate) fn min_delivery_ratio(&self) -> f64 {
        self.delivery
            .iter()
            .map(|d| d.delivery_ratio)
            .fold(1.0, f64::min)
    }

    /// Virtual instant of the first live alert, if the detection stream
    /// fired before the run ended. `run_time − first_alert_at` is the
    /// streaming engine's detection-latency win over end-of-run analysis.
    pub(crate) fn first_alert_at(&self) -> Option<cluster_sim::time::VirtualTime> {
        self.alerts.iter().map(|a| a.at).min()
    }

    /// Render the human-readable report text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vSensor report: {} ranks, {:.2}s run, {} senses, coverage {:.2}%, {:.3} MHz/process",
            self.ranks,
            self.run_time.as_secs_f64(),
            self.distribution.sense_count,
            self.coverage() * 100.0,
            self.frequency_hz() / 1e6,
        );
        let _ = writeln!(
            out,
            "analysis server: {:.2} MB received ({:.1} KB/s)",
            self.server_bytes as f64 / 1e6,
            self.data_rate() / 1e3,
        );
        if !self.load.shards.is_empty() {
            let _ = writeln!(
                out,
                "streaming engine: {} shard(s), peak utilization {:.2}%, {} detection pass(es)",
                self.load.shards.len(),
                self.load.peak_shard_utilization(self.run_time) * 100.0,
                self.load.detect_passes,
            );
        }
        if let Some(at) = self.first_alert_at() {
            let _ = writeln!(
                out,
                "first live alert at {} ({:.1}% into the run)",
                at,
                if self.run_time.as_nanos() == 0 {
                    0.0
                } else {
                    at.as_nanos() as f64 / self.run_time.as_nanos() as f64 * 100.0
                },
            );
        }
        for (kind, mean) in &self.component_means {
            let _ = writeln!(out, "  {} mean performance: {:.3}", kind.label(), mean);
        }
        let degraded: Vec<_> = self
            .worst_sensors
            .iter()
            .filter(|(_, _, p)| *p < 0.9)
            .take(5)
            .collect();
        if !degraded.is_empty() {
            let _ = writeln!(out, "most degraded sensors:");
            for (loc, kind, perf) in degraded {
                let _ = writeln!(out, "  {perf:.3} [{:>4}] {loc}", kind.label());
            }
        }
        if self.delivery_degraded() {
            let lossy = self.delivery.iter().filter(|d| d.degraded()).count();
            let _ = writeln!(
                out,
                "telemetry degraded: {} rank(s) lossy, worst delivery {:.1}%, \
                 {} batch(es) dropped at senders — findings may be incomplete",
                lossy,
                self.min_delivery_ratio() * 100.0,
                self.transport.total_dropped(),
            );
            for d in self.delivery.iter().filter(|d| d.degraded()).take(5) {
                let _ = writeln!(
                    out,
                    "  rank {}: {:.1}% delivered, {} gap(s), {} corrupt, {} out-of-order",
                    d.rank,
                    d.delivery_ratio * 100.0,
                    d.gaps,
                    d.corrupt,
                    d.out_of_order,
                );
            }
        }
        if self.transport.backpressured > 0 {
            // Unlike drops, a refused batch was delayed, not lost — this
            // line flags an over-budget tenant, not missing findings.
            let _ = writeln!(
                out,
                "admission control engaged: {} batch send(s) refused with \
                 backpressure and retried after their window rolled over",
                self.transport.backpressured,
            );
        }
        if let Some(health) = &self.health {
            health.render_into(&mut out);
        }
        if !self.failed_ranks.is_empty() {
            let _ = writeln!(
                out,
                "{} rank(s) fail-stopped — reported as dead, not as variance:",
                self.failed_ranks.len(),
            );
            for d in &self.failed_ranks {
                let _ = writeln!(out, "  {d}");
            }
        }
        if let Some(c) = &self.control {
            let _ = writeln!(
                out,
                "control plane: {} epoch(s) issued, {} sensor(s) dark, \
                 {} rank(s) escalated to fine slices",
                c.epochs_issued, c.sensors_dark, c.escalated_ranks,
            );
            let _ = writeln!(
                out,
                "  directives: {} acked, {} lost in transit ({} recovered by retry), \
                 {} superseded, {} cancelled for dead ranks",
                c.acked, c.lost, c.recovered, c.superseded, c.cancelled_dead,
            );
        }
        if self.events.is_empty() {
            let _ = writeln!(out, "no performance variance detected");
        } else {
            let _ = writeln!(out, "{} variance event(s):", self.events.len());
            for e in &self.events {
                let t0 = e.start_bin as f64 * self.bin_width.as_secs_f64();
                let t1 = e.end_bin as f64 * self.bin_width.as_secs_f64();
                let _ = writeln!(
                    out,
                    "  {} component degraded to {:.2} on ranks {}..={} during {:.1}s-{:.1}s{}",
                    e.kind.label(),
                    e.mean_perf,
                    e.first_rank,
                    e.last_rank,
                    t0,
                    t1,
                    if e.is_persistent(
                        (self.run_time.as_nanos() / self.bin_width.as_nanos().max(1)) as usize
                    ) {
                        " [persistent: suspect bad node]"
                    } else {
                        ""
                    },
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::time::VirtualTime;

    fn sample_report() -> VarianceReport {
        let mut dist = DistributionStats::new();
        for i in 0..1000u64 {
            dist.record(VirtualTime::from_micros(i * 100), Duration::from_micros(10));
        }
        VarianceReport {
            events: vec![VarianceEvent {
                kind: SensorKind::Network,
                first_rank: 0,
                last_rank: 1023,
                start_bin: 80,
                end_bin: 335,
                mean_perf: 0.3,
                cells: 100_000,
            }],
            distribution: dist,
            run_time: Duration::from_secs(70),
            ranks: 1024,
            server_bytes: 8_800_000,
            bin_width: Duration::from_millis(200),
            component_means: vec![(SensorKind::Computation, 0.97), (SensorKind::Network, 0.61)],
            worst_sensors: vec![
                ("ft.mh:42 (C7)".into(), SensorKind::Network, 0.31),
                ("ft.mh:17 (L2)".into(), SensorKind::Computation, 0.96),
            ],
            delivery: Vec::new(),
            transport: TransportStats::default(),
            alerts: Vec::new(),
            failed_ranks: Vec::new(),
            load: ServerLoad::default(),
            health: None,
            control: None,
        }
    }

    #[test]
    fn render_mentions_key_facts() {
        let r = sample_report().render();
        assert!(r.contains("1024 ranks"));
        assert!(r.contains("Net component degraded"));
        assert!(r.contains("16.0s-67.0s"));
        assert!(r.contains("8.80 MB"));
        // Degraded sensors listed; healthy ones (>= 0.9) omitted.
        assert!(r.contains("most degraded sensors"));
        assert!(r.contains("ft.mh:42"));
        assert!(!r.contains("ft.mh:17"));
    }

    #[test]
    fn clean_report_says_so() {
        let mut rep = sample_report();
        rep.events.clear();
        assert!(rep.render().contains("no performance variance detected"));
    }

    #[test]
    fn degraded_delivery_is_surfaced() {
        let mut rep = sample_report();
        assert!(!rep.delivery_degraded(), "perfect delivery by default");
        rep.delivery = vec![DeliveryQuality {
            rank: 3,
            accepted: 90,
            duplicates: 2,
            corrupt: 1,
            gaps: 10,
            out_of_order: 4,
            delivery_ratio: 0.9,
            mean_latency: Duration::from_micros(20),
        }];
        rep.transport.dropped_exhausted = 10;
        assert!(rep.delivery_degraded());
        assert!((rep.min_delivery_ratio() - 0.9).abs() < 1e-12);
        let r = rep.render();
        assert!(r.contains("telemetry degraded"));
        assert!(r.contains("rank 3"));
        assert!(r.contains("10 gap(s)"));
    }

    #[test]
    fn backpressure_is_surfaced_without_claiming_loss() {
        let rep = sample_report();
        assert!(!rep.render().contains("admission control"));
        let mut rep = sample_report();
        rep.transport.backpressured = 7;
        let r = rep.render();
        assert!(r.contains("admission control engaged: 7 batch send(s)"));
        // Backpressure alone is delay, not loss.
        assert!(!r.contains("telemetry degraded"));
    }

    #[test]
    fn live_alerts_and_load_are_surfaced() {
        use crate::engine::ShardLoad;
        let mut rep = sample_report();
        assert!(rep.first_alert_at().is_none());
        rep.alerts = vec![VarianceAlert {
            at: VirtualTime::from_secs(21),
            pass: 105,
            kind: crate::engine::AlertKind::Variance(rep.events[0].clone()),
        }];
        rep.load = ServerLoad {
            shards: vec![ShardLoad {
                shard: 0,
                batches: 1000,
                records: 50_000,
                busy: Duration::from_secs(7),
                free_at: VirtualTime::from_secs(70),
            }],
            detect_passes: 350,
            detect_busy: Duration::from_millis(900),
        };
        assert_eq!(rep.first_alert_at(), Some(VirtualTime::from_secs(21)));
        assert!((rep.load.peak_shard_utilization(rep.run_time) - 0.1).abs() < 1e-12);
        let r = rep.render();
        assert!(r.contains("streaming engine: 1 shard(s)"), "{r}");
        assert!(r.contains("350 detection pass(es)"), "{r}");
        assert!(
            r.contains("first live alert at 21.000000s (30.0% into the run)"),
            "{r}"
        );
    }

    #[test]
    fn failed_ranks_are_rendered_as_dead_not_variance() {
        use crate::engine::DeathCause;
        let mut rep = sample_report();
        assert!(
            !rep.render().contains("fail-stopped"),
            "healthy reports must not mention deaths"
        );
        rep.failed_ranks = vec![DeathRecord {
            rank: 7,
            at: VirtualTime::from_secs(30),
            cause: DeathCause::Notice,
        }];
        let r = rep.render();
        assert!(r.contains("1 rank(s) fail-stopped"), "{r}");
        assert!(r.contains("rank 7"), "{r}");
    }

    #[test]
    fn control_plane_section_renders_only_when_present() {
        let mut rep = sample_report();
        assert!(
            !rep.render().contains("control plane"),
            "control-free reports stay bit-identical"
        );
        rep.control = Some(ControlStats {
            epochs_issued: 9,
            sensors_dark: 2,
            escalated_ranks: 1,
            acked: 8,
            lost: 3,
            recovered: 3,
            cancelled_dead: 1,
            superseded: 2,
        });
        let r = rep.render();
        assert!(r.contains("control plane: 9 epoch(s) issued"), "{r}");
        assert!(r.contains("2 sensor(s) dark"), "{r}");
        assert!(
            r.contains("3 lost in transit (3 recovered by retry)"),
            "{r}"
        );
        assert!(r.contains("1 cancelled for dead ranks"), "{r}");
    }

    #[test]
    fn rates_are_computed() {
        let r = sample_report();
        assert!(r.data_rate() > 0.0);
        let has = |kind| r.events.iter().any(|e| e.kind == kind);
        assert!(has(SensorKind::Network));
        assert!(!has(SensorKind::Io));
    }
}
