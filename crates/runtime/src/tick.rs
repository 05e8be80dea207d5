//! The per-process sensor runtime: Tick/Tock handling (§4, §5.3).
//!
//! One [`SensorRuntime`] lives inside each rank. `tick(sensor)` notes the
//! start of a sense; `tock(sensor)` closes it, feeds the smoothing
//! aggregator, updates the local history, and buffers finished slice
//! records for the next batch flush to the analysis server. Both probes
//! report their own virtual cost so the caller can charge it to the rank's
//! clock — the probes are *not* fixed-workload code, which is exactly why
//! nested sensors are never instrumented (§4). The costs are the constants
//! `PROBE_COST`, `ANALYSIS_COST` and `DISABLED_PROBE_COST`; the control
//! plane's observed-cost model reads the same ones.
//!
//! §5.3's runtime throttling is implemented here: a sensor whose senses are
//! consistently shorter than `MIN_SENSE_DURATION` after a probation of
//! `THROTTLE_PROBATION` senses is disabled, and its probes degrade to a
//! near-free check.

use crate::config::RuntimeConfig;
use crate::control::{ControlDirective, DirectiveGate, DirectiveVerdict};
use crate::distribution::DistributionStats;
use crate::dynrules::{DynamicRule, SenseMetrics};
use crate::history::History;
use crate::record::SliceRecord;
use crate::smoothing::SliceAggregator;
use cluster_sim::time::{Duration, VirtualTime};
use std::sync::Arc;
use vsensor_lang::SensorId;

/// The sensor throttled itself off (§5.3: too-short senses).
const OFF_THROTTLED: u8 = 1;
/// The analysis server commanded the sensor dark (control plane).
const OFF_SERVER: u8 = 1 << 1;

/// Virtual cost of one Tick or Tock probe call.
pub(crate) const PROBE_COST: Duration = Duration::from_nanos(60);
/// Extra virtual cost when a probe closes a slice and runs the on-line
/// analysis.
pub(crate) const ANALYSIS_COST: Duration = Duration::from_nanos(250);
/// Virtual cost of a probe on a disabled (throttled or server-dark)
/// sensor: the one check that finds it off.
pub(crate) const DISABLED_PROBE_COST: Duration = Duration::from_nanos(10);

/// Senses shorter than this count against their sensor (§5.3's "turn off
/// the analysis for v-sensors that are too short").
const MIN_SENSE_DURATION: Duration = Duration::from_nanos(400);
/// Senses observed before the throttling decision: a sensor whose first
/// `THROTTLE_PROBATION` senses are mostly short is turned off.
const THROTTLE_PROBATION: u32 = 64;

/// Per-sensor dynamic state.
#[derive(Clone, Debug)]
struct SensorState {
    aggregator: SliceAggregator,
    open_since: Option<VirtualTime>,
    senses: u32,
    short_senses: u32,
    /// Disable bits ([`OFF_THROTTLED`] | [`OFF_SERVER`]). Folding both
    /// sources into one byte keeps the probe fast path at a single cheap
    /// check regardless of who turned the sensor off.
    off: u8,
}

/// The per-rank dynamic module.
pub struct SensorRuntime {
    config: RuntimeConfig,
    rule: Arc<dyn DynamicRule>,
    states: Vec<SensorState>,
    history: History,
    distribution: DistributionStats,
    outbox: Vec<SliceRecord>,
    last_flush: VirtualTime,
    /// Count of locally-detected variance records (normalized perf below
    /// threshold), for quick per-rank summaries.
    local_variances: u64,
    /// Slice subdivision commanded by the control plane (1 = coarse).
    subdiv: u32,
    /// Control-directive acceptance state (CRC + monotonic-epoch gates).
    gate: DirectiveGate,
    /// Last control poll, so a rank polls at the batch cadence even when
    /// its outbox is empty (an all-dark rank must stay reachable for
    /// re-enables).
    last_control_poll: VirtualTime,
}

/// What a probe call costs and whether a flush is due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Virtual time the probe consumed; charge it to the rank clock.
    pub cost: Duration,
}

impl SensorRuntime {
    /// Create a runtime for `sensor_count` sensors with the default
    /// (constant-expected) dynamic rule.
    pub fn new(sensor_count: usize, config: RuntimeConfig) -> Self {
        Self::with_rule(
            sensor_count,
            config,
            Arc::new(crate::dynrules::ConstantExpected),
        )
    }

    /// Create a runtime with a custom dynamic rule.
    pub fn with_rule(
        sensor_count: usize,
        config: RuntimeConfig,
        rule: Arc<dyn DynamicRule>,
    ) -> Self {
        SensorRuntime {
            config,
            rule,
            states: (0..sensor_count)
                .map(|i| SensorState {
                    aggregator: SliceAggregator::new(SensorId(i as u32)),
                    open_since: None,
                    senses: 0,
                    short_senses: 0,
                    off: 0,
                })
                .collect(),
            history: History::new(),
            distribution: DistributionStats::new(),
            outbox: Vec::new(),
            last_flush: VirtualTime::ZERO,
            local_variances: 0,
            subdiv: 1,
            gate: DirectiveGate::default(),
            last_control_poll: VirtualTime::ZERO,
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Start a sense.
    pub fn tick(&mut self, sensor: SensorId, now: VirtualTime) -> ProbeOutcome {
        let st = &mut self.states[sensor.0 as usize];
        if st.off != 0 {
            return ProbeOutcome {
                cost: DISABLED_PROBE_COST,
            };
        }
        st.open_since = Some(now);
        ProbeOutcome { cost: PROBE_COST }
    }

    /// End a sense. `metrics` carries the dynamic-rule inputs observed
    /// during the sense (e.g. PMU cache-miss rate).
    pub fn tock(
        &mut self,
        sensor: SensorId,
        now: VirtualTime,
        metrics: SenseMetrics,
    ) -> ProbeOutcome {
        let subdiv = self.subdiv;
        let st = &mut self.states[sensor.0 as usize];
        if st.off != 0 {
            return ProbeOutcome {
                cost: DISABLED_PROBE_COST,
            };
        }
        let Some(start) = st.open_since.take() else {
            // Unmatched tock — tolerated (e.g. sensor disabled between the
            // probes), costs only the check.
            return ProbeOutcome {
                cost: DISABLED_PROBE_COST,
            };
        };
        let duration = now.since(start);

        // Throttling (§5.3): during probation, count short senses; if the
        // sensor is dominated by them, turn it off.
        st.senses += 1;
        if duration < MIN_SENSE_DURATION {
            st.short_senses += 1;
        }
        if st.senses == THROTTLE_PROBATION && st.short_senses * 2 > st.senses {
            st.off |= OFF_THROTTLED;
        }

        self.distribution.record(start, duration);

        let bucket = self.rule.bucket(&metrics);
        let finished = st
            .aggregator
            .add_subdivided(&self.config, start, duration, bucket, subdiv);
        let mut cost = PROBE_COST;
        if let Some(rec) = finished {
            // On-line analysis runs once per closed slice.
            cost += ANALYSIS_COST;
            let perf = self.history.observe(&rec);
            if perf < self.config.variance_threshold {
                self.local_variances += 1;
            }
            self.outbox.push(rec);
        }
        ProbeOutcome { cost }
    }

    /// Whether a batch flush to the server is due (§5.4 batching).
    pub fn flush_due(&self, now: VirtualTime) -> bool {
        now.since(self.last_flush) >= self.config.batch_interval && !self.outbox.is_empty()
    }

    /// Take the buffered records for transmission.
    pub fn take_batch(&mut self, now: VirtualTime) -> Vec<SliceRecord> {
        self.take_batch_into(now, Vec::new())
    }

    /// Take the buffered records for transmission, installing `recycled`
    /// (an empty buffer, typically `RankTransport::recycled_buffer`, sized
    /// by the largest batch that transport has sent) as the new outbox,
    /// so a steady flush cadence fills it without growing it record by
    /// record.
    pub fn take_batch_into(
        &mut self,
        now: VirtualTime,
        recycled: Vec<SliceRecord>,
    ) -> Vec<SliceRecord> {
        debug_assert!(recycled.is_empty(), "recycled buffers must arrive cleared");
        self.last_flush = now;
        std::mem::replace(&mut self.outbox, recycled)
    }

    /// Finalize at end of run: flush every aggregator and return the final
    /// batch.
    pub fn finish(&mut self, _now: VirtualTime) -> Vec<SliceRecord> {
        for st in &mut self.states {
            if let Some(rec) = st.aggregator.finish() {
                let perf = self.history.observe(&rec);
                if perf < self.config.variance_threshold {
                    self.local_variances += 1;
                }
                self.outbox.push(rec);
            }
        }
        std::mem::take(&mut self.outbox)
    }

    /// Sense-distribution statistics collected so far.
    pub fn distribution(&self) -> &DistributionStats {
        &self.distribution
    }

    /// Local history (standards per sensor/group).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Locally-flagged variance record count.
    pub fn local_variances(&self) -> u64 {
        self.local_variances
    }

    /// Whether a control-plane poll is due. Polling rides the batch
    /// cadence but is independent of the outbox: a rank whose sensors are
    /// all dark must still poll so the server can re-enable them.
    pub fn control_poll_due(&mut self, now: VirtualTime) -> bool {
        if !self.config.control_enabled() {
            return false;
        }
        if now.since(self.last_control_poll) >= self.config.batch_interval {
            self.last_control_poll = now;
            true
        } else {
            false
        }
    }

    /// Apply one control directive. Returns the epoch to acknowledge:
    /// `Some(epoch)` for applied *and* stale directives (a stale directive
    /// means the newer epoch already landed — acking the newest lets the
    /// server retire its retry), `None` for CRC rejects (never acked, so
    /// the server retries with a clean copy).
    pub fn apply_directive(&mut self, directive: &ControlDirective) -> Option<u64> {
        match self.gate.admit(directive) {
            DirectiveVerdict::Rejected => None,
            DirectiveVerdict::Stale => Some(self.gate.epoch()),
            DirectiveVerdict::Applied => {
                self.subdiv = directive.subdiv.max(1);
                for (i, st) in self.states.iter_mut().enumerate() {
                    if directive.disabled.binary_search(&(i as u32)).is_ok() {
                        st.off |= OFF_SERVER;
                    } else {
                        st.off &= !OFF_SERVER;
                    }
                }
                Some(self.gate.epoch())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_senses(
        rt: &mut SensorRuntime,
        sensor: SensorId,
        n: u64,
        dur_ns: u64,
        gap_ns: u64,
    ) -> VirtualTime {
        let mut t = VirtualTime::ZERO;
        for _ in 0..n {
            rt.tick(sensor, t);
            t += Duration::from_nanos(dur_ns);
            rt.tock(sensor, t, SenseMetrics::default());
            t += Duration::from_nanos(gap_ns);
        }
        t
    }

    #[test]
    fn records_flow_to_outbox() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        // 10 us senses, 90 us gaps → 10 per 1000 us slice.
        let end = run_senses(&mut rt, SensorId(0), 100, 10_000, 90_000);
        let batch = rt.take_batch(end);
        let tail = rt.finish(end);
        let total: u32 = batch.iter().chain(&tail).map(|r| r.count).sum();
        assert_eq!(total, 100, "every sense aggregated exactly once");
        assert!(
            batch.len() >= 9,
            "about one record per slice: {}",
            batch.len()
        );
    }

    #[test]
    fn probe_costs_are_charged() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        let c1 = rt.tick(SensorId(0), VirtualTime::ZERO);
        assert_eq!(c1.cost, PROBE_COST);
        // The tock opens slice 0 and closes nothing: one probe.
        let c2 = rt.tock(
            SensorId(0),
            VirtualTime::from_micros(50),
            SenseMetrics::default(),
        );
        assert_eq!(c2.cost, PROBE_COST);
        // A tock in slice 1 closes slice 0 and runs the on-line analysis.
        rt.tick(SensorId(0), VirtualTime::from_micros(1100));
        let c3 = rt.tock(
            SensorId(0),
            VirtualTime::from_micros(1150),
            SenseMetrics::default(),
        );
        assert_eq!(c3.cost, PROBE_COST + ANALYSIS_COST);
    }

    #[test]
    fn short_sensor_gets_throttled() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        // A probation's worth of 100 ns senses — far below the 400 ns
        // minimum.
        let n = u64::from(THROTTLE_PROBATION) + 2;
        run_senses(&mut rt, SensorId(0), n, 100, 100);
        assert!(rt.states[0].off != 0);
        // Disabled probes cost only the cheap check.
        let out = rt.tick(SensorId(0), VirtualTime::from_secs(1));
        assert_eq!(out.cost, DISABLED_PROBE_COST);
    }

    #[test]
    fn long_sensor_stays_enabled() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        let n = u64::from(THROTTLE_PROBATION) + 36;
        run_senses(&mut rt, SensorId(0), n, 50_000, 1000);
        assert_eq!(rt.states[0].off, 0);
    }

    #[test]
    fn variance_counted_when_slowdown_appears() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        // Fast phase: 10 us senses.
        let t1 = run_senses(&mut rt, SensorId(0), 200, 10_000, 0);
        // Slow phase: same sensor suddenly takes 30 us (3x).
        let mut t = t1 + Duration::from_micros(10);
        for _ in 0..200 {
            rt.tick(SensorId(0), t);
            t += Duration::from_micros(30);
            rt.tock(SensorId(0), t, SenseMetrics::default());
        }
        rt.finish(t);
        assert!(rt.local_variances() > 0, "slowdown must be flagged");
    }

    #[test]
    fn dynamic_rule_splits_groups() {
        use crate::dynrules::CacheMissBuckets;
        let mut rt = SensorRuntime::with_rule(
            1,
            RuntimeConfig::default(),
            Arc::new(CacheMissBuckets::high_low(0.5)),
        );
        let mut t = VirtualTime::ZERO;
        // Alternate slices of low-miss (fast) and high-miss (slow) senses.
        for phase in 0..10 {
            let (dur, miss) = if phase % 2 == 0 {
                (10_000u64, 0.05)
            } else {
                (30_000u64, 0.80)
            };
            for _ in 0..100 {
                rt.tick(SensorId(0), t);
                t += Duration::from_nanos(dur);
                rt.tock(
                    SensorId(0),
                    t,
                    SenseMetrics {
                        cache_miss_rate: miss,
                    },
                );
            }
        }
        rt.finish(t);
        // With the rule, the slow-but-high-miss records live in their own
        // group: no false variance.
        assert_eq!(rt.local_variances(), 0, "figure 13 case 2");
        assert_eq!(rt.history().stored_scalars(), 2);
    }

    #[test]
    fn without_rule_high_miss_is_false_positive() {
        // Figure 13 case 1: same workload, no grouping → the high-miss
        // slices look like variance.
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        let mut t = VirtualTime::ZERO;
        for phase in 0..10 {
            let dur = if phase % 2 == 0 { 10_000u64 } else { 30_000 };
            for _ in 0..100 {
                rt.tick(SensorId(0), t);
                t += Duration::from_nanos(dur);
                rt.tock(SensorId(0), t, SenseMetrics::default());
            }
        }
        rt.finish(t);
        assert!(rt.local_variances() > 0);
    }

    #[test]
    fn flush_due_honours_interval() {
        let cfg = RuntimeConfig {
            batch_interval: Duration::from_millis(10),
            ..Default::default()
        };
        let mut rt = SensorRuntime::new(1, cfg);
        // 300 senses x 100 us = 30 ms of virtual time, past the interval.
        let end = run_senses(&mut rt, SensorId(0), 300, 10_000, 90_000);
        assert!(rt.flush_due(end));
        let batch = rt.take_batch(end);
        assert!(!batch.is_empty());
        assert!(!rt.flush_due(end), "just flushed");
    }

    #[test]
    fn server_directive_disables_and_reenables() {
        let mut rt = SensorRuntime::new(2, RuntimeConfig::default());
        let dark = ControlDirective::new(0, 1, vec![SensorId(1).0], 1);
        assert_eq!(rt.apply_directive(&dark), Some(1));
        assert_eq!(rt.states[0].off, 0);
        assert!(rt.states[1].off != 0);
        assert!(rt.states[1].off & OFF_SERVER != 0);
        // Dark probes cost only the cheap check and drop the sense.
        let out = rt.tick(SensorId(1), VirtualTime::ZERO);
        assert_eq!(out.cost, DISABLED_PROBE_COST);
        // A newer directive with an empty dark set re-enables.
        let light = ControlDirective::new(0, 2, vec![], 1);
        assert_eq!(rt.apply_directive(&light), Some(2));
        assert_eq!(rt.states[1].off, 0);
        // Stale and corrupt copies leave the state alone.
        assert_eq!(rt.apply_directive(&dark), Some(2), "stale acks epoch 2");
        assert_eq!(rt.states[1].off, 0);
        assert_eq!(rt.apply_directive(&light.corrupted_copy()), None);
        assert_eq!(rt.gate.epoch(), 2);
    }

    #[test]
    fn throttle_and_server_bits_are_independent() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        let n = u64::from(THROTTLE_PROBATION) + 2;
        run_senses(&mut rt, SensorId(0), n, 100, 100);
        assert!(rt.states[0].off != 0, "throttled");
        assert_eq!(rt.states[0].off & OFF_SERVER, 0);
        // A server re-enable (empty dark set) must not clear the throttle.
        rt.apply_directive(&ControlDirective::new(0, 1, vec![], 1));
        assert!(rt.states[0].off != 0, "throttle survives control");
    }

    #[test]
    fn escalated_subdiv_emits_finer_records() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        rt.apply_directive(&ControlDirective::new(0, 1, vec![], 4));
        // 16 senses at 125 us spacing → 8 fine (250 us) records instead of
        // the 2 coarse ones, all stamped with coarse slice indices.
        let mut t = VirtualTime::ZERO;
        for _ in 0..16 {
            rt.tick(SensorId(0), t);
            t += Duration::from_micros(10);
            rt.tock(SensorId(0), t, SenseMetrics::default());
            t += Duration::from_micros(115);
        }
        let mut records = rt.take_batch(t);
        records.extend(rt.finish(t));
        assert_eq!(records.len(), 8);
        assert!(records.iter().all(|r| r.count == 2));
        assert!(records.iter().all(|r| r.slice <= 1), "coarse indices");
    }

    #[test]
    fn control_poll_rides_batch_cadence_only_when_enabled() {
        let cfg = RuntimeConfig {
            batch_interval: Duration::from_millis(10),
            ..Default::default()
        };
        let mut rt = SensorRuntime::new(1, cfg.clone());
        // Control plane off by default: never due.
        assert!(!rt.control_poll_due(VirtualTime::from_secs(1)));

        let cfg = cfg.with_overhead_budget(0.05).unwrap();
        let mut rt = SensorRuntime::new(1, cfg);
        assert!(!rt.control_poll_due(VirtualTime::from_micros(500)));
        assert!(rt.control_poll_due(VirtualTime::from_millis(10)));
        assert!(
            !rt.control_poll_due(VirtualTime::from_millis(11)),
            "just polled"
        );
        assert!(rt.control_poll_due(VirtualTime::from_millis(20)));
    }

    #[test]
    fn unmatched_tock_is_tolerated() {
        let mut rt = SensorRuntime::new(1, RuntimeConfig::default());
        let out = rt.tock(
            SensorId(0),
            VirtualTime::from_micros(5),
            SenseMetrics::default(),
        );
        assert_eq!(out.cost, DISABLED_PROBE_COST);
        assert_eq!(rt.distribution().sense_count, 0);
    }
}
