//! Data smoothing (§5.1).
//!
//! High-frequency OS noise makes raw per-sense timings chaotic (the paper's
//! Figure 12 shows a 10 µs sensor at 10 µs resolution vs. 1000 µs
//! averages). The aggregator collects every sense of a sensor that starts
//! within one time slice and emits a single averaged [`SliceRecord`] when
//! the slice closes — which also means the on-line analysis runs once per
//! slice instead of once per sense.

use crate::config::RuntimeConfig;
use crate::dynrules::Bucket;
use crate::record::SliceRecord;
use cluster_sim::time::{Duration, VirtualTime};
use vsensor_lang::SensorId;

/// Per-sensor slice aggregation state.
#[derive(Clone, Debug)]
pub struct SliceAggregator {
    sensor: SensorId,
    open: Option<OpenSlice>,
}

#[derive(Clone, Copy, Debug)]
struct OpenSlice {
    /// Aggregation key: the fine slice index (`start / (slice/subdiv)`).
    /// Equal to the coarse index when `subdiv == 1`.
    slice: u64,
    /// Subdivision this slice was opened under — a key from a different
    /// subdivision must never merge even when the indices collide.
    subdiv: u64,
    bucket: Bucket,
    sum_ns: u64,
    count: u32,
}

impl SliceAggregator {
    /// New aggregator for one sensor.
    pub fn new(sensor: SensorId) -> Self {
        SliceAggregator { sensor, open: None }
    }

    /// Add one sense. Returns a finished record when the sense opens a new
    /// slice (or changes dynamic-rule bucket, which also closes the
    /// aggregate: records of different groups must not be mixed).
    pub fn add(
        &mut self,
        config: &RuntimeConfig,
        start: VirtualTime,
        duration: Duration,
        bucket: Bucket,
    ) -> Option<SliceRecord> {
        self.add_subdivided(config, start, duration, bucket, 1)
    }

    /// Like [`Self::add`], but aggregating at `slice / subdiv` — the
    /// control plane's escalated (zoom-in) granularity. Emitted records
    /// still carry their *coarse* slice index (`subdiv` divides the
    /// coarse slice by construction, so `fine / subdiv` is exact): the
    /// server bins escalated telemetry exactly like coarse telemetry,
    /// just from `subdiv`-times more records per slice.
    pub fn add_subdivided(
        &mut self,
        config: &RuntimeConfig,
        start: VirtualTime,
        duration: Duration,
        bucket: Bucket,
        subdiv: u32,
    ) -> Option<SliceRecord> {
        let subdiv = (subdiv as u64).max(1);
        let fine_width = (config.slice.as_nanos() / subdiv).max(1);
        let slice = start.as_nanos() / fine_width;
        let mut finished = None;
        match &mut self.open {
            Some(open) if open.slice == slice && open.subdiv == subdiv && open.bucket == bucket => {
                open.sum_ns += duration.as_nanos();
                open.count += 1;
            }
            open => {
                finished = open.take().map(|o| o.into_record(self.sensor));
                *open = Some(OpenSlice {
                    slice,
                    subdiv,
                    bucket,
                    sum_ns: duration.as_nanos(),
                    count: 1,
                });
            }
        }
        finished
    }

    /// Close the aggregator at end of run, flushing any open slice.
    pub fn finish(&mut self) -> Option<SliceRecord> {
        self.open.take().map(|o| o.into_record(self.sensor))
    }
}

impl OpenSlice {
    fn into_record(self, sensor: SensorId) -> SliceRecord {
        SliceRecord {
            sensor,
            slice: self.slice / self.subdiv,
            avg: Duration::from_nanos(self.sum_ns / self.count.max(1) as u64),
            count: self.count,
            bucket: self.bucket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    #[test]
    fn senses_within_a_slice_average() {
        let c = cfg();
        let mut agg = SliceAggregator::new(SensorId(0));
        // Three 10/20/30 us senses inside slice 0.
        assert!(agg
            .add(
                &c,
                VirtualTime::from_micros(0),
                Duration::from_micros(10),
                Bucket(0)
            )
            .is_none());
        assert!(agg
            .add(
                &c,
                VirtualTime::from_micros(100),
                Duration::from_micros(20),
                Bucket(0)
            )
            .is_none());
        assert!(agg
            .add(
                &c,
                VirtualTime::from_micros(200),
                Duration::from_micros(30),
                Bucket(0)
            )
            .is_none());
        // The next sense is in slice 1: slice 0 closes.
        let rec = agg
            .add(
                &c,
                VirtualTime::from_micros(1500),
                Duration::from_micros(5),
                Bucket(0),
            )
            .expect("slice 0 finished");
        assert_eq!(rec.slice, 0);
        assert_eq!(rec.count, 3);
        assert_eq!(rec.avg.as_micros(), 20);
    }

    #[test]
    fn bucket_change_closes_slice() {
        let c = cfg();
        let mut agg = SliceAggregator::new(SensorId(1));
        agg.add(
            &c,
            VirtualTime::from_micros(10),
            Duration::from_micros(4),
            Bucket(0),
        );
        let rec = agg
            .add(
                &c,
                VirtualTime::from_micros(20),
                Duration::from_micros(6),
                Bucket(1),
            )
            .expect("bucket switch closes");
        assert_eq!(rec.bucket, Bucket(0));
        assert_eq!(rec.count, 1);
        let last = agg.finish().expect("open slice flushed");
        assert_eq!(last.bucket, Bucket(1));
    }

    #[test]
    fn finish_flushes_or_is_empty() {
        let c = cfg();
        let mut agg = SliceAggregator::new(SensorId(2));
        assert!(agg.finish().is_none());
        agg.add(&c, VirtualTime::ZERO, Duration::from_nanos(100), Bucket(0));
        assert!(agg.finish().is_some());
        assert!(agg.finish().is_none(), "finish is idempotent");
    }

    #[test]
    fn subdivided_slices_emit_finer_records_with_coarse_indices() {
        let c = cfg();
        let mut agg = SliceAggregator::new(SensorId(4));
        // Sixteen 10 us senses spread over two coarse 1000 us slices, at
        // subdiv 4 (250 us fine slices): one record per fine slice, each
        // stamped with the *coarse* index it belongs to.
        let mut records = Vec::new();
        for i in 0..16u64 {
            let start = VirtualTime::from_micros(i * 125);
            records.extend(agg.add_subdivided(&c, start, Duration::from_micros(10), Bucket(0), 4));
        }
        records.extend(agg.finish());
        assert_eq!(records.len(), 8, "2000us / 250us fine slices");
        assert_eq!(
            records.iter().map(|r| r.slice).collect::<Vec<_>>(),
            [0, 0, 0, 0, 1, 1, 1, 1]
        );
        assert!(records.iter().all(|r| r.count == 2));

        // Switching back to coarse mid-run must not merge a coarse key
        // with an old fine key that happens to collide numerically.
        let mut agg = SliceAggregator::new(SensorId(5));
        agg.add_subdivided(
            &c,
            VirtualTime::from_micros(750),
            Duration::from_micros(10),
            Bucket(0),
            4,
        );
        let closed = agg.add(
            &c,
            VirtualTime::from_micros(3100),
            Duration::from_micros(10),
            Bucket(0),
        );
        let closed = closed.expect("subdiv change closes the open slice");
        assert_eq!(closed.slice, 0, "fine index 3 maps to coarse slice 0");
        assert_eq!(agg.finish().expect("coarse slice open").slice, 3);
    }

    #[test]
    fn smoothing_reduces_spread() {
        // The Figure 12 effect: noisy per-sense samples, smooth averages.
        let c = cfg();
        let mut agg = SliceAggregator::new(SensorId(3));
        let mut records = Vec::new();
        let mut t = 0u64;
        for i in 0..5000u64 {
            // 10 us nominal work, every 8th sense takes 4x (noise spike).
            let d = if i % 8 == 0 { 40_000 } else { 10_000 };
            if let Some(r) = agg.add(&c, VirtualTime(t), Duration::from_nanos(d), Bucket(0)) {
                records.push(r);
            }
            t += d;
        }
        records.extend(agg.finish());
        // Raw max/min ratio is 4; smoothed ratio must be far smaller.
        let max = records.iter().map(|r| r.avg.as_nanos()).max().unwrap() as f64;
        let min = records.iter().map(|r| r.avg.as_nanos()).min().unwrap() as f64;
        assert!(max / min < 1.6, "smoothed ratio {}", max / min);
        assert!(records.len() > 10);
    }
}
