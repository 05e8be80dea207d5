//! Performance normalization and history comparison (§5.2, §5.3).
//!
//! Per (sensor, dynamic-rule group) only a single scalar — the *standard
//! time*, the fastest smoothed record seen so far — is stored. A record's
//! normalized performance is `standard / observed` (fastest = 1.00, twice
//! as slow = 0.50); values below the variance threshold indicate that the
//! component the sensor exercises has degraded.

use crate::dynrules::Bucket;
use crate::record::SliceRecord;
use cluster_sim::time::Duration;
use vsensor_lang::SensorId;

/// Tracks standard times and normalizes records against them.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Indexed by `SensorId` (dense); each sensor's groups are a short
    /// list searched linearly — a dynamic rule yields a handful of
    /// buckets, one without a rule.
    standards: Vec<Vec<(Bucket, Duration)>>,
}

impl History {
    /// New empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Current standard (fastest) time for a sensor/group, if any record
    /// has been seen.
    pub fn standard(&self, sensor: SensorId, bucket: Bucket) -> Option<Duration> {
        let groups = self.standards.get(sensor.0 as usize)?;
        groups.iter().find(|(b, _)| *b == bucket).map(|(_, s)| *s)
    }

    /// Observe a record: updates the standard if this record is faster,
    /// then returns the normalized performance in `(0, 1]`.
    ///
    /// The first record of a group scores 1.0 by construction.
    pub fn observe(&mut self, rec: &SliceRecord) -> f64 {
        let i = rec.sensor.0 as usize;
        if i >= self.standards.len() {
            self.standards.resize_with(i + 1, Vec::new);
        }
        let groups = &mut self.standards[i];
        let std = match groups.iter_mut().find(|(b, _)| *b == rec.bucket) {
            Some((_, s)) => {
                *s = (*s).min(rec.avg);
                *s
            }
            None => {
                // One more slot, not the growth default of four: most
                // sensors only ever see one group, on every rank.
                groups.reserve_exact(1);
                groups.push((rec.bucket, rec.avg));
                rec.avg
            }
        };
        normalized(std, rec.avg)
    }

    /// Normalize a record against the current standard without updating it
    /// (used by the server when replaying already-merged data).
    pub fn normalize_only(&self, rec: &SliceRecord) -> Option<f64> {
        self.standard(rec.sensor, rec.bucket)
            .map(|s| normalized(s, rec.avg))
    }

    /// Number of stored scalars — the paper's point is that this stays
    /// tiny (one per sensor per group) no matter how long the run is.
    pub fn stored_scalars(&self) -> usize {
        self.standards.iter().map(Vec::len).sum()
    }
}

/// `standard / observed`, clamped into `(0, 1]`.
pub fn normalized(standard: Duration, observed: Duration) -> f64 {
    if observed.as_nanos() == 0 {
        return 1.0;
    }
    (standard.as_nanos() as f64 / observed.as_nanos() as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sensor: u32, bucket: u32, avg_us: u64) -> SliceRecord {
        SliceRecord {
            sensor: SensorId(sensor),
            slice: 0,
            avg: Duration::from_micros(avg_us),
            count: 1,
            bucket: Bucket(bucket),
        }
    }

    #[test]
    fn first_record_scores_one() {
        let mut h = History::new();
        assert_eq!(h.observe(&rec(0, 0, 50)), 1.0);
    }

    #[test]
    fn slower_record_scores_proportionally() {
        let mut h = History::new();
        h.observe(&rec(0, 0, 50));
        let perf = h.observe(&rec(0, 0, 100));
        assert!((perf - 0.5).abs() < 1e-12, "double time → 0.50: {perf}");
    }

    #[test]
    fn standard_updates_to_fastest() {
        let mut h = History::new();
        h.observe(&rec(0, 0, 100));
        // A faster record re-bases the standard (§5.3: "dynamically
        // updated to the execution time of the fastest record").
        assert_eq!(h.observe(&rec(0, 0, 40)), 1.0);
        assert_eq!(h.standard(SensorId(0), Bucket(0)).unwrap().as_micros(), 40);
        let perf = h.observe(&rec(0, 0, 80));
        assert!((perf - 0.5).abs() < 1e-12);
    }

    #[test]
    fn groups_have_independent_standards() {
        // Figure 13: high-cache-miss records only compete with each other.
        let mut h = History::new();
        h.observe(&rec(0, 0, 30)); // low-miss group
        let high = h.observe(&rec(0, 1, 70)); // high-miss group, first
        assert_eq!(high, 1.0, "own group, own standard");
        assert_eq!(h.stored_scalars(), 2);
    }

    #[test]
    fn sensors_are_independent() {
        let mut h = History::new();
        h.observe(&rec(0, 0, 10));
        assert_eq!(h.observe(&rec(1, 0, 1000)), 1.0);
    }

    #[test]
    fn normalize_only_does_not_update() {
        let mut h = History::new();
        h.observe(&rec(0, 0, 50));
        let fast = rec(0, 0, 25);
        assert_eq!(h.normalize_only(&fast), Some(1.0), "clamped to 1.0");
        assert_eq!(
            h.standard(SensorId(0), Bucket(0)).unwrap().as_micros(),
            50,
            "standard unchanged"
        );
        assert_eq!(h.normalize_only(&rec(9, 0, 1)), None);
    }

    #[test]
    fn zero_duration_is_safe() {
        assert_eq!(normalized(Duration::ZERO, Duration::ZERO), 1.0);
    }
}
