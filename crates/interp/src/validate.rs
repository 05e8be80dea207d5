//! PMU-based workload validation (§6.2).
//!
//! For every instrumented sensor we record the minimum and maximum measured
//! instruction count across executions. The paper's correctness metric is
//! `Ps = MAX(v_i) / MIN(v_i)` per sensor, `Pa = MAX(Ps)` per process and
//! `Pm = MAX(Pa)` across processes; `Pm − 1` is the "Workload max error"
//! column of Table 1. With a truly fixed workload, all deviation comes from
//! PMU measurement noise, so small values validate the static analysis.

use vsensor_lang::SensorId;

/// Min/max instruction counts per sensor for one process.
#[derive(Clone, Debug, Default)]
pub struct ValidationStats {
    /// `(min, max)` indexed by `SensorId` — sensor IDs are dense, and
    /// `observe` runs on every probe pair; `None` = never observed.
    ranges: Vec<Option<(u64, u64)>>,
}

impl ValidationStats {
    /// Widen `sensor`'s range to include `[lo, hi]`.
    fn widen(&mut self, sensor: SensorId, lo: u64, hi: u64) {
        let i = sensor.0 as usize;
        if i >= self.ranges.len() {
            self.ranges.resize(i + 1, None);
        }
        let range = &mut self.ranges[i];
        *range = Some(match *range {
            Some((l, h)) => (l.min(lo), h.max(hi)),
            None => (lo, hi),
        });
    }

    /// The sensors with data and their ranges.
    fn seen(&self) -> impl Iterator<Item = (SensorId, (u64, u64))> + '_ {
        self.ranges
            .iter()
            .enumerate()
            .filter_map(|(i, range)| Some((SensorId(i as u32), (*range)?)))
    }

    /// Record one measured count.
    pub fn observe(&mut self, sensor: SensorId, measured: u64) {
        self.widen(sensor, measured, measured);
    }

    /// `Ps` for one sensor: max/min, or `None` if unseen or zero-work.
    pub fn ps(&self, sensor: SensorId) -> Option<f64> {
        let (lo, hi) = (*self.ranges.get(sensor.0 as usize)?)?;
        if lo == 0 {
            return None;
        }
        Some(hi as f64 / lo as f64)
    }

    /// `Pa`: the worst `Ps` over all sensors of this process (1.0 if no
    /// sensor produced two measurements).
    pub fn pa(&self) -> f64 {
        self.seen()
            .filter(|(_, (lo, _))| *lo > 0)
            .map(|(_, (lo, hi))| hi as f64 / lo as f64)
            .fold(1.0, f64::max)
    }

    /// Merge another stats object's ranges into this one, sensor by
    /// sensor. Not how `Pm` is computed — see [`pm`], which never merges
    /// ranges across processes.
    pub fn merge(&mut self, other: &ValidationStats) {
        for (sensor, (lo, hi)) in other.seen() {
            self.widen(sensor, lo, hi);
        }
    }

    /// Number of sensors with data.
    pub fn sensor_count(&self) -> usize {
        self.seen().count()
    }
}

/// `Pm` across a set of per-process stats: the worst per-process `Pa`.
///
/// Note the paper's definition carefully: `Ps` is per sensor *within one
/// process*, `Pa = MAX(Ps)` per process, and `Pm = MAX(Pa)` **over**
/// processes — ranges are never merged across processes, because a
/// rank-dependent sensor legitimately does different work on different
/// ranks while still being perfectly fixed on each.
pub fn pm(all: &[ValidationStats]) -> f64 {
    all.iter().map(ValidationStats::pa).fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_tracks_spread() {
        let mut v = ValidationStats::default();
        v.observe(SensorId(0), 100);
        v.observe(SensorId(0), 104);
        v.observe(SensorId(0), 98);
        assert!((v.ps(SensorId(0)).unwrap() - 104.0 / 98.0).abs() < 1e-12);
    }

    #[test]
    fn pa_takes_worst_sensor() {
        let mut v = ValidationStats::default();
        v.observe(SensorId(0), 100);
        v.observe(SensorId(0), 101);
        v.observe(SensorId(1), 100);
        v.observe(SensorId(1), 150);
        assert!((v.pa() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pm_is_worst_per_process_ratio_not_cross_process() {
        // Two processes each see perfectly fixed (but different!) counts:
        // a rank-dependent sensor. Pm must be 1.0, not 1.2.
        let mut a = ValidationStats::default();
        a.observe(SensorId(0), 100);
        a.observe(SensorId(0), 100);
        let mut b = ValidationStats::default();
        b.observe(SensorId(0), 120);
        b.observe(SensorId(0), 120);
        assert!((pm(&[a.clone(), b]) - 1.0).abs() < 1e-12);
        // A process with internal spread does raise Pm.
        let mut c = ValidationStats::default();
        c.observe(SensorId(0), 100);
        c.observe(SensorId(0), 150);
        assert!((pm(&[a, c]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_sensor_ids_leave_the_gaps_unseen() {
        let mut v = ValidationStats::default();
        v.observe(SensorId(7), 100);
        v.observe(SensorId(7), 110);
        assert_eq!(v.sensor_count(), 1);
        assert_eq!(v.ps(SensorId(3)), None);
        assert_eq!(v.ps(SensorId(8)), None);
        assert!((v.ps(SensorId(7)).unwrap() - 1.1).abs() < 1e-12);
        // Merging keeps the gaps and unions the ranges per sensor.
        let mut w = ValidationStats::default();
        w.observe(SensorId(2), 50);
        w.observe(SensorId(7), 90);
        w.merge(&v);
        assert_eq!(w.sensor_count(), 2);
        assert_eq!(w.ps(SensorId(3)), None);
        assert!((w.ps(SensorId(7)).unwrap() - 110.0 / 90.0).abs() < 1e-12);
        assert_eq!(w.ps(SensorId(2)), Some(1.0));
    }

    #[test]
    fn empty_and_zero_cases() {
        let v = ValidationStats::default();
        assert_eq!(v.pa(), 1.0);
        assert_eq!(v.ps(SensorId(0)), None);
        let mut z = ValidationStats::default();
        z.observe(SensorId(0), 0);
        assert_eq!(z.ps(SensorId(0)), None);
        assert_eq!(z.pa(), 1.0);
    }
}
