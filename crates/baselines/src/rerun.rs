//! The rerun methodology (Figure 1).
//!
//! The most direct way to see variance: submit the same job repeatedly and
//! compare execution times. Figure 1 shows 40 submissions of FT-1024 on
//! fixed Tianhe-2 nodes with a max/min ratio above 3. This module collects
//! the summary statistics for a series of run times; the cost critique
//! (time × resources for every extra run) is self-evident.

use cluster_sim::time::Duration;

/// Summary statistics over repeated run times.
#[derive(Clone, Debug, PartialEq)]
pub struct RerunStats {
    /// The raw run times in submission order.
    pub runs: Vec<Duration>,
}

impl RerunStats {
    /// Wrap a series of run times.
    pub fn new(runs: Vec<Duration>) -> Self {
        RerunStats { runs }
    }

    /// Fastest run.
    pub fn min(&self) -> Duration {
        self.runs.iter().copied().min().unwrap_or(Duration::ZERO)
    }

    /// Slowest run.
    pub fn max(&self) -> Duration {
        self.runs.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Duration {
        if self.runs.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_nanos(
            self.runs.iter().map(|d| d.as_nanos()).sum::<u64>() / self.runs.len() as u64,
        )
    }

    /// Max-over-min ratio — the paper's headline "more than three times"
    /// for Figure 1.
    pub fn max_over_min(&self) -> f64 {
        let min = self.min().as_nanos();
        if min == 0 {
            return 1.0;
        }
        self.max().as_nanos() as f64 / min as f64
    }

    /// Coefficient of variation (stddev / mean).
    pub fn cv(&self) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        let mean = self.mean().as_nanos() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .runs
            .iter()
            .map(|d| {
                let x = d.as_nanos() as f64 - mean;
                x * x
            })
            .sum::<f64>()
            / (self.runs.len() - 1) as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: &[u64]) -> RerunStats {
        RerunStats::new(v.iter().map(|&s| Duration::from_secs(s)).collect())
    }

    #[test]
    fn figure1_style_spread() {
        let s = secs(&[23, 25, 24, 78, 30, 23, 26]);
        assert_eq!(s.min(), Duration::from_secs(23));
        assert_eq!(s.max(), Duration::from_secs(78));
        assert!(s.max_over_min() > 3.0);
        assert!(s.cv() > 0.3);
    }

    #[test]
    fn stable_runs_have_low_cv() {
        let s = secs(&[100, 101, 99, 100]);
        assert!(s.cv() < 0.01);
        assert!(s.max_over_min() < 1.03);
    }

    #[test]
    fn degenerate_cases() {
        let empty = RerunStats::new(vec![]);
        assert_eq!(empty.mean(), Duration::ZERO);
        assert_eq!(empty.max_over_min(), 1.0);
        assert_eq!(empty.cv(), 0.0);
        let single = secs(&[5]);
        assert_eq!(single.cv(), 0.0);
    }
}
