//! Dynamic rules (§3.1 / Figure 13).
//!
//! A dynamic rule classifies performance records by a metric that is only
//! known at run time — the canonical example is the cache-miss rate. Records
//! in different groups are compared against different standards, so a
//! legitimately-slower phase (high cache miss) is not misreported as
//! variance, while genuine slowness within a group still is.

use std::fmt;

/// A dynamic-rule group label. Bucket 0 is the default group when no rule
/// is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bucket(pub u32);

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Runtime metrics observed for one sense, fed to the active rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenseMetrics {
    /// Cache-miss rate in `[0, 1]` (from the PMU).
    pub cache_miss_rate: f64,
}

/// A dynamic rule: classify a sense into a comparison group.
pub trait DynamicRule: Send + Sync {
    /// Group for a sense with the given metrics.
    fn bucket(&self, metrics: &SenseMetrics) -> Bucket;

    /// Number of distinct groups the rule can produce (for reporting).
    fn group_count(&self) -> u32;

    /// Rule name for reports.
    fn name(&self) -> &str;
}

/// The default rule: every record in one group — i.e. the metric is
/// *expected to be constant* (Figure 13, case 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstantExpected;

impl DynamicRule for ConstantExpected {
    fn bucket(&self, _metrics: &SenseMetrics) -> Bucket {
        Bucket(0)
    }

    fn group_count(&self) -> u32 {
        1
    }

    fn name(&self) -> &str {
        "constant"
    }
}

/// Bucket by cache-miss-rate ranges (Figure 13, case 2; §3.1 suggests
/// ranges like 0-10 %, 10-20 %).
#[derive(Clone, Debug)]
pub struct CacheMissBuckets {
    /// Ascending inner boundaries; `n` boundaries produce `n + 1` groups.
    boundaries: Vec<f64>,
}

impl CacheMissBuckets {
    /// Build from ascending boundaries in `[0, 1]`.
    pub fn new(boundaries: Vec<f64>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly ascending"
        );
        CacheMissBuckets { boundaries }
    }

    /// The two-group high/low split used in Figure 13.
    pub fn high_low(split: f64) -> Self {
        CacheMissBuckets::new(vec![split])
    }
}

impl DynamicRule for CacheMissBuckets {
    fn bucket(&self, metrics: &SenseMetrics) -> Bucket {
        let i = self
            .boundaries
            .partition_point(|&b| b <= metrics.cache_miss_rate);
        Bucket(i as u32)
    }

    fn group_count(&self) -> u32 {
        self.boundaries.len() as u32 + 1
    }

    fn name(&self) -> &str {
        "cache-miss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rate: f64) -> SenseMetrics {
        SenseMetrics {
            cache_miss_rate: rate,
        }
    }

    #[test]
    fn constant_rule_is_single_group() {
        let r = ConstantExpected;
        assert_eq!(r.bucket(&m(0.0)), r.bucket(&m(0.9)));
        assert_eq!(r.group_count(), 1);
    }

    #[test]
    fn high_low_split() {
        let r = CacheMissBuckets::high_low(0.5);
        assert_eq!(r.bucket(&m(0.1)), Bucket(0));
        assert_eq!(r.bucket(&m(0.9)), Bucket(1));
        assert_eq!(r.group_count(), 2);
    }

    #[test]
    fn decile_buckets_cover_the_range() {
        let r = CacheMissBuckets::new((1..10).map(|i| i as f64 / 10.0).collect());
        assert_eq!(r.group_count(), 10);
        assert_eq!(r.bucket(&m(0.0)), Bucket(0));
        assert_eq!(r.bucket(&m(0.05)), Bucket(0));
        assert_eq!(r.bucket(&m(0.15)), Bucket(1));
        assert_eq!(r.bucket(&m(0.95)), Bucket(9));
    }

    #[test]
    fn boundary_value_goes_to_upper_group() {
        let r = CacheMissBuckets::high_low(0.5);
        assert_eq!(r.bucket(&m(0.5)), Bucket(1));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_boundaries_rejected() {
        let _ = CacheMissBuckets::new(vec![0.5, 0.3]);
    }
}
