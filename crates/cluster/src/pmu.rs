//! Simulated performance-monitoring unit.
//!
//! The paper validates v-sensor correctness by reading hardware instruction
//! counts through the PMU and checking that they stay constant over
//! executions (§6.2). Real PMUs are not perfectly accurate — the paper cites
//! Weaver et al. on counter non-determinism and overcount — so the measured
//! max/min ratio `Ps` is only approximately 1. This module models that: it
//! returns the true work count perturbed by a small deterministic jitter.

use crate::noise::mix64;
use crate::time::round_to_u64;

/// PMU configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmuConfig {
    /// Relative measurement error amplitude (0.02 = up to ±2 %).
    pub jitter: f64,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            jitter: 0.02,
            seed: 0x9A11,
        }
    }
}

impl PmuConfig {
    /// An exact PMU (for tests).
    pub fn exact() -> Self {
        PmuConfig {
            jitter: 0.0,
            seed: 0,
        }
    }
}

/// The PMU itself. One logical instance per process; stateless, so it is
/// `Copy` and can be embedded freely.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pmu {
    config: PmuConfig,
}

impl Pmu {
    /// Create a PMU with the given config.
    pub fn new(config: PmuConfig) -> Self {
        Pmu { config }
    }

    /// Measure an instruction count: the true `count` perturbed by a
    /// deterministic pseudo-random relative error. `sample_key` should be
    /// unique per measurement (e.g. a running counter) so that repeated
    /// measurements of the same work differ, as on real hardware.
    pub fn measure_instructions(&self, count: u64, sample_key: u64) -> u64 {
        if self.config.jitter == 0.0 || count == 0 {
            return count;
        }
        let h = mix64(self.config.seed ^ sample_key);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                                                        // Real counters overcount more often than undercount; bias the
                                                        // error range to [-j/2, +j].
        let rel = self.config.jitter * (1.5 * u - 0.5);
        round_to_u64((count as f64) * (1.0 + rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_pmu_is_identity() {
        let p = Pmu::new(PmuConfig::exact());
        assert_eq!(p.measure_instructions(12345, 0), 12345);
        assert_eq!(p.measure_instructions(12345, 99), 12345);
    }

    #[test]
    fn jitter_is_bounded() {
        let p = Pmu::new(PmuConfig {
            jitter: 0.05,
            seed: 7,
        });
        for key in 0..1000 {
            let m = p.measure_instructions(1_000_000, key);
            let rel = (m as f64 - 1e6) / 1e6;
            assert!((-0.026..=0.051).contains(&rel), "rel error {rel}");
        }
    }

    #[test]
    fn max_over_min_close_to_one() {
        // The paper's Ps = MAX(v_i)/MIN(v_i) validation: with a 2% PMU the
        // ratio stays under ~1.05.
        let p = Pmu::new(PmuConfig::default());
        let samples: Vec<u64> = (0..500)
            .map(|k| p.measure_instructions(5_000_000, k))
            .collect();
        let max = *samples.iter().max().unwrap() as f64;
        let min = *samples.iter().min().unwrap() as f64;
        let ps = max / min;
        assert!(ps > 1.0 && ps < 1.05, "Ps {ps}");
    }

    #[test]
    fn measurements_are_deterministic() {
        let p = Pmu::new(PmuConfig::default());
        assert_eq!(
            p.measure_instructions(999, 5),
            p.measure_instructions(999, 5)
        );
    }

    #[test]
    fn zero_count_stays_zero() {
        let p = Pmu::new(PmuConfig::default());
        assert_eq!(p.measure_instructions(0, 3), 0);
    }
}
