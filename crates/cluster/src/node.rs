//! Compute-node model.
//!
//! A node converts abstract *work units* into virtual time. Work is split
//! into a CPU part and a memory part so that the paper's "bad node" case
//! study (§6.5: one processor with 55 % of normal memory-access performance)
//! can be modelled directly: a slow-memory node stretches only the memory
//! component.

use crate::time::{round_to_u64, Duration};

/// Static performance description of one node.
///
/// One CPU work unit costs one virtual nanosecond on every node; memory
/// work costs `mem_factor` nanoseconds per unit, so a factor of `1.0` is
/// a healthy node and larger factors are slower memory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpec {
    /// Multiplier for memory work units.
    pub mem_factor: f64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { mem_factor: 1.0 }
    }
}

impl NodeSpec {
    /// A healthy node with default factors.
    pub fn healthy() -> Self {
        NodeSpec::default()
    }

    /// A node whose memory subsystem runs at `perf` of normal speed
    /// (e.g. `0.55` reproduces the bad node found in the paper).
    pub fn slow_memory(perf: f64) -> Self {
        assert!(perf > 0.0, "memory performance must be positive");
        NodeSpec {
            mem_factor: 1.0 / perf,
        }
    }

    /// Noise-free time to execute `work` on this node.
    ///
    /// `miss_rate` is the current cache-miss rate in `[0, 1]`; misses shift
    /// CPU work toward memory cost with a fixed per-miss penalty, modelling
    /// the dynamic-rule scenario of the paper's Figure 13.
    pub fn base_elapsed(&self, work: Work, miss_rate: f64) -> Duration {
        debug_assert!((0.0..=1.0).contains(&miss_rate));
        // Each missing fraction of CPU work pays an extra memory access.
        const MISS_PENALTY: f64 = 3.0;
        let cpu_ns = work.cpu as f64;
        let mem_ns =
            (work.mem as f64 + work.cpu as f64 * miss_rate * MISS_PENALTY) * self.mem_factor;
        Duration::from_nanos(round_to_u64(cpu_ns + mem_ns))
    }
}

/// A quantity of work, split by the subsystem it stresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Work {
    /// CPU-bound work units (1 unit ≈ 1 ns on a healthy node).
    pub cpu: u64,
    /// Memory-bound work units.
    pub mem: u64,
}

impl Work {
    /// Pure CPU work.
    pub fn cpu(units: u64) -> Self {
        Work { cpu: units, mem: 0 }
    }

    /// Pure memory work.
    pub fn mem(units: u64) -> Self {
        Work { cpu: 0, mem: units }
    }

    /// Total units regardless of kind (used as the PMU "instruction count").
    pub fn total(&self) -> u64 {
        self.cpu + self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_node_is_one_ns_per_unit() {
        let n = NodeSpec::healthy();
        assert_eq!(n.base_elapsed(Work::cpu(1000), 0.0).as_nanos(), 1000);
        assert_eq!(n.base_elapsed(Work::mem(500), 0.0).as_nanos(), 500);
    }

    #[test]
    fn slow_memory_stretches_only_memory() {
        let n = NodeSpec::slow_memory(0.5);
        assert_eq!(n.base_elapsed(Work::cpu(1000), 0.0).as_nanos(), 1000);
        assert_eq!(n.base_elapsed(Work::mem(1000), 0.0).as_nanos(), 2000);
    }

    #[test]
    fn paper_bad_node_slows_mixed_work() {
        // 55% memory performance, work half memory-bound: observable but
        // not catastrophic slowdown — like the CG case study.
        let good = NodeSpec::healthy();
        let bad = NodeSpec::slow_memory(0.55);
        let w = Work { cpu: 500, mem: 500 };
        let g = good.base_elapsed(w, 0.0).as_nanos() as f64;
        let b = bad.base_elapsed(w, 0.0).as_nanos() as f64;
        let slowdown = b / g;
        assert!(slowdown > 1.2 && slowdown < 1.6, "slowdown {slowdown}");
    }

    #[test]
    fn cache_misses_add_memory_cost() {
        let n = NodeSpec::healthy();
        let lo = n.base_elapsed(Work::cpu(1000), 0.0);
        let hi = n.base_elapsed(Work::cpu(1000), 0.3);
        assert!(hi > lo);
        assert_eq!(hi.as_nanos(), 1000 + 900); // 1000 * 0.3 * 3.0
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_perf_rejected() {
        let _ = NodeSpec::slow_memory(0.0);
    }

    #[test]
    fn work_combines() {
        let w = Work { cpu: 3, mem: 4 };
        assert_eq!(w.total(), 7);
    }
}
