//! Interconnect model.
//!
//! Point-to-point messages cost `latency + bytes / bandwidth`; collectives
//! use standard algorithmic cost formulas (log-tree barrier/bcast/reduce,
//! linear all-to-all). A list of *degradation windows* scales the effective
//! bandwidth/latency during chosen time intervals — this reproduces the
//! paper's FT case study where the Tianhe-2 interconnect degraded for ~50 s
//! and slowed all-to-all heavy code by 3.37×.

use crate::time::{ceil_to_u64, round_to_u64, Duration, VirtualTime};

/// A window during which the network runs slower.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationWindow {
    /// Start (inclusive).
    pub start: VirtualTime,
    /// End (exclusive).
    pub end: VirtualTime,
    /// Cost multiplier (≥ 1) applied to transfers inside the window.
    pub factor: f64,
}

/// One-way small-message latency between nodes.
const LATENCY: Duration = Duration::from_micros(1);
/// Bandwidth in bytes per nanosecond (1.0 = 1 GB/s ≈ 0.93 GiB/s;
/// Tianhe-2's TH Express-2 is on the order of 10).
const BANDWIDTH_BYTES_PER_NS: f64 = 10.0;
/// Share of [`LATENCY`] a message pays when both endpoints sit on one
/// node (intra-node messages skip the wire).
const INTRA_NODE_DISCOUNT: f64 = 0.2;

/// The network's time-varying part: the windows during which it runs
/// slower. The static costs are this module's constants: 1 µs latency
/// between nodes (a fifth of it within a node) and 10 bytes per ns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkConfig {
    /// Degradation windows.
    pub degradations: Vec<DegradationWindow>,
}

impl NetworkConfig {
    /// Add a degradation window (builder style).
    pub fn with_degradation(mut self, start: VirtualTime, end: VirtualTime, factor: f64) -> Self {
        assert!(factor >= 1.0, "degradation factor must be >= 1");
        assert!(end > start, "window must be non-empty");
        self.degradations
            .push(DegradationWindow { start, end, factor });
        self
    }

    /// Cost multiplier in effect at time `t`.
    pub fn factor_at(&self, t: VirtualTime) -> f64 {
        let mut f = 1.0;
        for w in &self.degradations {
            if t >= w.start && t < w.end {
                f *= w.factor;
            }
        }
        f
    }

    /// Time for one point-to-point message of `bytes` bytes posted at `t`.
    pub fn p2p_cost(&self, bytes: u64, same_node: bool, t: VirtualTime) -> Duration {
        let lat = if same_node {
            LATENCY.mul_f64(INTRA_NODE_DISCOUNT)
        } else {
            LATENCY
        };
        let transfer = Duration::from_nanos(ceil_to_u64(bytes as f64 / BANDWIDTH_BYTES_PER_NS));
        (lat + transfer).mul_f64(self.factor_at(t))
    }

    /// Time for a collective of `op` over `procs` processes, each
    /// contributing `bytes` bytes, starting at `t` (the time the last rank
    /// arrives).
    pub fn collective_cost(
        &self,
        op: CollectiveOp,
        procs: usize,
        bytes: u64,
        t: VirtualTime,
    ) -> Duration {
        let p = procs.max(1) as f64;
        let log_p = p.log2().ceil().max(1.0);
        let lat = LATENCY.as_nanos() as f64;
        let per_byte = 1.0 / BANDWIDTH_BYTES_PER_NS;
        let b = bytes as f64;
        let ns = match op {
            // Dissemination barrier: ceil(log2 P) rounds of small messages.
            CollectiveOp::Barrier => log_p * lat,
            // Binomial tree broadcast.
            CollectiveOp::Bcast => log_p * (lat + b * per_byte),
            // Reduce/allreduce: tree up (+ tree down for allreduce).
            CollectiveOp::Reduce => log_p * (lat + b * per_byte),
            CollectiveOp::Allreduce => 2.0 * log_p * (lat + b * per_byte),
            // Allgather: ring, P-1 steps of the per-rank block.
            CollectiveOp::Allgather => (p - 1.0) * (lat + b * per_byte),
            // All-to-all: every rank exchanges a distinct block with every
            // other rank; linear in P and the dominant term for FT.
            CollectiveOp::Alltoall => (p - 1.0) * (lat + b * per_byte),
        };
        Duration::from_nanos(round_to_u64(ns)).mul_f64(self.factor_at(t))
    }
}

/// Collective operations with distinct cost shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// Synchronization only.
    Barrier,
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
    /// Reduction + broadcast.
    Allreduce,
    /// All-to-all gather of equal blocks.
    Allgather,
    /// Personalized all-to-all exchange (FT's transpose).
    Alltoall,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_scales_with_bytes() {
        let n = NetworkConfig::default();
        let small = n.p2p_cost(1_000, false, VirtualTime::ZERO);
        let large = n.p2p_cost(1_000_000, false, VirtualTime::ZERO);
        assert!(large > small);
        // 1 MB at 10 B/ns = 100 us plus 1 us latency.
        assert_eq!(large.as_micros(), 101);
    }

    #[test]
    fn intra_node_is_cheaper() {
        let n = NetworkConfig::default();
        assert!(n.p2p_cost(0, true, VirtualTime::ZERO) < n.p2p_cost(0, false, VirtualTime::ZERO));
    }

    #[test]
    fn degradation_window_inflates_costs_only_inside() {
        let n = NetworkConfig::default().with_degradation(
            VirtualTime::from_secs(16),
            VirtualTime::from_secs(67),
            8.0,
        );
        let before = n.p2p_cost(10_000, false, VirtualTime::from_secs(1));
        let during = n.p2p_cost(10_000, false, VirtualTime::from_secs(30));
        let after = n.p2p_cost(10_000, false, VirtualTime::from_secs(70));
        assert_eq!(before, after);
        assert_eq!(during.as_nanos(), before.as_nanos() * 8);
    }

    #[test]
    fn alltoall_grows_linearly_with_procs() {
        let n = NetworkConfig::default();
        let c64 = n.collective_cost(CollectiveOp::Alltoall, 64, 4096, VirtualTime::ZERO);
        let c128 = n.collective_cost(CollectiveOp::Alltoall, 128, 4096, VirtualTime::ZERO);
        let ratio = c128.as_nanos() as f64 / c64.as_nanos() as f64;
        assert!((ratio - 127.0 / 63.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let n = NetworkConfig::default();
        let b256 = n.collective_cost(CollectiveOp::Barrier, 256, 0, VirtualTime::ZERO);
        let b65536 = n.collective_cost(CollectiveOp::Barrier, 65_536, 0, VirtualTime::ZERO);
        assert_eq!(b65536.as_nanos(), b256.as_nanos() * 2); // log 16 vs log 8
    }

    #[test]
    fn allreduce_costs_twice_reduce() {
        let n = NetworkConfig::default();
        let r = n.collective_cost(CollectiveOp::Reduce, 128, 1024, VirtualTime::ZERO);
        let ar = n.collective_cost(CollectiveOp::Allreduce, 128, 1024, VirtualTime::ZERO);
        assert_eq!(ar.as_nanos(), r.as_nanos() * 2);
    }

    #[test]
    fn single_proc_collective_is_cheap_but_defined() {
        let n = NetworkConfig::default();
        let c = n.collective_cost(CollectiveOp::Alltoall, 1, 1 << 20, VirtualTime::ZERO);
        assert_eq!(c, Duration::ZERO);
        let b = n.collective_cost(CollectiveOp::Barrier, 1, 0, VirtualTime::ZERO);
        assert!(b.as_nanos() > 0); // log term clamps to 1
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn speedup_degradation_rejected() {
        let _ = NetworkConfig::default().with_degradation(
            VirtualTime::ZERO,
            VirtualTime::from_secs(1),
            0.5,
        );
    }
}
