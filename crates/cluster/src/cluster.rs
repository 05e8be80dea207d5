//! Cluster facade.
//!
//! Bundles nodes, topology, noise model, network model and PMU into a single
//! shared object the MPI simulator and interpreter query for timing. All
//! methods take explicit virtual-time arguments, so a `Cluster` is immutable
//! and can be shared across worker threads with an `Arc` without locking.

use crate::fault::FaultPlan;
use crate::network::{CollectiveOp, NetworkConfig};
use crate::node::{NodeSpec, Work};
use crate::noise::{NoiseConfig, NoiseModel, SlowdownWindow};
use crate::pmu::{Pmu, PmuConfig};
use crate::time::{Duration, VirtualTime};
use crate::topology::Topology;

/// Builder-style configuration for a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Per-node overrides (node id, spec) — e.g. one bad node. Every other
    /// node is [`NodeSpec::healthy`].
    pub node_overrides: Vec<(usize, NodeSpec)>,
    /// Background OS noise.
    pub noise: NoiseConfig,
    /// Injected slowdown windows (noiser co-runners).
    pub injected: Vec<SlowdownWindow>,
    /// Network model.
    pub network: NetworkConfig,
    /// PMU model.
    pub pmu: PmuConfig,
    /// Fault plan for the telemetry path (rank → analysis server).
    pub faults: FaultPlan,
    /// Base of this run's trace-lane range: rank `r` traces on lane
    /// `trace_lane_base + r`. Zero for a solo run; multi-tenant drivers
    /// give each tenant a disjoint base so one timeline holds them all.
    pub trace_lane_base: u32,
}

impl ClusterConfig {
    /// A healthy cluster of `ranks` ranks with default parameters.
    pub fn healthy(ranks: usize) -> Self {
        ClusterConfig {
            ranks,
            ranks_per_node: 24,
            node_overrides: Vec::new(),
            noise: NoiseConfig::default(),
            injected: Vec::new(),
            network: NetworkConfig::default(),
            pmu: PmuConfig::default(),
            faults: FaultPlan::none(),
            trace_lane_base: 0,
        }
    }

    /// A perfectly quiet cluster (no noise, exact PMU) — for tests and
    /// overhead measurement.
    pub fn quiet(ranks: usize) -> Self {
        let mut c = Self::healthy(ranks);
        c.noise = NoiseConfig::quiet();
        c.pmu = PmuConfig::exact();
        c
    }

    /// Override one node's spec (builder style).
    pub fn with_node(mut self, node: usize, spec: NodeSpec) -> Self {
        self.node_overrides.push((node, spec));
        self
    }

    /// Inject a slowdown window (builder style).
    pub fn with_injection(mut self, w: SlowdownWindow) -> Self {
        self.injected.push(w);
        self
    }

    /// Replace the network config (builder style).
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Replace ranks-per-node (builder style).
    pub fn with_ranks_per_node(mut self, rpn: usize) -> Self {
        self.ranks_per_node = rpn;
        self
    }

    /// Replace the telemetry fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Move this run's trace events to a disjoint lane range (builder
    /// style); see [`ClusterConfig::trace_lane_base`].
    pub fn with_trace_lane_base(mut self, base: u32) -> Self {
        self.trace_lane_base = base;
        self
    }

    /// Finalize into an immutable [`Cluster`].
    pub fn build(self) -> Cluster {
        let topology = Topology::block(self.ranks, self.ranks_per_node);
        let mut nodes = vec![NodeSpec::healthy(); topology.node_count()];
        for (id, spec) in self.node_overrides {
            assert!(id < nodes.len(), "node override {id} out of range");
            nodes[id] = spec;
        }
        let deaths = self.faults.resolve_deaths(&topology);
        Cluster {
            noise: NoiseModel::new(self.noise, self.injected, nodes.len()),
            nodes,
            topology,
            network: self.network,
            pmu: Pmu::new(self.pmu),
            faults: self.faults,
            deaths,
            trace_lane_base: self.trace_lane_base,
        }
    }
}

/// An immutable simulated cluster; share with `Arc` across worker threads.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    topology: Topology,
    noise: NoiseModel,
    network: NetworkConfig,
    pmu: Pmu,
    faults: FaultPlan,
    /// Fault-plan deaths resolved against the topology, per rank.
    deaths: Vec<Option<VirtualTime>>,
    trace_lane_base: u32,
}

impl Cluster {
    /// Rank placement.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Network model.
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// PMU model.
    pub fn pmu(&self) -> Pmu {
        self.pmu
    }

    /// Noise model (exposed for baselines that need raw access).
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Telemetry-path fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Trace lane for `rank`'s events: `trace_lane_base + rank`. Tracing
    /// is pure observation, so the base never affects timing.
    pub fn trace_lane(&self, rank: usize) -> u32 {
        self.trace_lane_base + rank as u32
    }

    /// The virtual instant at which `rank` fail-stops, if the fault plan
    /// kills it (directly or via its node), else `None`.
    pub fn death_of(&self, rank: usize) -> Option<VirtualTime> {
        self.deaths.get(rank).copied().flatten()
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.topology.ranks()
    }

    /// Virtual time consumed by `rank` performing `work` starting at
    /// `start` with the given cache-miss rate. Integrates node factors and
    /// every noise source. `sample_key` decorrelates jitter; pass a
    /// per-rank running counter.
    pub fn compute_elapsed(
        &self,
        rank: usize,
        start: VirtualTime,
        work: Work,
        miss_rate: f64,
        sample_key: u64,
    ) -> Duration {
        let node = self.topology.node_of(rank);
        let base = self.nodes[node].base_elapsed(work, miss_rate);
        self.noise
            .stretch(node, start, base, sample_key ^ (rank as u64) << 20)
    }

    /// Cost of a point-to-point message between two ranks posted at `t`.
    pub fn p2p_cost(&self, from: usize, to: usize, bytes: u64, t: VirtualTime) -> Duration {
        self.network
            .p2p_cost(bytes, self.topology.same_node(from, to), t)
    }

    /// Cost of a collective across `procs` ranks entered (last) at `t`.
    pub fn collective_cost(
        &self,
        op: CollectiveOp,
        procs: usize,
        bytes: u64,
        t: VirtualTime,
    ) -> Duration {
        self.network.collective_cost(op, procs, bytes, t)
    }

    /// Cost of reading or writing `bytes` of file I/O at `t`.
    ///
    /// Modelled as a flat per-call latency plus a bandwidth term; parallel
    /// filesystems on big machines behave this way to first order.
    pub fn io_cost(&self, bytes: u64, t: VirtualTime) -> Duration {
        const IO_LATENCY_NS: u64 = 50_000; // 50 us per call
        const IO_BYTES_PER_NS: f64 = 1.0; // ~1 GB/s per process
        let d = Duration::from_nanos(IO_LATENCY_NS + (bytes as f64 / IO_BYTES_PER_NS) as u64);
        // I/O shares the interconnect on Tianhe-2-like systems; degradation
        // windows stretch it too.
        d.mul_f64(self.network.factor_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_applies_overrides() {
        let c = ClusterConfig::quiet(48)
            .with_node(1, NodeSpec::slow_memory(0.5))
            .build();
        // Ranks 0..24 on node 0 (healthy), 24..48 on node 1 (slow memory).
        let healthy = c.compute_elapsed(0, VirtualTime::ZERO, Work::mem(1000), 0.0, 0);
        let slow = c.compute_elapsed(24, VirtualTime::ZERO, Work::mem(1000), 0.0, 0);
        assert_eq!(healthy.as_nanos(), 1000);
        assert_eq!(slow.as_nanos(), 2000);
    }

    #[test]
    fn quiet_cluster_is_deterministic_and_exact() {
        let c = ClusterConfig::quiet(8).build();
        let d1 = c.compute_elapsed(3, VirtualTime::ZERO, Work::cpu(5000), 0.0, 1);
        let d2 = c.compute_elapsed(3, VirtualTime::from_secs(9), Work::cpu(5000), 0.0, 2);
        assert_eq!(d1.as_nanos(), 5000);
        assert_eq!(d2.as_nanos(), 5000);
    }

    #[test]
    fn injection_slows_only_target_nodes_during_window() {
        let c = ClusterConfig::quiet(48)
            .with_injection(SlowdownWindow::on_nodes(
                VirtualTime::from_secs(10),
                VirtualTime::from_secs(20),
                4.0,
                vec![0],
            ))
            .build();
        let w = Work::cpu(10_000);
        let inside_hit = c.compute_elapsed(0, VirtualTime::from_secs(15), w, 0.0, 0);
        let inside_other = c.compute_elapsed(24, VirtualTime::from_secs(15), w, 0.0, 0);
        let outside = c.compute_elapsed(0, VirtualTime::from_secs(25), w, 0.0, 0);
        assert_eq!(inside_hit.as_nanos(), 40_000);
        assert_eq!(inside_other.as_nanos(), 10_000);
        assert_eq!(outside.as_nanos(), 10_000);
    }

    #[test]
    fn io_cost_has_latency_floor() {
        let c = ClusterConfig::quiet(4).build();
        let tiny = c.io_cost(1, VirtualTime::ZERO);
        assert!(tiny.as_micros() >= 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_override_panics() {
        let _ = ClusterConfig::quiet(4)
            .with_node(99, NodeSpec::healthy())
            .build();
    }

    #[test]
    fn p2p_same_node_discount_applies() {
        let c = ClusterConfig::quiet(48).build();
        let same = c.p2p_cost(0, 1, 0, VirtualTime::ZERO);
        let cross = c.p2p_cost(0, 24, 0, VirtualTime::ZERO);
        assert!(same < cross);
    }
}
