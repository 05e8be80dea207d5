//! Fixed-work-quanta (FWQ) external benchmarking.
//!
//! The classic way to sense system noise: run a fixed quantum of work in a
//! loop and watch its elapsed time. vSensor's whole premise is that
//! programs *contain* such quanta already; the external version implemented
//! here works, but is **intrusive** — the probe itself consumes the
//! resources it measures, perturbing the co-running application (§1's
//! critique of the benchmark approach). [`FwqProbe::interference`] models
//! that intrusiveness explicitly so experiments can quantify it.

use cluster_sim::node::Work;
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::{Cluster, SlowdownWindow};

/// One FWQ measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FwqSample {
    /// When the quantum started.
    pub at: VirtualTime,
    /// Measured elapsed time.
    pub elapsed: Duration,
}

/// An external fixed-work-quanta probe running on one node.
#[derive(Clone, Debug)]
pub struct FwqProbe {
    /// Node under test.
    pub node: usize,
    /// Work per quantum.
    pub quantum: Work,
    /// Time between quantum starts.
    pub period: Duration,
}

impl FwqProbe {
    /// Sample the node's performance over `[start, end)`.
    ///
    /// Runs a quantum every `period`, using a rank on the target node. A
    /// node that hosts no rank has nothing to run the quantum on, and
    /// yields no samples.
    pub fn sample(
        &self,
        cluster: &Cluster,
        start: VirtualTime,
        end: VirtualTime,
    ) -> Vec<FwqSample> {
        let Some(rank) = cluster.topology().ranks_on(self.node).next() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = start;
        let mut key = 0xF90u64;
        while t < end {
            key += 1;
            let elapsed = cluster.compute_elapsed(rank, t, self.quantum, 0.0, key);
            out.push(FwqSample { at: t, elapsed });
            t += self.period.max(elapsed);
        }
        out
    }

    /// Fraction of the node's capacity the probe consumes — its
    /// intrusiveness. A quantum of `q` time per `period` steals roughly
    /// `q / period` of one core.
    pub fn duty_cycle(&self) -> f64 {
        let q = self.quantum.total() as f64; // ~ns on a healthy node
        let p = self.period.as_nanos().max(1) as f64;
        (q / p).min(1.0)
    }

    /// The slowdown window this probe imposes on the co-running
    /// application while active — inject it into the cluster config to
    /// model the interference honestly.
    pub fn interference(&self, start: VirtualTime, end: VirtualTime) -> SlowdownWindow {
        // Stealing a duty-cycle fraction d of a core slows co-runners by
        // ~1/(1-d) when the node is fully subscribed.
        let d = self.duty_cycle().min(0.5);
        SlowdownWindow::on_nodes(start, end, 1.0 / (1.0 - d), vec![self.node])
    }

    /// Detect variance from samples: indices whose elapsed time exceeds
    /// `threshold ×` the fastest sample.
    pub fn detect(samples: &[FwqSample], threshold: f64) -> Vec<usize> {
        let Some(min) = samples.iter().map(|s| s.elapsed.as_nanos()).min() else {
            return Vec::new();
        };
        samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.elapsed.as_nanos() as f64 > min as f64 * threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ClusterConfig;

    fn probe() -> FwqProbe {
        FwqProbe {
            node: 0,
            quantum: Work::cpu(10_000),
            period: Duration::from_micros(100),
        }
    }

    #[test]
    fn quiet_cluster_shows_no_variance() {
        let cluster = ClusterConfig::quiet(4).build();
        let samples = probe().sample(&cluster, VirtualTime::ZERO, VirtualTime::from_millis(10));
        assert!(samples.len() > 50);
        assert!(FwqProbe::detect(&samples, 1.5).is_empty());
    }

    #[test]
    fn injected_window_is_detected() {
        let cluster = ClusterConfig::quiet(4)
            .with_injection(SlowdownWindow::on_nodes(
                VirtualTime::from_millis(5),
                VirtualTime::from_millis(8),
                3.0,
                vec![0],
            ))
            .build();
        let samples = probe().sample(&cluster, VirtualTime::ZERO, VirtualTime::from_millis(10));
        let hits = FwqProbe::detect(&samples, 1.5);
        assert!(!hits.is_empty());
        // Hits cluster inside the window.
        for &i in &hits {
            let t = samples[i].at;
            assert!(
                t >= VirtualTime::from_millis(4) && t < VirtualTime::from_millis(8),
                "hit at {t}"
            );
        }
    }

    #[test]
    fn intrusiveness_grows_with_duty_cycle() {
        let light = FwqProbe {
            period: Duration::from_millis(1),
            ..probe()
        };
        let heavy = FwqProbe {
            period: Duration::from_micros(20),
            ..probe()
        };
        assert!(heavy.duty_cycle() > light.duty_cycle());
        let li = light.interference(VirtualTime::ZERO, VirtualTime::from_secs(1));
        let hi = heavy.interference(VirtualTime::ZERO, VirtualTime::from_secs(1));
        assert!(hi.factor > li.factor);
        assert!(li.factor >= 1.0);
    }

    #[test]
    fn a_node_without_ranks_yields_no_samples() {
        // Four ranks all fit on node 0: node 1 hosts none.
        let cluster = ClusterConfig::quiet(4).build();
        assert_eq!(cluster.topology().ranks_on(1).len(), 0);
        let empty = FwqProbe { node: 1, ..probe() };
        let samples = empty.sample(&cluster, VirtualTime::ZERO, VirtualTime::from_millis(10));
        assert!(samples.is_empty());
    }

    #[test]
    fn detect_handles_empty() {
        assert!(FwqProbe::detect(&[], 1.5).is_empty());
    }
}
