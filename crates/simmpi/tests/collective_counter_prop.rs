//! Property test: the counter-based collective completion must be
//! bitwise-equivalent to a scan over the membership.
//!
//! The event scheduler's O(1) completion check reads the alive count off
//! the death board's death count instead of rescanning the ranks on every
//! arrival (see `CollectiveSlot::alive_now`). This test drives a slot
//! through random interleavings of arrivals and rank deaths — shrinking
//! the membership mid-rendezvous and across generations — against a
//! deliberately naive oracle that rescans everything after every step,
//! and demands the exit instants, reduced values, and missing counts agree
//! bit-for-bit.

use cluster_sim::network::CollectiveOp;
use cluster_sim::time::VirtualTime;
use cluster_sim::{Cluster, ClusterConfig};
use proptest::prelude::*;
use simmpi::collectives::{CollectiveEntry, CollectiveResult, CollectiveSlot};
use simmpi::death::DeathBoard;

/// The scan-style model the counters replaced: full per-step state, no
/// incremental bookkeeping anywhere.
struct ScanOracle {
    dead: Vec<bool>,
    /// `(at, value)` for every arrival of the open generation, in order.
    arrivals: Vec<(VirtualTime, i64)>,
    arrived: Vec<bool>,
    op: CollectiveOp,
    bytes: u64,
}

impl ScanOracle {
    fn new(n: usize, op: CollectiveOp, bytes: u64) -> Self {
        ScanOracle {
            dead: vec![false; n],
            arrivals: Vec::new(),
            arrived: vec![false; n],
            op,
            bytes,
        }
    }

    fn alive_count(&self) -> usize {
        // The scan the counter replaced: walk every rank.
        self.dead.iter().filter(|&&d| !d).count().max(1)
    }

    fn try_complete(&mut self, cluster: &Cluster) -> Option<CollectiveResult> {
        if self.arrivals.is_empty() || self.arrivals.len() < self.alive_count() {
            return None;
        }
        let max_entry = self
            .arrivals
            .iter()
            .map(|&(at, _)| at)
            .fold(VirtualTime::ZERO, VirtualTime::max);
        let value = (self.arrivals.iter()).fold(0i64, |acc, &(_, v)| acc.wrapping_add(v));
        let missing = (self.dead.len() - self.arrivals.len()) as u32;
        let mut cost = cluster.collective_cost(self.op, self.arrivals.len(), self.bytes, max_entry);
        if missing > 0 {
            cost += cluster_sim::fault::DEATH_TIMEOUT;
        }
        let exit = max_entry + cost;
        self.arrivals.clear();
        self.arrived.iter_mut().for_each(|a| *a = false);
        Some(CollectiveResult {
            exit,
            value,
            missing,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counter_completion_matches_scan_oracle(
        n in 2usize..12,
        steps in proptest::collection::vec(
            // (rank selector, action selector, entry instant µs, contribution)
            (0usize..64, 0u8..5, 0u64..100_000, -1000i64..1000),
            1..60,
        ),
    ) {
        let cluster = ClusterConfig::quiet(n).build();
        let mut board = DeathBoard::new(n);
        let mut slot = CollectiveSlot::new(n);
        let op = CollectiveOp::Allreduce;
        let bytes = 256;
        let mut oracle = ScanOracle::new(n, op, bytes);

        for (i, &(rank_sel, action, at_us, value)) in steps.iter().enumerate() {
            let rank = rank_sel % n;
            if action == 4 {
                // Death. The runtime invariant: a rank blocked inside a
                // collective cannot die (deaths fire at op entry), so
                // skip deaths of already-arrived ranks.
                if !oracle.dead[rank] && !oracle.arrived[rank] {
                    board.mark_dead(rank);
                    oracle.dead[rank] = true;
                }
            } else {
                // Arrival: alive ranks only, once per generation.
                if !oracle.dead[rank] && !oracle.arrived[rank] {
                    let entry = CollectiveEntry {
                        op,
                        bytes,
                        at: VirtualTime::from_micros(at_us),
                        value,
                        is_root: false,
                    };
                    slot.register(entry).expect("no mismatch generated");
                    oracle.arrived[rank] = true;
                    oracle.arrivals.push((entry.at, value));
                }
            }
            // The control plane runs its completion check after every
            // step; both sides must agree on *whether* the rendezvous
            // completes and on every field of the result.
            let counter = slot.try_complete(&cluster, &board);
            let scanned = oracle.try_complete(&cluster);
            match (&counter, &scanned) {
                (Some(c), Some(s)) => {
                    prop_assert_eq!(c.exit, s.exit);
                    prop_assert_eq!(c.value, s.value);
                    prop_assert_eq!(c.missing, s.missing);
                }
                (None, None) => {}
                _ => prop_assert!(
                    false,
                    "completion disagreement at step {}: counter={:?} scan={:?}",
                    i, counter, scanned
                ),
            }
        }
    }
}
