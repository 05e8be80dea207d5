//! Sub-communicators (`MPI_Comm_split`).
//!
//! Codes like FT perform transposes inside row/column communicators.
//! `split(color)` is a collective over the world: every rank contributes a
//! color, ranks sharing a color form a new [`Comm`] with dense local
//! indices in world-rank order. Collectives on a sub-communicator
//! synchronize only its members and use the member count in the cost
//! model. Communicator IDs are assigned deterministically (same split
//! sequence → same IDs on every rank), so repeated splits are safe.

use cluster_sim::network::CollectiveOp;
use cluster_sim::time::VirtualTime;

/// A communicator: a subset of world ranks with local indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    /// World-unique communicator ID.
    pub(crate) id: u64,
    /// Member world ranks, ascending.
    pub(crate) members: Vec<usize>,
    /// This rank's index within `members`.
    pub(crate) my_index: usize,
}

impl Comm {
    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Translate a communicator-local index to a world rank.
    pub fn world_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    /// The member world ranks.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// World-unique communicator ID.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Rendezvous state of `split`: plain data owned by the scheduler, like
/// the collective slots of the communicators it creates.
#[derive(Debug)]
pub(crate) struct SplitSlot {
    arrived: usize,
    /// Color by world rank for the open rendezvous.
    colors: Vec<i64>,
    max_entry: VirtualTime,
    next_comm_id: u64,
}

/// A completed split: the common exit instant and the new communicators as
/// `(id, members)`, ascending by color.
pub(crate) type SplitResult = (VirtualTime, Vec<(u64, Vec<usize>)>);

impl SplitSlot {
    pub(crate) fn new(procs: usize) -> Self {
        SplitSlot {
            arrived: 0,
            colors: vec![0; procs],
            max_entry: VirtualTime::ZERO,
            // ID 0 is reserved for the world communicator.
            next_comm_id: 1,
        }
    }

    /// Register `rank`'s arrival. Like a collective, never completes
    /// inline: the control plane runs [`Self::try_complete`] after the
    /// dispatch phase has committed.
    pub(crate) fn register(&mut self, rank: usize, color: i64, at: VirtualTime) {
        if self.arrived == 0 {
            self.max_entry = VirtualTime::ZERO;
        }
        self.colors[rank] = color;
        self.arrived += 1;
        self.max_entry = self.max_entry.max(at);
    }

    /// Completes when every rank has registered (split is documented as
    /// pre-death-only, so the requirement is the full world): groups the
    /// ranks by color and advances the ID space by the number of distinct
    /// colors.
    pub(crate) fn try_complete(&mut self, cluster: &cluster_sim::Cluster) -> Option<SplitResult> {
        let procs = self.colors.len();
        if self.arrived < procs.max(1) {
            return None;
        }
        let cost = cluster.collective_cost(CollectiveOp::Barrier, procs, 0, self.max_entry);
        let mut by_color: Vec<(i64, usize)> = self.colors.iter().copied().zip(0..).collect();
        by_color.sort_unstable();
        let mut comms: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, &(color, rank)) in by_color.iter().enumerate() {
            if i == 0 || by_color[i - 1].0 != color {
                comms.push((self.next_comm_id + comms.len() as u64, Vec::new()));
            }
            comms.last_mut().expect("pushed above").1.push(rank);
        }
        self.next_comm_id += comms.len() as u64;
        self.arrived = 0;
        Some((self.max_entry + cost, comms))
    }

    /// `(arrived, required)` for the scheduler's deadlock report.
    pub(crate) fn progress(&self) -> (usize, usize) {
        (self.arrived, self.colors.len())
    }
}

#[cfg(test)]
mod tests {
    use crate::{ReduceOp, World};
    use cluster_sim::ClusterConfig;
    use std::sync::Arc;

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    #[test]
    fn split_forms_expected_groups() {
        let w = quiet_world(6);
        let infos = w.hosted(|mut h| {
            let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
            (comm.size(), comm.rank(), comm.members().to_vec())
        });
        // Even ranks form {0,2,4}, odd {1,3,5}.
        assert_eq!(infos[0], (3, 0, vec![0, 2, 4]));
        assert_eq!(infos[2], (3, 1, vec![0, 2, 4]));
        assert_eq!(infos[1], (3, 0, vec![1, 3, 5]));
        assert_eq!(infos[5], (3, 2, vec![1, 3, 5]));
    }

    #[test]
    fn subcomm_allreduce_sums_only_members() {
        let w = quiet_world(6);
        let sums = w.hosted(|mut h| {
            let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
            h.wait(|p| p.comm_allreduce(&comm, 8, p.rank() as i64, ReduceOp::Sum))
        });
        assert_eq!(sums, vec![6, 9, 6, 9, 6, 9]); // 0+2+4 and 1+3+5
    }

    #[test]
    fn subcomm_barrier_synchronizes_members_only() {
        let w = quiet_world(4);
        let ends = w.hosted(|mut h| {
            let comm = h.wait(|p| p.split((p.rank() / 2) as i64));
            // One member of each group computes longer.
            if h.rank() % 2 == 0 {
                h.compute(cluster_sim::node::Work::cpu(100_000), 0.0);
            }
            h.wait(|p| p.comm_barrier(&comm));
            h.now()
        });
        assert_eq!(ends[0], ends[1], "group {{0,1}} aligned");
        assert_eq!(ends[2], ends[3], "group {{2,3}} aligned");
    }

    #[test]
    fn repeated_splits_get_distinct_ids() {
        let w = quiet_world(4);
        let ids = w.hosted(|mut h| {
            let a = h.wait(|p| p.split(0)); // everyone together
            let b = h.wait(|p| p.split((p.rank() % 2) as i64));
            let c = h.wait(|p| p.split(0));
            (a.id(), b.id(), c.id())
        });
        // All ranks agree on each split's IDs, and IDs never repeat.
        assert!(ids.iter().all(|&(a, _, _)| a == ids[0].0));
        assert!(ids.iter().all(|&(_, _, c)| c == ids[0].2));
        assert_ne!(ids[0].0, ids[0].2);
        assert_ne!(ids[0].1, ids[1].1, "different colors → different comms");
    }

    #[test]
    fn subcomm_alltoall_uses_member_count() {
        // An alltoall over half the ranks must cost less than over all.
        let w = quiet_world(8);
        let t_sub = w.hosted(|mut h| {
            let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
            h.wait(|p| p.comm_alltoall(&comm, 1 << 16));
            h.now()
        });
        let w2 = quiet_world(8);
        let t_world = w2.hosted(|mut h| {
            h.wait(|p| p.alltoall(1 << 16));
            h.now()
        });
        assert!(t_sub[0] < t_world[0], "{} vs {}", t_sub[0], t_world[0]);
    }

    #[test]
    fn fts_row_column_transpose_pattern() {
        // The FT pattern: a 2D grid of ranks, alltoall within rows, then
        // within columns.
        let w = quiet_world(4); // 2x2 grid
        let ends = w.hosted(|mut h| {
            let row = h.wait(|p| p.split((p.rank() / 2) as i64));
            let col = h.wait(|p| p.split((p.rank() % 2) as i64));
            for _ in 0..10 {
                h.wait(|p| p.comm_alltoall(&row, 4096));
                h.compute(cluster_sim::node::Work::cpu(5_000), 0.0);
                h.wait(|p| p.comm_alltoall(&col, 4096));
            }
            h.now()
        });
        assert!(ends.iter().all(|e| e.as_nanos() > 0));
    }
}
