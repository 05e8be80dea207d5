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
        let comms: Vec<(u64, Vec<usize>)> = by_color
            .chunk_by(|a, b| a.0 == b.0)
            .zip(self.next_comm_id..)
            .map(|(group, id)| (id, group.iter().map(|&(_, rank)| rank).collect()))
            .collect();
        self.next_comm_id += comms.len() as u64;
        self.arrived = 0;
        Some((self.max_entry + cost, comms))
    }

    /// `(arrived, required)` for the scheduler's deadlock report.
    pub(crate) fn progress(&self) -> (usize, usize) {
        (self.arrived, self.colors.len())
    }
}
