//! Collective operations.
//!
//! One rendezvous slot synchronizes all ranks of the world. Each rank
//! enters with its virtual clock (and an optional scalar contribution); the
//! slot keeps a running `max(entries)` and sum, and once every alive rank
//! has entered, [`CollectiveSlot::try_complete`] computes the common exit
//! time `max(entries) + cost(op, procs, bytes)` and the reduced value.
//! Every reduction is a sum. MPI requires all ranks to call collectives in
//! the same order, which is what makes one slot sufficient; the slot
//! checks that the op/byte arguments of all ranks agree and reports
//! disagreement as a typed [`CollectiveError::Mismatch`].
//!
//! The slot is plain data owned by the scheduler: ranks latch their entry
//! while they run, and the control thread registers it when it commits the
//! yield (see [`crate::sched`]).
//!
//! Fail-stop deaths shrink the membership: a collective completes once
//! every *alive* rank has entered (ULFM-style), charging the plan's
//! death-detection timeout on top of the normal cost whenever ranks are
//! missing, and reporting how many were missing in the result. Survivors
//! therefore keep making progress — and keep emitting telemetry — after a
//! peer dies, which is exactly what lets the analysis side localize the
//! death.

use cluster_sim::network::CollectiveOp;
use cluster_sim::time::VirtualTime;
use cluster_sim::Cluster;
use std::fmt;

use crate::death::DeathBoard;

/// What one rank passes into a collective.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveEntry {
    /// The operation; must agree across ranks.
    pub op: CollectiveOp,
    /// Per-rank byte count; must agree across ranks.
    pub bytes: u64,
    /// Caller's virtual clock on entry.
    pub at: VirtualTime,
    /// Scalar contribution (summed by reductions; the payload of bcast).
    pub value: i64,
    /// Whether this rank's `value` is the broadcast payload (root).
    pub is_root: bool,
}

/// Why a collective could not complete normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// Ranks disagreed on the operation or byte count.
    Mismatch {
        /// Operation the first arriver declared.
        expected_op: CollectiveOp,
        /// Operation the disagreeing rank passed.
        got_op: CollectiveOp,
        /// Byte count the first arriver declared.
        expected_bytes: u64,
        /// Byte count the disagreeing rank passed.
        got_bytes: u64,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CollectiveError::Mismatch {
            expected_op,
            got_op,
            expected_bytes,
            got_bytes,
        } = self;
        write!(
            f,
            "collective mismatch: ranks disagree ({expected_op:?}/{expected_bytes}B vs \
             {got_op:?}/{got_bytes}B)"
        )
    }
}

impl std::error::Error for CollectiveError {}

/// The rendezvous state of the world's collectives.
#[derive(Debug)]
pub struct CollectiveSlot {
    /// World size: the membership before any death.
    procs: usize,
    arrived: usize,
    /// The open rendezvous' operation, set by its first arriver (stale
    /// while `arrived == 0`).
    op: CollectiveOp,
    bytes: u64,
    max_entry: VirtualTime,
    /// Running sum of the contributions.
    acc: i64,
    bcast_val: i64,
}

/// A completed collective: common exit time plus the combined value
/// (reduction result, or the root's payload for bcast).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveResult {
    /// Virtual instant every rank leaves the collective.
    pub exit: VirtualTime,
    /// Combined scalar value.
    pub value: i64,
    /// Members that were dead and did not participate (0 for a full
    /// rendezvous). Their contributions are simply absent from `value`.
    pub missing: u32,
}

impl CollectiveSlot {
    /// Create a slot for a world of `procs` ranks.
    pub fn new(procs: usize) -> Self {
        CollectiveSlot {
            procs,
            arrived: 0,
            op: CollectiveOp::Barrier,
            bytes: 0,
            max_entry: VirtualTime::ZERO,
            acc: 0,
            bcast_val: 0,
        }
    }

    /// Ranks still alive, read off the death board's count: O(1), however
    /// many ranks have died.
    fn alive_now(&self, board: &DeathBoard) -> usize {
        self.procs.saturating_sub(board.deaths()).max(1)
    }

    /// Register one member's arrival in the open rendezvous. Never
    /// completes it — the control plane runs [`Self::try_complete`] once
    /// the whole dispatch phase has committed, so every same-instant member
    /// is registered before any release is computed.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Mismatch`] if this rank disagrees with the first
    /// arriver on the operation or byte count; the slot is left unchanged.
    pub fn register(&mut self, entry: CollectiveEntry) -> Result<(), CollectiveError> {
        if self.arrived == 0 {
            self.op = entry.op;
            self.bytes = entry.bytes;
            self.acc = 0;
            self.max_entry = VirtualTime::ZERO;
        } else if self.op != entry.op || self.bytes != entry.bytes {
            return Err(CollectiveError::Mismatch {
                expected_op: self.op,
                got_op: entry.op,
                expected_bytes: self.bytes,
                got_bytes: entry.bytes,
            });
        }
        self.arrived += 1;
        self.max_entry = self.max_entry.max(entry.at);
        self.acc = self.acc.wrapping_add(entry.value);
        if entry.is_root {
            self.bcast_val = entry.value;
        }
        Ok(())
    }

    /// Completion check: if the open rendezvous now has every *alive*
    /// member registered, complete it and return the result. Ranks blocked
    /// inside a collective cannot die (deaths fire from a rank's own code),
    /// so every arrival is from a live member: arrived == alive ⇒ all
    /// alive members are in, and the rendezvous — possibly shrunk —
    /// completes. The check is O(1): a compare against the death count.
    pub fn try_complete(
        &mut self,
        cluster: &Cluster,
        board: &DeathBoard,
    ) -> Option<CollectiveResult> {
        if self.arrived == 0 || self.arrived < self.alive_now(board) {
            return None;
        }
        let missing = (self.procs - self.arrived) as u32;
        let mut cost = cluster.collective_cost(self.op, self.arrived, self.bytes, self.max_entry);
        if missing > 0 {
            cost += cluster.faults().death_timeout();
        }
        self.arrived = 0;
        Some(CollectiveResult {
            exit: self.max_entry + cost,
            value: match self.op {
                CollectiveOp::Bcast => self.bcast_val,
                _ => self.acc,
            },
            missing,
        })
    }

    /// `(operation, arrived, required)` of the open rendezvous, for the
    /// scheduler's deadlock report.
    pub(crate) fn progress(&self, board: &DeathBoard) -> (CollectiveOp, usize, usize) {
        (self.op, self.arrived, self.alive_now(board))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ClusterConfig;

    fn entry(op: CollectiveOp, at_ns: u64, value: i64) -> CollectiveEntry {
        CollectiveEntry {
            op,
            bytes: 0,
            at: VirtualTime(at_ns),
            value,
            is_root: false,
        }
    }

    /// Register `entries` on a fresh `procs`-member slot and complete it.
    fn run_collective(
        procs: usize,
        entries: Vec<CollectiveEntry>,
        board: &DeathBoard,
    ) -> Option<CollectiveResult> {
        let cluster = ClusterConfig::quiet(procs).build();
        let mut slot = CollectiveSlot::new(procs);
        for e in entries {
            slot.register(e).expect("entries agree");
        }
        slot.try_complete(&cluster, board)
    }

    #[test]
    fn barrier_synchronizes_to_max_plus_cost() {
        let r = run_collective(
            4,
            (0..4)
                .map(|i| entry(CollectiveOp::Barrier, (i as u64 + 1) * 1000, 0))
                .collect(),
            &DeathBoard::new(4),
        )
        .expect("all four arrived");
        assert!(r.exit > VirtualTime(4000), "exit after last entry");
        assert_eq!(r.missing, 0);
    }

    #[test]
    fn incomplete_rendezvous_stays_open() {
        let partial = (0..3)
            .map(|i| entry(CollectiveOp::Allreduce, 0, i))
            .collect();
        assert_eq!(run_collective(4, partial, &DeathBoard::new(4)), None);
    }

    #[test]
    fn allreduce_sums_contributions() {
        let entries = [2i64, 9, 4]
            .iter()
            .map(|&v| entry(CollectiveOp::Allreduce, 0, v))
            .collect();
        let r = run_collective(3, entries, &DeathBoard::new(3)).unwrap();
        assert_eq!(r.value, 15);
    }

    #[test]
    fn bcast_delivers_root_value() {
        let mut entries: Vec<CollectiveEntry> =
            (0..4).map(|_| entry(CollectiveOp::Bcast, 0, -1)).collect();
        entries[2].value = 42;
        entries[2].is_root = true;
        let r = run_collective(4, entries, &DeathBoard::new(4)).unwrap();
        assert_eq!(r.value, 42);
    }

    #[test]
    fn slot_is_reusable_across_rounds() {
        let procs = 3;
        let cluster = ClusterConfig::quiet(procs).build();
        let board = DeathBoard::new(procs);
        let mut slot = CollectiveSlot::new(procs);
        for round in 0..10i64 {
            for r in 0..procs as i64 {
                assert_eq!(slot.try_complete(&cluster, &board), None);
                slot.register(entry(CollectiveOp::Allreduce, 0, r + round))
                    .unwrap();
            }
            let expect: i64 = (0..procs as i64).map(|r| r + round).sum();
            assert_eq!(slot.try_complete(&cluster, &board).unwrap().value, expect);
        }
    }

    #[test]
    fn dead_member_shrinks_the_rendezvous() {
        let mut board = DeathBoard::new(4);
        board.mark_dead(3);
        let survivors = || {
            (0..3)
                .map(|i| entry(CollectiveOp::Allreduce, 1000, 10 + i))
                .collect()
        };
        let r = run_collective(4, survivors(), &board).expect("shrunk collective completes");
        assert_eq!(r.missing, 1, "one dead member absent");
        assert_eq!(r.value, 33, "dead member contributes nothing");
        // The shrunk rendezvous pays the death-detection timeout on top of
        // the normal cost, so it exits later than a healthy 3-rank one.
        let healthy = run_collective(3, survivors(), &DeathBoard::new(3)).unwrap();
        assert!(r.exit > healthy.exit);
    }

    #[test]
    fn death_after_arrivals_completes_the_open_rendezvous() {
        // Ranks 0 and 1 enter; rank 2 dies *after* they are registered.
        // The next completion check folds the death in and releases them.
        let cluster = ClusterConfig::quiet(3).build();
        let mut board = DeathBoard::new(3);
        let mut slot = CollectiveSlot::new(3);
        for i in 0..2 {
            slot.register(entry(CollectiveOp::Barrier, 500, i)).unwrap();
        }
        assert_eq!(slot.try_complete(&cluster, &board), None);
        board.mark_dead(2);
        assert_eq!(slot.try_complete(&cluster, &board).unwrap().missing, 1);
    }

    #[test]
    fn mismatch_is_a_typed_error_naming_both_sides() {
        let mut slot = CollectiveSlot::new(3);
        slot.register(entry(CollectiveOp::Barrier, 0, 0)).unwrap();
        let err = slot
            .register(CollectiveEntry {
                bytes: 8,
                ..entry(CollectiveOp::Allreduce, 0, 0)
            })
            .unwrap_err();
        assert_eq!(
            err,
            CollectiveError::Mismatch {
                expected_op: CollectiveOp::Barrier,
                got_op: CollectiveOp::Allreduce,
                expected_bytes: 0,
                got_bytes: 8,
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("Barrier") && msg.contains("Allreduce"),
            "{msg}"
        );
    }
}
