//! The per-rank process handle.
//!
//! A [`Proc`] is what a rank's program code holds: it owns the rank's
//! virtual clock, forwards compute/communication requests to the shared
//! cluster model, and tallies [`crate::ProcStats`]. All MPI entry points
//! charge a small fixed software overhead, like real MPI library calls.

use crate::collectives::{CollectiveEntry, CollectiveResult};
use crate::death::DeathUnwind;
use crate::p2p::{Mailbox, Message, RecvInfo};
use crate::sched::Poll;
use crate::stats::ProcStats;
use cluster_sim::network::CollectiveOp;
use cluster_sim::node::Work;
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::trace::{self, Category, TraceEvent};
use cluster_sim::Cluster;
use std::sync::Arc;

/// Static trace-event name for a collective operation.
fn collective_name(op: CollectiveOp) -> &'static str {
    match op {
        CollectiveOp::Barrier => "barrier",
        CollectiveOp::Bcast => "bcast",
        CollectiveOp::Allreduce => "allreduce",
        CollectiveOp::Reduce => "reduce",
        CollectiveOp::Allgather => "allgather",
        CollectiveOp::Alltoall => "alltoall",
    }
}

/// Fixed software overhead charged on entry to every MPI call.
pub(crate) const MPI_CALL_OVERHEAD: Duration = Duration(120);

/// The operation a rank latched on its first (yielding) poll. Entry effects
/// on the rank itself (fail-stop gate, call overhead) already happened;
/// the scheduler reads the latch to register the wait when it commits the
/// yield, and retries only attempt completion.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendingOp {
    /// Blocked receive. The clock froze at post time (after the call
    /// overhead) when the op latched — the completion floor: the receive
    /// finishes at `max(posted, arrival)`.
    Recv {
        src: usize,
        tag: i64,
        start: VirtualTime,
    },
    /// Arrived at a world collective, waiting for the last arriver.
    Collective {
        start: VirtualTime,
        entry: CollectiveEntry,
    },
}

/// What the control thread hands a parked rank before resuming it, when
/// the rank cannot complete its wait from its own inbox.
#[derive(Debug)]
pub(crate) enum Wake {
    /// The collective it arrived at completed.
    Collective(CollectiveResult),
    /// The awaited peer fail-stopped with no match in flight: the receive
    /// completes degraded at this instant.
    PeerDead(VirtualTime),
}

/// A rank's communication state. During a resume the rank reads and writes
/// only this (and the rest of its own `Proc`); everything another rank can
/// observe moves through the control thread between resumes — it drains
/// `outbox` into the receivers' `inbox`es, registers a pending collective
/// with the world's rendezvous, and leaves the outcome in `wake`.
#[derive(Debug, Default)]
struct CommState {
    pending: Option<PendingOp>,
    /// `(dest, message)` of every send since the last yield.
    outbox: Vec<(usize, Message)>,
    inbox: Mailbox,
    wake: Option<Wake>,
}

/// One rank's execution context.
pub struct Proc {
    rank: usize,
    size: usize,
    clock: VirtualTime,
    stats: ProcStats,
    sample_counter: u64,
    /// Scheduled fail-stop instant from the fault plan, if any.
    death_at: Option<VirtualTime>,
    /// Boxed so the VM hot loop's cache lines carry one pointer, not the
    /// queues.
    comm: Box<CommState>,
    cluster: Arc<Cluster>,
}

impl Proc {
    pub(crate) fn new(rank: usize, size: usize, cluster: Arc<Cluster>) -> Self {
        Proc {
            rank,
            size,
            clock: VirtualTime::ZERO,
            stats: ProcStats::default(),
            sample_counter: 0,
            death_at: cluster.death_of(rank),
            comm: Box::default(),
            cluster,
        }
    }

    /// What this rank is blocked on, if anything.
    pub(crate) fn pending(&self) -> Option<PendingOp> {
        self.comm.pending
    }

    /// `(dest, message)` of every send since the last yield, for the
    /// scheduler to deliver.
    pub(crate) fn outbox(&mut self) -> &mut Vec<(usize, Message)> {
        &mut self.comm.outbox
    }

    /// This rank's incoming messages (the scheduler delivers into it and
    /// peeks arrivals through it).
    pub(crate) fn inbox(&mut self) -> &mut Mailbox {
        &mut self.comm.inbox
    }

    /// Leave the outcome of this rank's wait for its next resume.
    pub(crate) fn wake(&mut self, wake: Wake) {
        self.comm.wake = Some(wake);
    }

    /// This rank's ID in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Trace lane this rank's events render on — the rank itself for a
    /// solo run, `lane_base + rank` when the cluster assigns a base.
    /// Computed on demand rather than cached in a field: `Proc` sits on
    /// the VM hot loop's cache lines and this is only read on
    /// trace-enabled paths and at harness setup.
    pub fn trace_lane(&self) -> u32 {
        self.cluster.trace_lane(self.rank)
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    /// The cluster model this rank runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Accounting so far.
    pub fn stats(&self) -> ProcStats {
        self.stats
    }

    /// Hostname-style identifier of the node hosting this rank (the
    /// `gethostname` analogue the rank-dependence analysis cares about).
    pub fn node_id(&self) -> usize {
        self.cluster.topology().node_of(self.rank)
    }

    fn next_key(&mut self) -> u64 {
        self.sample_counter += 1;
        self.sample_counter
    }

    /// Record a completed span from `start` to the current clock. Pure
    /// observation: tracing never advances the clock or touches stats, so
    /// the virtual timeline is bit-identical with tracing on or off.
    #[inline]
    fn trace_span(&self, cat: Category, name: &'static str, start: VirtualTime, a: u64, b: u64) {
        if trace::enabled(cat) {
            trace::record(TraceEvent::complete(
                cat,
                name,
                self.trace_lane(),
                0,
                start.as_nanos(),
                self.clock.since(start).as_nanos(),
                a,
                b,
            ));
        }
    }

    /// Fail-stop gate, called on entry to every operation that performs
    /// modelled work. The rank halts at the first operation boundary at or
    /// after its scheduled death instant; everything it did before is
    /// already published, so peers observe a clean prefix of its work.
    #[inline]
    fn failstop_check(&mut self) {
        if let Some(at) = self.death_at {
            if self.clock >= at {
                self.die(at);
            }
        }
    }

    /// Halt this rank: record the death and unwind with a [`DeathUnwind`]
    /// marker. The scheduler catches it where it resumed the rank, delivers
    /// the rank's pre-death sends and then marks it dead.
    fn die(&mut self, at: VirtualTime) -> ! {
        self.stats.died_at = Some(at);
        if trace::enabled(Category::MPI) {
            trace::record(TraceEvent::instant(
                Category::MPI,
                "death",
                self.trace_lane(),
                self.clock.as_nanos(),
                at.as_nanos(),
                0,
            ));
        }
        crate::death::silence_death_panics();
        std::panic::panic_any(DeathUnwind {
            rank: self.rank,
            at,
        });
    }

    /// Complete a receive whose peer fail-stopped: no message ever arrives,
    /// so the receive degrades to a timeout-shaped completion with a zeroed
    /// payload at `due` — `max(post, peer death) + DEATH_TIMEOUT`, computed
    /// by the scheduler that detected the death.
    fn degraded_recv(
        &mut self,
        start: VirtualTime,
        src: usize,
        tag: i64,
        due: VirtualTime,
    ) -> RecvInfo {
        self.clock = due;
        self.stats.mpi_time += self.clock - start;
        self.stats.peer_dead_recvs += 1;
        self.trace_span(Category::MPI, "recv_peer_dead", start, 0, src as u64);
        RecvInfo {
            src,
            tag,
            bytes: 0,
            value: 0,
            completed_at: self.clock,
        }
    }

    /// Death-gossip source: this rank monitors its ring buddy
    /// `(rank + 1) % size` and, when the buddy itself is dead, inherits
    /// the buddy's monitoring duty — so it is responsible for the whole
    /// contiguous run of dead ranks following it (a dead *node* kills
    /// adjacent ranks, whose mutual reporters die with them). Returns
    /// every detectable death in that segment, ring order, where
    /// "detectable" means silent for the plan's death timeout; for
    /// piggybacking on telemetry.
    pub fn death_notices_due(&self, now: VirtualTime) -> Vec<(usize, VirtualTime)> {
        let mut out = Vec::new();
        if self.size < 2 {
            return out;
        }
        let timeout = cluster_sim::fault::DEATH_TIMEOUT;
        let mut next = (self.rank + 1) % self.size;
        while next != self.rank {
            match self.cluster.death_of(next) {
                // A dead-but-not-yet-detectable buddy also blocks the
                // walk: this rank cannot know who lies beyond it yet.
                Some(death) if now >= death + timeout => {
                    out.push((next, death));
                    next = (next + 1) % self.size;
                }
                _ => break,
            }
        }
        out
    }

    /// Perform `work` with the given cache-miss rate; advances the clock by
    /// the noise-adjusted elapsed time and returns it.
    pub fn compute(&mut self, work: Work, miss_rate: f64) -> Duration {
        self.failstop_check();
        let key = self.next_key();
        let start = self.clock;
        let d = self
            .cluster
            .compute_elapsed(self.rank, self.clock, work, miss_rate, key);
        self.clock += d;
        self.stats.compute_time += d;
        self.stats.compute_segments += 1;
        self.trace_span(Category::COMPUTE, "compute", start, work.total(), 0);
        d
    }

    /// Advance the clock without doing modelled work (pure sleep). Used by
    /// instrumentation to charge probe overhead.
    pub fn advance(&mut self, d: Duration) {
        self.clock += d;
    }

    /// Blocking send of `bytes` with `tag` and scalar `value` to `dest`.
    pub fn send(&mut self, dest: usize, bytes: u64, tag: i64, value: i64) {
        assert!(dest < self.size, "send to rank {dest} out of range");
        self.failstop_check();
        let start = self.clock;
        self.clock += MPI_CALL_OVERHEAD;
        let cost = self.cluster.p2p_cost(self.rank, dest, bytes, self.clock);
        let msg = Message {
            src: self.rank,
            tag,
            bytes,
            arrives_at: self.clock + cost,
            value,
        };
        // Delivered by the scheduler when it commits this resume; the
        // message arrives strictly after the current phase instant, so no
        // same-phase receive could have taken it anyway.
        self.comm.outbox.push((dest, msg));
        // Eager send: sender proceeds after the injection overhead; the
        // transfer itself overlaps with whatever the sender does next.
        self.stats.mpi_time += self.clock - start;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.trace_span(Category::MPI, "send", start, bytes, dest as u64);
    }

    /// Blocking receive matching `(src, tag)`; wildcards in
    /// [`crate::p2p::ANY_SOURCE`] / [`crate::p2p::ANY_TAG`]. Completes at
    /// `max(post time, arrival time)`.
    ///
    /// A yield point: returns [`Poll::Pending`] until the matching message
    /// (or the peer's death) resolves the wait — re-call with the same
    /// arguments when resumed.
    ///
    /// The first call latches the entry effects (fail-stop gate, call
    /// overhead) and yields — a not-yet-resumed rank with an earlier clock
    /// could still send an earlier-arriving match, so completing greedily
    /// here would pick the wrong message. Retries take the best match from
    /// the inbox, or degrade if the scheduler reported the peer dead.
    pub fn recv(&mut self, src: usize, tag: i64) -> Poll<RecvInfo> {
        let start = match self.comm.pending {
            None => {
                self.failstop_check();
                let start = self.clock;
                self.clock += MPI_CALL_OVERHEAD;
                self.comm.pending = Some(PendingOp::Recv { src, tag, start });
                return Poll::Pending;
            }
            Some(PendingOp::Recv { start, .. }) => start,
            Some(other) => self.resumed_into_wrong_op(other),
        };
        if let Some(msg) = self.comm.inbox.take_matching(src, tag) {
            self.comm.pending = None;
            return Poll::Ready(self.finish_recv(start, msg));
        }
        if let Some(Wake::PeerDead(due)) = self.comm.wake.take() {
            self.comm.pending = None;
            return Poll::Ready(self.degraded_recv(start, src, tag, due));
        }
        Poll::Pending
    }

    fn resumed_into_wrong_op(&self, latched: PendingOp) -> ! {
        // Proof: a mismatched retry breaks the `RankTask` contract; the
        // scheduler reports it as the run's documented `rank N panicked`.
        panic!(
            "rank {}: resumed into a different op than it yielded on ({latched:?})",
            self.rank
        )
    }

    /// Receive completion: clock, stats, trace.
    fn finish_recv(&mut self, start: VirtualTime, msg: Message) -> RecvInfo {
        self.clock = self.clock.max(msg.arrives_at);
        self.stats.mpi_time += self.clock - start;
        self.stats.msgs_received += 1;
        self.trace_span(Category::MPI, "recv", start, msg.bytes, msg.src as u64);
        RecvInfo {
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
            value: msg.value,
            completed_at: self.clock,
        }
    }

    /// Combined send+recv (exchange pattern used by stencil codes). A yield
    /// point: the send half runs on the first poll only.
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_bytes: u64,
        src: usize,
        tag: i64,
        value: i64,
    ) -> Poll<RecvInfo> {
        if self.comm.pending.is_none() {
            self.send(dest, send_bytes, tag, value);
        }
        self.recv(src, tag)
    }

    /// Rendezvous on the world slot for `op`. The first call latches the
    /// arrival and yields — even the last arriver: the scheduler registers
    /// the arrival when it commits the yield and completes the rendezvous
    /// only after the whole dispatch phase has committed, so same-instant
    /// ranks can never be stranded by a completion racing their
    /// registration. The retry applies the result the scheduler handed
    /// over.
    fn collective(
        &mut self,
        op: CollectiveOp,
        bytes: u64,
        value: i64,
        is_root: bool,
    ) -> Poll<CollectiveResult> {
        match self.comm.pending {
            None => {
                self.failstop_check();
                let start = self.clock;
                let entry = CollectiveEntry {
                    op,
                    bytes,
                    at: self.clock + MPI_CALL_OVERHEAD,
                    value,
                    is_root,
                };
                self.comm.pending = Some(PendingOp::Collective { start, entry });
                Poll::Pending
            }
            Some(PendingOp::Collective { start, entry }) => {
                let Some(Wake::Collective(res)) = self.comm.wake.take() else {
                    return Poll::Pending;
                };
                self.comm.pending = None;
                self.clock = res.exit;
                self.stats.mpi_time += self.clock - start;
                self.stats.collectives += 1;
                if res.missing > 0 {
                    self.stats.shrunk_collectives += 1;
                }
                let name = collective_name(entry.op);
                self.trace_span(Category::MPI, name, start, entry.bytes, 0);
                Poll::Ready(res)
            }
            Some(other) => self.resumed_into_wrong_op(other),
        }
    }

    /// Barrier across all ranks. A yield point.
    pub fn barrier(&mut self) -> Poll<()> {
        self.collective(CollectiveOp::Barrier, 0, 0, false)
            .map(|_| ())
    }

    /// Broadcast `value` (and `bytes` of modelled payload) from `root`. A
    /// yield point.
    pub fn bcast(&mut self, root: usize, bytes: u64, value: i64) -> Poll<i64> {
        let is_root = self.rank == root;
        self.collective(CollectiveOp::Bcast, bytes, value, is_root)
            .map(|r| r.value)
    }

    /// All-reduce: the sum of every rank's `value`. A yield point.
    pub fn allreduce(&mut self, bytes: u64, value: i64) -> Poll<i64> {
        self.collective(CollectiveOp::Allreduce, bytes, value, false)
            .map(|r| r.value)
    }

    /// Reduce (sum) to `root`; every rank gets the value back (the
    /// simulator does not model the asymmetry of who holds the result). A
    /// yield point.
    pub fn reduce(&mut self, root: usize, bytes: u64, value: i64) -> Poll<i64> {
        let is_root = self.rank == root;
        self.collective(CollectiveOp::Reduce, bytes, value, is_root)
            .map(|r| r.value)
    }

    /// All-gather with `bytes` contributed per rank. A yield point.
    pub fn allgather(&mut self, bytes: u64) -> Poll<()> {
        self.collective(CollectiveOp::Allgather, bytes, 0, false)
            .map(|_| ())
    }

    /// Personalized all-to-all exchange with `bytes` per rank pair. A yield
    /// point.
    pub fn alltoall(&mut self, bytes: u64) -> Poll<()> {
        self.collective(CollectiveOp::Alltoall, bytes, 0, false)
            .map(|_| ())
    }

    /// Read `bytes` from the parallel filesystem.
    pub fn io_read(&mut self, bytes: u64) {
        self.failstop_check();
        let start = self.clock;
        let d = self.cluster.io_cost(bytes, self.clock);
        self.clock += d;
        self.stats.io_time += d;
        self.stats.io_calls += 1;
        self.trace_span(Category::MPI, "io_read", start, bytes, 0);
    }

    /// Write `bytes` to the parallel filesystem.
    pub fn io_write(&mut self, bytes: u64) {
        self.failstop_check();
        let start = self.clock;
        let d = self.cluster.io_cost(bytes, self.clock);
        self.clock += d;
        self.stats.io_time += d;
        self.stats.io_calls += 1;
        self.trace_span(Category::MPI, "io_write", start, bytes, 0);
    }
}
